#!/usr/bin/env python
"""Dense-community detection in a social network via clique mining.

The paper lists "dense subgraph mining for community and link spam
detection in web data" among its motivating applications (section 1).  A
classic technique is clique percolation: communities are unions of
adjacent k-cliques (cliques sharing k-1 vertices).  This example

1. builds a social network with planted communities,
2. enumerates all triangles and 4-cliques with the Arabesque engine,
3. runs clique percolation on the 4-cliques, and
4. checks the recovered communities against the planted ones.

It also demonstrates distributed-execution introspection: the same mining
job is "run" at several worker counts and the simulated makespans printed.
"""

import itertools
import random

from repro.bsp import CostModel
from repro.graph import GraphBuilder
from repro.session import Miner


def planted_communities(
    num_communities: int = 6,
    size: int = 12,
    p_in: float = 0.6,
    p_out: float = 0.01,
    seed: int = 3,
):
    """A planted-partition graph: dense blocks, sparse background."""
    rng = random.Random(seed)
    builder = GraphBuilder()
    # GraphBuilder addresses vertices by *key*: use (community, index) keys
    # for edges and record the dense ids for the ground truth.
    members = {}
    keys = []
    for community in range(num_communities):
        for index in range(size):
            key = (community, index)
            vid = builder.add_vertex(key, 0)
            members.setdefault(community, set()).add(vid)
            keys.append(key)
    for ku, kv in itertools.combinations(keys, 2):
        same = ku[0] == kv[0]
        if rng.random() < (p_in if same else p_out):
            builder.add_edge(ku, kv)
    return builder.build(name="social-planted"), members


def clique_percolation(cliques: list[tuple[int, ...]], k: int) -> list[set[int]]:
    """Union k-cliques that share k-1 vertices into communities."""
    parent = list(range(len(cliques)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    by_face: dict[frozenset[int], list[int]] = {}
    for index, clique in enumerate(cliques):
        for face in itertools.combinations(clique, k - 1):
            by_face.setdefault(frozenset(face), []).append(index)
    for indices in by_face.values():
        for a, b in zip(indices, indices[1:]):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
    groups: dict[int, set[int]] = {}
    for index, clique in enumerate(cliques):
        groups.setdefault(find(index), set()).update(clique)
    return sorted(groups.values(), key=len, reverse=True)


def main() -> None:
    graph, planted = planted_communities()
    print(f"network: {graph.num_vertices} people, {graph.num_edges} ties, "
          f"{len(planted)} planted communities")

    # One session for the whole analysis: the worker-count sweep below
    # reuses the session's cached step-0 state instead of re-deriving it.
    miner = Miner(graph)
    by_size = miner.cliques(max_size=4, min_size=3).run().by_size()
    print(f"triangles: {len(by_size.get(3, [])):,}   "
          f"4-cliques: {len(by_size.get(4, [])):,}")

    communities = clique_percolation(by_size.get(4, []), k=4)
    print(f"\nclique-percolation communities (k=4): {len(communities)}")
    recovered = 0
    for community in communities:
        best = max(
            planted.values(),
            key=lambda vs: len(community & vs) / len(vs | community),
        )
        jaccard = len(community & best) / len(community | best)
        if jaccard > 0.5:
            recovered += 1
        print(f"  {len(community):>3} members, best-match Jaccard {jaccard:.2f}")
    print(f"recovered {recovered}/{len(planted)} planted communities")

    print("\nsimulated distributed execution of the same mining job:")
    for workers in (1, 4, 16):
        run = (
            miner.cliques(max_size=4, min_size=3)
            .workers(workers).collect(False).run()
        )
        print(f"  {workers:>2} workers: simulated makespan "
              f"{CostModel().makespan(run.raw):.4f}s, "
              f"{run.raw.total_messages:,} messages")


if __name__ == "__main__":
    main()
