#!/usr/bin/env python
"""Quickstart: mine a small graph through the `Miner` session facade.

One `Miner` session over the CiteSeer-scale synthetic dataset runs all
four bundled workloads — motif counting, clique finding, frequent
subgraph mining, and pattern matching — and prints the headline numbers
of each: a two-minute tour of the public API.

Usage::

    python examples/quickstart.py
"""

from repro.bsp import CostModel
from repro.datasets import citeseer_like
from repro.session import Miner


def describe_pattern(pattern) -> str:
    """Compact one-line rendering of a pattern."""
    edges = ", ".join(f"{i}-{j}" for i, j, _ in pattern.edges)
    return f"{pattern.num_vertices} vertices, edges [{edges}]"


def main() -> None:
    graph = citeseer_like()
    print(f"dataset: {graph.name} — {graph.num_vertices:,} vertices, "
          f"{graph.num_edges:,} edges, {graph.num_vertex_labels} labels")

    # One session per graph: repeated queries share cached step-0 state,
    # the stripped graph variant, and compiled matching plans.
    miner = Miner(graph)

    # ------------------------------------------------------------------
    # 1. Motif counting (vertex-based exhaustive exploration, unlabeled).
    # ------------------------------------------------------------------
    print("\n== motifs up to 3 vertices ==")
    motifs = miner.motifs(max_size=3).unlabeled().run()
    for pattern, count in sorted(
        motifs.counts().items(), key=lambda kv: -kv[1]
    ):
        print(f"  {describe_pattern(pattern):<40} x {count:,}")

    # ------------------------------------------------------------------
    # 2. Clique finding (vertex-based with local pruning).
    # ------------------------------------------------------------------
    print("\n== cliques up to 4 vertices ==")
    cliques = miner.cliques(max_size=4, min_size=3).unlabeled().run()
    for size, found in sorted(cliques.by_size().items()):
        print(f"  size {size}: {len(found):,} cliques "
              f"(e.g. {found[0] if found else '-'})")

    # ------------------------------------------------------------------
    # 3. Pattern matching (plan-guided by default; .exhaustive() opts out).
    # ------------------------------------------------------------------
    print("\n== every square, via the guided planner ==")
    squares = miner.match("square").unlabeled().run()
    print(f"  plan: {squares.plan.describe()}")
    print(f"  {squares.num_matches:,} squares from "
          f"{squares.total_candidates:,} candidates")

    # ------------------------------------------------------------------
    # 4. Frequent subgraph mining (edge-based with MNI support).
    # ------------------------------------------------------------------
    print("\n== frequent subgraphs (support >= 200, up to 3 edges) ==")
    fsm = miner.fsm(200, max_edges=3).collect(False).run()
    for pattern, support in sorted(
        fsm.patterns().items(), key=lambda kv: -kv[1]
    ):
        labels = "/".join(map(str, pattern.vertex_labels))
        print(f"  {describe_pattern(pattern):<40} labels {labels:<8} "
              f"support {support}")

    # ------------------------------------------------------------------
    # Every result view keeps the engine's full record as `.raw`.
    # ------------------------------------------------------------------
    print("\n== run statistics (FSM run above) ==")
    raw = fsm.raw
    print(f"  exploration steps:     {raw.num_steps}")
    print(f"  candidates generated:  {raw.total_candidates:,}")
    print(f"  embeddings processed:  {raw.total_processed:,}")
    print(f"  quick patterns seen:   {raw.quick_patterns}")
    print(f"  canonical patterns:    {raw.canonical_patterns}")
    # The simulated cluster is a reader of the same record: it prices the
    # per-worker work units and wire traffic every run meters.
    print(f"  simulated makespan:    {CostModel().makespan(raw):.3f}s "
          f"(1 worker; chain .workers(n) to partition)")
    info = miner.cache_info()
    print(f"  session cache:         {info.runs} runs, "
          f"{info.universe_builds} universe builds "
          f"({info.universe_hits} hits), "
          f"{info.plan_compilations} plan compilations")


if __name__ == "__main__":
    main()
