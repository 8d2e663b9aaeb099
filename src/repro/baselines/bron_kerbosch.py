"""Centralized clique enumeration — the Mace substitute (paper, section 6).

The paper benchmarks its Cliques application against Mace [36], a highly
optimized C enumerator.  Two classic algorithms fill that role here:

* :func:`enumerate_cliques` — ordered extension: a clique ``v1 < ... < vk``
  is extended only by common neighbors larger than ``vk``, so every clique
  is produced exactly once.  This lists *all* cliques up to a size cap,
  matching what the Arabesque Cliques application outputs.
* :func:`enumerate_maximal_cliques` — Bron–Kerbosch with pivoting [8] on a
  degeneracy outer order, the standard for sparse real-world graphs
  (Eppstein–Strash [15]).
"""

from __future__ import annotations

from typing import Iterator

from ..graph import LabeledGraph
from ..graph.bitset import from_bitset, iter_bitset


def enumerate_cliques(
    graph: LabeledGraph, max_size: int | None = None
) -> Iterator[tuple[int, ...]]:
    """Yield every clique (size >= 1) as a sorted vertex tuple.

    Cliques are emitted in lexicographic order of their vertex tuples;
    each exactly once.
    """

    def grow(clique: tuple[int, ...], candidates: list[int]) -> Iterator[tuple[int, ...]]:
        yield clique
        if max_size is not None and len(clique) >= max_size:
            return
        for index, v in enumerate(candidates):
            neighbor_bits = graph.neighbor_bits(v)
            narrowed = [
                u for u in candidates[index + 1 :] if (neighbor_bits >> u) & 1
            ]
            yield from grow(clique + (v,), narrowed)

    for v in graph.vertices():
        later_neighbors = [u for u in graph.neighbors(v) if u > v]
        yield from grow((v,), later_neighbors)


def count_cliques_by_size(
    graph: LabeledGraph, max_size: int | None = None
) -> dict[int, int]:
    """Clique counts keyed by size (the Table 2/3 "Cliques" numbers)."""
    counts: dict[int, int] = {}
    for clique in enumerate_cliques(graph, max_size):
        counts[len(clique)] = counts.get(len(clique), 0) + 1
    return counts


def degeneracy_order(graph: LabeledGraph) -> list[int]:
    """Vertices in degeneracy (smallest-last) order via bucket peeling."""
    n = graph.num_vertices
    degrees = [graph.degree(v) for v in range(n)]
    max_degree = max(degrees, default=0)
    buckets: list[set[int]] = [set() for _ in range(max_degree + 1)]
    for v in range(n):
        buckets[degrees[v]].add(v)
    removed = [False] * n
    order: list[int] = []
    cursor = 0
    for _ in range(n):
        while cursor <= max_degree and not buckets[cursor]:
            cursor += 1
        v = min(buckets[cursor])  # deterministic tie-break
        buckets[cursor].discard(v)
        removed[v] = True
        order.append(v)
        for u in graph.neighbors(v):
            if not removed[u]:
                buckets[degrees[u]].discard(u)
                degrees[u] -= 1
                buckets[degrees[u]].add(u)
                if degrees[u] < cursor:
                    cursor = degrees[u]
    return order


def enumerate_maximal_cliques(graph: LabeledGraph) -> Iterator[frozenset[int]]:
    """Bron–Kerbosch with pivoting, outer loop in degeneracy order.

    Candidate/excluded sets are big-int bitsets: narrowing to a vertex's
    neighborhood is one ``&`` per recursion instead of a set
    intersection, the pivot scan counts overlap with ``bit_count``.
    """

    def pivot_expand(
        clique: list[int], candidates: int, excluded: int
    ) -> Iterator[frozenset[int]]:
        if not candidates and not excluded:
            yield frozenset(clique)
            return
        pivot = max(
            iter_bitset(candidates | excluded),
            key=lambda u: (candidates & graph.neighbor_bits(u)).bit_count(),
        )
        for v in from_bitset(candidates & ~graph.neighbor_bits(pivot)):
            neighbor_bits = graph.neighbor_bits(v)
            clique.append(v)
            yield from pivot_expand(
                clique, candidates & neighbor_bits, excluded & neighbor_bits
            )
            clique.pop()
            candidates &= ~(1 << v)
            excluded |= 1 << v

    order = degeneracy_order(graph)
    position = {v: i for i, v in enumerate(order)}
    for v in order:
        later = 0
        earlier = 0
        position_v = position[v]
        for u in graph.neighbors(v):
            if position[u] > position_v:
                later |= 1 << u
            else:
                earlier |= 1 << u
        yield from pivot_expand([v], later, earlier)

