"""Correctness oracles written in the benchmark, over plain adjacency sets.

They read the same edge-list file the program reads but share no code with
it, so a wrong count in ``src/`` cannot also be wrong here.  The in-repo
centralized baselines (ESU, GraMi, Bron–Kerbosch) are the second opinion
and live in :mod:`ladder` next to their timings.
"""

from __future__ import annotations

from itertools import combinations
from pathlib import Path


def load_adjacency(path: str | Path) -> tuple[list[int], list[set[int]]]:
    """``(vertex labels, neighbor sets)`` parsed from an edge-list file
    whose vertices are the dense ids :mod:`inputs` writes."""
    labels: dict[int, int] = {}
    edges: list[tuple[int, int]] = []
    for line in Path(path).read_text().splitlines():
        parts = line.split()
        if not parts or parts[0] == "#":
            continue
        if parts[0] == "v":
            labels[int(parts[1])] = int(parts[2])
        else:
            edges.append((int(parts[0]), int(parts[1])))
    adjacency: list[set[int]] = [set() for _ in labels]
    for u, v in edges:
        adjacency[u].add(v)
        adjacency[v].add(u)
    return [labels[v] for v in range(len(labels))], adjacency


def motif3_counts(labels: list[int], adjacency: list[set[int]],
                  labeled: bool) -> dict[tuple, int]:
    """Vertex-induced 3-vertex motif counts.

    Keys are ``("wedge", center label, sorted end labels)`` and
    ``("triangle", sorted labels)``; with ``labeled=False`` every label
    reads 0, leaving the two structural motifs.
    """
    def label_of(v: int) -> int:
        return labels[v] if labeled else 0

    counts: dict[tuple, int] = {}
    for center, neighbors in enumerate(adjacency):
        for a, b in combinations(sorted(neighbors), 2):
            if b in adjacency[a]:
                if center < a:  # a < b already: count each triangle once
                    key = ("triangle", tuple(sorted(
                        (label_of(center), label_of(a), label_of(b)))))
                    counts[key] = counts.get(key, 0) + 1
            else:
                key = ("wedge", label_of(center),
                       tuple(sorted((label_of(a), label_of(b)))))
                counts[key] = counts.get(key, 0) + 1
    return counts


def pattern_key(vertex_labels, edges) -> tuple:
    """The :func:`motif3_counts` key of a 3-vertex pattern given as
    ``(vertex labels, (i, j, edge label) triples)``."""
    if len(edges) == 3:
        return ("triangle", tuple(sorted(vertex_labels)))
    degree = [0, 0, 0]
    for i, j, _ in edges:
        degree[i] += 1
        degree[j] += 1
    center = degree.index(2)
    ends = tuple(sorted(vertex_labels[v] for v in range(3) if v != center))
    return ("wedge", vertex_labels[center], ends)


def induced_square_count(adjacency: list[set[int]]) -> int:
    """Chordless 4-cycles: a non-adjacent pair ``u, w`` closes one square
    with every non-adjacent pair of their common neighbors; each square is
    found from both of its diagonals."""
    twice = 0
    for u, w in combinations(range(len(adjacency)), 2):
        if w in adjacency[u]:
            continue
        common = sorted(adjacency[u] & adjacency[w])
        twice += sum(1 for a, b in combinations(common, 2)
                     if b not in adjacency[a])
    return twice // 2


def clique_counts(adjacency: list[set[int]], max_size: int) -> dict[int, int]:
    """Number of cliques of every size ``1..max_size``."""
    counts = {1: len(adjacency)}
    frontier = [((v,), {u for u in adjacency[v] if u > v})
                for v in range(len(adjacency))]
    for size in range(2, max_size + 1):
        grown = []
        for clique, candidates in frontier:
            for v in candidates:
                grown.append((clique + (v,),
                              {u for u in candidates & adjacency[v] if u > v}))
        counts[size] = len(grown)
        frontier = grown
    return counts


def single_edge_supports(labels: list[int],
                         adjacency: list[set[int]]) -> dict[tuple[int, int], int]:
    """MNI support of every one-edge pattern ``(label a <= label b)``: the
    smaller of the two endpoint domains (one shared domain when a == b)."""
    domains: dict[tuple[int, int], tuple[set[int], set[int]]] = {}
    for u, neighbors in enumerate(adjacency):
        for v in neighbors:
            a, b = labels[u], labels[v]
            if a <= b:
                left, right = domains.setdefault((a, b), (set(), set()))
                left.add(u)
                (left if a == b else right).add(v)
    return {
        pair: len(left) if pair[0] == pair[1] else min(len(left), len(right))
        for pair, (left, right) in domains.items()
    }
