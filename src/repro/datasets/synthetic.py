"""Synthetic equivalents of the paper's six evaluation graphs (Table 1).

The paper's datasets are either too large for pure-Python enumeration
(MiCo, Patents, Youtube, Instagram), proprietary (SN), or both; per
docs/architecture.md (substitution 2) each is replaced by a seeded
generator matching its label count, density, and degree-distribution family,
with a ``scale`` knob.  CiteSeer is small enough to generate at full scale.

| graph      | paper V / E / labels / avg deg | family      | default scale |
|------------|--------------------------------|-------------|---------------|
| CiteSeer   | 3,312 / 4,732 / 6 / 2.8        | scale-free  | 1.0 (full)    |
| MiCo       | 100k / 1.08M / 29 / 21.6       | scale-free  | 0.03          |
| Patents    | 2.75M / 14.0M / 37 / 10        | scale-free  | 0.002         |
| Youtube    | 4.59M / 44.0M / 80 / 19        | scale-free  | 0.001         |
| SN         | 5.02M / 198.6M / - / 79        | near-regular| 0.0004        |
| Instagram  | 179.5M / 887.4M / - / 9.8      | scale-free  | 1/30000       |

SN additionally downscales its average degree (79 -> ~20): density is what
drives its embedding explosion, and a 2k-vertex graph at degree 79 would be
nearly complete, which changes the mining behaviour rather than preserving
it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..graph import LabeledGraph, assign_labels, random_regularish_graph


def scale_free_graph(
    num_vertices: int,
    num_edges: int,
    seed: int = 0,
    name: str = "scale-free",
) -> LabeledGraph:
    """Preferential attachment with a fractional edges-per-vertex rate.

    Hits ``num_edges`` (approximately: collisions are dropped) while keeping
    the heavy-tailed degree distribution of citation/social graphs — the
    property behind the paper's TLV hotspot findings.
    """
    if num_vertices < 2:
        raise ValueError("need at least 2 vertices")
    rng = random.Random(seed)
    edges: set[tuple[int, int]] = {(0, 1)}
    repeated: list[int] = [0, 1]
    placed = 2 * (num_edges - 1)
    rate = max(placed, 0) / max(num_vertices - 2, 1) / 2 if num_vertices > 2 else 0

    def attach(v: int, count: int) -> None:
        targets: set[int] = set()
        attempts = 0
        while len(targets) < count and attempts < 20 * count:
            attempts += 1
            u = rng.choice(repeated)
            if u != v:
                targets.add(u)
        for u in targets:
            key = (u, v) if u < v else (v, u)
            if key not in edges:
                edges.add(key)
                repeated.append(u)
                repeated.append(v)

    whole = int(rate)
    fraction = rate - whole
    for v in range(2, num_vertices):
        count = whole + (1 if rng.random() < fraction else 0)
        attach(v, max(count, 1))
    return LabeledGraph([0] * num_vertices, sorted(edges), name=name)


def citeseer_like(scale: float = 1.0, seed: int = 42) -> LabeledGraph:
    """CiteSeer: publications with CS-area labels, citation edges."""
    n = max(int(3312 * scale), 8)
    m = max(int(4732 * scale), 8)
    graph = scale_free_graph(n, m, seed=seed, name="citeseer-like")
    return assign_labels(graph, 6, seed=seed + 1, skew=0.6)


def mico_like(scale: float = 0.03, seed: int = 43) -> LabeledGraph:
    """MiCo: co-authorship with field-of-interest labels, dense core."""
    n = max(int(100_000 * scale), 16)
    m = max(int(1_080_298 * scale), 32)
    graph = scale_free_graph(n, m, seed=seed, name="mico-like")
    return assign_labels(graph, 29, seed=seed + 1, skew=0.7)


def patents_like(scale: float = 0.002, seed: int = 44) -> LabeledGraph:
    """Patents: citation network, grant-year labels (nearly uniform)."""
    n = max(int(2_745_761 * scale), 16)
    m = max(int(13_965_409 * scale), 32)
    graph = scale_free_graph(n, m, seed=seed, name="patents-like")
    return assign_labels(graph, 37, seed=seed + 1, skew=0.15)


def youtube_like(scale: float = 0.001, seed: int = 45) -> LabeledGraph:
    """Youtube: related-video graph, rating x length labels (skewed)."""
    n = max(int(4_589_876 * scale), 16)
    m = max(int(43_968_798 * scale), 32)
    graph = scale_free_graph(n, m, seed=seed, name="youtube-like")
    return assign_labels(graph, 80, seed=seed + 1, skew=0.8)


def sn_like(scale: float = 0.0004, seed: int = 46) -> LabeledGraph:
    """SN: dense unlabeled social network (degree downscaled with size)."""
    n = max(int(5_022_893 * scale), 32)
    degree = 20  # 79 at paper scale; see module docstring
    return random_regularish_graph(n, degree, seed=seed, name="sn-like")


def instagram_like(scale: float = 1 / 30_000, seed: int = 47) -> LabeledGraph:
    """Instagram: very large, sparse, unlabeled social network."""
    n = max(int(179_527_876 * scale), 32)
    m = max(int(887_390_802 * scale), 64)
    return scale_free_graph(n, m, seed=seed, name="instagram-like")


def skewed_label_graph(scale: float = 1.0, seed: int = 48) -> LabeledGraph:
    """Adversarial label-skew fixture for the cost-based planner.

    A scale-free "crowd" of frequent, high-degree label-0 vertices plus
    a small population of rare, degree-2 label-1 vertices hanging off
    hub-biased crowd endpoints.  A labeled query whose highest-degree
    pattern vertex carries the crowd label (e.g. a 1-0-1 wedge) defeats
    the pattern-only degree heuristic: it anchors the search at every
    crowd vertex and floods the candidate stream with crowd-crowd
    expansions, while the statistics catalog sees that the rare label's
    step-0 pool is ~15x smaller and anchors there instead.  The planner
    regression test and benchmark pin the resulting candidate gap.
    """
    rng = random.Random(seed)
    crowd = max(int(900 * scale), 30)
    rare = max(int(60 * scale), 6)
    base = scale_free_graph(crowd, crowd * 6, seed=seed, name="skewed-label")
    edges = [(u, v) for _, u, v in base.edge_iter()]
    # Hub-biased attachment: sampling edge endpoints picks a crowd vertex
    # proportionally to its degree, so rare vertices share crowd
    # neighbors often enough that 1-0-1 wedges actually occur.
    endpoints = [w for edge in edges for w in edge]
    for i in range(rare):
        v = crowd + i
        targets: set[int] = set()
        while len(targets) < 2:
            targets.add(rng.choice(endpoints))
        edges.extend((u, v) for u in sorted(targets))
    labels = [0] * crowd + [1] * rare
    return LabeledGraph(labels, sorted(edges), name="skewed-label")


#: Registry used by the benchmark harnesses.
DATASETS = {
    "citeseer": citeseer_like,
    "mico": mico_like,
    "patents": patents_like,
    "youtube": youtube_like,
    "sn": sn_like,
    "instagram": instagram_like,
    "skewed": skewed_label_graph,
}


@dataclass(frozen=True)
class DatasetStatistics:
    """One Table 1 row."""

    name: str
    vertices: int
    edges: int
    labels: int
    average_degree: float

    def row(self) -> str:
        labels = str(self.labels) if self.labels > 1 else "-"
        return (
            f"{self.name:<16} {self.vertices:>9,} {self.edges:>11,} "
            f"{labels:>6} {self.average_degree:>8.1f}"
        )


def dataset_statistics(graph: LabeledGraph) -> DatasetStatistics:
    """Compute the Table 1 row of a graph."""
    return DatasetStatistics(
        name=graph.name,
        vertices=graph.num_vertices,
        edges=graph.num_edges,
        labels=graph.num_vertex_labels,
        average_degree=graph.average_degree(),
    )


#: The paper's Table 1, for paper-vs-measured reporting.
PAPER_TABLE1 = {
    "citeseer": DatasetStatistics("CiteSeer", 3_312, 4_732, 6, 2.8),
    "mico": DatasetStatistics("MiCo", 100_000, 1_080_298, 29, 21.6),
    "patents": DatasetStatistics("Patents", 2_745_761, 13_965_409, 37, 10.0),
    "youtube": DatasetStatistics("Youtube", 4_589_876, 43_968_798, 80, 19.0),
    "sn": DatasetStatistics("SN", 5_022_893, 198_613_776, 0, 79.0),
    "instagram": DatasetStatistics("Instagram", 179_527_876, 887_390_802, 0, 9.8),
}
