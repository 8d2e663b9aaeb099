"""Per-graph statistics catalog: the cost model's input.

The planner's matching-order heuristic (:func:`repro.plan.planner
._matching_order`) looks only at the *pattern* — degree and
connectivity — and is blind to how labels are distributed in the data
graph.  On skewed graphs that blindness is expensive: anchoring the
search at a frequent hub label instead of a rare label can inflate the
candidate stream by orders of magnitude.  A :class:`GraphCatalog` is the
per-graph summary the cost model (:mod:`repro.plan.cost`) prices orders
against:

* **label frequencies** — how many vertices carry each label (a step-0
  pool size is exactly a label frequency);
* **degree histogram + quantiles** — the graph's degree shape (reported
  by ``describe()``; the quantiles make skew visible at a glance);
* **directed label-pair edge counts** — ``pair_counts[(a, b)]`` is the
  number of edge *endpoints* seen as "a vertex labeled ``a`` with a
  neighbor labeled ``b``" (each undirected edge contributes both
  orientations), so ``pair_counts[(a, b)] / frequency(a)`` is the
  expected number of ``b``-labeled neighbors of an ``a``-labeled vertex;
* **per-label average degree** — the expected anchor-row size when a
  candidate pool is drawn from an ``a``-labeled vertex's adjacency;
* **label triples** — the distinct ``(vertex label, edge label, vertex
  label)`` alphabet, both orientations: the same set
  :func:`repro.plan.fsm_guide.label_triples` scans the edge list for,
  carried here so level-wise FSM candidate generation reuses the cached
  catalog instead of re-walking the edges per run.

A catalog is **plain derived data**: building it twice from the same
graph yields equal catalogs (pinned by the determinism tests), it is
pickle-safe for the process backend, and sessions cache one per graph
variant (``Miner.cache_info().catalog_builds/catalog_hits``).
"""

from __future__ import annotations

from typing import Mapping

from ..graph import LabeledGraph

#: Degree quantiles reported by :meth:`GraphCatalog.degree_quantiles`
#: (fractions of the sorted degree sequence, min..max).
_QUANTILES = (0.0, 0.25, 0.5, 0.75, 0.9, 1.0)


class GraphCatalog:
    """Immutable statistics summary of one :class:`LabeledGraph`.

    Attributes are plain dicts/tuples (picklable, comparable); build via
    :func:`build_catalog`.  All mappings are insertion-ordered by sorted
    key, so two catalogs of the same graph are equal *and* serialize
    byte-identically.
    """

    __slots__ = (
        "num_vertices",
        "num_edges",
        "label_frequency",
        "degree_histogram",
        "degree_quantiles",
        "pair_counts",
        "average_degree_by_label",
        "triples",
    )

    def __init__(
        self,
        num_vertices: int,
        num_edges: int,
        label_frequency: Mapping[int, int],
        degree_histogram: Mapping[int, int],
        degree_quantiles: tuple[int, ...],
        pair_counts: Mapping[tuple[int, int], int],
        average_degree_by_label: Mapping[int, float],
        triples: frozenset[tuple[int, int, int]],
    ) -> None:
        self.num_vertices = num_vertices
        self.num_edges = num_edges
        self.label_frequency = dict(label_frequency)
        self.degree_histogram = dict(degree_histogram)
        self.degree_quantiles = tuple(degree_quantiles)
        self.pair_counts = dict(pair_counts)
        self.average_degree_by_label = dict(average_degree_by_label)
        self.triples = frozenset(triples)

    # ------------------------------------------------------------------
    # Selectivity primitives (the cost model's vocabulary)
    # ------------------------------------------------------------------
    def frequency(self, label: int) -> int:
        """Number of vertices carrying ``label`` (0 when absent)."""
        return self.label_frequency.get(label, 0)

    def fan_out(self, from_label: int, to_label: int) -> float:
        """Expected number of ``to_label``-labeled neighbors of a vertex
        labeled ``from_label`` (0.0 when either label is absent)."""
        freq = self.frequency(from_label)
        if freq == 0:
            return 0.0
        return self.pair_counts.get((from_label, to_label), 0) / freq

    def closure_probability(self, label_a: int, label_b: int) -> float:
        """Estimated probability that a random ``a``-labeled and a random
        ``b``-labeled vertex are adjacent (independence assumption,
        capped at 1.0) — the price of one extra back-edge in a
        selectivity chain."""
        fa, fb = self.frequency(label_a), self.frequency(label_b)
        if fa == 0 or fb == 0:
            return 0.0
        return min(1.0, self.pair_counts.get((label_a, label_b), 0) / (fa * fb))

    def anchor_degree(self, label: int) -> float:
        """Expected adjacency-row size of a ``label``-labeled anchor —
        what one candidate pool drawn from such an anchor costs."""
        return self.average_degree_by_label.get(label, 0.0)

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GraphCatalog):
            return NotImplemented
        return all(
            getattr(self, slot) == getattr(other, slot)
            for slot in GraphCatalog.__slots__
        )

    def __hash__(self) -> int:  # catalogs are values; allow set/dict use
        return hash(
            (
                self.num_vertices,
                self.num_edges,
                tuple(sorted(self.label_frequency.items())),
                tuple(sorted(self.pair_counts.items())),
            )
        )

    def __getstate__(self):
        return {slot: getattr(self, slot) for slot in GraphCatalog.__slots__}

    def __setstate__(self, state) -> None:
        for slot in GraphCatalog.__slots__:
            setattr(self, slot, state[slot])

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (
            f"GraphCatalog(V={self.num_vertices}, E={self.num_edges}, "
            f"labels={len(self.label_frequency)})"
        )

    def describe(self) -> str:
        """One-line human-readable summary (CLI / explain reports)."""
        quantiles = "/".join(str(q) for q in self.degree_quantiles)
        return (
            f"V={self.num_vertices} E={self.num_edges}"
            f" labels={len(self.label_frequency)}"
            f" degree[min/p25/p50/p75/p90/max]={quantiles}"
            f" pairs={len(self.pair_counts)}"
        )


def build_catalog(graph: LabeledGraph) -> GraphCatalog:
    """One pass over ``graph``: its deterministic :class:`GraphCatalog`.

    O(V + E); sessions build it once per graph variant and cache it, so
    plan compilation never re-scans the graph.
    """
    frequency: dict[int, int] = {}
    degree_sum_by_label: dict[int, int] = {}
    degree_histogram: dict[int, int] = {}
    degrees = []
    for v in range(graph.num_vertices):
        label = graph.vertex_label(v)
        degree = graph.degree(v)
        frequency[label] = frequency.get(label, 0) + 1
        degree_sum_by_label[label] = degree_sum_by_label.get(label, 0) + degree
        degree_histogram[degree] = degree_histogram.get(degree, 0) + 1
        degrees.append(degree)
    degrees.sort()

    pair_counts: dict[tuple[int, int], int] = {}
    triples: set[tuple[int, int, int]] = set()
    for eid, u, v in graph.edge_iter():
        lu, lv = graph.vertex_label(u), graph.vertex_label(v)
        le = graph.edge_label(eid)
        pair_counts[(lu, lv)] = pair_counts.get((lu, lv), 0) + 1
        pair_counts[(lv, lu)] = pair_counts.get((lv, lu), 0) + 1
        triples.add((lu, le, lv))
        triples.add((lv, le, lu))

    if degrees:
        last = len(degrees) - 1
        quantiles = tuple(degrees[round(q * last)] for q in _QUANTILES)
    else:
        quantiles = tuple(0 for _ in _QUANTILES)

    return GraphCatalog(
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
        label_frequency=dict(sorted(frequency.items())),
        degree_histogram=dict(sorted(degree_histogram.items())),
        degree_quantiles=quantiles,
        pair_counts=dict(sorted(pair_counts.items())),
        average_degree_by_label={
            label: degree_sum_by_label[label] / count
            for label, count in sorted(frequency.items())
        },
        triples=frozenset(triples),
    )
