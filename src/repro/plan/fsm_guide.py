"""Candidate-batch DAG compilation and MNI domains for plan-guided FSM.

GraMi pairs level-wise candidate generation with a per-pattern CSP/VFLib
matcher; this module is the same pairing for the planner subsystem: each
level's candidate patterns are compiled into one monomorphic multi-query
:class:`~repro.plan.dag.PlanDAG` (one member
:class:`~repro.plan.planner.MatchingPlan` per candidate) and their
embeddings are discovered through the guided-candidate runtime path,
with minimum-node-image domains accumulated directly from guided matches
— no full embedding store is materialized and re-aggregated.

Invariants this module relies on (and preserves):

* **one word sequence per occurrence** — the plan's symmetry-breaking
  restrictions generate exactly one representative per automorphism
  class of monomorphisms, so the per-position image sets built here are
  representative images only; :func:`mni_support_from_domains` folds the
  canonical pattern's automorphism orbits at read time, which restores
  the full "any automorphism of e" clause of the MNI definition (every
  monomorphism is a representative composed with an automorphism, and
  automorphisms permute positions within orbits);
* **canonical candidate keying** — candidates are always canonical
  patterns (:func:`single_edge_candidates` / :func:`one_edge_extensions`
  canonicalize and deduplicate), so a plan cache keyed by canonical
  pattern (e.g. the session's, via ``Miner._plan_for``) never compiles
  the same candidate twice across generations or repeated runs;
* **monomorphic semantics** — edge-based FSM embeddings are edge sets,
  i.e. monomorphism images, so candidate plans are compiled with
  ``induced=False`` (extra graph edges between matched vertices are
  allowed; they belong to a different candidate's edge set).

Candidate generation here is deliberately an independent implementation
of the same level-wise pattern growth the GraMi baseline uses
(:mod:`repro.baselines.grami`) — the equivalence tests compare the two,
so sharing code would make the comparison partly circular.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from ..core.pattern import Pattern
from ..graph import LabeledGraph
from ..graph.bitset import to_bitset
from .dag import PlanDAG, build_plan_dag
from .planner import MatchingPlan, PlanError

#: A plan-DAG source for a whole level's candidate batch (canonical
#: patterns, deterministic order).  The default compiles fresh with a
#: per-run memo; a session passes its cross-query DAG cache so repeated
#: runs recompile nothing.
DagProvider = Callable[[tuple[Pattern, ...]], PlanDAG]


def compile_candidate_dag(
    patterns: tuple[Pattern, ...], *, catalog=None
) -> PlanDAG:
    """Compile one FSM level's candidate batch into a shared-prefix DAG.

    Every member must be canonical (candidates from this module always
    are — DAG caches key by the canonical batch); the DAG uses
    monomorphic semantics, matching edge-based FSM embedding semantics.
    ``catalog`` enables the jointly-costed harmonized order search
    (:func:`repro.plan.dag.build_plan_dag`).
    """
    for pattern in patterns:
        if not pattern.is_canonical():
            raise PlanError(
                "FSM candidate DAGs are cached by canonical pattern batch; "
                "canonicalize the candidates before compiling"
            )
    return build_plan_dag(patterns, induced=False, catalog=catalog)


def default_dag_provider() -> DagProvider:
    """A memoizing :data:`DagProvider` for one driver run (no session)."""
    memo: dict[tuple[Pattern, ...], PlanDAG] = {}

    def provide(patterns: tuple[Pattern, ...]) -> PlanDAG:
        dag = memo.get(patterns)
        if dag is None:
            dag = compile_candidate_dag(patterns)
            memo[patterns] = dag
        return dag

    return provide


# ----------------------------------------------------------------------
# Level-wise candidate generation (pattern growth over label triples)
# ----------------------------------------------------------------------
def label_triples(
    graph: LabeledGraph, *, catalog=None
) -> set[tuple[int, int, int]]:
    """Distinct ``(vertex label, edge label, vertex label)`` triples
    present in the graph, both orientations — the alphabet any frequent
    pattern's edges must be drawn from.  ``catalog`` (a
    :class:`~repro.plan.stats.GraphCatalog` of the same graph) answers
    from the cached statistics instead of re-walking the edge list —
    the catalog records exactly this set."""
    if catalog is not None:
        return set(catalog.triples)
    triples: set[tuple[int, int, int]] = set()
    for eid, u, v in graph.edge_iter():
        lu, lv = graph.vertex_label(u), graph.vertex_label(v)
        le = graph.edge_label(eid)
        triples.add((lu, le, lv))
        triples.add((lv, le, lu))
    return triples


def _sorted_candidates(patterns: Iterable[Pattern]) -> list[Pattern]:
    """Deterministic evaluation order (keeps runs byte-identical)."""
    return sorted(set(patterns), key=lambda p: (p.vertex_labels, p.edges))


def single_edge_candidates(graph: LabeledGraph) -> list[Pattern]:
    """Level-1 candidates: one canonical single-edge pattern per distinct
    label triple class of the graph."""
    return _sorted_candidates(
        Pattern((lu, lv), ((0, 1, le),)).canonical()
        for lu, le, lv in label_triples(graph)
    )


def single_edge_domains(
    graph: LabeledGraph,
) -> list[tuple[Pattern, list[int]]]:
    """Level-1 evaluation in closed form: one pass over the edges.

    A single-edge pattern's matches are exactly the edges of its label
    triple class, so its *full* per-position image masks (both
    orientations — no symmetry restriction to fold back) fall out of one
    edge scan; running the guided engine per triple class would cost a
    step-0 pool scan plus a neighborhood walk per class for the same
    answer.  Returns ``(canonical pattern, per-position image bitsets)``
    in deterministic candidate order.
    """
    domains: dict[Pattern, list[int]] = {}
    for eid, u, v in graph.edge_iter():
        le = graph.edge_label(eid)
        for a, b in ((u, v), (v, u)):
            quick = Pattern(
                (graph.vertex_label(a), graph.vertex_label(b)), ((0, 1, le),)
            )
            canonical, mapping = quick.canonical_mapping()
            masks = domains.get(canonical)
            if masks is None:
                masks = [0, 0]
                domains[canonical] = masks
            masks[mapping[0]] |= 1 << a
            masks[mapping[1]] |= 1 << b
    return sorted(
        domains.items(), key=lambda item: (item[0].vertex_labels, item[0].edges)
    )


def one_edge_extensions_with_maps(
    pattern: Pattern, triples: set[tuple[int, int, int]]
) -> list[tuple[Pattern, tuple[int, ...]]]:
    """Canonical one-edge extensions of ``pattern``, with provenance.

    Two growth moves, as in level-wise pattern mining: attach a new
    vertex to an existing position, or close an edge between two
    existing positions.  Each result pairs the canonical extension ``Q``
    with the *parent map*: position ``i`` of the map is the ``Q`` vertex
    that parent vertex ``i`` became under canonicalization.  The same
    ``Q`` can arise through several moves/maps; every pair is returned
    (deduplicated), because each map independently justifies a
    domain push-down and their restrictions may be intersected.
    """
    k = pattern.num_vertices
    existing = {(i, j) for i, j, _ in pattern.edges}
    edge_labels = {le for _, le, _ in triples}
    results: set[tuple[Pattern, tuple[int, ...]]] = set()

    def grow(vertex_labels, edges) -> None:
        canonical, mapping = Pattern(vertex_labels, edges).canonical_mapping()
        results.add((canonical, mapping[:k]))

    for i in range(k):
        anchor_label = pattern.vertex_labels[i]
        for lu, le, lv in triples:
            if lu != anchor_label:
                continue
            grow(
                pattern.vertex_labels + (lv,),
                tuple(sorted(pattern.edges + ((i, k, le),))),
            )
    for i in range(k):
        for j in range(i + 1, k):
            if (i, j) in existing:
                continue
            li, lj = pattern.vertex_labels[i], pattern.vertex_labels[j]
            for le in edge_labels:
                if (li, le, lj) not in triples:
                    continue
                grow(
                    pattern.vertex_labels,
                    tuple(sorted(pattern.edges + ((i, j, le),))),
                )
    return sorted(results, key=lambda qm: (qm[0].vertex_labels, qm[0].edges, qm[1]))


def one_edge_extensions(
    pattern: Pattern, triples: set[tuple[int, int, int]]
) -> list[Pattern]:
    """All canonical one-edge extensions of ``pattern`` consistent with
    the graph's label triples (deduplicated, provenance dropped)."""
    return _sorted_candidates(
        q for q, _ in one_edge_extensions_with_maps(pattern, triples)
    )


def connected_subpatterns_one_edge_removed(pattern: Pattern) -> list[Pattern]:
    """Canonical connected subpatterns of ``pattern`` with one edge less.

    Removing an edge may isolate a (then dropped) endpoint; removals
    that disconnect the pattern are skipped — connected exploration can
    only ever reason about connected subpatterns.  This is the Apriori
    check's enumeration: a candidate is viable only if *every* such
    subpattern is frequent (MNI anti-monotonicity).
    """
    subpatterns: set[Pattern] = set()
    for removed in range(pattern.num_edges):
        edges = tuple(
            e for index, e in enumerate(pattern.edges) if index != removed
        )
        degree = [0] * pattern.num_vertices
        for i, j, _ in edges:
            degree[i] += 1
            degree[j] += 1
        keep = [v for v in range(pattern.num_vertices) if degree[v] > 0]
        if not keep:
            continue
        reindex = {old: new for new, old in enumerate(keep)}
        sub = Pattern(
            tuple(pattern.vertex_labels[v] for v in keep),
            tuple(sorted((reindex[i], reindex[j], le) for i, j, le in edges)),
        )
        if sub.is_connected():
            subpatterns.add(sub.canonical())
    return _sorted_candidates(subpatterns)


def has_infrequent_subpattern(
    pattern: Pattern, frequent: "set[Pattern] | dict[Pattern, int]"
) -> bool:
    """Apriori viability check against the previous level's frequent set."""
    return any(
        sub not in frequent
        for sub in connected_subpatterns_one_edge_removed(pattern)
    )


# ----------------------------------------------------------------------
# MNI domain extraction from guided matches
# ----------------------------------------------------------------------
def domain_sets_from_matches(
    plan: MatchingPlan, matches: Iterable[tuple[int, ...]]
) -> list[int]:
    """Per-pattern-position image bitsets from full guided word sequences.

    ``matches`` are plan-ordered words (what the guided runtime stores);
    position ``i`` of the result is the bitset of graph vertices matched
    to pattern vertex ``i`` of ``plan.pattern`` across the given matches.
    The guided FSM computation maps the same thing match by match
    (:func:`repro.plan.guided.match_mapping`); tests use this as a
    micro-oracle.  Transposed: one pack per plan position, not one
    mapping per match.
    """
    columns = tuple(zip(*matches, strict=True))
    if columns and len(columns) != plan.num_steps:
        raise ValueError(f"expected full matches of {plan.num_steps} words")
    masks = [0] * plan.num_steps
    for vertex, column in zip(plan.order, columns):
        masks[vertex] = to_bitset(column)
    return masks


def mni_support_from_domains(
    domain_sets: Sequence[Iterable[int] | int], orbits: Sequence[int]
) -> int:
    """MNI support of orbit-folded representative domains (bitsets, or
    iterables of vertex ids).

    Guided matches are symmetry-unique representatives, so each orbit's
    effective domain is the union over its positions — exactly the
    missing automorphism images (see the module docstring).  Delegates
    to :meth:`repro.apps.support.Domain.support`, the one home of the
    fold (imported lazily: ``apps`` imports ``plan`` at module load).
    """
    from ..apps.support import Domain

    return Domain(domain_sets).support(orbits)
