"""Frequent subgraph mining — Figure 4a of the paper, in two strategies.

**Exhaustive** (:class:`FrequentSubgraphMining`, the oracle): edge-based
exploration where ``process`` maps each embedding's domains to its
pattern's reducer, ``reduce`` merges domains, ``aggregation_filter``
drops embeddings whose pattern's minimum image-based support is below
the threshold, and ``aggregation_process`` outputs the embeddings of
frequent patterns.  One run covers every pattern at once, but the
exploration is pattern-agnostic: every embedding of every surviving
pattern is extended in every direction.

**Plan-guided** (:func:`run_guided_fsm`, the fast path): GraMi-style
level-wise pattern growth where each level's surviving candidates are
batched into ONE multi-query :class:`~repro.plan.dag.PlanDAG` (shared
prefix exploration with prefix-affine matching orders; parent-domain
whitelists pushed down per leaf via :func:`repro.plan.dag.restrict_dag`)
and evaluated in a single guided engine run per level:
:class:`DagPatternDomains` accumulates one
:class:`~repro.apps.support.Domain` per (match, accepting leaf), and the
aggregation channel demultiplexes the merged domains by leaf pattern —
no full embedding stores are materialized and no per-candidate engine
runs are paid.  Candidate generation, DAG compilation helpers, and the
orbit-folding support math live in :mod:`repro.plan.fsm_guide`.  Both
strategies return identical frequent patterns and supports; the session
facade (``Miner.fsm``) runs guided by default with ``.exhaustive()`` as
the opt-out.

Anti-monotonicity holds because MNI support never grows under extension
(:mod:`repro.apps.support`), so α-pruned subtrees (exhaustive) and
non-extended infrequent candidates (guided) can never hide a frequent
pattern.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from ..core.computation import Computation
from ..core.config import ArabesqueConfig
from ..core.embedding import (
    EDGE_EXPLORATION,
    VERTEX_EXPLORATION,
    Embedding,
)
from ..core.pattern import Pattern
from ..core.results import RunResult, StepStats
from ..core.storage import LIST_STORAGE
from ..graph import LabeledGraph
from ..plan.dag import PlanDAG, bound_stepper, restrict_dag
from ..plan.fsm_guide import (
    DagProvider,
    default_dag_provider,
    has_infrequent_subpattern,
    label_triples,
    one_edge_extensions_with_maps,
    single_edge_domains,
)
from ..plan.guided import match_mapping
from ..plan.planner import MatchingPlan
from .support import Domain


@dataclass(frozen=True)
class FrequentEmbedding:
    """One output row: an embedding of a frequent pattern."""

    pattern: Pattern
    edge_words: tuple[int, ...]
    support: int


class FrequentSubgraphMining(Computation):
    """FSM with MNI support on edge-induced embeddings.

    Parameters
    ----------
    support_threshold:
        The paper's θ: patterns with ``support >= support_threshold`` are
        frequent.
    max_edges:
        Optional cap on embedding size in edges (the paper's "MS": e.g.
        FSM-CiteSeer in Table 3 uses S=220, MS=7).  ``None`` explores until
        no pattern is frequent.
    """

    exploration_mode = EDGE_EXPLORATION

    def __init__(self, support_threshold: int, max_edges: int | None = None):
        super().__init__()
        if support_threshold < 1:
            raise ValueError("support_threshold must be >= 1")
        if max_edges is not None and max_edges < 1:
            raise ValueError("max_edges must be >= 1 when given")
        self.support_threshold = support_threshold
        self.max_edges = max_edges

    # -- φ and π ---------------------------------------------------------
    def filter(self, embedding: Embedding) -> bool:
        if self.max_edges is None:
            return True
        return embedding.num_edges <= self.max_edges

    def process(self, embedding: Embedding) -> None:
        self.map(self.pattern(embedding), Domain.from_embedding(embedding))

    # -- aggregation ------------------------------------------------------
    def reduce(self, key, domains: list[Domain]) -> Domain:
        return Domain.merge_all(domains)

    def pattern_support(self, embedding: Embedding) -> int | None:
        """Support of the embedding's pattern from the generation step's
        aggregates (None before aggregates exist)."""
        quick = self.pattern(embedding)
        merged_domain = self.read_aggregate(quick)
        if merged_domain is None:
            return None
        canonical = quick.canonical()
        return merged_domain.support(canonical.orbits())

    def aggregation_filter(self, embedding: Embedding) -> bool:
        support = self.pattern_support(embedding)
        return support is not None and support >= self.support_threshold

    def aggregation_process(self, embedding: Embedding) -> None:
        support = self.pattern_support(embedding)
        if support is None:  # pragma: no cover - α guarantees presence
            return
        self.output(
            FrequentEmbedding(
                pattern=self.pattern(embedding).canonical(),
                edge_words=embedding.words,
                support=support,
            )
        )

    # -- termination -------------------------------------------------------
    def termination_filter(self, embedding: Embedding) -> bool:
        return self.max_edges is not None and embedding.num_edges >= self.max_edges


def _map_terminal_domain(
    computation: Computation, plan: MatchingPlan, words, mask: int
) -> None:
    """Map one parent's whole last level as ONE domain — positionwise the
    union of the singleton domains ``process`` maps child by child: parent
    words are singletons, the last plan vertex holds the survivor mask as
    it is."""
    masks = [1 << word for word in words]
    masks.append(mask)
    computation.note_domain_hits(len(masks) * mask.bit_count())
    computation.map(plan.pattern, Domain(match_mapping(plan, masks)))


class DagPatternDomains(Computation):
    """Discover one candidate *batch*'s embeddings through a multi-query
    DAG and accumulate per-candidate MNI domains in a single run.

    Run with ``config.plan`` set to the same DAG (:func:`run_guided_fsm`
    wires this up).  The runtime advances each embedding against the
    whole batch at once; ``process`` maps one singleton
    :class:`~repro.apps.support.Domain` per accepting leaf, keyed by that
    leaf's canonical pattern — so the aggregation channel demultiplexes
    the merged domains by leaf, and ``final_aggregates[pattern]`` reads
    exactly as it did with one engine run per candidate.  Under
    monomorphic semantics one embedding can be an accepting leaf of
    several siblings (its extra graph edges belong to a denser
    candidate's edge set); each gets its own domain contribution, exactly
    as its solo run would have found.  Support read-out folds each
    canonical pattern's automorphism orbits (:meth:`Domain.support`),
    restoring the images symmetry breaking deduplicated.
    """

    exploration_mode = VERTEX_EXPLORATION
    plan_compatible = True

    def __init__(self, dag: PlanDAG):
        super().__init__()
        if dag.induced:
            raise ValueError(
                "FSM candidate DAGs must use monomorphic semantics "
                "(compile with induced=False); edge-based embeddings are "
                "monomorphism images"
            )
        self.plan = dag

    def process(self, embedding: Embedding) -> None:
        words = embedding.words
        stepper = bound_stepper(self, self.plan, embedding.graph)
        for member in stepper.accepting(words):
            plan = self.plan.plans[member]
            mapping = match_mapping(plan, words)
            self.note_domain_hits(len(mapping))
            self.map(plan.pattern, Domain.from_mapping(mapping))

    def process_terminal(self, words, member_masks) -> None:
        plans = self.plan.plans
        for member, mask in member_masks:
            _map_terminal_domain(self, plans[member], words, mask)

    def reduce(self, key, domains: list[Domain]) -> Domain:
        return Domain.merge_all(domains)

    def termination_filter(self, embedding: Embedding) -> bool:
        stepper = bound_stepper(self, self.plan, embedding.graph)
        return not stepper.extendable(embedding.words)


@dataclass(frozen=True)
class GuidedFSMLevel:
    """Per-level accounting of one guided FSM run (level = pattern edges)."""

    level: int
    #: Candidate patterns considered at this level (evaluated + pruned).
    candidates: int
    #: Candidates dismissed without any engine run: an Apriori-infrequent
    #: subpattern, or an empty pushed-down domain (zero matches possible).
    pruned: int
    #: Candidates found frequent (the next level grows from these).
    frequent: int
    #: Extension candidates generated by the level's batched guided run —
    #: the machine-independent cost metric the planner bench compares
    #: (shared sibling prefixes are generated, and counted, once).
    candidates_generated: int


@dataclass
class GuidedFSMResult:
    """Everything a plan-guided FSM run produces.

    ``combined`` is the engine-record view over the per-level batched
    runs: steps concatenated, ``final_aggregates`` holding
    each evaluated candidate's merged :class:`Domain` under its canonical
    pattern (demuxed by accepting leaf) — exactly the surface
    :func:`frequent_patterns` and
    :class:`~repro.session.results.FSMResult` already consume, and the
    byte-identity surface (``combined.canonical_signature()``) the
    cross-backend tests compare.
    """

    support_threshold: int
    max_edges: int | None
    frequent: dict[Pattern, int] = field(default_factory=dict)
    levels: list[GuidedFSMLevel] = field(default_factory=list)
    #: Engine runs executed (== levels with at least one candidate
    #: surviving the Apriori/empty-whitelist prunes — one batched
    #: multi-query run per level, not one per candidate).
    engine_runs: int = 0
    combined: RunResult = field(default_factory=RunResult)

    @property
    def total_candidates(self) -> int:
        """Extension candidates generated across all guided runs."""
        return self.combined.total_candidates

    def canonical_signature(self, ignore_output_order: bool = False) -> bytes:
        """Deterministic byte serialization of the semantic results."""
        return self.combined.canonical_signature(ignore_output_order)


def _fold_run(combined: RunResult, run: RunResult) -> None:
    """Concatenate one candidate run's record into the combined view."""
    combined.num_outputs += run.num_outputs
    combined.outputs.extend(run.outputs)
    for stats in run.steps:
        combined.steps.append(
            dataclasses.replace(stats, step=len(combined.steps))
        )
    combined.wall_seconds += run.wall_seconds
    combined.pattern_requests += run.pattern_requests
    combined.quick_patterns += run.quick_patterns
    combined.canonical_patterns += run.canonical_patterns
    combined.isomorphism_runs += run.isomorphism_runs
    combined.peak_storage_bytes = max(
        combined.peak_storage_bytes, run.peak_storage_bytes
    )


def run_guided_fsm(
    graph: LabeledGraph,
    support_threshold: int,
    max_edges: int | None = None,
    *,
    config: ArabesqueConfig | None = None,
    dag_provider: DagProvider | None = None,
    catalog=None,
) -> GuidedFSMResult:
    """Plan-guided FSM: level-wise pattern growth, batched guided discovery.

    Level k evaluates the canonical one-edge extensions of level k-1's
    frequent patterns (level 1: one candidate per label triple class).
    All of a level's surviving candidates are compiled into ONE
    multi-query plan DAG — sibling candidates share their common
    subpattern's exploration prefix — with each candidate's pushed-down
    parent-domain whitelists overlaid per leaf
    (:func:`repro.plan.dag.restrict_dag`), and evaluated in a single
    guided engine run; MNI supports are read from the per-leaf
    demultiplexed domains.  Returns identical frequent patterns and
    supports to the exhaustive :class:`FrequentSubgraphMining` +
    :func:`frequent_patterns` pipeline and to the GraMi baseline,
    byte-identically across execution backends.

    ``config`` carries the execution knobs (backend, workers, storage —
    ``None`` defaults to list storage, the guided sweet spot); its
    ``plan``/output fields are overridden per level run.
    ``dag_provider`` supplies compiled DAGs for canonical candidate
    batches (a session passes its cross-query DAG cache; default
    compiles with a run-local memo) — whitelists are overlaid per run on
    top of the cached structure, so caching never recompiles orders or
    symmetry.  Every level run draws its step 0 from the DAG's own root
    pools (label indexes or pushed-down whitelists).  ``catalog`` (a
    :class:`~repro.plan.stats.GraphCatalog` of ``graph``) supplies the
    level-1 label-triple alphabet from cached statistics instead of an
    edge-list rescan; sessions pass their cached catalog.
    """
    if support_threshold < 1:
        raise ValueError("support_threshold must be >= 1")
    if max_edges is not None and max_edges < 1:
        raise ValueError("max_edges must be >= 1 when given")
    base = config if config is not None else ArabesqueConfig(storage=LIST_STORAGE)
    provide = dag_provider if dag_provider is not None else default_dag_provider()

    # One batched engine run per level; import here mirrors the engine's
    # own lazy runtime import (runtime -> core.config would otherwise
    # cycle).
    from ..core.engine import run_computation
    from ..runtime.base import make_backend

    result = GuidedFSMResult(
        support_threshold=support_threshold, max_edges=max_edges
    )
    triples = label_triples(graph, catalog=catalog)

    def grow_level(
        frequent_now: list[tuple[Pattern, Domain]],
    ) -> list[tuple[Pattern, dict[int, int]]]:
        """Next level's candidates with each parent's orbit-folded
        domain masks pushed down onto the positions its vertices become
        in the extension; a candidate reached through several parents
        (or several maps) gets the intersection (``&``) — every map is
        an independent sound restriction."""
        next_allowed: dict[Pattern, dict[int, int]] = {}
        for pattern, domain in frequent_now:
            folded = domain.orbit_folded(pattern.orbits())
            for extension, parent_map in one_edge_extensions_with_maps(
                pattern, triples
            ):
                whitelists = next_allowed.setdefault(extension, {})
                for vertex, position in enumerate(parent_map):
                    previous = whitelists.get(position)
                    whitelists[position] = (
                        folded[vertex]
                        if previous is None
                        else previous & folded[vertex]
                    )
        return [
            (extension, next_allowed[extension])
            for extension in sorted(
                next_allowed, key=lambda p: (p.vertex_labels, p.edges)
            )
        ]

    # Level 1: single-edge supports in closed form — one pass over the
    # edges (metered as one examined candidate per edge), no engine runs.
    frequent_now: list[tuple[Pattern, Domain]] = []
    level_one = single_edge_domains(graph)
    for pattern, sets in level_one:
        domain = Domain(sets)
        result.combined.final_aggregates[pattern] = domain
        support = domain.support(pattern.orbits())
        if support >= support_threshold:
            result.frequent[pattern] = support
            frequent_now.append((pattern, domain))
    result.levels.append(
        GuidedFSMLevel(
            level=1,
            candidates=len(level_one),
            pruned=0,
            frequent=len(frequent_now),
            candidates_generated=graph.num_edges,
        )
    )
    # The edge scan enters the combined record as one synthetic step so
    # ``combined.total_candidates`` meters the whole strategy (one
    # examined candidate per edge — the same accounting the exhaustive
    # path's step 0 gets for the same scan).
    result.combined.steps.append(
        StepStats(step=0, candidates_generated=graph.num_edges)
    )
    if not frequent_now or max_edges == 1:
        return result

    pending = grow_level(frequent_now)
    backend = make_backend(base)
    try:
        level = 2
        while pending and (max_edges is None or level <= max_edges):
            frequent_now = []
            level_candidates = 0
            pruned = 0
            evaluated: list[tuple[Pattern, dict[int, int]]] = []
            for pattern, allowed in pending:
                if any(not images for images in allowed.values()) or (
                    has_infrequent_subpattern(pattern, result.frequent)
                ):
                    # Zero possible matches, or an infrequent subpattern
                    # (MNI anti-monotonicity) — never reaches the engine.
                    pruned += 1
                    continue
                evaluated.append((pattern, allowed))
            if evaluated:
                # One engine run for the whole level: the batch DAG shares
                # sibling prefixes, the per-leaf whitelists push each
                # candidate's parent domains down, and the aggregation
                # channel demuxes the merged MNI domains by leaf pattern.
                # The restricted DAG is new per level; each worker task's
                # stepper builds its mask bundle and step-0 pool.
                dag = restrict_dag(
                    provide(tuple(pattern for pattern, _ in evaluated)),
                    dict(evaluated),
                )
                run_config = dataclasses.replace(
                    base, plan=dag, collect_outputs=False, output_limit=None
                )
                run = run_computation(
                    graph,
                    DagPatternDomains(dag),
                    run_config,
                    backend=backend,
                )
                result.engine_runs += 1
                level_candidates = run.total_candidates
                _fold_run(result.combined, run)
                for pattern, _ in evaluated:
                    domain = run.final_aggregates.get(pattern)
                    if domain is not None:
                        result.combined.final_aggregates[pattern] = domain
                    support = (
                        domain.support(pattern.orbits())
                        if domain is not None
                        else 0
                    )
                    if support >= support_threshold:
                        result.frequent[pattern] = support
                        frequent_now.append((pattern, domain))
            result.levels.append(
                GuidedFSMLevel(
                    level=level,
                    candidates=len(pending),
                    pruned=pruned,
                    frequent=len(frequent_now),
                    candidates_generated=level_candidates,
                )
            )
            if not frequent_now:
                break
            if max_edges is not None and level >= max_edges:
                # The bound is reached — growing (and canonicalizing)
                # the next level's candidates would be discarded work.
                break
            pending = grow_level(frequent_now)
            level += 1
    finally:
        backend.close()
    return result


def frequent_patterns(
    result: RunResult, support_threshold: int
) -> dict[Pattern, int]:
    """Post-process a run: canonical pattern -> MNI support, frequent only.

    Works off the run's accumulated pattern aggregates, so it includes the
    deepest exploration level even when a ``max_edges`` termination filter
    skipped the α/β pass for it.
    """
    frequent: dict[Pattern, int] = {}
    for pattern, domain in result.final_aggregates.items():
        if not isinstance(pattern, Pattern) or not isinstance(domain, Domain):
            continue
        support = domain.support(pattern.orbits())
        if support >= support_threshold:
            frequent[pattern] = support
    return frequent
