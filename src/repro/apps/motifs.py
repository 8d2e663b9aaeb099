"""Motif counting — Figure 4b of the paper, in two strategies.

**Exhaustive** (:class:`MotifCounting`, the oracle): vertex-based
exploration up to a maximum size; every embedding contributes 1 to its
pattern's output aggregation, so the run ends with the frequency
distribution of all motifs of order <= ``max_size``.  On an unlabeled
graph a canonical pattern *is* a motif; on a labeled graph this
generalizes to labeled motifs (section 2: "we can easily generalize the
definition to labeled patterns").

**DAG-guided** (:func:`run_guided_motifs`, the fast path): enumerate every
canonical motif candidate of order <= ``max_size``
(:func:`enumerate_motif_patterns` — level-wise edge growth over the
graph's label triples, so every motif that can occur is covered), compile
the whole batch into ONE multi-query
:class:`~repro.plan.dag.PlanDAG` with prefix-affine matching orders, and
answer the full distribution in ONE engine run:
:class:`DagMotifCounting` emits 1 per accepting leaf, so each motif's
count equals its solo guided match count — which equals its exhaustive
count (symmetry restrictions keep exactly one representative per
vertex-induced occurrence).  Candidates that never occur simply aggregate
nothing, matching the oracle's count>=1 reporting; shared prefixes across
sibling motifs are generated and stored once instead of once per motif.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

from ..core.computation import Computation
from ..core.config import ArabesqueConfig
from ..core.embedding import Embedding, VERTEX_EXPLORATION, VertexInducedEmbedding
from ..core.pattern import Pattern
from ..core.results import RunResult
from ..core.storage import LIST_STORAGE
from ..graph import LabeledGraph
from ..graph.bitset import from_bitset
from ..plan.dag import PlanDAG, bound_stepper, build_plan_dag
from ..plan.fsm_guide import (
    label_triples,
    one_edge_extensions,
    single_edge_candidates,
)

#: A DAG source for a canonical motif batch (induced semantics).  The
#: default compiles fresh; a session passes its cross-query DAG cache.
MotifDagProvider = Callable[[tuple[Pattern, ...]], PlanDAG]


class MotifCounting(Computation):
    """Count vertex-induced embeddings per motif up to ``max_size`` vertices.

    ``min_size`` (default 3, the smallest order with more than one motif
    shape) restricts which sizes are *reported*; exploration still passes
    through smaller sizes, as it must.
    """

    exploration_mode = VERTEX_EXPLORATION

    def __init__(self, max_size: int, min_size: int = 3):
        super().__init__()
        if max_size < 1:
            raise ValueError("max_size must be >= 1")
        if not 1 <= min_size <= max_size:
            raise ValueError("need 1 <= min_size <= max_size")
        self.max_size = max_size
        self.min_size = min_size

    def filter(self, embedding: Embedding) -> bool:
        return embedding.num_vertices <= self.max_size

    def filter_extensions(self, words: tuple[int, ...], mask: int) -> int:
        return mask if len(words) < self.max_size else 0

    def process(self, embedding: Embedding) -> None:
        if embedding.num_vertices >= self.min_size:
            self.map_output(self.pattern(embedding), 1)

    def reduce_output(self, key, counts: list[int]) -> int:
        return sum(counts)

    def termination_filter(self, embedding: Embedding) -> bool:
        # Skip the exploration step that would generate size max_size + 1
        # candidates only to filter all of them out (section 4.1's example).
        return embedding.num_vertices >= self.max_size

    @property
    def terminal_size(self) -> int:
        return self.max_size

    def process_terminal(self, words: tuple[int, ...], mask: int) -> None:
        """Count the last level per quick pattern without building it: two
        children share a quick pattern iff the new vertex has the same
        label and touches the same parent positions (edge labels being
        uniform), so ``mask`` splits by each parent word's adjacency row,
        then by label, and one representative per class supplies the
        pattern.  Classes map in order of their smallest member — the order
        the per-child loop first meets them."""
        graph = self.graph
        parent = VertexInducedEmbedding(graph, words)
        if graph.uniform_edge_label is None:
            for word in from_bitset(mask):
                self.map_output(parent.extend(word).pattern(), 1)
            return
        classes = [mask]
        for word in words:
            row = graph.neighbor_bits(word)
            classes = [
                part
                for members in classes
                for part in (members & row, members & ~row)
                if part
            ]
        classes = [
            part for members in classes for part in _split_by_label(graph, members)
        ]
        classes.sort(key=_lowest)
        for members in classes:
            representative = parent.extend(_lowest(members))
            self.map_output(representative.pattern(), members.bit_count())


def _lowest(bits: int) -> int:
    """The smallest id in a non-empty bitset."""
    return (bits & -bits).bit_length() - 1


def _split_by_label(graph: LabeledGraph, members: int):
    """``members`` cut into one bitset per vertex label present in it."""
    while members:
        part = members & graph.label_bits(graph.vertex_label(_lowest(members)))
        yield part
        members ^= part


def motif_counts(result: RunResult) -> dict[Pattern, int]:
    """Post-process a run: canonical motif pattern -> embedding count."""
    return {
        pattern: count
        for pattern, count in result.output_aggregates.items()
        if isinstance(pattern, Pattern)
    }


def motif_counts_by_size(result: RunResult) -> dict[int, dict[Pattern, int]]:
    """Motif counts grouped by motif order (Figure 1's per-size series)."""
    by_size: dict[int, dict[Pattern, int]] = {}
    for pattern, count in motif_counts(result).items():
        by_size.setdefault(pattern.num_vertices, {})[pattern] = count
    return by_size


def enumerate_motif_patterns(
    graph: LabeledGraph, max_size: int, min_size: int = 3
) -> tuple[Pattern, ...]:
    """Every canonical motif candidate of order ``min_size..max_size``.

    Level-wise edge growth from the graph's single-edge label-triple
    classes (the same growth moves guided FSM uses: attach a vertex or
    close an edge), bounded at ``max_size`` vertices — every connected
    pattern whose edges are drawn from the graph's label triples is
    reached, and any motif occurring in the graph necessarily is one of
    them.  Candidates that never occur contribute a zero count and are
    dropped at aggregation time, so the guided distribution matches the
    oracle's count>=1 reporting exactly.  ``min_size <= 1`` adds one
    single-vertex pattern per vertex label present.  Deterministic order:
    sorted by (order, labels, edges) — the DAG cache keys on this tuple.
    """
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    if not 1 <= min_size <= max_size:
        raise ValueError("need 1 <= min_size <= max_size")
    candidates: set[Pattern] = set()
    if min_size <= 1:
        for label in sorted(graph.vertex_label_histogram()):
            candidates.add(Pattern((label,), ()).canonical())
    if max_size >= 2:
        triples = label_triples(graph)
        frontier = list(single_edge_candidates(graph))
        seen: set[Pattern] = set(frontier)
        while frontier:
            grown: list[Pattern] = []
            for pattern in frontier:
                for extension in one_edge_extensions(pattern, triples):
                    if extension.num_vertices <= max_size and extension not in seen:
                        seen.add(extension)
                        grown.append(extension)
            frontier = grown
        candidates.update(seen)
    return tuple(
        sorted(
            (p for p in candidates if min_size <= p.num_vertices <= max_size),
            key=lambda p: (p.num_vertices, p.vertex_labels, p.edges),
        )
    )


class DagMotifCounting(Computation):
    """Count the whole motif distribution through one multi-query DAG.

    The DAG it is built with guides the run (:func:`run_guided_motifs`
    compiles it).  The runtime advances each embedding against the
    whole batch; ``process`` emits 1 per accepting leaf, under that
    leaf's canonical pattern — the symmetry restrictions guarantee one
    representative per vertex-induced occurrence per motif, so the
    aggregated counts equal the exhaustive :class:`MotifCounting`
    distribution (minus the zero-count candidates, which aggregate
    nothing in both strategies).
    """

    exploration_mode = VERTEX_EXPLORATION

    def __init__(self, dag: PlanDAG):
        super().__init__()
        if not dag.induced:
            raise ValueError(
                "motif DAGs must use induced semantics (compile with "
                "induced=True); a motif is a vertex-induced occurrence"
            )
        self.plan = dag

    def process(self, embedding: Embedding) -> None:
        stepper = bound_stepper(self, self.plan, embedding.graph)
        for member in stepper.accepting(embedding.words):
            self.map_output(self.plan.plans[member].pattern, 1)

    def process_terminal(self, words, member_masks) -> None:
        # One accepting leaf per set bit: count them without decoding.
        plans = self.plan.plans
        for member, mask in member_masks:
            self.map_output(plans[member].pattern, mask.bit_count())

    def reduce_output(self, key, counts: list[int]) -> int:
        return sum(counts)

    def termination_filter(self, embedding: Embedding) -> bool:
        stepper = bound_stepper(self, self.plan, embedding.graph)
        return not stepper.extendable(embedding.words)


@dataclass(frozen=True)
class GuidedMotifsRun:
    """Everything one DAG-guided motif run produces.

    ``run`` is the single engine record (``output_aggregates`` holds the
    distribution exactly where the exhaustive oracle puts it, so
    :func:`motif_counts` and the session's ``MotifResult`` work
    unchanged); ``dag`` and ``batch`` expose the compiled multi-query
    structure (``None``/empty when no candidate of the requested orders
    exists — e.g. an edgeless graph with ``min_size >= 2``).
    """

    run: RunResult
    dag: PlanDAG | None
    batch: tuple[Pattern, ...]

    @property
    def engine_runs(self) -> int:
        return 1 if self.dag is not None else 0


def run_guided_motifs(
    graph: LabeledGraph,
    max_size: int,
    min_size: int = 3,
    *,
    config: ArabesqueConfig | None = None,
    dag_provider: MotifDagProvider | None = None,
) -> GuidedMotifsRun:
    """DAG-guided motif distribution: the whole batch in one engine run.

    Enumerates every canonical motif candidate of order
    ``min_size..max_size``, compiles ONE prefix-sharing plan DAG over the
    batch (``dag_provider`` supplies it — a session passes its DAG cache;
    default compiles fresh), and runs :class:`DagMotifCounting` guided.
    Returns the identical distribution to the exhaustive
    :class:`MotifCounting` oracle — and, per motif, to its solo guided
    match count — byte-identically across execution backends, worker
    counts, and storage modes.

    ``config`` carries the execution knobs (backend, workers, storage —
    ``None`` defaults to list storage, the guided sweet spot); its
    output fields are overridden for the run (guided motifs
    aggregate the distribution and never collect per-embedding outputs).
    """
    batch = enumerate_motif_patterns(graph, max_size, min_size=min_size)
    base = config if config is not None else ArabesqueConfig(storage=LIST_STORAGE)
    if not batch:
        return GuidedMotifsRun(run=RunResult(), dag=None, batch=())
    provide = dag_provider if dag_provider is not None else (
        lambda patterns: build_plan_dag(patterns, induced=True)
    )
    dag = provide(batch)
    run_config = dataclasses.replace(
        base, collect_outputs=False, output_limit=None
    )
    # Import here mirrors the engine's own lazy runtime import (runtime ->
    # core.config would otherwise cycle).
    from ..core.engine import run_computation

    run = run_computation(graph, DagMotifCounting(dag), run_config)
    return GuidedMotifsRun(run=run, dag=dag, batch=batch)
