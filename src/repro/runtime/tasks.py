"""Pure worker step tasks — the unit of work every backend schedules.

One *step task* is what a single logical worker does during one exploration
step of Algorithm 1: read its rank-range share of the previous step's
global store, apply the aggregation filter/process, generate and
canonicality-check extensions, run the user filter/process, and write
survivors to a worker-local store.

The task is a **pure function** of an immutable :class:`StepContext` and a
``worker_id``: it touches no engine state, and every effect it has — the
local store, aggregation partials, emitted outputs, counters, phase
timings, and newly canonicalized patterns — travels back in a
:class:`~repro.core.results.WorkerDelta` that the engine merges at the step
barrier.  Purity is what lets the three execution backends
(:mod:`repro.runtime`) run tasks sequentially, on threads, or in separate
processes while producing byte-identical results:

* no shared mutable state ⇒ no ordering hazards — merging deltas in
  worker-id order reproduces the serial schedule exactly;
* everything in the context and the delta is picklable ⇒ the process
  backend can ship tasks across process boundaries;
* the computation object is shallow-copied per task ⇒ the per-task context
  binding (``bind_context``) never races between threads.

When the context carries a guided :class:`~repro.plan.MatchingPlan`, the
expansion swaps its two hot pieces for ONE fused kernel
(:func:`repro.plan.guided.guided_survivors`): the candidate pool is the
plan's anchor neighborhood bitset (``&``-ed with the step whitelist when
one is set) instead of the whole frontier, and the per-candidate
label/adjacency/symmetry acceptance test collapses into the same chain
of big-int ``&`` ops, decoded to sorted id order once per embedding —
the plan's ordering restrictions already guarantee each occurrence is
generated exactly once, so no canonicality check is needed.  A multi-query
:class:`~repro.plan.PlanDAG` generalizes the same fusion from one step to
a *set of active DAG nodes* per embedding
(:meth:`repro.plan.dag.DagStepper.advance`): per live trie node the
pool — the deduplicated union of the surviving patterns' next anchor
neighborhoods — and the shared structural check collapse into one ``&``
chain over the DAG's precomputed mask bundle (with a degree-adaptive
row-iteration fallback for tiny pools), per-member residuals are more
mask algebra, and the extended embedding is stored once no matter how
many patterns it advances — emission happens once per accepting leaf
inside the computation.  On a plan's *terminal level* (every live member
completes at the next word) the masks are never decoded: the computation's
``process_terminal`` hook aggregates them by popcount.  Everything else
(stores, aggregation, deltas, backends) is unchanged, which is what keeps
guided runs byte-identical across backends and worker counts too.
"""

from __future__ import annotations

import copy
import time
from itertools import islice
from dataclasses import dataclass, field
from typing import Any, Hashable, Sequence

from ..core.aggregation import LocalAggregation
from ..core.budget import (
    BudgetExceeded,
    CancelFlag,
    DEADLINE_BUDGET,
    DEADLINE_CHECK_INTERVAL,
    RunCancelled,
)
from ..core.canonical import extension_checker, full_checker
from ..core.computation import Computation, ComputationContext
from ..core.embedding import make_embedding
from ..core.extension import extensions
from ..core.pattern import Pattern, PatternCanonicalizer
from ..core.results import StepStats, WorkerDelta
from ..core.storage import (
    DEFAULT_SPILL_BUDGET_NBYTES,
    EmbeddingStore,
    LIST_STORAGE,
    ListStore,
    OdagStore,
    SPILL_STORAGE,
    SpillListStore,
)
from ..plan.dag import PlanDAG, bound_stepper
from ..plan.guided import (
    guided_extension_check,
    guided_advance,
    plan_checker,
)
from ..plan.planner import MatchingPlan


@dataclass(frozen=True)
class StepContext:
    """Immutable snapshot of everything one exploration step's tasks read.

    Built once per step by the engine and shared (or shipped) to every
    worker task.  Nothing in here is mutated during the step — the previous
    step's global store and published aggregates are read-only, and the
    pattern cache is a snapshot of the engine's master canonicalizer.
    """

    step: int
    graph: Any
    #: Initialized computation; tasks shallow-copy it before binding their
    #: per-task context, so the original is never written to.
    computation: Computation
    mode: str
    num_workers: int
    storage: str
    incremental_canonicality: bool
    profile_phases: bool
    collect_outputs: bool
    output_limit: int | None
    two_level_aggregation: bool
    #: Guided exploration plan — a single :class:`MatchingPlan` or a
    #: multi-query :class:`PlanDAG`; ``None`` selects the exhaustive path.
    plan: MatchingPlan | PlanDAG | None = None
    #: Master quick-pattern -> (canonical, mapping) cache snapshot.
    pattern_cache: dict[Pattern, tuple[Pattern, tuple[int, ...]]] = field(
        default_factory=dict
    )
    #: Previous step's published aggregates (``readAggregate`` source).
    published_aggregates: dict[Hashable, Any] = field(default_factory=dict)
    #: Step 0 only: the step-0 candidate pool, computed once by the
    #: engine — the expansion of the "undefined" embedding (exhaustive),
    #: or the plan's own pool (label index / whitelist / DAG root-pool
    #: union) on guided runs.
    universe: tuple[int, ...] | None = None
    #: Steps >= 1: the merged global store of the previous step (set I).
    global_store: EmbeddingStore | None = None
    #: Monotonic instant the run's deadline budget expires (``None`` = no
    #: deadline).  Tasks probe it every
    #: :data:`~repro.core.budget.DEADLINE_CHECK_INTERVAL` embeddings so a
    #: single pathological step fails fast instead of only at the next
    #: barrier; ``time.monotonic`` is the system-wide ``CLOCK_MONOTONIC``
    #: on Linux, so the instant is comparable inside the process
    #: backend's forked workers too.
    deadline_at: float | None = None
    #: Spill-mode only: the run's spill root where this step's worker
    #: stores write their segments, and the per-store byte budget.
    spill_dir: str | None = None
    spill_budget_nbytes: int = DEFAULT_SPILL_BUDGET_NBYTES
    #: Cooperative cancellation flag, probed alongside the deadline.
    #: Shared with serial/thread workers; the process backend's pickled
    #: copies are inert (barrier-granularity cancel there — see
    #: :class:`~repro.core.budget.CancelFlag`).
    cancel: CancelFlag | None = None


class WorkerTaskContext(ComputationContext):
    """Framework functions bound while one task runs one step.

    All writes land in task-local buffers (the delta and the local
    aggregations); reads come from the immutable step context.
    """

    def __init__(
        self,
        context: StepContext,
        delta: WorkerDelta,
        local_agg: LocalAggregation,
        local_out: LocalAggregation,
        canonicalizer: PatternCanonicalizer,
    ) -> None:
        self._context = context
        self._delta = delta
        self._local_agg = local_agg
        self._local_out = local_out
        self._canonicalizer = canonicalizer

    def output(self, value: Any) -> None:
        self._delta.num_outputs += 1
        if self._context.collect_outputs:
            limit = self._context.output_limit
            if limit is None or len(self._delta.outputs) < limit:
                self._delta.outputs.append(value)

    def output_batch(self, count: int, values) -> None:
        self._delta.num_outputs += count
        if self._context.collect_outputs:
            outputs = self._delta.outputs
            limit = self._context.output_limit
            room = count if limit is None else limit - len(outputs)
            if room > 0:
                outputs.extend(islice(values(), room))

    def map(self, key: Hashable, value: Any) -> None:
        self._local_agg.map(key, value)

    def map_output(self, key: Hashable, value: Any) -> None:
        self._local_out.map(key, value)

    def read_aggregate(self, key: Hashable) -> Any:
        if isinstance(key, Pattern):
            key = self._canonicalizer.canonicalize(key)[0]
        return self._context.published_aggregates.get(key)

    def note_domain_hits(self, count: int) -> None:
        # Guided domain accumulation (plan-guided FSM) reports how many
        # per-vertex images it recorded; the counter merges at the step
        # barrier like every other StepStats field, so the tally is
        # backend- and worker-count-invariant.
        self._delta.counters.domain_hits += count


def _probe_interrupts(
    deadline_at: float | None,
    cancel: CancelFlag | None,
    count: int,
) -> None:
    """Periodic in-step probe (every DEADLINE_CHECK_INTERVAL embeddings)
    of the two cooperative interrupts — the deadline budget and external
    cancellation — so one pathological step cannot run minutes past its
    cutoff before reaching the barrier.  The task sees only the expiry
    instant; the engine re-raises deadline trips with the run-level limit
    filled in."""
    if count % DEADLINE_CHECK_INTERVAL != 0:
        return
    if cancel is not None and cancel.is_set():
        raise RunCancelled("run cancelled mid-step")
    if deadline_at is not None and time.monotonic() > deadline_at:
        raise BudgetExceeded(DEADLINE_BUDGET)


def _terminal_hook(computation: Computation):
    """``process_terminal`` when it may replace the per-child loop: φ is
    the base accept-all, and no subclass refines ``process``/
    ``termination_filter`` below the class that wrote the hook."""
    if type(computation).filter is not Computation.filter:
        return None
    for klass in type(computation).__mro__:
        if "process_terminal" in vars(klass):
            return computation.process_terminal
        if "process" in vars(klass) or "termination_filter" in vars(klass):
            return None


def _make_extension_checker(mode: str, incremental: bool, plan=None):
    """The acceptance predicate for one-word extensions.

    Exhaustive mode uses the canonicality check (Algorithm 2); guided mode
    uses the plan's per-step constraint check, whose symmetry restrictions
    subsume canonicality's dedup role.  Multi-query DAGs never reach this
    helper — the expansion pass builds a per-task :class:`DagStepper`
    whose check accepts a candidate when any surviving member plan does.
    """
    if plan is not None:
        return plan_checker(plan)
    if incremental:
        return extension_checker(mode)
    full = full_checker(mode)

    def from_scratch(graph, parent_words, word):
        return full(graph, parent_words + (word,))

    return from_scratch


def run_step_task(context: StepContext, worker_id: int) -> WorkerDelta:
    """Execute one worker's share of one exploration step; return its delta.

    Pure: same ``(context, worker_id)`` always yields the same delta, and
    nothing outside the returned delta is modified.
    """
    computation = copy.copy(context.computation)
    canonicalizer = PatternCanonicalizer(
        context.two_level_aggregation, seed_cache=context.pattern_cache
    )
    local_agg = LocalAggregation(computation.reduce, canonicalizer)
    local_out = LocalAggregation(computation.reduce_output, canonicalizer)
    store: EmbeddingStore
    if context.storage == LIST_STORAGE:
        store = ListStore()
    elif context.storage == SPILL_STORAGE:
        # Per-(step, worker) segment tag so every task in the step can
        # share the run's spill root without filename collisions.
        store = SpillListStore(
            directory=context.spill_dir,
            budget_nbytes=context.spill_budget_nbytes,
            tag=f"s{context.step}w{worker_id}",
        )
    else:
        store = OdagStore()
    delta = WorkerDelta(
        worker_id=worker_id,
        local_store=store,
        counters=StepStats(step=context.step),
    )
    task_context = WorkerTaskContext(
        context, delta, local_agg, local_out, canonicalizer
    )
    computation.bind_context(task_context)
    try:
        if context.step == 0:
            _initial_pass(context, worker_id, computation, canonicalizer, store, delta)
        else:
            _expansion_pass(
                context, worker_id, computation, canonicalizer, store, delta
            )
    finally:
        computation.bind_context(None)
    delta.agg_partials = local_agg.merged_partials()
    delta.out_partials = local_out.merged_partials()
    delta.pattern_requests = canonicalizer.requests
    delta.isomorphism_runs = canonicalizer.isomorphism_runs
    delta.new_pattern_entries = canonicalizer.new_entries()
    return delta


def run_step_chunk(
    context: StepContext, worker_ids: Sequence[int]
) -> list[WorkerDelta]:
    """Run several workers' tasks back to back (per-worker chunking).

    The process backend hands each pool process one chunk so a step costs
    one task message per process instead of one per logical worker.
    """
    return [run_step_task(context, worker_id) for worker_id in worker_ids]


# ----------------------------------------------------------------------
# The two passes (Algorithm 1, split by step number)
# ----------------------------------------------------------------------
def _initial_pass(
    context: StepContext,
    worker_id: int,
    computation: Computation,
    canonicalizer: PatternCanonicalizer,
    store: EmbeddingStore,
    delta: WorkerDelta,
) -> None:
    """Step 0: expand the "undefined" embedding — all vertices/edges."""
    graph = context.graph
    mode = context.mode
    profile = context.profile_phases
    stats = delta.counters
    phase_seconds = delta.phase_seconds
    plan = context.plan
    # Guided runs draw step 0 from the plan's own pool (label index,
    # whitelist, or DAG root-pool union); the engine computes it once per
    # run and ships it through the universe channel, sorted and identical
    # for every worker, so the rank-range partition stays deterministic.
    universe = context.universe
    assert universe is not None, "step-0 context must carry the universe"
    if isinstance(plan, PlanDAG):
        # Shared with the computation's own hooks (same task copy):
        # step-0 checks group by distinct root node instead of scanning
        # every member per word.
        stepper = bound_stepper(computation, plan, graph)

        def check_word(plan, graph, parent_words, word):
            return stepper.check(graph, parent_words, word)

    else:
        check_word = guided_extension_check
    total = len(universe)
    num_workers = context.num_workers
    start = total * worker_id // num_workers
    end = total * (worker_id + 1) // num_workers
    deadline_at = context.deadline_at
    cancel = context.cancel
    work = 0
    for index in range(start, end):
        _probe_interrupts(deadline_at, cancel, index - start)
        word = universe[index]
        stats.candidates_generated += 1
        if plan is not None and not check_word(plan, graph, (), word):
            continue
        stats.canonical_candidates += 1  # single words are canonical
        work += 1
        embedding = make_embedding(graph, mode, (word,))
        if not computation.filter(embedding):
            continue
        stats.processed_embeddings += 1
        if profile:
            t0 = time.perf_counter()
            computation.process(embedding)
            _add_phase(phase_seconds, "P", time.perf_counter() - t0)
        else:
            computation.process(embedding)
        if computation.termination_filter(embedding):
            continue
        if profile:
            t0 = time.perf_counter()
        canonical_pattern, _ = canonicalizer.canonicalize(embedding.pattern())
        store.add(canonical_pattern, embedding.words)
        if profile:
            _add_phase(phase_seconds, "W", time.perf_counter() - t0)
    delta.work_units += work


def _expansion_pass(
    context: StepContext,
    worker_id: int,
    computation: Computation,
    canonicalizer: PatternCanonicalizer,
    store: EmbeddingStore,
    delta: WorkerDelta,
) -> None:
    """Steps >= 1: read a share of set I, apply α/β, expand, φ/π, write."""
    graph = context.graph
    mode = context.mode
    plan = context.plan
    # Terminal level: children completing every live plan member reach
    # the computation as survivor masks, never materialised.
    hook = _terminal_hook(computation)
    batch = hook is not None
    if isinstance(plan, PlanDAG):
        # One stepper per task, shared with the computation's own hooks
        # (process/termination run on the same task copy): its
        # survivor-walk memo is private to this pure task.  Expansion
        # runs the fused whole-pool kernel (DagStepper.advance):
        # per live trie node one bitset ``&`` chain over the DAG's
        # precomputed mask bundle plus one residual chain per member,
        # with a degree-adaptive row-iteration fallback —
        # counter-for-counter equal to generate-then-check.  The
        # per-candidate check stays bound for the ODAG prefix filter.
        stepper = bound_stepper(computation, plan, graph)
        check_extension = stepper.check
        generate = None
        advance = stepper.advance
    else:
        check_extension = _make_extension_checker(
            mode, context.incremental_canonicality, plan
        )
        if plan is None:
            def generate(words: tuple[int, ...]):
                return extensions(graph, mode, words)
        else:
            # Guided runs use the fused bitset kernel: pool generation
            # AND the per-candidate plan check collapse into one chain
            # of ``&`` ops per embedding (plan_checker stays in use for
            # the ODAG prefix filter above).
            generate = None

            def advance(words: tuple[int, ...], batch: bool):
                return guided_advance(plan, graph, words, batch)
    profile = context.profile_phases
    # List-format stores (plain or spilled) hold exact embeddings under
    # their true canonical pattern; only ODAG paths can be spurious.
    verify_pattern = context.storage not in (LIST_STORAGE, SPILL_STORAGE)
    stats = delta.counters
    phase_seconds = delta.phase_seconds
    global_store = context.global_store
    assert global_store is not None, "expansion context must carry set I"
    work = 0

    def prefix_ok(words: tuple[int, ...]) -> bool:
        """Spurious-path filter for ODAG extraction: the incremental
        acceptance check (Algorithm 2 canonicality, or the plan's
        constraint check in guided mode) plus φ on the prefix (both
        anti-monotone, so failing prefixes prune whole subtrees —
        section 5.2)."""
        if not check_extension(graph, words[:-1], words[-1]):
            return False
        return computation.filter(make_embedding(graph, mode, words))

    iterator = global_store.extract_partition(
        worker_id, context.num_workers, prefix_ok
    )
    deadline_at = context.deadline_at
    cancel = context.cancel
    probe_count = 0
    while True:
        _probe_interrupts(deadline_at, cancel, probe_count)
        probe_count += 1
        if profile:
            t0 = time.perf_counter()
            item = next(iterator, None)
            _add_phase(phase_seconds, "R", time.perf_counter() - t0)
        else:
            item = next(iterator, None)
        if item is None:
            break
        store_pattern, words = item
        work += 1
        embedding = make_embedding(graph, mode, words)
        if verify_pattern:
            # A path through pattern B's ODAG can spell out a perfectly
            # valid canonical embedding of pattern A (it passes the
            # canonicality check and φ) — but the real copy lives in
            # A's ODAG, so extracting it here would duplicate it.  The
            # extracted embedding is genuine for THIS ODAG only if its
            # canonical pattern matches the ODAG's key.
            extracted_pattern, _ = canonicalizer.canonicalize(embedding.pattern())
            if extracted_pattern != store_pattern:
                stats.spurious_discarded += 1
                continue
        stats.expanded_embeddings += 1
        if not computation.aggregation_filter(embedding):
            stats.aggregation_pruned += 1
            continue
        computation.aggregation_process(embedding)

        if generate is None:
            # Fused guided kernel (single-plan or DAG): candidate
            # generation and the acceptance check happen inside one
            # bitset intersection chain; ``found`` holds the survivors —
            # as words, which the loop below extends without a per-word
            # check, or on a terminal level as undecoded member masks,
            # which go to the hook and leave the loop nothing to do.
            if profile:
                t0 = time.perf_counter()
                num_candidates, found, terminal = advance(words, batch)
                _add_phase(phase_seconds, "G", time.perf_counter() - t0)
            else:
                num_candidates, found, terminal = advance(words, batch)
            stats.candidates_generated += num_candidates
            work += num_candidates
            candidate_words = () if terminal else found
            if not terminal:
                stats.canonical_candidates += len(found)
            elif found:
                union = 0
                for _, mask in found:
                    union |= mask
                finished = union.bit_count()
                stats.canonical_candidates += finished
                stats.processed_embeddings += finished
                stats.batched_embeddings += finished
                if profile:
                    t0 = time.perf_counter()
                    hook(words, found)
                    _add_phase(phase_seconds, "P", time.perf_counter() - t0)
                else:
                    hook(words, found)
        elif profile:
            t0 = time.perf_counter()
            candidate_words = generate(words)
            _add_phase(phase_seconds, "G", time.perf_counter() - t0)
        else:
            candidate_words = generate(words)

        for word in candidate_words:
            if generate is not None:
                stats.candidates_generated += 1
                work += 1
                if profile:
                    t0 = time.perf_counter()
                    canonical = check_extension(graph, words, word)
                    _add_phase(phase_seconds, "C", time.perf_counter() - t0)
                else:
                    canonical = check_extension(graph, words, word)
                if not canonical:
                    continue
                stats.canonical_candidates += 1
            child = embedding.extend(word)
            if not computation.filter(child):
                continue
            stats.processed_embeddings += 1
            if profile:
                t0 = time.perf_counter()
                computation.process(child)
                _add_phase(phase_seconds, "P", time.perf_counter() - t0)
            else:
                computation.process(child)
            if computation.termination_filter(child):
                continue
            if profile:
                t0 = time.perf_counter()
                canonical_pattern, _ = canonicalizer.canonicalize(child.pattern())
                _add_phase(phase_seconds, "P", time.perf_counter() - t0)
                t0 = time.perf_counter()
                store.add(canonical_pattern, child.words)
                _add_phase(phase_seconds, "W", time.perf_counter() - t0)
            else:
                canonical_pattern, _ = canonicalizer.canonicalize(child.pattern())
                store.add(canonical_pattern, child.words)
    delta.work_units += work


def _add_phase(phase_seconds: dict[str, float], phase: str, seconds: float) -> None:
    phase_seconds[phase] = phase_seconds.get(phase, 0.0) + seconds
