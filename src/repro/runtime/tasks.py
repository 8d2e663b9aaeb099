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

How an embedding is expanded — exhaustive extension and canonicality
masks (with the computation's pool-level φ, ``filter_extensions``, where
it has one), a guided :class:`~repro.plan.MatchingPlan`'s fused bitset kernel, or a
multi-query :class:`~repro.plan.PlanDAG`'s set-of-active-nodes kernel —
is the *stepper's* business (:mod:`repro.plan.stepper`): the passes below
call ``zero_pool``/``check``/``advance`` and never look at the plan.  A
guided plan's ordering restrictions already guarantee each occurrence is
generated exactly once, so its check replaces canonicality; a DAG stores
the extended embedding once no matter how many patterns it advances —
emission happens once per accepting leaf inside the computation.  On a
*terminal level* (every live plan member completes at the next word, or
an exhaustive computation names the children's size as its last) the
survivor masks are never decoded: the computation's ``process_terminal``
hook aggregates them by popcount.  The read is pool-level too: an ODAG
hands each path prefix's successor set to one filter — the stepper's
``accept`` mask, then φ — instead of testing paths one by one.  Everything else
(stores, aggregation, deltas, backends) is the same for all three, which
is what keeps guided runs byte-identical across backends and worker
counts too.
"""

from __future__ import annotations

import copy
import time
from functools import partial
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
from ..core.computation import Computation, ComputationContext
from ..core.embedding import make_embedding
from ..core.pattern import Pattern, PatternCanonicalizer
from ..core.results import StepStats, WorkerDelta
from ..core.storage import (
    DEFAULT_SPILL_BUDGET_NBYTES,
    EmbeddingStore,
    LIST_STORAGE,
    SPILL_STORAGE,
    make_store,
)
from ..graph.bitset import filter_bitset
from ..plan.dag import PlanDAG
from ..plan.planner import MatchingPlan
from ..plan.stepper import make_stepper


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


def _trusted_hook(computation: Computation, hook: str, replaces: tuple[str, ...]):
    """The optional ``hook`` of ``computation`` (``None`` if absent), unless
    a subclass refines one of the methods it ``replaces`` below the class
    that wrote the hook — which would leave the hook answering for code
    that no longer runs."""
    for klass in type(computation).__mro__:
        defined = vars(klass)
        if hook in defined:
            return getattr(computation, hook)
        if any(name in defined for name in replaces):
            return None


def _terminal_hook(computation: Computation, pool_filter):
    """``process_terminal`` when it may replace the per-child loop: φ is
    the base accept-all or is stood in for by ``pool_filter`` (a trusted
    ``filter_extensions``), and no subclass refines ``process``/
    ``termination_filter`` below the class that wrote the hook."""
    if type(computation).filter is not Computation.filter and pool_filter is None:
        return None
    return _trusted_hook(
        computation, "process_terminal", ("process", "termination_filter")
    )


def _extension_filter(computation: Computation):
    """``filter_extensions`` when it may stand in for the per-child φ: no
    subclass refines ``filter`` below the class that wrote the hook, and
    the computation is not plan-compatible — the hook is defined over an
    exhaustive extension mask, and the engine pairs no plan with a
    computation that has not opted in."""
    if computation.plan_compatible:
        return None
    return _trusted_hook(computation, "filter_extensions", ("filter",))


def _accept_all(embedding) -> bool:
    """φ of children the stepper already filtered as a pool."""
    return True


def _successor_filter(context: StepContext, computation, stepper, pool_filter):
    """ODAG extraction's spurious-path filter (a
    :data:`~repro.core.odag.PoolFilter`): of a path prefix's successor
    pool, the words the stepper accepts (Algorithm 2 canonicality, or the
    plan's constraint check in guided mode), then φ — the computation's
    pool-level hook where trusted, else per child.  Both are anti-monotone,
    so a dropped word prunes its whole subtree (section 5.2)."""
    accept = stepper.accept
    if pool_filter is not None:
        return lambda prefix, pool: pool_filter(prefix, accept(prefix, pool))
    graph = context.graph
    mode = context.mode
    keep = computation.filter

    def children(prefix: tuple[int, ...], pool: int) -> int:
        return filter_bitset(
            accept(prefix, pool),
            lambda word: keep(make_embedding(graph, mode, prefix + (word,))),
        )

    return children


def _untimed(phase: str, call):
    """``profile_phases`` off: every phase runs as the raw callable."""
    return call


def _phase_timer(phase_seconds: dict[str, float]):
    """``timed(phase, call)``: ``call``, charging its wall time to ``phase``
    (W/R/G/C/P — paper Figure 12).  A timed call running inside another
    (the exhaustive check inside ``advance``) is charged once, to the inner
    phase, so the phases never sum past the task's wall."""
    clock = time.perf_counter
    charged = 0.0  # seconds charged to any phase so far

    def timed(phase: str, call):
        def timed_call(*args):
            nonlocal charged
            before = charged
            started = clock()
            result = call(*args)
            elapsed = clock() - started
            phase_seconds[phase] = (
                phase_seconds.get(phase, 0.0) + elapsed - (charged - before)
            )
            charged = before + elapsed
            return result

        return timed_call

    return timed


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
    # Per-(step, worker) segment tag so every task in the step can share
    # the run's spill root without filename collisions.
    store = make_store(
        context.storage,
        spill_dir=context.spill_dir,
        spill_budget_nbytes=context.spill_budget_nbytes,
        spill_tag=f"s{context.step}w{worker_id}",
    )
    delta = WorkerDelta(
        worker_id=worker_id,
        local_store=store,
        counters=StepStats(step=context.step),
    )
    task_context = WorkerTaskContext(
        context, delta, local_agg, local_out, canonicalizer
    )
    # The one place phase timing is decided: every phase callable below is
    # passed through ``timed`` once, before any loop runs.
    phases = delta.counters.phase_seconds
    timed = _phase_timer(phases) if context.profile_phases else _untimed
    # One stepper per task.  A DAG's is shared with the computation's own
    # hooks (process/termination run on the same task copy): its
    # survivor-walk memo is private to this pure task.
    pool_filter = _extension_filter(computation)
    # Terminal level: children that all finish reach the computation as
    # undecoded masks, never materialised.  A plan knows its own last
    # level; an exhaustive computation names its (``terminal_size``) —
    # unless every embedding must be canonicalized on its own.
    hook = _terminal_hook(computation, pool_filter)
    terminal_size = (
        computation.terminal_size
        if hook is not None and context.two_level_aggregation
        else None
    )
    stepper = make_stepper(
        context.plan,
        context.graph,
        context.mode,
        context.incremental_canonicality,
        computation,
        wrap_check=partial(timed, "C"),
        pool_filter=pool_filter,
        terminal_size=terminal_size,
    )
    # φ runs per child — except on an expansion's children when the
    # stepper applied it to their whole pool (step 0 has no pool hook).
    keep = (
        computation.filter
        if pool_filter is None or context.step == 0
        else _accept_all
    )
    settle = _settler(computation, keep, canonicalizer, store, delta.counters, timed)
    computation.bind_context(task_context)
    try:
        if context.step == 0:
            _initial_pass(context, worker_id, stepper, settle, delta)
        else:
            _expansion_pass(
                context, worker_id, computation, canonicalizer, stepper,
                _successor_filter(context, computation, stepper, pool_filter),
                hook, settle, timed, delta,
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
def _settler(
    computation: Computation,
    keep,
    canonicalizer: PatternCanonicalizer,
    store: EmbeddingStore,
    stats: StepStats,
    timed,
):
    """The tail both passes share, for one accepted embedding: φ (``keep``),
    π, the termination filter, then the write to set F under its canonical
    pattern.  Pattern canonicalization is charged to P (paper Figure 12:
    P = pattern aggregation), only the store write to W."""
    process = timed("P", computation.process)
    terminates = computation.termination_filter
    canonicalize = timed("P", canonicalizer.canonicalize)
    add = timed("W", store.add)

    def settle(embedding) -> None:
        if not keep(embedding):
            return
        stats.processed_embeddings += 1
        process(embedding)
        if terminates(embedding):
            return
        canonical_pattern, _ = canonicalize(embedding.pattern())
        add(canonical_pattern, embedding.words)

    return settle


def _initial_pass(
    context: StepContext, worker_id: int, stepper, settle, delta: WorkerDelta
) -> None:
    """Step 0: expand the "undefined" embedding — this worker's rank range
    of the stepper's step-0 pool (all vertices/edges, or a plan's own
    pool).  Every worker builds the same sorted pool from its own stepper,
    so the partition stays deterministic with no coordination."""
    graph = context.graph
    mode = context.mode
    stats = delta.counters
    pool = stepper.zero_pool()
    check = stepper.check
    total = len(pool)
    num_workers = context.num_workers
    start = total * worker_id // num_workers
    end = total * (worker_id + 1) // num_workers
    deadline_at = context.deadline_at
    cancel = context.cancel
    work = 0
    for index in range(start, end):
        _probe_interrupts(deadline_at, cancel, index - start)
        word = pool[index]
        stats.candidates_generated += 1
        if not check(graph, (), word):
            continue
        stats.canonical_candidates += 1
        work += 1
        settle(make_embedding(graph, mode, (word,)))
    stats.add_work(worker_id, work)


def _expansion_pass(
    context: StepContext,
    worker_id: int,
    computation: Computation,
    canonicalizer: PatternCanonicalizer,
    stepper,
    children,
    hook,
    settle,
    timed,
    delta: WorkerDelta,
) -> None:
    """Steps >= 1: read a share of set I, apply α/β, expand, φ/π, write.
    ``children`` filters spurious ODAG paths during the read (charged to
    R); ``hook`` is the terminal-level ``process_terminal`` or ``None``."""
    graph = context.graph
    mode = context.mode
    batch = hook is not None
    if batch:
        hook = timed("P", hook)
    advance = timed("G", stepper.advance)
    # List-format stores (plain or spilled) hold exact embeddings under
    # their true canonical pattern; only ODAG paths can be spurious.
    verify_pattern = context.storage not in (LIST_STORAGE, SPILL_STORAGE)
    stats = delta.counters
    global_store = context.global_store
    assert global_store is not None, "expansion context must carry set I"
    work = 0
    read = timed(
        "R",
        partial(
            next,
            global_store.extract_partition(worker_id, context.num_workers, children),
            None,
        ),
    )
    deadline_at = context.deadline_at
    cancel = context.cancel
    probe_count = 0
    while True:
        _probe_interrupts(deadline_at, cancel, probe_count)
        probe_count += 1
        item = read()
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

        # One expansion, whatever the stepper: the pool's size, how many
        # of it were accepted, and the accepted extensions — as words
        # (those a pool-level φ kept), settled one child at a time, or on
        # a terminal level as ``terminal`` children left in undecoded
        # masks, which go to the hook whole.
        num_candidates, num_accepted, found, terminal = advance(words, batch)
        stats.candidates_generated += num_candidates
        stats.canonical_candidates += num_accepted
        work += num_candidates
        if terminal is not None:
            if found:
                stats.processed_embeddings += terminal
                stats.batched_embeddings += terminal
                hook(words, found)
            continue
        for word in found:
            settle(embedding.extend(word))
    stats.add_work(worker_id, work)
