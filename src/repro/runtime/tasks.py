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
it has one), a guided :class:`~repro.plan.MatchingPlan`'s fused bitset
kernel, or a multi-query :class:`~repro.plan.PlanDAG`'s set-of-active-nodes
kernel — is the *stepper's* business (:mod:`repro.plan.stepper`): the
passes below call ``zero_pool``/``accept``/``advance`` and never look at
the plan (the task reads it once, from the computation's ``plan``, to
pick the stepper).  A guided plan's ordering restrictions already
guarantee each occurrence is generated exactly once, so its check
replaces canonicality; a DAG stores
the extended embedding once no matter how many patterns it advances —
emission happens once per accepting leaf inside the computation.  On a
*terminal level* (every live plan member completes at the next word, or
an exhaustive computation names the children's size as its last) the
survivor masks are never decoded: the computation's ``process_terminal``
hook aggregates them by popcount.  Every filter runs on pools, not on
one candidate at a time: step 0 hands a worker's rank range of the
step-0 pool to ``accept`` as one window mask, and an ODAG read hands each
path prefix's successor set to ``accept``, then φ.  Everything else
(stores, aggregation, deltas, backends) is the same for all three, which
is what keeps guided runs byte-identical across backends and worker
counts too.
"""

from __future__ import annotations

import copy
import time
from functools import partial
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
from ..core.config import ArabesqueConfig
from ..core.embedding import make_embedding
from ..core.pattern import Pattern, PatternCanonicalizer
from ..core.results import StepStats, WorkerDelta, log_outputs
from ..core.storage import PLAN_LEVEL, EmbeddingStore, ListStore, make_store
from ..graph.bitset import filter_bitset, from_bitset
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
    #: per-task context, so the original is never written to.  Its
    #: ``exploration_mode`` and ``plan`` (``None`` selects the exhaustive
    #: path) say how the step explores.
    computation: Computation
    #: The run's configuration, read-only: worker count, storage mode,
    #: output collection, phase profiling, spill budget and the
    #: cancellation flag (live in serial/thread workers and the process
    #: backend's chunk 0; see :class:`~repro.core.budget.CancelFlag`).
    config: ArabesqueConfig
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
    #: :data:`~repro.core.budget.DEADLINE_CHECK_INTERVAL` units of work so a
    #: single pathological step fails fast instead of only at the next
    #: barrier; ``time.monotonic`` is the system-wide ``CLOCK_MONOTONIC``
    #: on Linux, so the instant is comparable inside the process
    #: backend's forked workers too.
    deadline_at: float | None = None
    #: The run's private spill root, where this step's worker stores write
    #: their segments if they spill (not ``config.spill_dir``, the parent
    #: directory the engine names it under).
    spill_dir: str | None = None


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
        canonicalizer: PatternCanonicalizer | None,
    ) -> None:
        self._context = context
        self._delta = delta
        self._local_agg = local_agg
        self._local_out = local_out
        self._canonicalizer = canonicalizer
        config = context.config
        #: Outputs this task may still log (``None``: no limit).
        self._room = config.output_limit if config.collect_outputs else 0

    def output(self, value: Any) -> None:
        self._delta.num_outputs += 1
        self._room = log_outputs(self._delta.output_log, [value], self._room)

    def output_batch(self, words: tuple[int, ...], mask: int) -> None:
        count = mask.bit_count()
        self._delta.num_outputs += count
        record = (words, mask, count)
        self._room = log_outputs(self._delta.output_log, record, self._room)

    def map(self, key: Hashable, value: Any) -> None:
        self._local_agg.map(key, value)

    def map_output(self, key: Hashable, value: Any) -> None:
        self._local_out.map(key, value)

    def read_aggregate(self, key: Hashable) -> Any:
        if isinstance(key, Pattern) and self._canonicalizer:
            key = self._canonicalizer.canonicalize(key)[0]
        return self._context.published_aggregates.get(key)

    def note_domain_hits(self, count: int) -> None:
        # Guided domain accumulation (plan-guided FSM) reports how many
        # per-vertex images it recorded; the counter merges at the step
        # barrier like every other StepStats field, so the tally is
        # backend- and worker-count-invariant.
        self._delta.counters.domain_hits += count


def check_interrupts(deadline_at: float | None, cancel: CancelFlag | None) -> None:
    """Raise if one of the two cooperative interrupts has tripped: external
    cancellation (:class:`RunCancelled`) or the deadline budget
    (:class:`BudgetExceeded`).  The task sees only the expiry instant; the
    engine re-raises deadline trips with the run-level limit filled in."""
    if cancel is not None and cancel.is_set():
        raise RunCancelled("run cancelled mid-step")
    if deadline_at is not None and time.monotonic() > deadline_at:
        raise BudgetExceeded(DEADLINE_BUDGET)


def _probe_interrupts(
    deadline_at: float | None,
    cancel: CancelFlag | None,
    count: int,
) -> None:
    """Step 0's periodic probe: :func:`check_interrupts` every
    DEADLINE_CHECK_INTERVAL roots, so one pathological step cannot run
    minutes past its cutoff before reaching the barrier."""
    if count % DEADLINE_CHECK_INTERVAL == 0:
        check_interrupts(deadline_at, cancel)


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
    the computation runs no plan — the hook is defined over an exhaustive
    extension mask."""
    if computation.plan is not None:
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
    mode = computation.exploration_mode
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
    config = context.config
    computation = copy.copy(context.computation)
    # A guided run canonicalizes nothing: its rows are keyed by plan level
    # and its aggregation keys are its plan members' canonical patterns.
    canonicalizer = None if computation.plan is not None else PatternCanonicalizer(
        config.two_level_aggregation, seed_cache=context.pattern_cache
    )
    local_agg = LocalAggregation(computation.reduce, canonicalizer)
    local_out = LocalAggregation(computation.reduce_output, canonicalizer)
    # Per-(step, worker) segment tag so every task in the step can share
    # the run's spill root without filename collisions.
    store = make_store(
        config.storage,
        spill_dir=context.spill_dir,
        spill_budget_nbytes=config.spill_budget_nbytes,
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
    timed = _phase_timer(phases) if config.profile_phases else _untimed
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
        if hook is not None and config.two_level_aggregation
        else None
    )
    stepper = make_stepper(
        computation.plan,
        context.graph,
        computation.exploration_mode,
        config.incremental_canonicality,
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
    if canonicalizer is not None:
        delta.pattern_requests = canonicalizer.requests
        delta.isomorphism_runs = canonicalizer.isomorphism_runs
        delta.new_pattern_entries = canonicalizer.new_entries()
    return delta


def run_step_chunk(
    context: StepContext, worker_ids: Sequence[int]
) -> list[WorkerDelta]:
    """Run several workers' tasks back to back (per-worker chunking).

    The process backend hands each process one chunk so a step costs one
    process and one delta batch per chunk instead of per logical worker.
    """
    return [run_step_task(context, worker_id) for worker_id in worker_ids]


# ----------------------------------------------------------------------
# The two passes (Algorithm 1, split by step number)
# ----------------------------------------------------------------------
def _settler(
    computation: Computation,
    keep,
    canonicalizer: PatternCanonicalizer | None,
    store: EmbeddingStore,
    stats: StepStats,
    timed,
):
    """The tail both passes share, for one accepted embedding: φ (``keep``),
    π, the termination filter, then the write to set F under its canonical
    pattern — charged to P (paper Figure 12: P = pattern aggregation), only
    the store write to W — or, guided (no ``canonicalizer``), under the
    plan-level key: the plan already said what the row is."""
    process = timed("P", computation.process)
    terminates = computation.termination_filter
    canonicalize = canonicalizer and timed("P", canonicalizer.canonicalize)
    add = timed("W", store.add)

    def settle(embedding) -> None:
        if not keep(embedding):
            return
        stats.processed_embeddings += 1
        process(embedding)
        if terminates(embedding):
            return
        key = canonicalize(embedding.pattern())[0] if canonicalize else PLAN_LEVEL
        add(key, embedding.words)

    return settle


def _initial_pass(
    context: StepContext, worker_id: int, stepper, settle, delta: WorkerDelta
) -> None:
    """Step 0: expand the "undefined" embedding — this worker's rank range
    of the stepper's step-0 pool (all vertices/edges, or a plan's own
    pool).  Every worker builds the same sorted pool from its own stepper,
    so the partition stays deterministic with no coordination.  The range
    is one window mask from its first to its last word, which holds no
    other pool word, and the stepper's ``accept`` filters it whole."""
    graph = context.graph
    mode = context.computation.exploration_mode
    stats = delta.counters
    pool = stepper.zero_pool()
    total = len(pool)
    num_workers = context.config.num_workers
    start = total * worker_id // num_workers
    end = total * (worker_id + 1) // num_workers
    window = (1 << (pool[end - 1] + 1)) - (1 << pool[start]) if end > start else 0
    roots = from_bitset(stepper.accept((), window))
    stats.candidates_generated += end - start
    stats.canonical_candidates += len(roots)
    deadline_at = context.deadline_at
    cancel = context.config.cancel
    for count, word in enumerate(roots):
        _probe_interrupts(deadline_at, cancel, count)
        settle(make_embedding(graph, mode, (word,)))
    stats.add_work(worker_id, len(roots))


def _expansion_pass(
    context: StepContext,
    worker_id: int,
    computation: Computation,
    canonicalizer: PatternCanonicalizer | None,
    stepper,
    children,
    hook,
    settle,
    timed,
    delta: WorkerDelta,
) -> None:
    """Steps >= 1: read a share of set I, apply α/β, expand, φ/π, write.
    ``children`` filters spurious ODAG paths during the read (charged to
    R); ``hook`` is the terminal-level ``process_terminal`` or ``None``.
    A guided ODAG is one plan level, read by membership: ``children``
    proved the path a valid plan prefix, each generated once and stored
    iff the termination filter is false for it (DAG members finish at
    different depths) — no isomorphism test."""
    graph = context.graph
    mode = computation.exploration_mode
    batch = hook is not None
    if batch:
        hook = timed("P", hook)
    advance = timed("G", stepper.advance)
    global_store = context.global_store
    # List stores (spilled or not) hold exact embeddings; only ODAG paths
    # can be spurious.
    verify = not isinstance(global_store, ListStore)
    terminates = computation.termination_filter
    stats = delta.counters
    assert global_store is not None, "expansion context must carry set I"
    work = 0
    read = timed(
        "R",
        partial(
            next,
            global_store.extract_partition(
                worker_id, context.config.num_workers, children
            ),
            None,
        ),
    )
    deadline_at = context.deadline_at
    cancel = context.config.cancel
    # Probe on work done (parents read plus candidates generated), so the
    # gap between probes is bounded by work, not by a count of parents.
    next_probe = 0
    while True:
        if work >= next_probe:
            check_interrupts(deadline_at, cancel)
            next_probe = work + DEADLINE_CHECK_INTERVAL
        item = read()
        if item is None:
            break
        store_pattern, words = item
        work += 1
        embedding = make_embedding(graph, mode, words)
        # An exhaustive path through pattern B's ODAG can spell out a valid
        # canonical embedding of pattern A, whose real copy is in A's ODAG.
        if verify and (
            canonicalizer.canonicalize(embedding.pattern())[0] != store_pattern
            if canonicalizer
            else terminates(embedding)
        ):
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
