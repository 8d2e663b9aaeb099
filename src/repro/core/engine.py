"""The Arabesque exploration engine — Algorithm 1, distributed and metered.

Each *exploration step* performs, per logical worker:

1. **read (R)** — extract this worker's rank-range share of the previous
   step's global store, re-applying the canonicality check and filter φ —
   both over each path prefix's whole successor pool — to discard spurious
   ODAG paths (section 5.2);
2. **aggregation filter/process (α/β)** — now that the generation step's
   aggregates are readable;
3. **generate (G)** — the one-word extensions of each surviving
   embedding, as one bitset;
4. **canonicality (C)** — Algorithm 2 over that whole pool at once
   (:func:`~repro.core.canonical.canonical_extension_mask`), the
   coordination-free dedup of section 5.1;
5. **filter/process (φ/π)** — the user functions; π may ``map``/``output``
   (φ too runs on the pool where the computation offers
   ``filter_extensions``, and a last level whose children all terminate is
   finished from the φ-kept mask by ``process_terminal``);
6. **write (W)** — survivors (minus termination-filtered ones) go to the
   worker-local store under their canonical pattern.

The per-worker work is packaged as a **pure step task**
(:func:`repro.runtime.tasks.run_step_task`): an immutable
:class:`~repro.runtime.tasks.StepContext` in, a mergeable
:class:`~repro.core.results.WorkerDelta` out, no shared mutable state during
the pass.  A pluggable :class:`~repro.runtime.ExecutionBackend` decides how
the tasks run — sequentially (default), on threads, or on OS processes for
real multi-core speedup — while the engine's delta merge (always in
worker-id order) keeps results byte-identical across backends and worker
counts, a property the test suite checks explicitly.

After all workers finish, the engine simulates the communication rounds of
the real system and meters them onto the step's one
:class:`~repro.core.results.StepStats` (docs/architecture.md, substitution
1; pricing the meters is a reader's job, :mod:`repro.bsp.cost_model`): the
aggregation shuffle (one message per reduced key), the per-array-entry ODAG
merge shuffle, and the broadcast of the merged global store.  The run
terminates when a step stores nothing (set F empty).
"""

from __future__ import annotations

import shutil
import tempfile
import time
from typing import TYPE_CHECKING, Any, Hashable

from ..graph import LabeledGraph
from .aggregation import AggregationChannel, merge_partials
from .budget import (
    BudgetExceeded,
    DEADLINE_BUDGET,
    EMBEDDING_BUDGET,
    RunCancelled,
)
from .computation import Computation
from .config import ArabesqueConfig
from .embedding import EDGE_EXPLORATION, VERTEX_EXPLORATION
from .pattern import PatternCanonicalizer
from .results import RunResult, StepStats, WorkerDelta
from .storage import (
    ADAPTIVE_STORAGE,
    LIST_STORAGE,
    ODAG_STORAGE,
    SPILL_STORAGE,
    SpillListStore,
    make_store,
)
from .wire import estimate_size

if TYPE_CHECKING:  # pragma: no cover - import cycle guard; see run()
    from ..checkpoint.snapshot import CheckpointWriter, ResumeState
    from ..runtime import ExecutionBackend, StepContext

AGGREGATE_CHANNEL = "aggregate"
OUTPUT_CHANNEL = "output"


class ExplorationError(RuntimeError):
    """Raised when exploration exceeds the configured step bound."""


class ArabesqueEngine:
    """Runs one :class:`~repro.core.computation.Computation` on one graph.

    ``backend`` overrides the backend that ``config.backend`` would select
    (useful for injecting a tuned/instrumented backend); when the engine
    builds the backend itself it also closes it when the run finishes.

    ``universe`` injects a precomputed step-0 candidate set (every vertex
    or every edge, depending on the computation's exploration mode).  A
    session running many queries against one graph (:class:`repro.session.Miner`)
    computes it once and reuses it; ``None`` (default) computes it here.
    """

    def __init__(
        self,
        graph: LabeledGraph,
        computation: Computation,
        config: ArabesqueConfig | None = None,
        backend: ExecutionBackend | None = None,
        universe: tuple[int, ...] | None = None,
        checkpointer: "CheckpointWriter | None" = None,
    ) -> None:
        self.graph = graph
        self.computation = computation
        self.config = config or ArabesqueConfig()
        self._mode = computation.exploration_mode
        if self._mode not in (VERTEX_EXPLORATION, EDGE_EXPLORATION):
            raise ValueError(f"unknown exploration mode {self._mode!r}")
        if self.config.plan is not None:
            if self._mode != VERTEX_EXPLORATION:
                raise ValueError(
                    "guided plans (and plan DAGs) drive vertex-based "
                    "exploration; edge-exploration computations cannot "
                    "run with config.plan"
                )
            if not computation.plan_compatible:
                raise ValueError(
                    f"{type(computation).__name__} has not opted into "
                    "plan-guided exploration (plan_compatible=False); "
                    "config.plan would silently restrict what it explores"
                )
        if computation.plan_compatible:
            # A plan-compatible computation interprets embeddings through
            # its own plan; if that differs from the plan steering the
            # runtime (including config.plan=None, i.e. exhaustive
            # exploration), the output would be silently wrong.
            declared = getattr(computation, "plan", None)
            if declared is not None and declared != self.config.plan:
                raise ValueError(
                    "computation carries a different plan than config.plan; "
                    "pass the same MatchingPlan to both (the session "
                    "facade and run_guided_fsm wire this up)"
                )
        #: Monotonic instant the run's deadline budget expires (set per
        #: run from ``config.deadline_seconds``; ``None`` = no deadline).
        self._deadline_at: float | None = None
        self._backend = backend
        #: Barrier-snapshot writer.  Injected (fault-injection harness,
        #: resume) or built lazily from ``config.checkpoint_dir``.
        self._checkpointer = checkpointer
        #: Spill-mode only: the run's private segment directory, created
        #: per run and removed when the run finishes.
        self._spill_root: str | None = None
        #: The step-0 candidate pool, computed once per engine by
        #: :meth:`_zero_pool` (step 0 used to rebuild it per worker; see
        #: bench note in benchmarks/_harness.py) — or, for exhaustive runs,
        #: injected by a session that already computed it for this graph
        #: and mode (a guided run's pool is its plan's own).
        if universe is not None:
            expected = (
                graph.num_vertices
                if self._mode == VERTEX_EXPLORATION
                else graph.num_edges
            )
            if len(universe) != expected:
                raise ValueError(
                    f"injected universe has {len(universe)} candidates but "
                    f"{self._mode} exploration of this graph needs {expected}"
                )
        self._universe = (
            tuple(universe)
            if universe is not None and self.config.plan is None
            else None
        )

    # ------------------------------------------------------------------
    def _zero_pool(self) -> tuple[int, ...]:
        """The step-0 candidate pool, computed once per run: every vertex
        or edge (exhaustive), a plan's first-step label index or
        whitelist, or the sorted-unique union of a DAG's root pools — the
        stepper knows which (:func:`repro.plan.stepper.make_stepper`).

        Computing it here — in the parent process, before any step task
        runs — avoids repeating a DAG's union merge in every worker, and
        building a DAG's stepper prewarms its structural mask bundle
        (:func:`repro.plan.dag.mask_bundle`), so the process backend's
        forks inherit the prebuilt masks copy-on-write instead of
        rebuilding them per fork.
        """
        if self._universe is None:
            # Imported lazily like the runtime (core.config <- plan).
            from ..plan.stepper import make_stepper

            stepper = make_stepper(self.config.plan, self.graph, self._mode)
            self._universe = tuple(stepper.zero_pool())
        return self._universe

    def _step_context(
        self,
        step: int,
        global_store,
        canonicalizer: PatternCanonicalizer,
        agg_channel: AggregationChannel,
    ) -> "StepContext":
        # Imported here (not at module top): repro.runtime's backends import
        # repro.core.config, so a module-level import would be circular.
        from ..runtime.tasks import StepContext

        config = self.config
        return StepContext(
            step=step,
            graph=self.graph,
            computation=self.computation,
            mode=self._mode,
            num_workers=config.num_workers,
            storage=config.storage,
            incremental_canonicality=config.incremental_canonicality,
            profile_phases=config.profile_phases,
            collect_outputs=config.collect_outputs,
            output_limit=config.output_limit,
            two_level_aggregation=config.two_level_aggregation,
            plan=config.plan,
            pattern_cache=canonicalizer.cache_snapshot(),
            published_aggregates=agg_channel.published(),
            universe=self._zero_pool() if step == 0 else None,
            global_store=global_store if step > 0 else None,
            deadline_at=self._deadline_at,
            spill_dir=self._spill_root,
            spill_budget_nbytes=config.spill_budget_nbytes,
            cancel=config.cancel,
        )

    def _merge_delta(
        self,
        delta: WorkerDelta,
        result: RunResult,
        stats: StepStats,
        canonicalizer: PatternCanonicalizer,
    ) -> None:
        """Fold one worker's delta into run state (call in worker-id order)."""
        config = self.config
        result.num_outputs += delta.num_outputs
        if config.collect_outputs and delta.outputs:
            limit = config.output_limit
            if limit is None:
                result.outputs.extend(delta.outputs)
            else:
                room = limit - len(result.outputs)
                if room > 0:
                    result.outputs.extend(delta.outputs[:room])
        stats.absorb(delta.counters)
        canonicalizer.absorb(
            delta.new_pattern_entries,
            delta.pattern_requests,
            delta.isomorphism_runs,
        )

    # ------------------------------------------------------------------
    def run(self, resume_state: "ResumeState | None" = None) -> RunResult:
        """Execute exploration steps until set F is empty; return results.

        ``resume_state`` (built by :func:`repro.checkpoint.resume_run` from
        a barrier snapshot) restarts the loop at the snapshotted step + 1
        with the merged store, aggregation channels, pattern cache, and run
        counters restored — the resumed run's result is byte-identical to
        an uninterrupted one because everything a later step reads was
        captured at the barrier.  The deadline budget is re-armed fresh;
        wall-clock accumulates across the crash.
        """
        config = self.config
        computation = self.computation
        cancel = config.cancel

        if resume_state is None:
            canonicalizer = PatternCanonicalizer(config.two_level_aggregation)
            result = RunResult()
            processed_total = 0
            start_step = 0
            global_store = None
            prior_wall = 0.0
        else:
            canonicalizer = resume_state.canonicalizer
            result = resume_state.result
            processed_total = resume_state.processed_total
            start_step = resume_state.step + 1
            global_store = resume_state.store
            prior_wall = resume_state.wall_seconds
        agg_channel = AggregationChannel(AGGREGATE_CHANNEL, computation.reduce)
        out_channel = AggregationChannel(
            OUTPUT_CHANNEL, computation.reduce_output, persistent=True
        )
        if resume_state is not None:
            agg_channel.restore(
                resume_state.agg_published, resume_state.agg_latest
            )
            out_channel.restore_accumulated(resume_state.out_accumulated)
        computation.init(self.graph, config)

        started = time.perf_counter()
        # Budget hook (core.budget): arm the deadline clock once per run,
        # and tally processed embeddings across barriers for the
        # deterministic max_embeddings check below.
        self._deadline_at = (
            None
            if config.deadline_seconds is None
            else time.monotonic() + config.deadline_seconds
        )

        checkpointer = self._checkpointer
        if checkpointer is None and config.checkpoint_dir is not None:
            # Imported lazily: the checkpoint package imports this module.
            from ..checkpoint.snapshot import CheckpointWriter

            checkpointer = CheckpointWriter(
                config.checkpoint_dir,
                keep=config.checkpoint_keep,
                fresh=resume_state is None,
            )
        if checkpointer is not None:
            from ..checkpoint.snapshot import build_payload

        from ..runtime.base import make_backend

        backend = self._backend or make_backend(config)
        owns_backend = self._backend is None
        if config.storage == SPILL_STORAGE:
            self._spill_root = tempfile.mkdtemp(
                prefix="arabesque-spill-", dir=config.spill_dir
            )
        try:
            for step in range(start_step, config.max_exploration_steps):
                if cancel is not None and cancel.is_set():
                    raise RunCancelled(
                        f"run cancelled at the step-{step} barrier"
                    )
                stats = StepStats(step=step, num_workers=config.num_workers)
                step_started = time.perf_counter()

                context = self._step_context(
                    step, global_store, canonicalizer, agg_channel
                )
                try:
                    deltas = backend.run_step(context)
                except BudgetExceeded as exc:
                    # A worker task tripped the mid-step deadline probe; it
                    # only sees the expiry instant, so re-raise with the
                    # run-level numbers filled in.
                    if self._deadline_at is None:
                        raise
                    now = time.monotonic()
                    raise BudgetExceeded(
                        DEADLINE_BUDGET,
                        config.deadline_seconds,
                        config.deadline_seconds
                        + max(0.0, now - self._deadline_at),
                    ) from exc
                for delta in deltas:
                    self._merge_delta(delta, result, stats, canonicalizer)
                local_stores = [delta.local_store for delta in deltas]
                agg_partials = [delta.agg_partials for delta in deltas]
                out_partials = [delta.out_partials for delta in deltas]

                self._meter_aggregation(agg_partials, stats)
                self._meter_aggregation(out_partials, stats)
                agg_channel.step_barrier(merge_partials(agg_channel, agg_partials))
                out_channel.step_barrier(merge_partials(out_channel, out_partials))

                prev_store = global_store
                global_store = self._merge_stores(
                    local_stores, stats, embedding_size=step + 1
                )
                if isinstance(prev_store, SpillListStore):
                    # The previous step's segments were fully read by this
                    # step's extraction passes; reclaim the disk now.
                    prev_store.dispose()
                stats.stored_embeddings = global_store.num_embeddings
                stats.storage_bytes = global_store.wire_size()
                stats.list_bytes = self._list_equivalent_bytes(global_store, step + 1)
                stats.num_patterns = len(global_store.patterns())
                result.peak_storage_bytes = max(
                    result.peak_storage_bytes, stats.storage_bytes
                )
                stats.wall_seconds = time.perf_counter() - step_started
                result.steps.append(stats)
                processed_total += stats.processed_embeddings
                if global_store.is_empty():
                    break
                # Snapshot hook, at the barrier right after the store
                # merge: everything a later step reads (merged store,
                # channel state, pattern cache, run counters) is captured
                # here, before the budget checks below so a budget-tripped
                # run can be resumed with a larger allowance.  The final
                # empty barrier is never snapshotted — the run is done.
                if (
                    checkpointer is not None
                    and (step + 1) % config.checkpoint_every == 0
                ):
                    checkpointer.write(
                        step,
                        build_payload(
                            graph=self.graph,
                            config=config,
                            mode=self._mode,
                            step=step,
                            processed_total=processed_total,
                            result=result,
                            store=global_store,
                            canonicalizer=canonicalizer,
                            agg_channel=agg_channel,
                            out_channel=out_channel,
                            computation=computation,
                            wall_seconds=prior_wall
                            + (time.perf_counter() - started),
                        ),
                    )
                # Budget checks, cooperatively at the step barrier: a run
                # that just finished (empty set F, the break above) always
                # returns its result — budgets only stop runs that still
                # have exploration ahead of them.  The embedding check
                # reads merged counters, so its trip point is identical
                # across backends and worker counts; the deadline check is
                # wall-clock best-effort (worker tasks also probe it
                # inside long steps — see runtime.tasks).
                if (
                    config.max_embeddings is not None
                    and processed_total > config.max_embeddings
                ):
                    raise BudgetExceeded(
                        EMBEDDING_BUDGET, config.max_embeddings, processed_total
                    )
                if self._deadline_at is not None:
                    now = time.monotonic()
                    if now > self._deadline_at:
                        raise BudgetExceeded(
                            DEADLINE_BUDGET,
                            config.deadline_seconds,
                            config.deadline_seconds + (now - self._deadline_at),
                        )
            else:
                raise ExplorationError(
                    f"exploration did not terminate within "
                    f"{config.max_exploration_steps} steps — "
                    "check the filter's anti-monotonicity"
                )
        finally:
            if owns_backend:
                backend.close()
            if self._spill_root is not None:
                # Barrier snapshots carry the store's rows, so spilled
                # segments never need to outlive the run.
                shutil.rmtree(self._spill_root, ignore_errors=True)
                self._spill_root = None

        result.wall_seconds = prior_wall + (time.perf_counter() - started)
        result.output_aggregates = out_channel.finalize()
        result.final_aggregates = agg_channel.latest()
        result.pattern_requests = canonicalizer.requests
        result.quick_patterns = canonicalizer.quick_patterns_seen
        result.canonical_patterns = canonicalizer.canonical_patterns_seen()
        result.isomorphism_runs = canonicalizer.isomorphism_runs
        return result

    # ------------------------------------------------------------------
    # Simulated communication rounds (metered)
    # ------------------------------------------------------------------
    def _meter_aggregation(
        self,
        per_worker_partials: list[dict[Hashable, Any]],
        stats: StepStats,
    ) -> None:
        """One message per (worker, reduced key): the aggregation shuffle."""
        for partials in per_worker_partials:
            for key, value in partials.items():
                stats.messages_sent += 1
                stats.bytes_sent += 8 + estimate_size(key) + estimate_size(value)

    def _merge_stores(
        self,
        local_stores,
        stats: StepStats,
        embedding_size: int,
    ):
        """Merge worker-local stores into the global one, metering traffic.

        ODAG mode reproduces the paper's two rounds: a map-reduce shuffle of
        individual array entries to owner workers, then a broadcast of every
        merged per-pattern ODAG to all workers (section 5.2).  List mode
        ships each embedding once to the worker that will expand it.
        Adaptive mode builds ODAGs but ships whichever format is smaller
        this step — the paper's sparse-graph fallback (section 6.3); the
        in-process representation stays an ODAG either way.
        """
        config = self.config
        merged = make_store(
            config.storage,
            spill_dir=self._spill_root,
            spill_budget_nbytes=config.spill_budget_nbytes,
            spill_tag=f"s{stats.step}m",
        )
        if config.storage in (LIST_STORAGE, SPILL_STORAGE):
            # Spill has list mode's wire semantics (each embedding ships
            # once to its expander), but the merged store — like the worker
            # locals — spills past the byte budget instead of growing.
            for store in local_stores:
                merged.merge(store)
                if isinstance(store, SpillListStore):
                    store.dispose()
            merged.sort()
            stats.messages_sent += merged.num_embeddings
            stats.bytes_sent += merged.wire_size()
            stats.shipped_format = LIST_STORAGE
            return merged

        shuffle_messages = 0
        shuffle_bytes = 0
        for store in local_stores:
            # One message per array entry: its word and level, plus 4 bytes
            # per outgoing edge — read off the bitsets by popcount.
            for pattern in store.patterns():
                odag = store.odag_for(pattern)
                entries = odag.num_entries()
                shuffle_messages += entries
                shuffle_bytes += 20 * entries + 4 * odag.num_edges()
            merged.merge(store)
        odag_bytes = merged.wire_size()
        list_bytes = self._list_equivalent_bytes(merged, embedding_size)
        # Adaptive: compare the *total* shipping cost of the two formats —
        # ODAGs pay the per-entry merge shuffle plus the broadcast; lists
        # ship each embedding once to its expander.
        ship_as_list = (
            config.storage == ADAPTIVE_STORAGE
            and list_bytes < shuffle_bytes + odag_bytes
        )
        if ship_as_list:
            stats.messages_sent += merged.num_embeddings
            stats.bytes_sent += list_bytes
            stats.shipped_format = LIST_STORAGE
            return merged
        stats.messages_sent += shuffle_messages
        stats.bytes_sent += shuffle_bytes
        if not merged.is_empty():
            stats.broadcast_messages += 1
            stats.broadcast_bytes += odag_bytes
        stats.shipped_format = ODAG_STORAGE
        return merged

    @staticmethod
    def _list_equivalent_bytes(global_store, embedding_size: int) -> int:
        """Bytes the stored set would occupy as plain word lists (Figure 9)."""
        return global_store.num_embeddings * (4 + 4 * embedding_size)


def run_computation(
    graph: LabeledGraph,
    computation: Computation,
    config: ArabesqueConfig | None = None,
    backend: ExecutionBackend | None = None,
    universe: tuple[int, ...] | None = None,
) -> RunResult:
    """One-call convenience wrapper: build an engine and run it."""
    return ArabesqueEngine(
        graph, computation, config, backend=backend, universe=universe
    ).run()
