"""Engine configuration."""

from __future__ import annotations

from dataclasses import dataclass

from .budget import CancelFlag
from .storage import DEFAULT_SPILL_BUDGET_NBYTES, ODAG_STORAGE, STORAGE_MODES

#: Execution-backend configuration values (see :mod:`repro.runtime`).
SERIAL_BACKEND = "serial"
THREAD_BACKEND = "thread"
PROCESS_BACKEND = "process"
BACKENDS = (SERIAL_BACKEND, THREAD_BACKEND, PROCESS_BACKEND)


@dataclass
class ArabesqueConfig:
    """Tunable knobs of one exploration run.

    The defaults match the paper's system: ODAG storage, two-level pattern
    aggregation, incremental canonicality checking.  The alternative values
    exist for the ablation experiments (Figures 10 and 11) and for the
    simulated-scalability sweeps (``num_workers``).  What a run computes
    beyond these knobs — a guided run's plan included — is the
    application's: :attr:`~repro.core.computation.Computation.plan`.
    """

    #: Logical workers the exploration is partitioned over.  The partition
    #: is identical for every backend; what changes is whether the workers'
    #: step tasks run sequentially or truly in parallel (``backend``).
    num_workers: int = 1
    #: Execution backend running the per-worker step tasks: ``"serial"``
    #: (one in-process loop, the default), ``"thread"`` (a thread pool —
    #: correct everywhere, but CPU-bound speedup only on GIL-free builds),
    #: or ``"process"`` (multiprocessing with per-worker chunking — real
    #: multi-core speedup; requires a picklable Computation).  Results are
    #: identical across backends by construction.
    backend: str = SERIAL_BACKEND
    #: ``"odag"`` (paper default), ``"list"`` (Figure 10 ablation),
    #: ``"adaptive"`` — ship whichever format is smaller per step
    #: (section 6.3's sparse-graph fallback, used by the paper's
    #: Instagram runs) — or ``"spill"``: list semantics under a byte
    #: budget, past which sorted segments go to disk.
    storage: str = ODAG_STORAGE
    #: Two-level pattern aggregation (section 5.4); False canonicalizes
    #: every mapped pattern individually (Figure 11 ablation).
    two_level_aggregation: bool = True
    #: Incremental canonicality checks (Algorithm 2); False re-checks the
    #: whole word sequence per candidate (ablation bench).
    incremental_canonicality: bool = True
    #: Safety bound on exploration steps; exceeded = misbehaving filter.
    max_exploration_steps: int = 100
    #: Cooperative wall-clock budget for the whole run, in seconds.  The
    #: engine checks it at every BSP step barrier (and worker tasks probe
    #: it periodically inside a step), raising a loud
    #: :class:`~repro.core.budget.BudgetExceeded` when elapsed time passes
    #: the allowance — the query service maps that to a 4xx so one
    #: pathological query fails fast instead of starving the pool.
    #: ``None`` (default) runs without a deadline.  An armed-but-untripped
    #: deadline never changes results.
    deadline_seconds: float | None = None
    #: Cooperative cap on *processed* embeddings summed over steps (the
    #: paper's "embeddings analyzed" figure).  Enforced at the step
    #: barrier on the merged counters, so the trip point is deterministic
    #: across backends and worker counts; tripping raises
    #: :class:`~repro.core.budget.BudgetExceeded`.  ``None`` = unbounded.
    max_embeddings: int | None = None
    #: Cooperative external cancellation (:class:`~repro.core.budget.CancelFlag`).
    #: The engine checks it at every BSP barrier and worker tasks probe it
    #: alongside the deadline probe, raising
    #: :class:`~repro.core.budget.RunCancelled` — how the query service
    #: stops a run whose client disconnected.  ``None`` = not cancellable.
    cancel: CancelFlag | None = None
    #: Directory for BSP-barrier checkpoints (see :mod:`repro.checkpoint`).
    #: When set, the engine writes a versioned, checksummed snapshot of the
    #: run's barrier state after each store merge, atomically
    #: (write-then-rename), so a killed run resumes from its last barrier
    #: instead of restarting; the newest two snapshots are kept.  ``None``
    #: (default) = no checkpointing.
    checkpoint_dir: str | None = None
    #: In-memory byte budget of ``"spill"`` storage before a worker's (or
    #: the merged global) store spills a sorted segment to disk; measured
    #: under the list wire model so it is comparable to reported
    #: ``storage_bytes``.
    spill_budget_nbytes: int = DEFAULT_SPILL_BUDGET_NBYTES
    #: Parent directory for the run's spill root (``None`` = system temp).
    #: The engine names a private subdirectory per run, the first store
    #: that spills makes it, and the engine removes it when the run
    #: finishes.
    spill_dir: str | None = None
    #: Keep outputs in memory.  Large runs can set a cap (counts stay exact).
    collect_outputs: bool = True
    output_limit: int | None = None
    #: Record per-phase wall-clock (Figure 12); off by default because the
    #: fine-grained timers roughly double candidate cost.
    profile_phases: bool = False

    def __post_init__(self) -> None:
        if self.num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if self.storage not in STORAGE_MODES:
            raise ValueError(
                f"unknown storage mode {self.storage!r} "
                f"(choose from {STORAGE_MODES})"
            )
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r} (choose from {BACKENDS})"
            )
        if self.max_exploration_steps < 1:
            raise ValueError("max_exploration_steps must be >= 1")
        if self.deadline_seconds is not None and not self.deadline_seconds > 0:
            raise ValueError(
                f"deadline_seconds must be positive when given "
                f"(got {self.deadline_seconds!r})"
            )
        if self.max_embeddings is not None and self.max_embeddings < 1:
            raise ValueError(
                f"max_embeddings must be >= 1 when given "
                f"(got {self.max_embeddings!r})"
            )
        if self.cancel is not None and not isinstance(self.cancel, CancelFlag):
            raise ValueError(
                "cancel must be a repro.core.budget.CancelFlag "
                f"(got {type(self.cancel).__name__})"
            )
        if self.output_limit is not None and self.output_limit < 0:
            raise ValueError(
                f"output_limit must be >= 0 when given "
                f"(got {self.output_limit!r})"
            )
        if self.spill_budget_nbytes < 1:
            raise ValueError("spill_budget_nbytes must be >= 1")
