"""The pluggable execution-backend interface.

A backend answers one question: *how do the per-worker step tasks of one
exploration step actually execute?*  The engine builds an immutable
:class:`~repro.runtime.tasks.StepContext`, hands it to the backend, and
gets back one :class:`~repro.core.results.WorkerDelta` per logical worker,
ordered by worker id.  Everything else — partitioning, merging, metering —
is backend-independent, which is what guarantees the determinism invariant:
identical explored set, outputs, and aggregates for every backend at every
worker count.

Backends own whatever execution resources they need (thread pools) and
release them in :meth:`ExecutionBackend.close`; the engine closes a
backend it created itself when the run finishes.
"""

from __future__ import annotations

from ..core.config import (
    ArabesqueConfig,
    BACKENDS,
    PROCESS_BACKEND,
    SERIAL_BACKEND,
    THREAD_BACKEND,
)
from ..core.results import WorkerDelta
from .tasks import StepContext, run_step_task


class ExecutionBackend:
    """Runs one exploration step's worker tasks and returns their deltas."""

    #: Configuration name (one of :data:`repro.core.config.BACKENDS`).
    name: str = ""

    def run_step(self, context: StepContext) -> list[WorkerDelta]:
        """Execute ``run_step_task(context, w)`` for every worker ``w``.

        Must return exactly ``context.config.num_workers`` deltas sorted by
        ``worker_id`` — the engine merges them in that order to reproduce
        the serial schedule.
        """
        raise NotImplementedError

    def close(self) -> None:
        """Release pools and other execution resources (idempotent)."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- shared helper --------------------------------------------------
    @staticmethod
    def _run_serially(context: StepContext) -> list[WorkerDelta]:
        return [
            run_step_task(context, worker_id)
            for worker_id in range(context.config.num_workers)
        ]


def make_backend(config: ArabesqueConfig) -> ExecutionBackend:
    """Build the backend selected by ``config.backend``."""
    from .process import ProcessBackend
    from .serial import SerialBackend
    from .threads import ThreadBackend

    if config.backend == SERIAL_BACKEND:
        return SerialBackend()
    if config.backend == THREAD_BACKEND:
        return ThreadBackend()
    if config.backend == PROCESS_BACKEND:
        return ProcessBackend()
    raise ValueError(
        f"unknown backend {config.backend!r} (choose from {BACKENDS})"
    )
