"""Thread backend: worker tasks on a shared thread pool.

Tasks are pure and bind their framework context to a per-task shallow copy
of the computation, so threads share nothing mutable and the merged result
is identical to the serial backend's.  On the standard CPython build the
GIL serializes the pure-Python hot loops, so expect concurrency (useful
when user functions release the GIL — I/O, numpy, C extensions) rather
than CPU-bound speedup; on free-threaded builds the same code scales to
real parallelism.  Use the process backend for guaranteed multi-core
scaling.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

from ..core.config import THREAD_BACKEND
from ..core.results import WorkerDelta
from .base import ExecutionBackend
from .tasks import StepContext, run_step_task


class ThreadBackend(ExecutionBackend):
    """Run worker tasks on a lazily created, reusable thread pool."""

    name = THREAD_BACKEND

    def __init__(self) -> None:
        self._pool: ThreadPoolExecutor | None = None

    def run_step(self, context: StepContext) -> list[WorkerDelta]:
        num_workers = context.config.num_workers
        if num_workers == 1:
            return self._run_serially(context)
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=num_workers,
                thread_name_prefix="repro-worker",
            )
        # Executor.map preserves submission order, so deltas come back
        # sorted by worker id no matter which thread finished first.
        return list(
            self._pool.map(
                lambda worker_id: run_step_task(context, worker_id),
                range(num_workers),
            )
        )

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
