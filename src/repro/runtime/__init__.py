"""Pluggable execution runtime: how worker step tasks actually run.

The Arabesque engine (:mod:`repro.core.engine`) expresses each exploration
step as ``num_workers`` pure tasks over an immutable
:class:`~repro.runtime.tasks.StepContext`; this package decides how those
tasks execute:

* :class:`SerialBackend` — one in-process loop (default; the reference);
* :class:`ThreadBackend` — a thread pool (concurrency; parallelism on
  GIL-free builds);
* :class:`ProcessBackend` — multiprocessing with per-worker chunking
  (real multi-core speedup).

Select one via ``ArabesqueConfig(backend="serial"|"thread"|"process")`` or
the CLI's ``--backend`` flag.  The determinism invariant — identical
explored set, outputs, and aggregates across all backends and worker
counts — is enforced by construction (pure tasks, worker-id-ordered delta
merge) and checked by ``tests/test_equivalence_matrix.py``.
"""

from .base import ExecutionBackend, make_backend
from .process import ProcessBackend
from .serial import SerialBackend
from .tasks import StepContext, WorkerTaskContext, run_step_chunk, run_step_task
from .threads import ThreadBackend

__all__ = [
    "ExecutionBackend",
    "ProcessBackend",
    "SerialBackend",
    "StepContext",
    "ThreadBackend",
    "WorkerTaskContext",
    "make_backend",
    "run_step_chunk",
    "run_step_task",
]
