"""Process backend: real multi-core execution via multiprocessing.

This is the backend that makes ``num_workers`` change wall-clock time, not
just the metered simulation — the paper's Figure 8 scalability claim made
physical.  Per step it runs the worker tasks across a pool of OS processes
with **per-worker chunking**: the logical workers are split into one
contiguous chunk per process, so a step costs one task message (and one
delta batch) per process rather than per worker.

Data movement mirrors the real system's communication pattern:

* **broadcast of the global state** — on platforms with ``fork`` (Linux),
  the step context (graph, previous step's store, published aggregates) is
  inherited copy-on-write by forking the pool at each step barrier, which
  ships the graph zero times; on spawn-only platforms it is pickled once
  per pool process via the initializer;
* **the shuffle** — each process pickles its workers' deltas (local
  stores, aggregation partials, outputs) back to the engine, which merges
  them exactly as it merges serial deltas.

Requirements: the computation and its aggregation values must be picklable
(all bundled applications are).  Results are byte-identical to the serial
backend for any worker count.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import threading

from ..core.config import PROCESS_BACKEND
from ..core.results import WorkerDelta
from .base import ExecutionBackend
from .tasks import StepContext, run_step_chunk

#: Step context a forked pool process inherits copy-on-write.  Guarded by
#: _FORK_LOCK for the set -> fork window only: once the pool has forked,
#: every child owns its COW snapshot and the parent slot can be cleared,
#: so concurrent engines (e.g. a threaded parameter sweep, each with its
#: own ProcessBackend) serialize only their forks, not their steps.
_FORK_CONTEXT: StepContext | None = None
_FORK_LOCK = threading.Lock()
#: Step context a spawned pool process unpickles in its initializer.
_SPAWN_CONTEXT: StepContext | None = None


def _fork_chunk(worker_ids: list[int]) -> list[WorkerDelta]:
    assert _FORK_CONTEXT is not None, "fork pool started without a step context"
    return run_step_chunk(_FORK_CONTEXT, worker_ids)


def _spawn_init(context_bytes: bytes) -> None:
    global _SPAWN_CONTEXT
    _SPAWN_CONTEXT = pickle.loads(context_bytes)


def _spawn_chunk(worker_ids: list[int]) -> list[WorkerDelta]:
    assert _SPAWN_CONTEXT is not None, "spawn pool started without a step context"
    return run_step_chunk(_SPAWN_CONTEXT, worker_ids)


def _chunk_worker_ids(num_workers: int, num_chunks: int) -> list[list[int]]:
    """Contiguous near-equal chunks of worker ids, one per pool process."""
    chunks = []
    for chunk in range(num_chunks):
        start = num_workers * chunk // num_chunks
        end = num_workers * (chunk + 1) // num_chunks
        if end > start:
            chunks.append(list(range(start, end)))
    return chunks


class ProcessBackend(ExecutionBackend):
    """Run worker tasks across OS processes (fork when available)."""

    name = PROCESS_BACKEND

    def __init__(self, processes: int | None = None) -> None:
        #: Pool size; ``None`` = min(num_workers, CPU count), at least 2 so
        #: a 4-worker run on a small machine still overlaps with the merge.
        self.processes = processes
        self._mp = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods() else None
        )

    def _pool_size(self, num_workers: int) -> int:
        if self.processes is not None:
            return min(self.processes, num_workers)
        cpus = os.cpu_count() or 1
        return min(num_workers, max(cpus, 2))

    def run_step(self, context: StepContext) -> list[WorkerDelta]:
        global _FORK_CONTEXT
        num_workers = context.num_workers
        processes = self._pool_size(num_workers)
        if num_workers == 1 or processes == 1:
            return self._run_serially(context)
        chunks = _chunk_worker_ids(num_workers, processes)
        if self._mp.get_start_method() == "fork":
            # The pool forks inside the lock, snapshotting the context
            # copy-on-write; children then read their own snapshot, so the
            # parent slot is cleared before the (long) map runs.
            with _FORK_LOCK:
                _FORK_CONTEXT = context
                try:
                    pool = self._mp.Pool(processes=len(chunks))
                finally:
                    _FORK_CONTEXT = None
            with pool:
                per_chunk = pool.map(_fork_chunk, chunks)
        else:
            context_bytes = pickle.dumps(context)
            with self._mp.Pool(
                processes=len(chunks),
                initializer=_spawn_init,
                initargs=(context_bytes,),
            ) as pool:
                per_chunk = pool.map(_spawn_chunk, chunks)
        deltas = [delta for chunk_deltas in per_chunk for delta in chunk_deltas]
        deltas.sort(key=lambda delta: delta.worker_id)
        return deltas
