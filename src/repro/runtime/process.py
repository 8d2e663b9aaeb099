"""Process backend: real multi-core execution via multiprocessing.

This is the backend that makes ``num_workers`` change wall-clock time — the
paper's Figure 8 scalability claim made physical.  Per step the logical
workers are split into one contiguous chunk per process (**per-worker
chunking**): one process and one delta batch per chunk, not per worker.

* **The driver is worker 0**: it runs chunk 0 itself while one child per
  other chunk computes the rest, instead of idling on a pool.
* **Fork ships nothing**: a forked child inherits the step context (graph,
  previous store, published aggregates) copy-on-write; spawn-only
  platforms pickle it once per child.  A child sends its deltas back down
  a one-way pipe and the engine merges them as it merges serial deltas.
* **The heap is frozen** (``gc.freeze``) from before the children start
  until the last delta arrives, so no child's collector scans — and so
  copy-on-write-dirties — the inherited heap, and the driver's chunk and
  delta decoding never re-walk it.  A caller's own frozen heap is left
  alone.  The freeze is process-wide: engines stepping concurrently in
  one process may unfreeze under each other, costing speed, never results.
* **Child death is loud**: a child that exits without reporting (SIGKILL,
  the OOM killer) raises :class:`ExplorationError` naming its worker ids
  and exit code, and any failure kills and reaps the other children
  first, so a step never hangs or leaves a process behind.
* **Waiting is interruptible**: while its children run, the driver probes
  the cancellation flag and the deadline every :data:`POLL_SECONDS`, as a
  serial task probes them between embeddings.

Processes start afresh each step: on 2 Xeon vCPUs (``cliques(4)``, 2
workers) a fork costs 5-18 ms, while shipping a long-lived process the
last step's 473 KB ODAG store would cost ~20 ms to pickle plus 17-31 ms to
unpickle in each child.  Computations and aggregation values must pickle.
Results are byte-identical to the serial backend at any worker count.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import pickle
from multiprocessing.connection import wait

from ..core.config import PROCESS_BACKEND
from ..core.engine import ExplorationError
from ..core.results import WorkerDelta
from .base import ExecutionBackend
from .tasks import StepContext, check_interrupts, run_step_chunk

#: Seconds between the driver's cancel/deadline probes while it waits on
#: its children.
POLL_SECONDS = 0.01


def _report_chunk(context: StepContext, worker_ids: list[int], sender) -> None:
    """Child body: send ``(True, deltas)`` or ``(False, exception)``."""
    try:
        sender.send((True, run_step_chunk(context, worker_ids)))
        return
    except Exception as exc:  # an interrupt or exit goes unreported: EOF
        failure = exc
    try:  # the driver must be able to unpickle the exception, too
        sender.send((False, pickle.loads(pickle.dumps(failure))))
    except Exception:
        error = f"process worker(s) {worker_ids} failed: {failure!r}"
        sender.send((False, ExplorationError(error)))


def _chunk_worker_ids(num_workers: int, num_chunks: int) -> list[list[int]]:
    """Contiguous near-equal chunks of worker ids, one per process."""
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

    def __init__(self) -> None:
        self._mp = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods() else None
        )

    @staticmethod
    def _pool_size(num_workers: int) -> int:
        """``min(num_workers, max(cpu_count, 2))``: capped at the CPU count,
        but never below 2 processes (the driver and one child), so every
        multi-worker run crosses a process boundary, as on a big machine."""
        cpus = os.cpu_count() or 1
        return min(num_workers, max(cpus, 2))

    def run_step(self, context: StepContext) -> list[WorkerDelta]:
        num_workers = context.config.num_workers
        processes = self._pool_size(num_workers)
        if num_workers == 1 or processes == 1:
            return self._run_serially(context)
        own, *chunks = _chunk_worker_ids(num_workers, processes)
        if freeze := gc.get_freeze_count() == 0:  # a caller's freeze stays
            gc.freeze()
        children = []
        try:
            for worker_ids in chunks:
                receiver, sender = self._mp.Pipe(duplex=False)
                child = self._mp.Process(target=_report_chunk, daemon=True,
                                         args=(context, worker_ids, sender))
                child.start()
                sender.close()
                children.append((worker_ids, child, receiver))
            deltas = run_step_chunk(context, own)
            reports = {}
            waiting = {receiver: (ids, child) for ids, child, receiver in children}
            while waiting:
                check_interrupts(context.deadline_at, context.config.cancel)
                for receiver in wait(list(waiting), POLL_SECONDS):
                    worker_ids, child = waiting.pop(receiver)
                    try:
                        ok, payload = receiver.recv()
                    except EOFError:
                        child.join()
                        raise ExplorationError(
                            f"process worker(s) {worker_ids} died without "
                            f"reporting (exit code {child.exitcode})"
                        ) from None
                    if not ok:
                        raise payload
                    reports[receiver] = payload
            for _, _, receiver in children:  # merged in worker-id order
                deltas.extend(reports[receiver])
        except BaseException:
            for _, child, _ in children:
                child.kill()  # a no-op on a child that has exited
            raise
        finally:
            for _, child, receiver in children:
                child.join()
                receiver.close()
            if freeze:
                gc.unfreeze()
        return deltas
