"""An in-process Bulk Synchronous Parallel engine — the Giraph substitute.

Arabesque "can execute on top of any system supporting the BSP model" and is
implemented "as a layer on top of Giraph", using Giraph vertices "simply as
workers that bear no relationship to any specific vertex in the input graph"
(paper, section 4.3).  This module is that substrate: a deterministic BSP
engine with

* logical **workers** implementing a ``compute`` callback,
* **point-to-point and broadcast messages** delivered at the next superstep,
  with wire-size accounting (:mod:`.messages`),
* **aggregators** with Giraph semantics (:mod:`.aggregator`),
* Pregel-style **halting** (workers vote to halt; messages wake them), and
* one metered :class:`~repro.core.results.SuperstepRecord` per superstep.

Workers run sequentially inside one Python process (deterministically, in
worker-id order); distribution is *simulated*.  What would be parallel
wall-clock on a cluster is recovered from the metered per-worker work and
communication volume by :mod:`repro.bsp.cost_model` — docs/architecture.md
(substitution 1) says why this preserves the paper's scalability phenomena.
"""

from __future__ import annotations

import time
from typing import Any, Mapping, Sequence

from ..core.results import SuperstepRecord
from ..core.wire import estimate_size
from .aggregator import Aggregator
from .messages import Message
from .metrics import RunMetrics


class BspError(RuntimeError):
    """Raised on protocol violations (bad worker ids, missing aggregators)."""


class BspContext:
    """Per-superstep facade handed to ``Worker.compute``.

    Exposes the worker's identity, messaging, aggregation, work metering,
    and halting — the Giraph ``Vertex``/``WorkerContext`` surface collapsed
    into one object.
    """

    def __init__(
        self,
        worker_id: int,
        num_workers: int,
        superstep: int,
        outbox: list[Message],
        aggregators: Mapping[str, Aggregator],
        metrics: SuperstepRecord,
    ) -> None:
        self.worker_id = worker_id
        self.num_workers = num_workers
        self.superstep = superstep
        self._outbox = outbox
        self._aggregators = aggregators
        self._metrics = metrics
        self._halted = False

    # -- messaging ------------------------------------------------------
    def send(self, dst: int, payload: Any) -> None:
        """Send ``payload`` to worker ``dst``, delivered next superstep."""
        if not 0 <= dst < self.num_workers:
            raise BspError(f"worker {self.worker_id} sent to missing worker {dst}")
        message = Message(self.worker_id, dst, payload)
        self._outbox.append(message)
        self._metrics.messages_sent += 1
        self._metrics.bytes_sent += message.wire_size()

    def broadcast(self, payload: Any) -> None:
        """Send ``payload`` to every worker (including self).

        Metered as one logical broadcast: the payload is serialized once and
        replicated by the network layer, so bytes are counted once under
        ``broadcast_bytes`` (the cost model expands them by fan-out).
        """
        size = estimate_size(payload)
        self._metrics.broadcast_messages += 1
        self._metrics.broadcast_bytes += size
        for dst in range(self.num_workers):
            self._outbox.append(Message(self.worker_id, dst, payload))

    # -- aggregation ----------------------------------------------------
    def aggregate(self, name: str, value: Any) -> None:
        """Contribute ``value`` to aggregator ``name`` (visible next step)."""
        try:
            self._aggregators[name].aggregate(value)
        except KeyError:
            raise BspError(f"unknown aggregator {name!r}") from None

    def get_aggregate(self, name: str) -> Any:
        """Read aggregator ``name``'s value from the previous superstep."""
        try:
            return self._aggregators[name].value
        except KeyError:
            raise BspError(f"unknown aggregator {name!r}") from None

    # -- metering and halting --------------------------------------------
    def add_work(self, units: float = 1.0) -> None:
        """Report compute work units for load accounting."""
        self._metrics.add_work(self.worker_id, units)

    def add_phase_time(self, phase: str, seconds: float) -> None:
        """Attribute wall time to a named phase (Figure 12 breakdown)."""
        self._metrics.add_phase_time(phase, seconds)

    def vote_to_halt(self) -> None:
        """Pregel halting: stay inactive until a message arrives."""
        self._halted = True


class Worker:
    """Base class for BSP workers.  Subclasses override :meth:`compute`."""

    def setup(self, worker_id: int, num_workers: int) -> None:
        """Called once before superstep 0."""

    def compute(self, ctx: BspContext, messages: Sequence[Any]) -> None:
        """Called every superstep with the messages delivered this step."""
        raise NotImplementedError


class BspEngine:
    """Drives workers through supersteps until global quiescence.

    Parameters
    ----------
    workers:
        The worker objects; worker ids are their positions.
    aggregators:
        Optional named aggregators available to all workers.
    max_supersteps:
        Safety bound; exceeding it raises :class:`BspError` (a graph mining
        job that fails to terminate indicates a broken filter).
    """

    def __init__(
        self,
        workers: Sequence[Worker],
        aggregators: Mapping[str, Aggregator] | None = None,
        max_supersteps: int = 1000,
    ) -> None:
        if not workers:
            raise BspError("need at least one worker")
        self._workers = list(workers)
        self._aggregators = dict(aggregators or {})
        self._max_supersteps = max_supersteps
        self.metrics = RunMetrics(num_workers=len(self._workers))

    @property
    def num_workers(self) -> int:
        return len(self._workers)

    def add_aggregator(self, name: str, aggregator: Aggregator) -> None:
        """Register an aggregator before :meth:`run`."""
        self._aggregators[name] = aggregator

    def run(self) -> RunMetrics:
        """Execute supersteps until all workers halt with no mail in flight."""
        num_workers = self.num_workers
        for worker_id, worker in enumerate(self._workers):
            worker.setup(worker_id, num_workers)

        inboxes: list[list[Any]] = [[] for _ in range(num_workers)]
        halted = [False] * num_workers
        for superstep in range(self._max_supersteps):
            metrics = self.metrics.new_superstep()
            outbox: list[Message] = []
            started = time.perf_counter()
            for worker_id, worker in enumerate(self._workers):
                mail = inboxes[worker_id]
                if halted[worker_id] and not mail:
                    continue
                ctx = BspContext(
                    worker_id,
                    num_workers,
                    superstep,
                    outbox,
                    self._aggregators,
                    metrics,
                )
                worker.compute(ctx, mail)
                halted[worker_id] = ctx._halted
            metrics.wall_seconds = time.perf_counter() - started

            for aggregator in self._aggregators.values():
                aggregator.flip()

            inboxes = [[] for _ in range(num_workers)]
            for message in outbox:
                inboxes[message.dst].append(message.payload)
            if all(halted) and not outbox:
                return self.metrics
            # Messages wake halted workers (Pregel semantics).
            for worker_id in range(num_workers):
                if inboxes[worker_id]:
                    halted[worker_id] = False
        raise BspError(f"no quiescence after {self._max_supersteps} supersteps")
