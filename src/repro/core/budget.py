"""Cooperative per-run resource budgets — the query service's kill switch.

A mining run can be *pathological* without being buggy: a dense query
pattern on a large graph may generate embeddings forever while staying
perfectly anti-monotone.  A long-lived service cannot afford to find out
the hard way, so :class:`~repro.core.config.ArabesqueConfig` carries two
optional budgets and the engine enforces them **cooperatively**:

* ``deadline_seconds`` — a wall-clock allowance for the whole run.  The
  engine checks it at every BSP step barrier, and the worker tasks also
  probe it every :data:`DEADLINE_CHECK_INTERVAL` units of work inside a
  step (embeddings read plus candidates generated), so a single
  pathological step cannot overshoot by much.  The
  clock is :func:`time.monotonic`, which on Linux is the system-wide
  ``CLOCK_MONOTONIC`` — comparable across the process backend's forks.
* ``max_embeddings`` — a cap on *processed* embeddings (the paper's
  "embeddings analyzed" figure, summed over steps).  Checked only at the
  step barrier, where the merged counters are backend- and
  worker-count-invariant, so the trip point is deterministic: the same
  query trips at the same step on every backend.

Tripping raises :class:`BudgetExceeded` — loud, picklable (the process
backend ships it back from a worker), and carrying enough structure for
the service layer to map it to a 4xx response instead of a stack trace.

A run that finishes *within* its budgets is untouched: the checks read
counters and the clock but mutate nothing, so an armed-but-untripped run
is byte-identical to an unbudgeted one (asserted in
``tests/test_budget.py``).
"""

from __future__ import annotations

import threading

#: Units of work (embeddings read plus candidates generated) between
#: in-task deadline and cancel probes (see
#: :func:`repro.runtime.tasks.run_step_task`).  Coarse enough that the
#: clock read never shows up in profiles, fine enough that a runaway
#: step is cut off in milliseconds, not minutes.
DEADLINE_CHECK_INTERVAL = 512

#: The two budget kinds a trip can report.
DEADLINE_BUDGET = "deadline"
EMBEDDING_BUDGET = "embeddings"


class BudgetExceeded(RuntimeError):
    """A run blew through its configured deadline or embedding budget.

    Attributes identify the trip: ``kind`` is :data:`DEADLINE_BUDGET` or
    :data:`EMBEDDING_BUDGET`, ``limit`` the configured allowance, and
    ``spent`` what the run had consumed when the check fired (seconds or
    embeddings, matching the kind).  ``limit``/``spent`` are ``None``
    when the raiser could not see them — a worker task mid-step knows
    only the expiry instant; the engine catches that and re-raises with
    the run-level numbers filled in.
    """

    def __init__(
        self,
        kind: str,
        limit: float | None = None,
        spent: float | None = None,
    ) -> None:
        self.kind = kind
        self.limit = limit
        self.spent = spent
        if kind == DEADLINE_BUDGET:
            if limit is None:
                message = (
                    "run exceeded its deadline mid-step — raise "
                    "deadline_seconds or narrow the query"
                )
            else:
                message = (
                    f"run exceeded its {limit:g}s deadline "
                    f"({spent:.3f}s elapsed) — raise deadline_seconds or "
                    "narrow the query"
                )
        else:
            message = (
                f"run exceeded its embedding budget "
                f"({spent:,.0f} processed, {limit:,.0f} allowed) — raise "
                "max_embeddings or narrow the query"
            )
        super().__init__(message)

    def __reduce__(self):  # picklable across the process backend
        return (type(self), (self.kind, self.limit, self.spent))


class RunCancelled(RuntimeError):
    """A run was cancelled from outside (its :class:`CancelFlag` was set).

    Distinct from :class:`BudgetExceeded`: a budget trip is the *run's own*
    resource exhaustion and maps to a 4xx at the service layer, whereas a
    cancellation means nobody wants the answer any more (the client
    disconnected, the caller gave up) — the service drops the run without
    writing a response.  Picklable like every other engine-crossing error.
    """

    def __init__(self, reason: str = "run cancelled") -> None:
        self.reason = reason
        super().__init__(reason)

    def __reduce__(self):
        return (type(self), (self.reason,))


class CancelFlag:
    """Cooperative cancellation handle shared between a run and its owner.

    The owner (e.g. the query service's disconnect watcher) calls
    :meth:`set` from any thread; the engine checks the flag at every BSP
    barrier and worker tasks probe it alongside the deadline probe (every
    :data:`DEADLINE_CHECK_INTERVAL` units of work), raising
    :class:`RunCancelled`.

    Thread-backend workers share the flag object, so an in-step set() cuts
    them off mid-pass.  So does the process backend's chunk 0, which runs in
    the driver; its children hold a forked (or, under spawn, an inert
    unpickled) copy that a set() cannot reach, but the driver kills them
    once its own chunk raises, or, if its chunk is done, once its wait on
    the children sees the flag.  That trade keeps the flag dependency-free:
    a ``multiprocessing.Event`` would reach the children too but drags a
    semaphore into every step context.
    """

    __slots__ = ("_event",)

    def __init__(self) -> None:
        self._event = threading.Event()

    def set(self) -> None:
        self._event.set()

    def is_set(self) -> bool:
        return self._event.is_set()

    def __reduce__(self):  # process-backend children get an inert flag
        return (type(self), ())


__all__ = [
    "BudgetExceeded",
    "CancelFlag",
    "DEADLINE_BUDGET",
    "DEADLINE_CHECK_INTERVAL",
    "EMBEDDING_BUDGET",
    "RunCancelled",
]
