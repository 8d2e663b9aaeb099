"""Fault injection for the suite: kill runs at chosen BSP barriers to drive
crash-resume.

Two crash flavours, both aimed at the instant *after* barrier *k*'s
snapshot hits disk (the worst case for resume — maximum state, minimum
re-execution):

* :class:`CrashingWriter` — an in-process crash: the writer raises
  :class:`InjectedCrash` right after persisting the chosen barrier's
  snapshot.  Cheap enough to sweep every barrier × backend × storage in
  the test matrix; from the snapshot's point of view it is
  indistinguishable from the process dying, because the engine gets no
  chance to write anything further.
* :func:`run_to_crash` with a kill ``action`` (``test_failure_modes.py``)
  — the real thing: a forked child ``SIGKILL``\\ s itself after the
  write, so no ``finally`` blocks, no interpreter shutdown, no flushing.  What survives is exactly what
  ``os.replace`` made durable.
"""

from __future__ import annotations

from typing import Any

from repro.checkpoint import CheckpointWriter
from repro.core import ArabesqueConfig, ArabesqueEngine, Computation
from repro.graph import LabeledGraph


class InjectedCrash(RuntimeError):
    """The injected failure — escapes the engine like a real crash would."""


class CrashingWriter(CheckpointWriter):
    """A :class:`CheckpointWriter` that crashes after a chosen barrier.

    The snapshot for ``crash_after_step`` is fully written (atomic rename
    included) before the crash fires — modelling a process that died
    between the barrier and the next step.  ``action`` (e.g. an
    ``os.kill(os.getpid(), SIGKILL)`` thunk) runs before the raise for
    hard-kill variants.
    """

    def __init__(
        self,
        run_dir: str,
        crash_after_step: int,
        fresh: bool = True,
        action: Any = None,
    ) -> None:
        super().__init__(run_dir, fresh=fresh)
        self.crash_after_step = crash_after_step
        self.action = action

    def write(self, step: int, payload: dict) -> str:
        path = super().write(step, payload)
        if step == self.crash_after_step:
            if self.action is not None:
                self.action()
            raise InjectedCrash(
                f"injected crash after the step-{step} barrier snapshot"
            )
        return path


def run_to_crash(
    graph: LabeledGraph,
    computation: Computation,
    config: ArabesqueConfig,
    run_dir: str,
    crash_after_step: int,
    *,
    action: Any = None,
) -> None:
    """Run until the injected crash at ``crash_after_step`` fires.

    Returns normally when the crash fired (the usual case); raises
    :class:`RuntimeError` if the run *finished* before reaching the chosen
    barrier — a sweep asking for a barrier the workload never reaches is
    a broken test, and should fail loudly rather than "pass" by resuming
    a completed run.
    """
    writer = CrashingWriter(
        str(run_dir), crash_after_step, fresh=True, action=action
    )
    engine = ArabesqueEngine(graph, computation, config, checkpointer=writer)
    try:
        engine.run()
    except InjectedCrash:
        return
    raise RuntimeError(
        f"run finished before the injected crash at barrier "
        f"{crash_after_step} — the workload has fewer snapshotted barriers "
        "than the sweep assumes"
    )
