"""Execution-runtime tests: backend selection, pure step tasks, delta
merging, and the invariant that backends are invisible to results.

The cross-backend × cross-app sweep is tests/test_equivalence_matrix.py
(``CollectSets`` below is one of its rows); this covers the runtime itself.
"""

import gc
import os
import signal
import time
from unittest import mock

import pytest

from repro.checkpoint import list_snapshots, resume_run
from repro.core import (
    ArabesqueConfig,
    BACKENDS,
    BudgetExceeded,
    CancelFlag,
    Computation,
    DEADLINE_BUDGET,
    ExplorationError,
    RunCancelled,
    VERTEX_EXPLORATION,
    run_computation,
)
from repro.core.results import decode_output_log
from repro.graph import complete_graph, gnm_random_graph
from repro.runtime import (
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    make_backend,
    run_step_chunk,
    run_step_task,
)

from reference import phase_totals


class CollectSets(Computation):
    """Outputs every explored vertex set up to a max size (picklable)."""

    exploration_mode = VERTEX_EXPLORATION

    def __init__(self, max_size=3):
        super().__init__()
        self.max_size = max_size

    def filter(self, embedding):
        return embedding.num_vertices <= self.max_size

    def process(self, embedding):
        self.output(frozenset(embedding.vertices))
        self.map("embeddings", 1)

    def reduce(self, key, values):
        return sum(values)

    def termination_filter(self, embedding):
        return embedding.num_vertices >= self.max_size


class TwoArgError(RuntimeError):
    """Pickles, but will not unpickle: ``args`` holds only the message."""

    def __init__(self, message, code):
        super().__init__(message)


class ChildFault(CollectSets):
    """Misbehaves from ``process``, but only in a process-backend child:
    SIGKILLs itself (``"kill"``), raises :class:`BudgetExceeded`
    (``"budget"``), or an exception that will not pickle (``"unpicklable"``)
    or not unpickle (``"two-arg"``), or sleeps 30 s (``"sleep"``)."""

    def __init__(self, fault):
        super().__init__(3)
        self.fault = fault

    def init(self, graph, config):
        super().init(graph, config)
        self.driver_pid = os.getpid()

    def process(self, embedding):
        if os.getpid() != self.driver_pid:
            if self.fault == "budget":
                raise BudgetExceeded(DEADLINE_BUDGET)
            if self.fault == "unpicklable":
                raise RuntimeError("no pickle", lambda: None)
            if self.fault == "two-arg":
                raise TwoArgError("no unpickle", 2)
            if self.fault == "sleep":
                time.sleep(30)
                return
            os.kill(os.getpid(), signal.SIGKILL)
        super().process(embedding)


class KillWhileArmed(ChildFault):
    """SIGKILLs a child from step 1 on, while the ``armed`` file exists."""

    def __init__(self, armed):
        super().__init__("kill")
        self.armed = armed

    def process(self, embedding):
        if embedding.num_vertices > 1 and os.path.exists(self.armed):
            super().process(embedding)
        else:
            CollectSets.process(self, embedding)


class DriverCancels(CollectSets):
    """Sets the run's live cancel flag from the driver's own chunk."""

    def __init__(self, cancel):
        super().__init__(1)
        self.cancel = cancel

    def init(self, graph, config):
        super().init(graph, config)
        self.driver_pid = os.getpid()

    def process(self, embedding):
        if os.getpid() == self.driver_pid:
            self.cancel.set()
        super().process(embedding)


@pytest.fixture
def hang_alarm():
    """Fail, not hang, if a process-backend run never returns."""

    def timed_out(signum, frame):
        raise TimeoutError("process-backend run hung")

    previous = signal.signal(signal.SIGALRM, timed_out)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def _process_run(computation, children, graph=None, **config):
    """Run ``computation`` on the process backend at 2 workers, appending
    every child process the run starts to ``children``."""
    backend = ProcessBackend()
    make_child = backend._mp.Process

    def spied(*args, **kwargs):
        children.append(make_child(*args, **kwargs))
        return children[-1]

    backend._mp = mock.Mock(wraps=backend._mp, Process=spied)
    config = ArabesqueConfig(num_workers=2, backend="process", **config)
    graph = graph if graph is not None else gnm_random_graph(12, 30, seed=1)
    return run_computation(graph, computation, config, backend=backend)


def _assert_reaped(children):
    """Every child has exited and been waited for: not even a zombie is
    left.  (``waitpid(-1)`` would also see children other tests started,
    such as the spawn start method's resource tracker.)"""
    assert children
    for child in children:
        with pytest.raises(ChildProcessError):
            os.waitpid(child.pid, os.WNOHANG)


class TestBackendSelection:
    def test_make_backend_covers_all_names(self):
        for name in BACKENDS:
            backend = make_backend(ArabesqueConfig(backend=name))
            assert backend.name == name
            backend.close()

    def test_default_is_serial(self):
        backend = make_backend(ArabesqueConfig())
        assert isinstance(backend, SerialBackend)

    def test_unknown_backend_rejected_by_config(self):
        with pytest.raises(ValueError, match="unknown backend"):
            ArabesqueConfig(backend="gpu")

    def test_backend_is_context_manager(self):
        with make_backend(ArabesqueConfig(backend="thread")) as backend:
            assert isinstance(backend, ExecutionBackend)


class TestPureStepTasks:
    def _context(self, workers):
        from repro.core.engine import ArabesqueEngine
        from repro.core.aggregation import AggregationChannel
        from repro.core.pattern import PatternCanonicalizer

        graph = gnm_random_graph(10, 20, seed=3)
        computation = CollectSets(3)
        engine = ArabesqueEngine(
            graph, computation, ArabesqueConfig(num_workers=workers)
        )
        computation.init(graph, engine.config)
        channel = AggregationChannel("aggregate", computation.reduce)
        return engine._step_context(
            0, None, PatternCanonicalizer(), channel
        )

    def test_task_is_repeatable(self):
        """Same (context, worker_id) -> same delta, run after run."""
        context = self._context(workers=2)
        first = run_step_task(context, 0)
        second = run_step_task(context, 0)
        assert first.output_log == second.output_log
        assert first.num_outputs == second.num_outputs
        assert first.agg_partials == second.agg_partials
        assert first.counters.processed_embeddings == (
            second.counters.processed_embeddings
        )

    def test_task_leaves_context_unmodified(self):
        context = self._context(workers=2)
        cache_before = dict(context.pattern_cache)
        run_step_task(context, 1)
        assert context.pattern_cache == cache_before
        # The template computation never keeps a bound context.
        assert context.computation._context is None

    def test_workers_partition_the_universe(self):
        context = self._context(workers=2)
        left = decode_output_log(run_step_task(context, 0).output_log)
        right = decode_output_log(run_step_task(context, 1).output_log)
        seen = {tuple(sorted(s)) for s in left + right}
        assert len(seen) == len(left) + len(right) == 10

    def test_deltas_are_picklable(self):
        import pickle

        context = self._context(workers=2)
        delta = run_step_task(context, 0)
        clone = pickle.loads(pickle.dumps(delta))
        assert clone.output_log == delta.output_log
        assert clone.local_store.num_embeddings == delta.local_store.num_embeddings


class TestBackendEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_output_limit_truncates_identically(self, backend):
        graph = complete_graph(7)
        config = ArabesqueConfig(
            num_workers=3, backend=backend, output_limit=5
        )
        result = run_computation(graph, CollectSets(3), config)
        reference = run_computation(
            graph, CollectSets(3), ArabesqueConfig(num_workers=3, output_limit=5)
        )
        assert result.outputs == reference.outputs
        assert len(result.outputs) == 5
        assert result.num_outputs == reference.num_outputs == 7 + 21 + 35

    def test_negative_output_limit_rejected(self):
        # A negative cap used to be accepted: no worker kept an output and
        # the merge's room went negative, while num_outputs still counted.
        with pytest.raises(ValueError, match="output_limit"):
            ArabesqueConfig(output_limit=-1)
        graph = complete_graph(5)
        capped = run_computation(
            graph, CollectSets(3), ArabesqueConfig(output_limit=0)
        )
        assert capped.outputs == []
        assert capped.num_outputs == 5 + 10 + 10

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_metrics_cover_all_workers(self, backend):
        graph = gnm_random_graph(20, 60, seed=5)
        config = ArabesqueConfig(num_workers=4, backend=backend)
        result = run_computation(graph, CollectSets(3), config)
        deepest = result.steps[-2]
        assert len(deepest.work_units) == 4

    def test_engine_accepts_injected_backend(self):
        graph = gnm_random_graph(10, 20, seed=1)
        backend = ThreadBackend()
        try:
            config = ArabesqueConfig(num_workers=2, backend="thread")
            result = run_computation(graph, CollectSets(3), config, backend=backend)
            reference = run_computation(
                graph, CollectSets(3), ArabesqueConfig(num_workers=2)
            )
            assert result.canonical_signature() == reference.canonical_signature()
            # Injected backends stay open for reuse across runs.
            again = run_computation(graph, CollectSets(3), config, backend=backend)
            assert again.canonical_signature() == reference.canonical_signature()
        finally:
            backend.close()


class TestProcessBackend:
    def test_single_worker_short_circuits(self):
        """No child process at 1 worker (the record is the
        ``vertex-sets@g12-process-1w`` cell's); one per step at 2."""
        backend = ProcessBackend()
        backend._mp = mock.Mock(wraps=backend._mp)
        graph = gnm_random_graph(10, 18, seed=2)
        config = ArabesqueConfig(num_workers=1, backend="process")
        run_computation(graph, CollectSets(3), config, backend=backend)
        backend._mp.Process.assert_not_called()
        config = ArabesqueConfig(num_workers=2, backend="process")
        result = run_computation(graph, CollectSets(3), config, backend=backend)
        assert backend._mp.Process.call_count == len(result.steps)

    def test_driver_runs_worker_zero(self, monkeypatch):
        import repro.runtime.process as process

        def tagged_chunk(context, worker_ids):
            deltas = run_step_chunk(context, worker_ids)
            for delta in deltas:
                delta.pid = os.getpid()
            return deltas

        class Recording(ProcessBackend):
            def run_step(self, context):
                deltas = super().run_step(context)
                pids.append([(d.worker_id, d.pid) for d in deltas])
                return deltas

        pids = []
        monkeypatch.setattr(process, "run_step_chunk", tagged_chunk)
        config = ArabesqueConfig(num_workers=2, backend="process")
        run_computation(gnm_random_graph(12, 30, seed=1), CollectSets(3),
                        config, backend=Recording())
        assert pids
        for (w0, driver), (w1, child) in pids:
            assert (w0, w1) == (0, 1)
            assert driver == os.getpid() != child

    def test_killed_child_raises_instead_of_hanging(self, hang_alarm):
        """A SIGKILLed child is a loud error, and no process outlives it."""
        children = []
        with pytest.raises(
            ExplorationError, match=r"worker\(s\) \[1\] .*exit code -9"
        ):
            _process_run(ChildFault("kill"), children)
        _assert_reaped(children)
        assert gc.get_freeze_count() == 0

    def test_killed_child_run_resumes_from_its_checkpoint(
        self, tmp_path, hang_alarm
    ):
        armed, run_dir = tmp_path / "armed", str(tmp_path / "run")
        armed.touch()
        with pytest.raises(ExplorationError, match="exit code -9"):
            _process_run(KillWhileArmed(str(armed)), [], checkpoint_dir=run_dir)
        assert [step for step, _ in list_snapshots(run_dir)] == [0]
        armed.unlink()
        config = ArabesqueConfig(num_workers=2, backend="process")
        resumed = resume_run(run_dir, gnm_random_graph(12, 30, seed=1),
                             config=config)
        fresh = _process_run(KillWhileArmed(str(armed)), [])
        assert resumed.canonical_signature() == fresh.canonical_signature()

    @pytest.mark.parametrize("interrupt", ["cancel", "deadline"])
    def test_interrupt_while_children_run(self, interrupt, monkeypatch, hang_alarm):
        """Cancel or the deadline, tripped while the driver waits on a child
        still inside ``process``, raises within a second and leaves no child
        behind."""
        import repro.runtime.process as process

        cancel, chunk_done = CancelFlag(), []

        def driver_then_cancel(context, worker_ids):
            deltas = run_step_chunk(context, worker_ids)
            chunk_done.append(time.monotonic())  # children never get here
            if interrupt == "cancel":
                cancel.set()
            return deltas

        monkeypatch.setattr(process, "run_step_chunk", driver_then_cancel)
        deadline = 0.3 if interrupt == "deadline" else None
        children = []
        start = time.monotonic()
        with pytest.raises(RunCancelled if deadline is None else BudgetExceeded):
            _process_run(ChildFault("sleep"), children, cancel=cancel,
                         deadline_seconds=deadline)
        tripped = chunk_done[0] if deadline is None else start + deadline
        assert time.monotonic() - tripped < 1.0
        _assert_reaped(children)
        assert gc.get_freeze_count() == 0

    @pytest.mark.parametrize("fault,error", [
        ("unpicklable", "RuntimeError\\('no pickle'"),
        ("two-arg", "TwoArgError\\('no unpickle'"),
    ], ids=["unpicklable", "two-arg"])
    def test_unpicklable_child_error_arrives_as_its_repr(
        self, fault, error, hang_alarm
    ):
        children = []
        with pytest.raises(ExplorationError,
                           match=r"worker\(s\) \[1\] failed: " + error):
            _process_run(ChildFault(fault), children)
        _assert_reaped(children)

    @pytest.mark.parametrize("case", ["clean", "child-raises", "driver-raises"])
    def test_heap_is_unfrozen_after_the_run(self, case, hang_alarm):
        enabled = gc.isenabled()
        assert gc.get_freeze_count() == 0
        children = []
        if case == "clean":
            _process_run(CollectSets(3), children)
        elif case == "child-raises":
            with pytest.raises(BudgetExceeded):
                _process_run(ChildFault("budget"), children)
        else:
            # Only the driver's chunk reads the live flag mid-step.
            cancel = CancelFlag()
            with pytest.raises(RunCancelled, match="mid-step"):
                _process_run(DriverCancels(cancel), children,
                             gnm_random_graph(1200, 1500, seed=3),
                             cancel=cancel)
        assert gc.get_freeze_count() == 0
        assert gc.isenabled() == enabled
        _assert_reaped(children)

    def test_a_callers_frozen_heap_is_left_alone(self):
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            _process_run(CollectSets(3), [])
            assert gc.get_freeze_count() == frozen
        finally:
            gc.unfreeze()

    def test_pool_size_is_capped_at_cpus_but_never_below_two(self, monkeypatch):
        from repro.runtime.process import _chunk_worker_ids, os

        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert ProcessBackend._pool_size(1) == 1
        assert ProcessBackend._pool_size(4) == 2
        assert _chunk_worker_ids(4, 2) == [[0, 1], [2, 3]]
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert ProcessBackend._pool_size(4) == 2
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert ProcessBackend._pool_size(4) == 4
        assert ProcessBackend._pool_size(20) == 8
        assert _chunk_worker_ids(20, 8) == [
            [0, 1], [2, 3, 4], [5, 6], [7, 8, 9],
            [10, 11], [12, 13, 14], [15, 16], [17, 18, 19],
        ]

    def test_chunking_covers_every_worker(self):
        from repro.runtime.process import _chunk_worker_ids

        for workers in (1, 2, 5, 8):
            for chunks in (1, 2, 3, 8):
                chunked = _chunk_worker_ids(workers, chunks)
                flat = [w for chunk in chunked for w in chunk]
                assert flat == list(range(workers))
                assert all(chunk for chunk in chunked)

    def test_profile_phases_survive_process_boundary(self):
        graph = gnm_random_graph(12, 30, seed=1)
        config = ArabesqueConfig(
            num_workers=2, backend="process", profile_phases=True
        )
        result = run_computation(graph, CollectSets(3), config)
        assert {"R", "G", "C", "P", "W"} <= set(phase_totals(result))
