"""Execution-runtime tests: backend selection, pure step tasks, delta
merging, and the invariant that backends are invisible to results.

The cross-backend × cross-app sweep is tests/test_equivalence_matrix.py
(``CollectSets`` below is one of its rows); this covers the runtime itself.
"""

from unittest import mock

import pytest

from repro.core import (
    ArabesqueConfig,
    BACKENDS,
    Computation,
    VERTEX_EXPLORATION,
    run_computation,
)
from repro.graph import complete_graph, gnm_random_graph
from repro.runtime import (
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    make_backend,
    run_step_task,
)


class CollectSets(Computation):
    """Outputs every explored vertex set up to a max size (picklable)."""

    exploration_mode = VERTEX_EXPLORATION

    def __init__(self, max_size=3):
        super().__init__()
        self.max_size = max_size

    def filter(self, embedding):
        return embedding.num_vertices <= self.max_size

    def process(self, embedding):
        self.output(embedding.vertex_set())
        self.map("embeddings", 1)

    def reduce(self, key, values):
        return sum(values)

    def termination_filter(self, embedding):
        return embedding.num_vertices >= self.max_size


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

    def test_bad_backend_processes(self):
        with pytest.raises(ValueError, match="backend_processes"):
            ArabesqueConfig(backend_processes=0)

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
        assert first.outputs == second.outputs
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
        left = run_step_task(context, 0)
        right = run_step_task(context, 1)
        seen = {words for s in left.outputs for words in [tuple(sorted(s))]}
        seen |= {tuple(sorted(s)) for s in right.outputs}
        assert len(seen) == len(left.outputs) + len(right.outputs) == 10

    def test_deltas_are_picklable(self):
        import pickle

        context = self._context(workers=2)
        delta = run_step_task(context, 0)
        clone = pickle.loads(pickle.dumps(delta))
        assert clone.outputs == delta.outputs
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

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_metrics_cover_all_workers(self, backend):
        graph = gnm_random_graph(20, 60, seed=5)
        config = ArabesqueConfig(num_workers=4, backend=backend)
        result = run_computation(graph, CollectSets(3), config)
        deepest = result.steps[-2]
        assert len(deepest.work_units) == 4

    def test_engine_accepts_injected_backend(self):
        graph = gnm_random_graph(10, 20, seed=1)
        backend = ThreadBackend(max_threads=2)
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
        """No pool; the record is the ``vertex-sets@g12-process-1w`` cell's."""
        backend = ProcessBackend()
        backend._mp = mock.Mock(wraps=backend._mp)
        config = ArabesqueConfig(num_workers=1, backend="process")
        graph = gnm_random_graph(10, 18, seed=2)
        run_computation(graph, CollectSets(3), config, backend=backend)
        backend._mp.Pool.assert_not_called()

    def test_explicit_pool_size(self):
        graph = gnm_random_graph(10, 18, seed=2)
        config = ArabesqueConfig(
            num_workers=4, backend="process", backend_processes=2
        )
        result = run_computation(graph, CollectSets(3), config)
        reference = run_computation(
            graph, CollectSets(3), ArabesqueConfig(num_workers=4)
        )
        assert result.canonical_signature() == reference.canonical_signature()

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
        assert {"R", "G", "C", "P", "W"} <= set(result.phase_totals())
