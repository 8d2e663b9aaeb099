"""Engine tests: completeness, worker invariance, storage-mode invariance,
termination, metering, and configuration knobs.

Completeness (the paper's Theorem 4) is checked against brute-force
enumeration of connected subgraphs — independent of all engine machinery.
"""

import itertools

import pytest

from repro.apps import CliqueFinding, MotifCounting, motif_counts
from repro.bsp import CostModel
from repro.core import (
    ArabesqueConfig,
    ArabesqueEngine,
    Computation,
    EDGE_EXPLORATION,
    ExplorationError,
    LIST_STORAGE,
    VERTEX_EXPLORATION,
    run_computation,
)
from repro.graph import (
    assign_labels,
    complete_graph,
    cycle_graph,
    gnm_random_graph,
    graph_from_edges,
    path_graph,
    star_graph,
)


def brute_force_connected_vertex_sets(graph, max_size):
    """All connected vertex sets of size 1..max_size, as frozensets."""
    found = set()
    for size in range(1, max_size + 1):
        for combo in itertools.combinations(graph.vertices(), size):
            if graph.is_connected_vertex_set(combo):
                found.add(frozenset(combo))
    return found


class CollectEverything(Computation):
    """Outputs every explored embedding's vertex set up to a max size."""

    exploration_mode = VERTEX_EXPLORATION

    def __init__(self, max_size):
        super().__init__()
        self.max_size = max_size

    def filter(self, embedding):
        return embedding.num_vertices <= self.max_size

    def process(self, embedding):
        self.output(embedding.vertex_set())

    def termination_filter(self, embedding):
        return embedding.num_vertices >= self.max_size


class CollectEdgeSets(Computation):
    """Edge-based twin of CollectEverything."""

    exploration_mode = EDGE_EXPLORATION

    def __init__(self, max_edges):
        super().__init__()
        self.max_edges = max_edges

    def filter(self, embedding):
        return embedding.num_edges <= self.max_edges

    def process(self, embedding):
        self.output(frozenset(embedding.words))

    def termination_filter(self, embedding):
        return embedding.num_edges >= self.max_edges


class TestCompleteness:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_vertex_exploration_matches_bruteforce(self, seed):
        g = gnm_random_graph(14, 28, seed=seed)
        result = run_computation(g, CollectEverything(max_size=3))
        explored = set(result.outputs)
        expected = brute_force_connected_vertex_sets(g, 3)
        assert explored == expected

    def test_each_subgraph_explored_exactly_once(self):
        g = gnm_random_graph(12, 30, seed=9)
        result = run_computation(g, CollectEverything(max_size=3))
        assert len(result.outputs) == len(set(result.outputs))

    def test_no_embedding_repeats_words(self):
        """Regression test: spurious ODAG paths that revisit a word (e.g.
        <3,4,3>) must never surface as embeddings — the grid graph makes
        such paths plentiful."""

        class CollectWords(Computation):
            exploration_mode = VERTEX_EXPLORATION

            def filter(self, embedding):
                return embedding.num_vertices <= 4

            def process(self, embedding):
                self.output(embedding.words)

        from repro.graph import grid_graph

        result = run_computation(grid_graph(3, 3), CollectWords())
        for words in result.outputs:
            assert len(set(words)) == len(words)
        size4 = [w for w in result.outputs if len(w) == 4]
        assert len(size4) == 36  # 8 claws + 24 paths + 4 squares

    def test_edge_exploration_matches_bruteforce(self):
        g = gnm_random_graph(10, 18, seed=4)
        result = run_computation(g, CollectEdgeSets(max_edges=3))
        explored = set(result.outputs)

        def connected(edge_ids):
            roots = {}

            def find(x):
                while roots.setdefault(x, x) != x:
                    roots[x] = roots[roots[x]]
                    x = roots[x]
                return x

            for eid in edge_ids:
                u, v = g.edge_endpoints(eid)
                ru, rv = find(u), find(v)
                if ru != rv:
                    roots[ru] = rv
            involved = {find(x) for x in roots}
            return len(involved) == 1

        expected = set()
        for size in range(1, 4):
            for combo in itertools.combinations(range(g.num_edges), size):
                if connected(combo):
                    expected.add(frozenset(combo))
        assert explored == expected

    def test_complete_graph_counts(self):
        # K5: connected vertex sets of size k = C(5,k).
        result = run_computation(complete_graph(5), CollectEverything(max_size=4))
        by_size = {}
        for s in result.outputs:
            by_size[len(s)] = by_size.get(len(s), 0) + 1
        assert by_size == {1: 5, 2: 10, 3: 10, 4: 5}


class TestWorkerInvariance:
    """Changing num_workers must never change what is explored."""

    @pytest.mark.parametrize("workers", [1, 2, 3, 5, 8])
    def test_outputs_invariant(self, workers):
        g = gnm_random_graph(13, 26, seed=6)
        reference = run_computation(g, CollectEverything(max_size=3))
        config = ArabesqueConfig(num_workers=workers)
        result = run_computation(g, CollectEverything(max_size=3), config)
        assert set(result.outputs) == set(reference.outputs)
        assert result.num_outputs == reference.num_outputs

    @pytest.mark.parametrize("workers", [1, 4])
    def test_motif_counts_invariant(self, workers):
        g = gnm_random_graph(15, 40, seed=2)
        reference = motif_counts(run_computation(g, MotifCounting(max_size=3)))
        config = ArabesqueConfig(num_workers=workers)
        result = motif_counts(run_computation(g, MotifCounting(max_size=3), config))
        assert result == reference

    def test_work_spreads_across_workers(self):
        g = gnm_random_graph(40, 120, seed=8)
        config = ArabesqueConfig(num_workers=4)
        result = run_computation(g, CollectEverything(max_size=3), config)
        deepest = result.steps[-2]
        assert len(deepest.work_units) == 4
        assert deepest.imbalance() < 2.0


class TestStorageModes:
    @pytest.mark.parametrize("workers", [1, 3])
    def test_list_storage_same_outputs(self, workers):
        g = gnm_random_graph(12, 24, seed=5)
        odag_result = run_computation(
            g, CollectEverything(3), ArabesqueConfig(num_workers=workers)
        )
        list_result = run_computation(
            g,
            CollectEverything(3),
            ArabesqueConfig(num_workers=workers, storage=LIST_STORAGE),
        )
        assert set(odag_result.outputs) == set(list_result.outputs)

    def test_odag_compresses_vs_list_bytes(self):
        # A dense graph where many embeddings share prefixes.
        g = complete_graph(10)
        result = run_computation(g, CollectEverything(3))
        deepest = max(result.steps, key=lambda s: s.stored_embeddings)
        assert deepest.storage_bytes < deepest.list_bytes

    def test_list_storage_reports_its_own_bytes(self):
        g = gnm_random_graph(10, 20, seed=1)
        result = run_computation(
            g, CollectEverything(2), ArabesqueConfig(storage=LIST_STORAGE)
        )
        step = result.steps[0]
        assert step.storage_bytes >= step.list_bytes  # pattern overhead


class TestTermination:
    def test_empty_graph_terminates_immediately(self):
        g = graph_from_edges([], vertex_labels=[])
        result = run_computation(g, CollectEverything(3))
        assert result.num_outputs == 0
        assert result.num_steps == 1

    def test_filter_false_everywhere(self):
        class RejectAll(Computation):
            def filter(self, embedding):
                return False

        result = run_computation(path_graph(5), RejectAll())
        assert result.num_outputs == 0
        assert result.num_steps == 1

    def test_max_steps_guard(self):
        class NeverStops(Computation):
            def filter(self, embedding):
                return True

        config = ArabesqueConfig(max_exploration_steps=2)
        with pytest.raises(ExplorationError):
            run_computation(complete_graph(6), NeverStops(), config)

    def test_termination_filter_skips_last_step(self):
        g = cycle_graph(6)
        with_tf = run_computation(g, CollectEverything(3))

        class NoTerminationFilter(CollectEverything):
            def termination_filter(self, embedding):
                return False

        without_tf = run_computation(g, NoTerminationFilter(3))
        assert set(with_tf.outputs) == set(without_tf.outputs)
        # Without the filter the engine runs one extra (all-filtered) step.
        assert without_tf.num_steps == with_tf.num_steps + 1


class TestStatistics:
    def test_step_counters_consistent(self):
        g = gnm_random_graph(12, 30, seed=3)
        result = run_computation(g, CollectEverything(3))
        for stats in result.steps:
            assert stats.canonical_candidates <= stats.candidates_generated
            assert stats.processed_embeddings <= stats.canonical_candidates
            assert stats.stored_embeddings <= stats.processed_embeddings

    def test_num_outputs_exact_with_limit(self):
        g = complete_graph(7)
        config = ArabesqueConfig(output_limit=5)
        result = run_computation(g, CollectEverything(3), config)
        assert len(result.outputs) == 5
        assert result.num_outputs == 7 + 21 + 35

    def test_collect_outputs_disabled(self):
        config = ArabesqueConfig(collect_outputs=False)
        result = run_computation(complete_graph(5), CollectEverything(2), config)
        assert result.outputs == []
        assert result.num_outputs == 15

    def test_messages_metered(self):
        g = gnm_random_graph(12, 24, seed=2)
        config = ArabesqueConfig(num_workers=3)
        result = run_computation(g, CollectEverything(3), config)
        assert result.total_messages > 0
        assert result.total_broadcast_bytes > 0

    def test_makespan_positive(self):
        result = run_computation(cycle_graph(8), CollectEverything(3))
        assert CostModel().makespan(result) > 0.0

    def test_phase_profiling(self):
        config = ArabesqueConfig(profile_phases=True)
        result = run_computation(
            gnm_random_graph(12, 30, seed=1), CollectEverything(3), config
        )
        phases = result.phase_totals()
        # All five paper phases appear (R only from step 1 onward).
        assert {"R", "G", "C", "P", "W"} <= set(phases)
        assert all(seconds >= 0.0 for seconds in phases.values())

    def test_peak_storage_bytes(self):
        result = run_computation(complete_graph(7), CollectEverything(3))
        assert result.peak_storage_bytes == max(
            s.storage_bytes for s in result.steps
        )


class TestCanonicalityAblation:
    def test_from_scratch_checks_same_results(self):
        g = gnm_random_graph(12, 26, seed=7)
        fast = run_computation(g, CollectEverything(3))
        slow = run_computation(
            g,
            CollectEverything(3),
            ArabesqueConfig(incremental_canonicality=False),
        )
        assert set(fast.outputs) == set(slow.outputs)


class TestConfigValidation:
    def test_bad_workers(self):
        with pytest.raises(ValueError):
            ArabesqueConfig(num_workers=0)

    def test_bad_storage(self):
        with pytest.raises(ValueError):
            ArabesqueConfig(storage="mystery")

    def test_bad_max_steps(self):
        with pytest.raises(ValueError):
            ArabesqueConfig(max_exploration_steps=0)


class TestHotspotGraphs:
    def test_star_graph(self):
        # Star: hub + leaves; size-3 connected sets = C(leaves, 2) (hub + 2).
        g = star_graph(8)
        result = run_computation(g, CollectEverything(3))
        size3 = [s for s in result.outputs if len(s) == 3]
        assert len(size3) == 28

    def test_framework_functions_unavailable_outside_run(self):
        app = CollectEverything(2)
        with pytest.raises(RuntimeError):
            app.output("nope")
