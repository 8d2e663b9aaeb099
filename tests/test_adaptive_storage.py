"""Tests for the adaptive storage mode (section 6.3's sparse-graph fallback)."""

from repro.apps import MotifCounting
from repro.core import (
    ADAPTIVE_STORAGE,
    ArabesqueConfig,
    LIST_STORAGE,
    ODAG_STORAGE,
    run_computation,
)
from repro.graph import complete_graph, gnm_random_graph


class TestAdaptiveStorage:
    def test_config_accepts_adaptive(self):
        assert ArabesqueConfig(storage=ADAPTIVE_STORAGE).storage == ADAPTIVE_STORAGE

    def test_sparse_shallow_steps_ship_lists(self):
        """On a near-tree sparse graph the shallow levels have almost no
        prefix sharing, so the ODAG's per-entry overhead loses to plain
        lists — adaptive mode must fall back, exactly as the paper's
        Instagram runs did."""
        g = gnm_random_graph(2000, 2100, seed=9)
        config = ArabesqueConfig(storage=ADAPTIVE_STORAGE, collect_outputs=False)
        result = run_computation(g, MotifCounting(3), config)
        formats = [s.shipped_format for s in result.steps if s.stored_embeddings]
        assert formats and all(f == LIST_STORAGE for f in formats)

    def test_dense_deep_steps_ship_odags(self):
        """On a dense graph deeper levels share prefixes heavily — adaptive
        mode must switch to ODAGs there (and may still use lists at the
        shallow levels, like the real system)."""
        g = complete_graph(14)
        config = ArabesqueConfig(storage=ADAPTIVE_STORAGE, collect_outputs=False)
        result = run_computation(g, MotifCounting(4), config)
        formats = [s.shipped_format for s in result.steps if s.stored_embeddings]
        assert formats[-1] == ODAG_STORAGE

    def test_adaptive_never_ships_more_bytes_than_either_pure_mode(self):
        g = gnm_random_graph(20, 60, seed=4)
        totals = {}
        for storage in (ODAG_STORAGE, LIST_STORAGE, ADAPTIVE_STORAGE):
            config = ArabesqueConfig(storage=storage, collect_outputs=False)
            result = run_computation(g, MotifCounting(3), config)
            totals[storage] = (
                result.total_bytes + result.total_broadcast_bytes
            )
        # Adaptive picks the cheaper *store payload* per step; the fixed
        # per-entry overheads differ slightly between representations, so
        # allow a small tolerance rather than strict dominance.
        assert totals[ADAPTIVE_STORAGE] <= 1.1 * min(
            totals[ODAG_STORAGE], totals[LIST_STORAGE]
        )

    def test_shipped_format_recorded_for_pure_modes(self):
        g = gnm_random_graph(10, 20, seed=1)
        for storage in (ODAG_STORAGE, LIST_STORAGE):
            result = run_computation(
                g, MotifCounting(2, min_size=2), ArabesqueConfig(storage=storage)
            )
            non_empty = [s for s in result.steps if s.stored_embeddings]
            assert all(s.shipped_format == storage for s in non_empty)
