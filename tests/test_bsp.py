"""Tests for the simulated cluster's inputs and pricing: the wire model,
per-superstep work and phase metering, the cost model and speedup curves.
Records are filled by hand, the way the TLV/TLP baselines fill them."""

import pytest

from repro.bsp import CostModel, speedup_curve
from repro.core.results import RunMetrics
from repro.core.wire import estimate_size

from reference import phase_totals


class TestEstimateSize:
    def test_int(self):
        assert estimate_size(7) == 4

    def test_bool_and_none(self):
        assert estimate_size(True) == 1
        assert estimate_size(None) == 1

    def test_float(self):
        assert estimate_size(1.5) == 8

    def test_string(self):
        assert estimate_size("abc") == 4 + 3

    def test_nested_containers(self):
        # header + 2 ints, nested in a list: header + that.
        assert estimate_size([(1, 2)]) == 4 + (4 + 8)

    def test_dict(self):
        assert estimate_size({1: 2}) == 4 + 8

    def test_custom_wire_size(self):
        class Blob:
            def wire_size(self):
                return 123

        assert estimate_size(Blob()) == 123

    def test_unknown_type_raises(self):
        with pytest.raises(TypeError):
            estimate_size(object())


class TestMetricsAndCostModel:
    def _run_star(self, hot_units):
        """One superstep on 4 workers; worker 0 carries ``hot_units``."""
        run = RunMetrics(num_workers=4)
        step = run.new_superstep()
        for worker_id in range(4):
            step.add_work(worker_id, hot_units if worker_id == 0 else 1)
        return run

    def test_new_superstep_numbers_records_on_the_cluster_size(self):
        run = RunMetrics(num_workers=3)
        first, second = run.new_superstep(), run.new_superstep()
        assert run.steps[0] is first and run.steps[1] is second
        assert [s.step for s in run.steps] == [0, 1]
        assert [s.num_workers for s in run.steps] == [3, 3]

    def test_run_totals_sum_the_records(self):
        run = RunMetrics(num_workers=2)
        for messages, size, broadcast in ((3, 40, 7), (2, 25, 0)):
            step = run.new_superstep()
            step.messages_sent += messages
            step.bytes_sent += size
            step.broadcast_messages += 1
            step.broadcast_bytes += broadcast
        assert (run.total_messages, run.total_bytes) == (5, 65)
        assert run.total_broadcast_bytes == 7

    def test_work_units_recorded(self):
        metrics = self._run_star(10)
        step = metrics.steps[0]
        assert step.max_work == 10
        assert step.total_work == 13

    def test_imbalance(self):
        metrics = self._run_star(10)
        assert metrics.steps[0].imbalance() == pytest.approx(10 / (13 / 4))

    def test_imbalance_of_empty_step(self):
        metrics = RunMetrics(num_workers=1)
        metrics.new_superstep()
        assert metrics.steps[0].imbalance() == 1.0

    def test_cost_model_compute_dominates_hotspot(self):
        model = CostModel(barrier_seconds=0.0)
        balanced = self._run_star(1)
        skewed = self._run_star(1000)
        assert model.makespan(skewed) > model.makespan(balanced)

    def test_cost_model_broadcast_does_not_scale(self):
        # Same broadcast bytes on more workers should not get cheaper.
        model = CostModel(barrier_seconds=0.0)
        times = {}
        for workers in (2, 8):
            run = RunMetrics(num_workers=workers)
            step = run.new_superstep()
            step.broadcast_messages += 1
            step.broadcast_bytes += estimate_size(tuple(range(100_000)))
            times[workers] = model.makespan(run)
        assert times[8] >= times[2] * 0.99

    def test_phase_seconds_accumulate(self):
        metrics = RunMetrics(num_workers=1)
        step = metrics.new_superstep()
        step.add_phase_time("G", 0.25)
        step.add_phase_time("G", 0.25)
        assert phase_totals(metrics) == {"G": 0.5}

    def test_speedup_curve_default_baseline(self):
        curve = speedup_curve({5: 10.0, 10: 5.0, 20: 2.5})
        assert curve[5] == pytest.approx(1.0)
        assert curve[20] == pytest.approx(4.0)

    def test_speedup_curve_explicit_baseline(self):
        curve = speedup_curve({1: 8.0, 2: 4.0}, baseline_workers=1)
        assert curve[2] == pytest.approx(2.0)

    def test_speedup_curve_empty(self):
        assert speedup_curve({}) == {}
