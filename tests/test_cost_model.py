"""Unit tests for the simulated-cluster cost model (docs/architecture.md,
substitution 1)."""

import pytest

from repro.bsp import CostModel
from repro.core.results import RunMetrics, RunResult, StepStats, SuperstepRecord


def step_with(**kwargs) -> SuperstepRecord:
    step = SuperstepRecord(step=0)
    for key, value in kwargs.items():
        setattr(step, key, value)
    return step


ZERO = CostModel(
    seconds_per_work_unit=0.0,
    seconds_per_message=0.0,
    bytes_per_second=1.0,
    seconds_per_broadcast_byte=0.0,
    barrier_seconds=0.0,
)


class TestSuperstepSeconds:
    def test_empty_step_is_barrier_only(self):
        model = CostModel(barrier_seconds=0.5)
        assert model.superstep_seconds(step_with(), 4) == pytest.approx(0.5)

    def test_compute_is_critical_path(self):
        model = CostModel(
            seconds_per_work_unit=1.0, seconds_per_message=0.0,
            bytes_per_second=1e12, seconds_per_broadcast_byte=0.0,
            barrier_seconds=0.0,
        )
        step = step_with(work_units={0: 10.0, 1: 3.0})
        assert model.superstep_seconds(step, 2) == pytest.approx(10.0)

    def test_p2p_scales_with_workers(self):
        model = CostModel(
            seconds_per_work_unit=0.0, seconds_per_message=1.0,
            bytes_per_second=1e12, seconds_per_broadcast_byte=0.0,
            barrier_seconds=0.0,
        )
        step = step_with(messages_sent=100)
        assert model.superstep_seconds(step, 1) == pytest.approx(100.0)
        assert model.superstep_seconds(step, 10) == pytest.approx(10.0)

    def test_p2p_bytes_over_aggregate_bandwidth(self):
        model = CostModel(
            seconds_per_work_unit=0.0, seconds_per_message=0.0,
            bytes_per_second=100.0, seconds_per_broadcast_byte=0.0,
            barrier_seconds=0.0,
        )
        step = step_with(bytes_sent=1000)
        assert model.superstep_seconds(step, 2) == pytest.approx(5.0)

    def test_broadcast_free_on_single_worker(self):
        model = CostModel(
            seconds_per_work_unit=0.0, seconds_per_message=0.0,
            bytes_per_second=1.0, seconds_per_broadcast_byte=1.0,
            barrier_seconds=0.0,
        )
        step = step_with(broadcast_bytes=999)
        assert model.superstep_seconds(step, 1) == pytest.approx(0.0)

    def test_broadcast_deserialize_does_not_shrink_with_workers(self):
        """The section 6.3 effect: per-server deserialization of broadcast
        state is constant, capping pattern-rich scalability."""
        model = CostModel(
            seconds_per_work_unit=0.0, seconds_per_message=0.0,
            bytes_per_second=1e12, seconds_per_broadcast_byte=1e-3,
            barrier_seconds=0.0,
        )
        step = step_with(broadcast_bytes=1000)
        at_2 = model.superstep_seconds(step, 2)
        at_20 = model.superstep_seconds(step, 20)
        assert at_20 > at_2  # fan-out factor grows toward 1
        assert at_20 == pytest.approx(1000 * (19 / 20) * 1e-3)


class TestMakespan:
    def test_sums_supersteps(self):
        model = CostModel(
            seconds_per_work_unit=1.0, seconds_per_message=0.0,
            bytes_per_second=1e12, seconds_per_broadcast_byte=0.0,
            barrier_seconds=1.0,
        )
        run = RunMetrics(num_workers=2)
        first = run.new_superstep()
        first.add_work(0, 5.0)
        second = run.new_superstep()
        second.add_work(1, 3.0)
        assert model.makespan(run) == pytest.approx(5.0 + 3.0 + 2.0)

    def test_empty_run(self):
        assert CostModel().makespan(RunMetrics(num_workers=1)) == 0.0
        assert CostModel().makespan(RunResult()) == 0.0

    def test_engine_result_and_baseline_run_price_alike(self):
        """One reader for both producers: equal records, equal price."""
        meters = [
            dict(work_units={0: 40.0, 1: 90.0, 2: 10.0}, messages_sent=700,
                 bytes_sent=9_000, broadcast_bytes=4_096),
            dict(work_units={0: 5.0, 1: 5.0, 2: 6.0}, messages_sent=12),
        ]
        baseline = RunMetrics(num_workers=3)
        engine = RunResult()
        for index, fields in enumerate(meters):
            record = baseline.new_superstep()
            for key, value in fields.items():
                setattr(record, key, value)
            engine.steps.append(StepStats(step=index, num_workers=3, **fields))
        model = CostModel()
        assert model.makespan(engine) == model.makespan(baseline) > 0.0

    def test_each_step_priced_on_its_own_workers(self):
        model = CostModel(
            seconds_per_work_unit=0.0, seconds_per_message=1.0,
            bytes_per_second=1e12, seconds_per_broadcast_byte=0.0,
            barrier_seconds=0.0,
        )
        run = RunResult(steps=[
            StepStats(step=0, num_workers=2, messages_sent=100),
            StepStats(step=1, num_workers=4, messages_sent=100),
        ])
        assert model.makespan(run) == pytest.approx(50.0 + 25.0)


class TestDefaults:
    def test_defaults_are_commodity_cluster_scale(self):
        model = CostModel()
        assert model.bytes_per_second == pytest.approx(1.25e9)  # 10 GbE
        assert 0 < model.seconds_per_work_unit < 1e-4
        assert 0 < model.barrier_seconds < 1.0

    def test_frozen(self):
        with pytest.raises(Exception):
            CostModel().barrier_seconds = 7.0
