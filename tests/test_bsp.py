"""Tests for the BSP engine substrate: supersteps, messages, aggregators,
halting, and metrics."""

import pytest

from repro.bsp import (
    Aggregator,
    BspContext,
    BspEngine,
    BspError,
    CostModel,
    Message,
    Worker,
    dict_merge_aggregator,
    speedup_curve,
)
from repro.core.wire import estimate_size

from reference import phase_totals


def sum_aggregator():
    return Aggregator(initial=lambda: 0, combine=lambda acc, v: acc + v)


def max_aggregator():
    return Aggregator(initial=lambda: float("-inf"), combine=max)


def min_aggregator():
    return Aggregator(initial=lambda: float("inf"), combine=min)


def list_aggregator():
    return Aggregator(initial=list, combine=lambda acc, v: acc + [v])


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

    def test_message_includes_header(self):
        assert Message(0, 1, 7).wire_size() == 8 + 4


class PingPong(Worker):
    """Bounces a counter between workers 0 and 1 for a fixed count."""

    def __init__(self, rounds):
        self.rounds = rounds
        self.received = []

    def compute(self, ctx, messages):
        if ctx.superstep == 0 and ctx.worker_id == 0:
            ctx.send(1, 0)
        for value in messages:
            self.received.append(value)
            if value < self.rounds:
                ctx.send(1 - ctx.worker_id, value + 1)
        ctx.vote_to_halt()


class TestEngineBasics:
    def test_ping_pong_terminates(self):
        workers = [PingPong(4), PingPong(4)]
        engine = BspEngine(workers)
        metrics = engine.run()
        assert workers[0].received == [1, 3]
        assert workers[1].received == [0, 2, 4]
        assert metrics.total_messages == 5

    def test_empty_workers_rejected(self):
        with pytest.raises(BspError):
            BspEngine([])

    def test_bad_destination_rejected(self):
        class Bad(Worker):
            def compute(self, ctx, messages):
                ctx.send(99, 1)

        with pytest.raises(BspError):
            BspEngine([Bad()]).run()

    def test_non_quiescent_run_capped(self):
        class Chatter(Worker):
            def compute(self, ctx, messages):
                ctx.send(ctx.worker_id, 1)  # message to self forever

        with pytest.raises(BspError):
            BspEngine([Chatter()], max_supersteps=5).run()

    def test_halt_without_messages_single_step(self):
        class Quiet(Worker):
            def compute(self, ctx, messages):
                ctx.vote_to_halt()

        metrics = BspEngine([Quiet(), Quiet()]).run()
        assert len(metrics.steps) == 1

    def test_setup_called_with_ids(self):
        seen = []

        class Probe(Worker):
            def setup(self, worker_id, num_workers):
                seen.append((worker_id, num_workers))

            def compute(self, ctx, messages):
                ctx.vote_to_halt()

        BspEngine([Probe(), Probe(), Probe()]).run()
        assert seen == [(0, 3), (1, 3), (2, 3)]

    def test_messages_wake_halted_workers(self):
        log = []

        class Sleeper(Worker):
            def compute(self, ctx, messages):
                log.append((ctx.superstep, ctx.worker_id, list(messages)))
                if ctx.superstep == 0 and ctx.worker_id == 0:
                    ctx.send(1, "wake")
                ctx.vote_to_halt()

        BspEngine([Sleeper(), Sleeper()]).run()
        assert (1, 1, ["wake"]) in log
        # Worker 0 must not run again at superstep 1.
        assert not any(step == 1 and wid == 0 for step, wid, _ in log)


class TestBroadcast:
    def test_broadcast_reaches_all(self):
        received = {0: [], 1: [], 2: []}

        class Caster(Worker):
            def compute(self, ctx, messages):
                received[ctx.worker_id].extend(messages)
                if ctx.superstep == 0 and ctx.worker_id == 1:
                    ctx.broadcast("hello")
                ctx.vote_to_halt()

        BspEngine([Caster(), Caster(), Caster()]).run()
        assert all(msgs == ["hello"] for msgs in received.values())

    def test_broadcast_bytes_counted_once(self):
        class Caster(Worker):
            def compute(self, ctx, messages):
                if ctx.superstep == 0 and ctx.worker_id == 0:
                    ctx.broadcast(7)
                ctx.vote_to_halt()

        engine = BspEngine([Caster(), Caster(), Caster(), Caster()])
        metrics = engine.run()
        assert metrics.steps[0].broadcast_messages == 1
        assert metrics.steps[0].broadcast_bytes == 4
        # Broadcasts do not inflate the p2p counters.
        assert metrics.steps[0].messages_sent == 0


class TestAggregators:
    def _run_with(self, aggregator_factory, contributions, reader):
        values = {}

        class Contributor(Worker):
            def compute(self, ctx, messages):
                if ctx.superstep == 0:
                    for value in contributions[ctx.worker_id]:
                        ctx.aggregate("agg", value)
                else:
                    values[ctx.worker_id] = reader(ctx)
                ctx.vote_to_halt()

        class Wake(Worker):  # keep engine alive to superstep 1
            def compute(self, ctx, messages):
                if ctx.superstep == 0:
                    ctx.send(ctx.worker_id, "tick")
                ctx.vote_to_halt()

        workers = [Contributor() for _ in contributions]
        engine = BspEngine(workers, {"agg": aggregator_factory()})

        # Send self-messages so workers run at superstep 1 and read values.
        class Both(Contributor):
            def compute(self, ctx, messages):
                super().compute(ctx, messages)
                if ctx.superstep == 0:
                    ctx.send(ctx.worker_id, "tick")

        engine = BspEngine([Both() for _ in contributions], {"agg": aggregator_factory()})
        engine.run()
        return values

    def test_sum(self):
        values = self._run_with(sum_aggregator, [[1, 2], [3]], lambda c: c.get_aggregate("agg"))
        assert values == {0: 6, 1: 6}

    def test_max_min(self):
        vmax = self._run_with(max_aggregator, [[5], [9]], lambda c: c.get_aggregate("agg"))
        assert vmax[0] == 9
        vmin = self._run_with(min_aggregator, [[5], [9]], lambda c: c.get_aggregate("agg"))
        assert vmin[0] == 5

    def test_list(self):
        values = self._run_with(list_aggregator, [["a"], ["b"]], lambda c: sorted(c.get_aggregate("agg")))
        assert values[0] == ["a", "b"]

    def test_dict_merge(self):
        agg = lambda: dict_merge_aggregator(lambda old, new: old + new)
        values = self._run_with(
            agg, [[("k", 1)], [("k", 2), ("j", 5)]], lambda c: dict(c.get_aggregate("agg"))
        )
        assert values[0] == {"k": 3, "j": 5}

    def test_unknown_aggregator_raises(self):
        class Bad(Worker):
            def compute(self, ctx, messages):
                ctx.aggregate("nope", 1)

        with pytest.raises(BspError):
            BspEngine([Bad()]).run()

    def test_aggregate_visible_only_next_step(self):
        observations = []

        class Observer(Worker):
            def compute(self, ctx, messages):
                observations.append(ctx.get_aggregate("agg"))
                ctx.aggregate("agg", 10)
                if ctx.superstep == 0:
                    ctx.send(ctx.worker_id, "tick")
                ctx.vote_to_halt()

        BspEngine([Observer()], {"agg": sum_aggregator()}).run()
        assert observations == [0, 10]


class TestMetricsAndCostModel:
    def _run_star(self, hot_units):
        class Hot(Worker):
            def compute(self, ctx, messages):
                ctx.add_work(hot_units if ctx.worker_id == 0 else 1)
                ctx.vote_to_halt()

        engine = BspEngine([Hot() for _ in range(4)])
        return engine.run()

    def test_work_units_recorded(self):
        metrics = self._run_star(10)
        step = metrics.steps[0]
        assert step.max_work == 10
        assert step.total_work == 13

    def test_imbalance(self):
        metrics = self._run_star(10)
        assert metrics.steps[0].imbalance() == pytest.approx(10 / (13 / 4))

    def test_imbalance_of_empty_step(self):
        class Idle(Worker):
            def compute(self, ctx, messages):
                ctx.vote_to_halt()

        metrics = BspEngine([Idle()]).run()
        assert metrics.steps[0].imbalance() == 1.0

    def test_cost_model_compute_dominates_hotspot(self):
        model = CostModel(barrier_seconds=0.0)
        balanced = self._run_star(1)
        skewed = self._run_star(1000)
        assert model.makespan(skewed) > model.makespan(balanced)

    def test_cost_model_broadcast_does_not_scale(self):
        # Same broadcast bytes on more workers should not get cheaper.
        class Caster(Worker):
            def compute(self, ctx, messages):
                if ctx.worker_id == 0 and ctx.superstep == 0:
                    ctx.broadcast(tuple(range(100_000)))
                ctx.vote_to_halt()

        model = CostModel(barrier_seconds=0.0)
        times = {}
        for workers in (2, 8):
            engine = BspEngine([Caster() for _ in range(workers)])
            times[workers] = model.makespan(engine.run())
        assert times[8] >= times[2] * 0.99

    def test_phase_seconds_accumulate(self):
        class Phased(Worker):
            def compute(self, ctx, messages):
                ctx.add_phase_time("G", 0.25)
                ctx.add_phase_time("G", 0.25)
                ctx.vote_to_halt()

        metrics = BspEngine([Phased()]).run()
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
