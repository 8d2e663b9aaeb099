"""Tests for the `Miner` session facade (repro.session).

Four concerns:

* **fluency + validation** — every chainable option validates loudly at
  build time; conflicting combinations raise `SessionError` before
  anything runs;
* **equivalence** — each facade query is byte-identical
  (`canonical_signature`) to the legacy wiring it replaced (that
  backends change nothing is tests/test_equivalence_matrix.py's);
* **session caching** — a reused `Miner` demonstrably skips plan
  recompilation and step-0 universe re-setup;
* **result views / streaming** — typed accessors agree with the legacy
  post-processing helpers, and `.stream()` iterates the right items.
"""

import pytest

from repro.apps import (
    CliqueFinding,
    FrequentSubgraphMining,
    GraphMatching,
    GuidedMatching,
    MaximalCliqueFinding,
    MotifCounting,
    cliques_by_size,
    frequent_patterns,
    motif_counts,
)
from repro.core import (
    ArabesqueConfig,
    Pattern,
    RunResult,
    run_computation,
)
from repro.graph import assign_labels, gnm_random_graph, strip_labels
from repro.plan import NAMED_SHAPES, compile_plan
from repro.session import (
    CliqueResult,
    FSMResult,
    MatchResult,
    Miner,
    MiningResult,
    MotifResult,
    SessionError,
)


@pytest.fixture
def graph():
    return assign_labels(gnm_random_graph(24, 60, seed=5), 3, seed=5)


@pytest.fixture
def miner(graph):
    return Miner(graph)


# ---------------------------------------------------------------------------
# Fluency + option validation
# ---------------------------------------------------------------------------
class TestFluentOptions:
    def test_options_chain_and_return_the_query(self, miner):
        query = miner.motifs(max_size=3)
        assert (
            query.backend("thread").workers(2).storage("list").collect(False)
            is query
        )

    def test_unknown_backend_rejected_eagerly(self, miner):
        with pytest.raises(SessionError, match="unknown backend 'gpu'"):
            miner.motifs(3).backend("gpu")

    def test_unknown_storage_rejected_eagerly(self, miner):
        with pytest.raises(SessionError, match="unknown storage mode"):
            miner.cliques(3).storage("ram")

    @pytest.mark.parametrize("bad", [0, -1, 2.5, "4", True])
    def test_bad_worker_counts_rejected(self, miner, bad):
        with pytest.raises(SessionError, match="workers"):
            miner.fsm(2).workers(bad)

    def test_negative_limit_rejected(self, miner):
        with pytest.raises(SessionError, match="limit"):
            miner.cliques(3).limit(-1)

    def test_limit_conflicts_with_collect_false(self, miner):
        with pytest.raises(SessionError, match="collect"):
            miner.cliques(3).collect(False).limit(10)
        with pytest.raises(SessionError, match="limit"):
            miner.cliques(3).limit(10).collect(False)

    def test_limit_conflicts_with_uncollected_base_config(self, miner):
        query = miner.cliques(3).config(
            ArabesqueConfig(collect_outputs=False)
        ).limit(5)
        with pytest.raises(SessionError, match="collect_outputs=False"):
            query.run()

    def test_config_requires_arabesque_config(self, miner):
        with pytest.raises(SessionError, match="ArabesqueConfig"):
            miner.motifs(3).config({"num_workers": 2})

    def test_miner_requires_a_graph(self):
        with pytest.raises(SessionError, match="LabeledGraph"):
            Miner("citeseer")

    def test_workload_arguments_validated_eagerly(self, miner):
        with pytest.raises(ValueError):
            miner.motifs(max_size=0)
        with pytest.raises(ValueError):
            miner.fsm(0)
        with pytest.raises(ValueError):
            miner.cliques(max_size=0)
        with pytest.raises(SessionError):
            miner.compute("not a computation")

    def test_plan_carrying_config_rejected_for_non_pattern_query(self, miner):
        plan = compile_plan(NAMED_SHAPES["triangle"])
        query = miner.motifs(3).config(ArabesqueConfig(plan=plan))
        with pytest.raises(SessionError, match="MatchingPlan"):
            query.run()


class TestMatchStrategyValidation:
    def test_exhaustive_then_plan_conflicts(self, miner):
        plan = compile_plan(NAMED_SHAPES["triangle"])
        query = miner.match("triangle").unlabeled().exhaustive()
        with pytest.raises(SessionError, match="exhaustive"):
            query.plan(plan)

    def test_plan_then_exhaustive_conflicts(self, miner):
        plan = compile_plan(NAMED_SHAPES["triangle"])
        query = miner.match("triangle").unlabeled().plan(plan)
        with pytest.raises(SessionError, match="precompiled plan"):
            query.exhaustive()

    def test_plan_semantics_must_match(self, miner):
        plan = compile_plan(NAMED_SHAPES["triangle"], induced=True)
        with pytest.raises(SessionError, match="induced="):
            miner.match("triangle", induced=False).plan(plan)

    def test_plan_pattern_must_match(self, miner):
        plan = compile_plan(NAMED_SHAPES["square"].canonical())
        with pytest.raises(SessionError, match="different query pattern"):
            miner.match("triangle").plan(plan)

    def test_plan_must_be_a_matching_plan(self, miner):
        with pytest.raises(SessionError, match="MatchingPlan"):
            miner.match("triangle").plan("triangle")

    def test_guided_exhaustive_only_for_plan_capable_queries(self, miner):
        with pytest.raises(SessionError, match="cliques"):
            miner.cliques(3).guided()
        with pytest.raises(SessionError, match="cliques"):
            miner.cliques(3).exhaustive()
        with pytest.raises(SessionError, match="cliques"):
            miner.cliques(3).plan(compile_plan(NAMED_SHAPES["triangle"]))
        # FSM and motifs are plan-capable (guided by default) but compile
        # their own multi-query DAGs — a single precompiled plan is
        # rejected.
        with pytest.raises(SessionError, match="multi-query"):
            miner.fsm(2).plan(compile_plan(NAMED_SHAPES["triangle"]))
        with pytest.raises(SessionError, match="multi-query"):
            miner.motifs(3).plan(compile_plan(NAMED_SHAPES["triangle"]))
        assert miner.fsm(2).exhaustive().is_guided is False
        assert miner.fsm(2).guided().is_guided is True
        assert miner.motifs(3).exhaustive().is_guided is False
        assert miner.motifs(3).guided().is_guided is True

    def test_disconnected_pattern_rejected_at_build(self, miner):
        disconnected = Pattern((0, 0, 0, 0), ((0, 1, 0), (2, 3, 0)))
        with pytest.raises(SessionError, match="connected"):
            miner.match(disconnected)

    def test_empty_pattern_rejected_at_build(self, miner):
        with pytest.raises(SessionError, match="empty"):
            miner.match(Pattern((), ()))

    def test_unknown_shape_name_rejected_at_build(self, miner):
        with pytest.raises(ValueError, match="neither a named shape"):
            miner.match("heptadecagon")

    def test_non_pattern_query_rejected_at_build(self, miner):
        with pytest.raises(SessionError, match="Pattern"):
            miner.match(12345)

    def test_labeled_query_on_stripped_graph_rejected(self, miner):
        labeled = Pattern((1, 2), ((0, 1, 0),))
        query = miner.match(labeled).unlabeled()
        with pytest.raises(SessionError, match="labels"):
            query.run()
        # The same query on the labeled graph variant is fine.
        assert miner.match(labeled).run().num_matches >= 0


class TestStreamValidation:
    def test_stream_with_collect_false_rejected(self, miner):
        with pytest.raises(SessionError, match="stream"):
            miner.cliques(3).collect(False).stream()
        with pytest.raises(SessionError, match="stream"):
            miner.match("triangle").unlabeled().collect(False).stream()

    def test_stream_with_uncollected_base_config_rejected(self, miner):
        query = miner.cliques(3).config(ArabesqueConfig(collect_outputs=False))
        with pytest.raises(SessionError, match="stream"):
            query.stream()

    def test_aggregate_streams_work_without_collection(self, miner):
        # Motif and FSM streams come from aggregates, not outputs.
        motif_items = list(miner.motifs(3).unlabeled().collect(False).stream())
        assert motif_items
        fsm_items = list(miner.fsm(2, max_edges=2).collect(False).stream())
        assert all(support >= 2 for _, support in fsm_items)


# ---------------------------------------------------------------------------
# Equivalence with the legacy wiring (byte-identical signatures)
# ---------------------------------------------------------------------------
class TestLegacyEquivalence:
    # Facade == engine wiring; backend invariance is the equivalence matrix's.
    def test_motifs_match_direct_engine_run(self, graph):
        config = ArabesqueConfig(num_workers=2, collect_outputs=False)
        legacy = run_computation(strip_labels(graph), MotifCounting(3), config)
        facade = (
            Miner(graph).motifs(3).unlabeled()
            .workers(2).collect(False).run()
        )
        assert facade.signature() == legacy.canonical_signature()

    def test_guided_match_chained_options_equal_explicit_config(self, graph):
        # Storage pinned to the facade's guided default (list): output
        # *order* at multi-worker runs is only guaranteed byte-identical
        # at a fixed storage mode (the multiset always agrees).
        config = ArabesqueConfig(num_workers=2, storage="list")
        query = NAMED_SHAPES["square"]
        explicit = Miner(strip_labels(graph)).match(query).config(config).run()
        facade = Miner(graph).match(query).unlabeled().workers(2).run()
        assert facade.signature() == explicit.signature()

    def test_exhaustive_match_chained_options_equal_explicit_config(self, graph):
        config = ArabesqueConfig(num_workers=2)
        query = NAMED_SHAPES["triangle"]
        explicit = (
            Miner(strip_labels(graph)).match(query).config(config)
            .exhaustive().run()
        )
        facade = (
            Miner(graph).match(query).unlabeled().exhaustive().workers(2).run()
        )
        assert facade.signature() == explicit.signature()

    def test_guided_match_equivalent_to_direct_engine_wiring(self, graph):
        # Equivalence against the raw engine path: GuidedMatching +
        # config.plan.
        query = NAMED_SHAPES["square"].canonical()
        plan = compile_plan(query, induced=True)
        legacy = run_computation(
            strip_labels(graph), GuidedMatching(plan),
            ArabesqueConfig(plan=plan),
        )
        facade = Miner(graph).match(query).unlabeled().storage("odag").run()
        assert facade.signature() == legacy.canonical_signature()

    def test_exhaustive_match_equivalent_to_direct_engine_wiring(self, graph):
        query = NAMED_SHAPES["triangle"]
        legacy = run_computation(
            strip_labels(graph), GraphMatching(query, induced=True),
            ArabesqueConfig(),
        )
        facade = Miner(graph).match(query).unlabeled().exhaustive().run()
        assert facade.signature() == legacy.canonical_signature()

    def test_fsm_matches_direct_engine_run(self, graph):
        config = ArabesqueConfig(collect_outputs=False)
        legacy = run_computation(
            graph, FrequentSubgraphMining(3, max_edges=2), config
        )
        facade = (
            Miner(graph).fsm(3, max_edges=2).exhaustive().collect(False).run()
        )
        assert facade.signature() == legacy.canonical_signature()
        assert facade.patterns() == frequent_patterns(legacy, 3)
        # The guided default returns the identical pattern table through
        # a completely different execution strategy.
        guided = Miner(graph).fsm(3, max_edges=2).run()
        assert guided.guided and not facade.guided
        assert guided.patterns() == facade.patterns()

    def test_cliques_match_direct_engine_run(self, graph):
        legacy = run_computation(
            graph, CliqueFinding(max_size=4, min_size=3), ArabesqueConfig()
        )
        facade = Miner(graph).cliques(max_size=4, min_size=3).run()
        assert facade.signature() == legacy.canonical_signature()
        assert facade.by_size() == cliques_by_size(legacy)

    def test_maximal_cliques_match_direct_engine_run(self, graph):
        legacy = run_computation(
            graph, MaximalCliqueFinding(max_size=4), ArabesqueConfig()
        )
        facade = Miner(graph).maximal_cliques(max_size=4).run()
        assert facade.signature() == legacy.canonical_signature()

    def test_compute_escape_hatch_matches_direct_run(self, graph):
        legacy = run_computation(
            graph, CliqueFinding(max_size=3, min_size=3), ArabesqueConfig()
        )
        facade = Miner(graph).compute(
            CliqueFinding(max_size=3, min_size=3)
        ).run()
        assert isinstance(facade, MiningResult)
        assert facade.signature() == legacy.canonical_signature()

    def test_count_matches_exhaustive_count(self, graph):
        match = Miner(strip_labels(graph)).match
        for name in ("triangle", "wedge", "square"):
            oracle = match(NAMED_SHAPES[name]).exhaustive().count()
            assert match(NAMED_SHAPES[name]).count() == oracle

    def test_guided_default_agrees_with_exhaustive_opt_out(self, miner):
        guided = miner.match("square").unlabeled().run()
        exhaustive = miner.match("square").unlabeled().exhaustive().run()
        assert guided.guided and guided.plan is not None
        assert not exhaustive.guided and exhaustive.plan is None
        assert guided.vertex_sets() == exhaustive.vertex_sets()
        assert guided.total_candidates < exhaustive.total_candidates

    def test_explicit_storage_and_config_override_guided_default(self, miner):
        # Guided queries default to list storage; an explicit .storage()
        # or a caller-supplied base config must win.
        auto = miner.match("triangle").unlabeled().run()
        assert auto.raw.steps[0].shipped_format == "list"
        odag = miner.match("triangle").unlabeled().storage("odag").run()
        assert odag.raw.steps[0].shipped_format == "odag"
        via_config = (
            miner.match("triangle").unlabeled()
            .config(ArabesqueConfig()).run()
        )
        assert via_config.raw.steps[0].shipped_format == "odag"
        assert auto.signature() == odag.signature() == via_config.signature()


# ---------------------------------------------------------------------------
# Session caching: reuse skips plan recompilation and step-0 setup
# ---------------------------------------------------------------------------
class TestSessionCaching:
    def test_repeated_pattern_query_skips_plan_compilation(
        self, miner, monkeypatch
    ):
        import repro.session.miner as miner_module

        calls = []
        real_compile = miner_module.compile_plan

        def counting_compile(pattern, induced=True, *, catalog=None):
            calls.append((pattern, induced))
            return real_compile(pattern, induced=induced, catalog=catalog)

        monkeypatch.setattr(miner_module, "compile_plan", counting_compile)
        first = miner.match("square").unlabeled().run()
        second = miner.match("square").unlabeled().run()
        assert first.signature() == second.signature()
        assert len(calls) == 1  # second query reused the cached plan
        info = miner.cache_info()
        assert info.plan_compilations == 1
        assert info.plan_hits == 1

    def test_plan_cache_is_per_semantics(self, miner):
        miner.match("wedge").unlabeled().run()
        miner.match("wedge", induced=False).unlabeled().run()
        assert miner.cache_info().plan_compilations == 2

    def test_reused_session_skips_step0_setup(self, miner, monkeypatch):
        # Engine-built step-0 pools come from the exhaustive stepper.
        import repro.plan.stepper as stepper_module

        calls = []
        real_initial = stepper_module.initial_candidates

        def counting_initial(graph, mode):
            calls.append(mode)
            return real_initial(graph, mode)

        monkeypatch.setattr(
            stepper_module, "initial_candidates", counting_initial
        )
        # Session-path universes come from repro.session.miner's import.
        import repro.session.miner as miner_module

        monkeypatch.setattr(
            miner_module, "initial_candidates", counting_initial
        )
        # Guided motif and match queries bring their own step-0 pools
        # (the DAG root pools / the plan's label index), so they neither
        # build nor hit the universe; cliques build it once.
        miner.motifs(3).unlabeled().collect(False).run()
        miner.cliques(3, min_size=3).run()
        miner.match("triangle").unlabeled().run()
        assert calls == ["vertex"]  # one vertex universe, built once
        info = miner.cache_info()
        assert info.universe_builds == 1
        assert info.universe_hits == 0
        assert info.runs == 3
        miner.motifs(3).unlabeled().exhaustive().collect(False).run()
        assert miner.cache_info().universe_hits == 1
        miner.match("triangle").unlabeled().exhaustive().run()
        assert miner.cache_info().universe_hits == 2

    def test_universe_cached_per_exploration_mode(self, miner):
        # Exhaustive motifs build the vertex universe; exhaustive FSM is
        # the one edge-exploration workload.
        miner.motifs(3).unlabeled().exhaustive().collect(False).run()
        miner.fsm(3, max_edges=2).exhaustive().collect(False).run()
        miner.cliques(3, min_size=3).run()                 # vertex again
        info = miner.cache_info()
        assert info.universe_builds == 2
        assert info.universe_hits == 1
        # Guided FSM and guided motifs need no universe at all: DAG root
        # pools (label indexes / domain whitelists) are their step 0.
        miner.fsm(3, max_edges=2).run()
        miner.motifs(3).unlabeled().collect(False).run()
        info = miner.cache_info()
        assert info.universe_builds == 2
        assert info.universe_hits == 1

    def test_stripped_variant_built_once(self, miner):
        miner.motifs(3).unlabeled().collect(False).run()
        miner.match("triangle").unlabeled().run()
        assert miner.cache_info().strip_builds == 1

    def test_cache_info_is_a_snapshot(self, miner):
        before = miner.cache_info()
        miner.cliques(3).run()
        assert before.runs == 0
        assert miner.cache_info().runs == 1


# ---------------------------------------------------------------------------
# Result views and streaming
# ---------------------------------------------------------------------------
class TestResultViews:
    def test_motif_view_matches_helpers(self, miner):
        result = miner.motifs(3).unlabeled().collect(False).run()
        assert isinstance(result, MotifResult)
        assert result.counts() == motif_counts(result.raw)
        assert set(result.by_size()) == {3}

    def test_match_view_carries_strategy_metadata(self, miner):
        result = miner.match("triangle").unlabeled().run()
        assert isinstance(result, MatchResult)
        assert result.query == NAMED_SHAPES["triangle"].canonical()
        assert result.induced and result.guided
        assert result.plan.pattern == result.query
        assert result.num_matches == len(result.vertex_sets())

    def test_fsm_view_supports_post_filtering(self, miner):
        result = miner.fsm(2, max_edges=2).collect(False).run()
        assert isinstance(result, FSMResult)
        assert result.support_threshold == 2
        stricter = result.patterns(support_threshold=10)
        assert set(stricter) <= set(result.patterns())
        assert all(s >= 10 for s in stricter.values())
        # Filtering below the mined θ would silently miss patterns whose
        # ancestors were pruned — rejected instead.
        with pytest.raises(ValueError, match="re-mine"):
            result.patterns(support_threshold=1)

    def test_clique_view_flags_maximality(self, miner):
        all_cliques = miner.cliques(max_size=3, min_size=1).run()
        maximal = miner.maximal_cliques(max_size=3).run()
        assert isinstance(all_cliques, CliqueResult)
        assert not all_cliques.maximal and maximal.maximal
        for size, found in maximal.by_size().items():
            assert set(found) <= set(all_cliques.by_size().get(size, []))

    def test_summary_is_one_line(self, miner):
        summary = miner.cliques(3).run().summary()
        assert summary.startswith("#") and "\n" not in summary

    def test_summary_reports_measured_wall_on_any_record(self, miner):
        """The footer reads the one record: what the user waited and what
        the run shipped — also on a run that never stepped."""
        for raw in (RunResult(), miner.cliques(3).run().raw):
            summary = MiningResult(raw).summary()
            assert summary.startswith("#") and "\n" not in summary
            assert f"wall={raw.wall_seconds:.4f}s" in summary
            assert f"messages={raw.total_messages:,}" in summary
            assert "makespan" not in summary

    def test_match_stream_yields_sorted_vertex_sets(self, miner):
        result = miner.match("wedge").unlabeled().run()
        streamed = list(miner.match("wedge").unlabeled().stream())
        assert streamed == result.vertex_sets()

    def test_limit_caps_collected_outputs_but_not_counts(self, miner):
        capped = miner.cliques(3, min_size=1).limit(5).run()
        uncapped = miner.cliques(3, min_size=1).run()
        assert len(capped.outputs) == 5
        assert capped.num_outputs == uncapped.num_outputs > 5

    def test_count_disables_collection(self, miner):
        query = miner.cliques(3, min_size=3)
        count = query.count()
        assert count == miner.cliques(3, min_size=3).run().num_outputs
        assert count > 0

    def test_count_does_not_poison_later_runs(self, miner):
        # count() must override collection per-call, not mutate the query:
        # a later .run() on the same builder still collects outputs.
        query = miner.cliques(3, min_size=3)
        count = query.count()
        rerun = query.run()
        assert rerun.num_outputs == count
        assert len(rerun.outputs) == count
        assert rerun.by_size()
        # ...unless the query itself opted out of collection.
        opted_out = miner.cliques(3, min_size=3).collect(False)
        assert opted_out.count() == count
        assert opted_out.run().outputs == []

    def test_count_ignores_limit(self, miner):
        # limit() only caps collected outputs; the count stays exact and
        # count() must not trip over its own per-call collect override.
        query = miner.cliques(3, min_size=1).limit(5)
        exact = miner.cliques(3, min_size=1).run().num_outputs
        assert query.count() == exact > 5
        assert len(query.run().outputs) == 5  # the cap still holds for run()


# ---------------------------------------------------------------------------
# Engine-level universe injection guard
# ---------------------------------------------------------------------------
class TestUniverseInjection:
    def test_wrong_universe_rejected(self, graph):
        with pytest.raises(ValueError, match="universe"):
            run_computation(
                graph, CliqueFinding(max_size=3), ArabesqueConfig(),
                universe=(0, 1, 2),  # not every vertex
            )

    def test_injected_universe_matches_default(self, graph):
        default = run_computation(
            graph, CliqueFinding(max_size=3), ArabesqueConfig()
        )
        injected = run_computation(
            graph, CliqueFinding(max_size=3), ArabesqueConfig(),
            universe=tuple(graph.vertices()),
        )
        assert injected.canonical_signature() == default.canonical_signature()


# ---------------------------------------------------------------------------
# Thread safety: one shared Miner under concurrent query load
# ---------------------------------------------------------------------------
class TestThreadSafety:
    def test_concurrent_queries_share_caches_without_duplication(self, graph):
        """Hammer one session from many threads: every thread must see
        identical results, and the per-graph caches must show exactly one
        build per key — no duplicate compilations, no torn counters."""
        import threading

        shared = Miner(graph)
        num_threads = 8
        barrier = threading.Barrier(num_threads)
        failures = []
        signatures = [None] * num_threads

        def worker(slot):
            try:
                barrier.wait(timeout=30)
                triangle = shared.match("triangle").run()
                wedge = shared.match("wedge").run()
                motifs = shared.motifs(3).collect(False).run()
                signatures[slot] = (
                    triangle.raw.canonical_signature(),
                    wedge.raw.canonical_signature(),
                    motifs.raw.canonical_signature(),
                )
            except Exception as exc:  # pragma: no cover - failure detail
                failures.append((slot, exc))

        threads = [
            threading.Thread(target=worker, args=(slot,))
            for slot in range(num_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not failures, failures

        assert all(sig is not None for sig in signatures)
        assert len(set(signatures)) == 1  # every thread saw the same bytes

        info = shared.cache_info()
        # Compile-under-lock: one plan per distinct (pattern, semantics),
        # one DAG per motif batch, no matter how many threads raced.
        assert info.plan_compilations == 2
        assert info.dag_compilations == 1
        # No torn counters: every run is accounted for, and every lookup
        # beyond the first build was a hit.
        assert info.runs == num_threads * 3
        assert info.plan_hits == num_threads * 2 - 2
        assert info.dag_hits == num_threads - 1

    def test_concurrent_unlabeled_runs_build_one_stripped_variant(self, graph):
        import threading

        shared = Miner(graph)
        barrier = threading.Barrier(6)
        failures = []

        def worker():
            try:
                barrier.wait(timeout=30)
                shared.match("wedge").unlabeled().run()
            except Exception as exc:  # pragma: no cover - failure detail
                failures.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not failures, failures
        assert shared.cache_info().strip_builds == 1
