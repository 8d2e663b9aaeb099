"""Plan-guided FSM: equivalence, determinism, caching, and the helpers.

The acceptance surface of the guided strategy:

* **equivalence** — guided FSM returns identical frequent patterns and
  supports to the exhaustive edge-exploration oracle and (pattern-set)
  to the GraMi baseline, on labeled random graphs and bundled datasets;
* **byte-identity** — the combined guided record's canonical signature
  is identical across serial/thread/process backends, worker counts and
  storage modes (the ``guided-fsm`` and ``costed-fsm`` rows of
  tests/test_equivalence_matrix.py);
* **session integration** — `.fsm()` runs guided by default, reuses the
  plan cache across candidate generations *and* across repeated runs
  (recompilation count stays flat), and validates options loudly;
* **domain plumbing** — `StepStats.domain_hits` meters one hit per
  (match, position); parent-domain push-down and Apriori pruning never
  change results;
* **helpers** — `plan/fsm_guide.py`'s candidate generation agrees with
  the GraMi baseline's independent implementation, and the domain math
  matches brute-force MNI.
"""

import pytest

from repro.apps import (
    Domain,
    DagPatternDomains,
    FrequentSubgraphMining,
    frequent_patterns,
    run_guided_fsm,
)
from repro.baselines.grami import (
    exact_mni_support,
    extend_pattern,
    run_grami,
    single_edge_patterns,
)
from repro.core import ArabesqueConfig, Pattern, run_computation
from repro.datasets import citeseer_like
from repro.graph import assign_labels, from_bitset, gnm_random_graph
from repro.plan import (
    build_plan_dag,
    compile_plan,
    domain_sets_from_matches,
    label_triples,
    mni_support_from_domains,
    one_edge_extensions,
    single_edge_candidates,
)
from repro.plan.fsm_guide import (
    compile_candidate_dag,
    connected_subpatterns_one_edge_removed,
    has_infrequent_subpattern,
    one_edge_extensions_with_maps,
    single_edge_domains,
)
from repro.plan.planner import PlanError, restrict_plan
from repro.session import Miner, SessionError


def labeled_graph(seed: int, n: int = 24, m: int = 60, labels: int = 3):
    return assign_labels(gnm_random_graph(n, m, seed=seed), labels, seed=seed)


def exhaustive_table(graph, threshold, max_edges):
    run = run_computation(
        graph,
        FrequentSubgraphMining(threshold, max_edges=max_edges),
        ArabesqueConfig(collect_outputs=False),
    )
    return frequent_patterns(run, threshold)


# ---------------------------------------------------------------------------
# Equivalence: guided == exhaustive == GraMi
# ---------------------------------------------------------------------------
class TestEquivalence:
    @pytest.mark.parametrize("seed", [1, 5, 9])
    @pytest.mark.parametrize("threshold", [2, 4])
    def test_guided_equals_exhaustive(self, seed, threshold):
        g = labeled_graph(seed)
        guided = run_guided_fsm(g, threshold, max_edges=3)
        assert guided.frequent == exhaustive_table(g, threshold, 3)

    @pytest.mark.parametrize("seed", [2, 7])
    def test_guided_equals_grami_patterns(self, seed):
        # GraMi's lazy search caps reported supports at the threshold,
        # so the comparison surface is the frequent-pattern set.
        g = labeled_graph(seed)
        guided = run_guided_fsm(g, 3, max_edges=3)
        grami = run_grami(g, 3, max_edges=3)
        assert set(guided.frequent) == set(grami.frequent)

    def test_guided_supports_are_exact_mni(self):
        g = labeled_graph(3)
        guided = run_guided_fsm(g, 3, max_edges=2)
        for pattern, support in guided.frequent.items():
            assert support == exact_mni_support(g, pattern)

    def test_citeseer_like_dataset(self):
        g = citeseer_like(scale=0.05)
        guided = run_guided_fsm(g, 6, max_edges=3)
        assert guided.frequent == exhaustive_table(g, 6, 3)
        assert guided.frequent  # non-degenerate workload

    def test_unbounded_depth_terminates_and_agrees(self):
        g = labeled_graph(4, n=16, m=30)
        threshold = 5
        guided = run_guided_fsm(g, threshold)  # no max_edges cap
        run = run_computation(
            g,
            FrequentSubgraphMining(threshold),
            ArabesqueConfig(collect_outputs=False),
        )
        assert guided.frequent == frequent_patterns(run, threshold)

    def test_edge_labels_respected(self):
        # Two triangles that differ only in one edge label must mine as
        # distinct patterns with separate supports.
        g_labels = (0, 0, 0, 0, 0, 0)
        edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
        edge_labels = [1, 1, 1, 1, 1, 2]
        from repro.graph import LabeledGraph

        g = LabeledGraph(g_labels, edges, edge_labels)
        guided = run_guided_fsm(g, 1, max_edges=3)
        assert guided.frequent == exhaustive_table(g, 1, 3)

    def test_threshold_validation(self):
        g = labeled_graph(1)
        with pytest.raises(ValueError, match="support_threshold"):
            run_guided_fsm(g, 0)
        with pytest.raises(ValueError, match="max_edges"):
            run_guided_fsm(g, 2, max_edges=0)


# ---------------------------------------------------------------------------
# Session integration
# ---------------------------------------------------------------------------
class TestSessionIntegration:
    def test_guided_is_the_default(self):
        g = labeled_graph(5)
        result = Miner(g).fsm(3, max_edges=2).run()
        assert result.guided
        assert result.guided_details is not None
        assert result.guided_details.levels[0].level == 1

    def test_dag_cache_flat_on_repeated_run(self):
        g = labeled_graph(5)
        miner = Miner(g)
        miner.fsm(3, max_edges=3).run()
        first = miner.cache_info()
        assert first.dag_compilations > 0
        # Candidates never compile solo plans — each level is one DAG.
        assert first.plan_compilations == 0
        miner.fsm(3, max_edges=3).run()
        second = miner.cache_info()
        # Every level batch of the repeat run is served from the
        # session's DAG cache: zero recompilations, only hits (the
        # per-run domain whitelists are overlaid on the cached DAGs).
        assert second.dag_compilations == first.dag_compilations
        assert second.dag_hits > first.dag_hits
        assert second.runs > first.runs

    def test_one_engine_run_per_level(self):
        g = labeled_graph(5)
        result = Miner(g).fsm(3, max_edges=3).run()
        details = result.guided_details
        # Level 1 is a closed-form edge scan; every deeper level with at
        # least one non-pruned candidate costs exactly one batched run,
        # no matter how many candidates it evaluates.
        levels_with_runs = sum(
            1
            for level in details.levels[1:]
            if level.candidates > level.pruned
        )
        assert details.engine_runs == levels_with_runs
        assert any(level.candidates - level.pruned > 1 for level in details.levels)

    def test_combined_record_is_the_level_runs_laid_end_to_end(self, monkeypatch):
        """One per-step list: the edge scan's synthetic step, then every
        level run's steps in order, renumbered, metering intact."""
        from repro.core import engine

        level_runs = []
        run_computation = engine.run_computation

        def recording(*args, **kwargs):
            level_runs.append(run_computation(*args, **kwargs))
            return level_runs[-1]

        with monkeypatch.context() as patch:
            patch.setattr(engine, "run_computation", recording)
            # run_guided_fsm imports the name at call time.
            combined = run_guided_fsm(
                labeled_graph(5), 3, max_edges=3,
                config=ArabesqueConfig(
                    storage="list", num_workers=2, profile_phases=True
                ),
            ).combined
        folded = [step for run in level_runs for step in run.steps]
        assert len(level_runs) > 1
        assert len(combined.steps) == 1 + len(folded)
        assert [step.step for step in combined.steps] == list(
            range(len(combined.steps))
        )
        for ours, theirs in zip(combined.steps[1:], folded):
            assert ours.work_units == theirs.work_units
            assert ours.phase_seconds == theirs.phase_seconds != {}
            assert ours.messages_sent == theirs.messages_sent
        assert combined.total_bytes == sum(run.total_bytes for run in level_runs)
        assert combined.phase_totals().keys() >= {"G", "P"}

    def test_collect_limit_count_require_exhaustive(self):
        miner = Miner(labeled_graph(5))
        with pytest.raises(SessionError, match="exhaustive"):
            miner.fsm(3).collect(True)
        with pytest.raises(SessionError, match="exhaustive"):
            miner.fsm(3).limit(10)
        with pytest.raises(SessionError, match="exhaustive"):
            miner.fsm(3, max_edges=2).count()
        with pytest.raises(SessionError, match="exhaustive"):
            miner.fsm(3).collect(False).guided().collect(True)
        # The config() spelling of an output cap is rejected just as
        # loudly as .limit(); exhaustive still honors it.
        capped = ArabesqueConfig(output_limit=5)
        with pytest.raises(SessionError, match="exhaustive"):
            miner.fsm(3, max_edges=2).config(capped).run()
        ok = miner.fsm(3, max_edges=2).exhaustive().config(capped).run()
        assert len(ok.raw.outputs) <= 5

    def test_exhaustive_path_still_collects_and_counts(self):
        g = labeled_graph(5)
        query = Miner(g).fsm(3, max_edges=2).exhaustive()
        count = query.count()
        run = run_computation(
            g,
            FrequentSubgraphMining(3, max_edges=2),
            ArabesqueConfig(collect_outputs=False),
        )
        assert count == run.num_outputs

    def test_stream_works_guided(self):
        g = labeled_graph(5)
        items = list(Miner(g).fsm(3, max_edges=2).stream())
        assert items == sorted(
            Miner(g).fsm(3, max_edges=2).run().patterns().items(),
            key=lambda kv: (kv[0].num_edges, -kv[1], repr(kv[0])),
        )

    def test_post_filtering_works_guided(self):
        g = labeled_graph(5)
        result = Miner(g).fsm(2, max_edges=2).run()
        stricter = result.patterns(support_threshold=6)
        assert set(stricter) <= set(result.patterns())
        assert all(s >= 6 for s in stricter.values())
        with pytest.raises(ValueError, match="re-mine"):
            result.patterns(support_threshold=1)


# ---------------------------------------------------------------------------
# Domain plumbing (runtime metering + push-down soundness)
# ---------------------------------------------------------------------------
class TestDomainPlumbing:
    def test_domain_hits_meter_matches_times_arity(self):
        g = labeled_graph(7)
        pattern = single_edge_candidates(g)[0]
        dag = compile_candidate_dag((pattern,))
        run = run_computation(
            g,
            DagPatternDomains(dag),
            ArabesqueConfig(plan=dag, collect_outputs=False, storage="list"),
        )
        matches = sum(step.processed_embeddings for step in run.steps[1:])
        assert run.total_domain_hits == matches * pattern.num_vertices
        assert run.total_domain_hits > 0

    def test_domain_hits_zero_for_other_workloads(self):
        g = labeled_graph(7)
        result = Miner(g).motifs(3).unlabeled().collect(False).run()
        assert result.raw.total_domain_hits == 0

    def test_restricted_plan_loses_no_matches(self):
        g = labeled_graph(9)
        guided = run_guided_fsm(g, 2, max_edges=3)
        # Every evaluated pattern's accumulated domain equals brute-force
        # MNI domains even though deeper levels ran with parent-domain
        # whitelists pushed into their plans.
        for pattern, support in guided.frequent.items():
            assert support == exact_mni_support(g, pattern)

    def test_restrict_plan_overlays_whitelists(self):
        pattern = Pattern((0, 1), ((0, 1, 0),)).canonical()
        plan = compile_plan(pattern, induced=False)
        restricted = restrict_plan(plan, {0: frozenset({1, 2})})
        assert restricted.pattern == plan.pattern
        assert restricted.order == plan.order
        by_vertex = {
            step.pattern_vertex: step.allowed for step in restricted.steps
        }
        assert from_bitset(by_vertex[0]) == (1, 2)
        assert by_vertex[1] is None
        # The base plan is untouched (cache safety).
        assert all(step.allowed is None for step in plan.steps)

    def test_candidate_dag_requires_canonical_patterns(self):
        non_canonical = Pattern((1, 0), ((0, 1, 0),))
        if non_canonical.is_canonical():  # pragma: no cover - layout guard
            pytest.skip("canonical form happens to match")
        with pytest.raises(PlanError, match="canonical"):
            compile_candidate_dag((non_canonical,))

    def test_dag_pattern_domains_rejects_induced_dags(self):
        pattern = Pattern((0, 1), ((0, 1, 0),)).canonical()
        with pytest.raises(ValueError, match="monomorphic"):
            DagPatternDomains(build_plan_dag((pattern,), induced=True))


# ---------------------------------------------------------------------------
# fsm_guide helpers vs the independent GraMi implementation
# ---------------------------------------------------------------------------
class TestFsmGuideHelpers:
    def test_single_edge_candidates_agree_with_grami(self):
        g = labeled_graph(11)
        assert single_edge_candidates(g) == single_edge_patterns(g)

    def test_one_edge_extensions_agree_with_grami(self):
        g = labeled_graph(11)
        triples = label_triples(g)
        for pattern in single_edge_candidates(g):
            assert one_edge_extensions(pattern, triples) == extend_pattern(
                pattern, triples
            )

    def test_extension_maps_embed_parent(self):
        g = labeled_graph(12)
        triples = label_triples(g)
        parent = single_edge_candidates(g)[0]
        for child, parent_map in one_edge_extensions_with_maps(parent, triples):
            child_edges = {(i, j): le for i, j, le in child.edges}
            for i, j, le in parent.edges:
                a, b = sorted((parent_map[i], parent_map[j]))
                assert child_edges[(a, b)] == le
            for vertex, position in enumerate(parent_map):
                assert (
                    parent.vertex_labels[vertex] == child.vertex_labels[position]
                )

    def test_single_edge_domains_match_brute_force(self):
        g = labeled_graph(13)
        for pattern, sets in single_edge_domains(g):
            support = Domain(sets).support(pattern.orbits())
            assert support == exact_mni_support(g, pattern)

    def test_connected_subpatterns_one_edge_removed(self):
        triangle = Pattern((0, 0, 0), ((0, 1, 0), (0, 2, 0), (1, 2, 0))).canonical()
        subs = connected_subpatterns_one_edge_removed(triangle)
        wedge = Pattern((0, 0, 0), ((0, 1, 0), (0, 2, 0))).canonical()
        assert subs == [wedge]
        # A wedge minus either edge leaves a single edge (isolated vertex
        # dropped) — still connected, so Apriori sees it.
        assert connected_subpatterns_one_edge_removed(wedge) == [
            Pattern((0, 0), ((0, 1, 0),)).canonical()
        ]

    def test_has_infrequent_subpattern(self):
        triangle = Pattern((0, 0, 0), ((0, 1, 0), (0, 2, 0), (1, 2, 0))).canonical()
        wedge = Pattern((0, 0, 0), ((0, 1, 0), (0, 2, 0))).canonical()
        assert not has_infrequent_subpattern(triangle, {wedge})
        assert has_infrequent_subpattern(triangle, set())

    def test_domain_math_against_vf2(self):
        g = labeled_graph(14)
        from repro.isomorphism import SubgraphMatcher

        for pattern in single_edge_candidates(g)[:3]:
            dag = compile_candidate_dag((pattern,))
            (plan,) = dag.plans
            run = run_computation(
                g,
                _MatchCollector(dag),
                ArabesqueConfig(plan=dag, storage="list"),
            )
            sets = domain_sets_from_matches(plan, run.outputs)
            support = mni_support_from_domains(sets, pattern.orbits())
            assert support == exact_mni_support(g, pattern)
            matcher = SubgraphMatcher(
                pattern.vertex_labels, pattern.edge_dict(), g
            )
            total = sum(1 for _ in matcher.match_iter())
            assert len(run.outputs) * plan.num_automorphisms == total


class _MatchCollector(DagPatternDomains):
    """Test-only: also emit each full guided word sequence (one-member
    DAGs only, so every accepted embedding is the member's match)."""

    def process(self, embedding):
        super().process(embedding)
        if embedding.size == self.plan.plans[0].num_steps:
            self.output(embedding.words)
