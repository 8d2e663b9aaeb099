"""Baseline tests: each baseline cross-validated against Arabesque apps,
networkx, or brute force — plus the paradigm-level behaviours the paper
reports (TLP parallelism ceiling, TLV message explosion)."""

import itertools

import networkx as nx
import pytest

from repro.apps import (
    CliqueFinding,
    FrequentSubgraphMining,
    MotifCounting,
    cliques_by_size,
    frequent_patterns,
    motif_counts,
)
from repro.baselines import (
    count_cliques_by_size,
    count_motifs,
    count_motifs_up_to,
    degeneracy_order,
    enumerate_cliques,
    enumerate_connected_subgraphs,
    enumerate_maximal_cliques,
    exact_mni_support,
    extend_pattern,
    find_frequent_embeddings,
    graph_label_triples,
    mni_support_lazy,
    run_grami,
    run_tlp_fsm,
    run_tlv_fsm,
    single_edge_patterns,
)
from repro.core import Pattern, run_computation
from repro.graph import (
    assign_labels,
    complete_graph,
    cycle_graph,
    gnm_random_graph,
    graph_from_edges,
    path_graph,
    powerlaw_graph,
    star_graph,
)


def to_networkx(graph):
    nxg = nx.Graph()
    nxg.add_nodes_from(graph.vertices())
    nxg.add_edges_from((u, v) for _, u, v in graph.edge_iter())
    return nxg


class TestCliqueBaselines:
    def test_all_cliques_unique_and_sorted(self):
        g = gnm_random_graph(15, 50, seed=1)
        cliques = list(enumerate_cliques(g, max_size=4))
        assert len(cliques) == len(set(cliques))
        assert all(tuple(sorted(c)) == c for c in cliques)

    @pytest.mark.parametrize("seed", [1, 4])
    def test_counts_match_arabesque(self, seed):
        g = gnm_random_graph(16, 56, seed=seed)
        ours = count_cliques_by_size(g, max_size=4)
        arabesque = {
            size: len(cliques)
            for size, cliques in cliques_by_size(
                run_computation(g, CliqueFinding(max_size=4))
            ).items()
        }
        assert ours == arabesque

    def test_k6_counts(self):
        counts = count_cliques_by_size(complete_graph(6))
        assert counts == {1: 6, 2: 15, 3: 20, 4: 15, 5: 6, 6: 1}

    def test_degeneracy_order_peels_leaves_first(self):
        # The hub only reaches the peel frontier after enough leaves go.
        order = degeneracy_order(star_graph(5))
        assert order.index(0) >= 4

    def test_degeneracy_order_is_permutation(self):
        g = gnm_random_graph(20, 40, seed=3)
        assert sorted(degeneracy_order(g)) == list(range(20))

    @pytest.mark.parametrize("seed", [2, 6])
    def test_maximal_cliques_match_networkx(self, seed):
        g = gnm_random_graph(18, 70, seed=seed)
        ours = set(enumerate_maximal_cliques(g))
        expected = {frozenset(c) for c in nx.find_cliques(to_networkx(g))}
        assert ours == expected

    def test_maximal_cliques_on_path(self):
        assert set(enumerate_maximal_cliques(path_graph(4))) == {
            frozenset({0, 1}),
            frozenset({1, 2}),
            frozenset({2, 3}),
        }


class TestEsu:
    def test_enumerates_each_subgraph_once(self):
        g = gnm_random_graph(14, 30, seed=2)
        found = list(enumerate_connected_subgraphs(g, 3))
        assert len(found) == len(set(found))

    @pytest.mark.parametrize("size", [2, 3, 4])
    def test_matches_bruteforce(self, size):
        g = gnm_random_graph(12, 26, seed=5)
        found = set(enumerate_connected_subgraphs(g, size))
        expected = {
            combo
            for combo in itertools.combinations(range(12), size)
            if g.is_connected_vertex_set(combo)
        }
        assert found == expected

    @pytest.mark.parametrize("seed", [1, 7])
    def test_motif_census_matches_arabesque(self, seed):
        g = gnm_random_graph(16, 44, seed=seed)
        esu_counts = count_motifs_up_to(g, 4)
        arabesque_counts = motif_counts(run_computation(g, MotifCounting(4)))
        assert esu_counts == arabesque_counts

    def test_labeled_census(self):
        g = assign_labels(gnm_random_graph(14, 30, seed=9), 3, seed=9)
        assert count_motifs(g, 3) == motif_counts(
            run_computation(g, MotifCounting(3, min_size=3))
        )

    def test_size_zero(self):
        assert list(enumerate_connected_subgraphs(path_graph(3), 0)) == []


class TestGrami:
    def test_label_triples(self):
        g = graph_from_edges([(0, 1)], vertex_labels=[1, 2], edge_labels=[7])
        assert graph_label_triples(g) == {(1, 7, 2), (2, 7, 1)}

    def test_single_edge_patterns_canonical_and_unique(self):
        g = assign_labels(gnm_random_graph(20, 50, seed=3), 3, seed=3)
        patterns = single_edge_patterns(g)
        assert len(patterns) == len(set(patterns))
        assert all(p.is_canonical() and p.num_edges == 1 for p in patterns)

    def test_extend_pattern_grows_by_one_edge(self):
        g = complete_graph(4)
        base = single_edge_patterns(g)[0]
        extended = extend_pattern(base, graph_label_triples(g))
        assert extended
        assert all(p.num_edges == 2 for p in extended)

    def test_extend_pattern_closes_triangles(self):
        g = complete_graph(3)
        path = Pattern((0, 0, 0), ((0, 1, 0), (1, 2, 0))).canonical()
        extended = extend_pattern(path, graph_label_triples(g))
        triangle = Pattern(
            (0, 0, 0), ((0, 1, 0), (0, 2, 0), (1, 2, 0))
        ).canonical()
        assert triangle in extended

    def test_lazy_support_stops_early(self):
        g = complete_graph(10)
        pattern = single_edge_patterns(g)[0]
        lazy = mni_support_lazy(g, pattern, threshold=2)
        exhaustive = mni_support_lazy(g, pattern, threshold=10**9)
        assert lazy.frequent
        assert lazy.work < exhaustive.work

    def test_lazy_support_agrees_with_exact_on_infrequent(self):
        g = assign_labels(gnm_random_graph(15, 30, seed=4), 2, seed=4)
        for pattern in single_edge_patterns(g):
            evaluation = mni_support_lazy(g, pattern, threshold=10**9)
            assert evaluation.support == exact_mni_support(g, pattern)

    @pytest.mark.parametrize("seed,threshold", [(1, 3), (2, 4)])
    def test_grami_matches_arabesque_fsm(self, seed, threshold):
        g = assign_labels(gnm_random_graph(14, 24, seed=seed), 2, seed=seed)
        grami = run_grami(g, threshold, max_edges=3)
        arabesque = frequent_patterns(
            run_computation(g, FrequentSubgraphMining(threshold, max_edges=3)),
            threshold,
        )
        # Same frequent-pattern sets; GRAMI's lazy search reports support
        # clamped at the threshold (it stops as soon as frequency is
        # certain — "solving a simpler problem", section 6.2), while
        # Arabesque aggregates exact supports.
        assert set(grami.frequent) == set(arabesque)
        for pattern, support in grami.frequent.items():
            assert support == min(threshold, arabesque[pattern])

    def test_find_frequent_embeddings(self):
        g = complete_graph(4)
        grami = run_grami(g, threshold=2, max_edges=1)
        embeddings = find_frequent_embeddings(g, grami.frequent)
        (pattern,) = grami.frequent
        assert embeddings[pattern] == {
            frozenset(e) for e in itertools.combinations(range(4), 2)
        }

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            run_grami(complete_graph(3), 0)

    def test_terminates_without_max(self):
        g = assign_labels(gnm_random_graph(12, 20, seed=8), 2, seed=8)
        result = run_grami(g, threshold=500)
        assert result.frequent == {}
        assert result.levels == 1


class TestTlp:
    def test_answer_invariant_in_workers(self):
        g = assign_labels(gnm_random_graph(14, 26, seed=2), 2, seed=2)
        reference = run_tlp_fsm(g, 3, max_edges=3, num_workers=1)
        for workers in (2, 5, 10):
            result = run_tlp_fsm(g, 3, max_edges=3, num_workers=workers)
            assert result.frequent == reference.frequent

    def test_matches_grami(self):
        g = assign_labels(gnm_random_graph(14, 26, seed=3), 2, seed=3)
        tlp = run_tlp_fsm(g, 3, max_edges=3, num_workers=4)
        grami = run_grami(g, 3, max_edges=3)
        assert tlp.frequent == grami.frequent

    def test_parallelism_ceiling(self):
        """With more workers than candidate patterns, extra workers get no
        work — the paper's 'only a few workers will be used'."""
        g = assign_labels(gnm_random_graph(20, 60, seed=4), 2, seed=4)
        result = run_tlp_fsm(g, 3, max_edges=2, num_workers=64)
        ceiling = max(result.candidates_per_level)
        busiest_step = max(
            result.metrics.steps, key=lambda s: len(s.work_units)
        )
        assert len(busiest_step.work_units) <= ceiling

    def test_max_work_does_not_shrink_with_workers(self):
        """The busiest worker still owns at least the most expensive
        pattern: critical path is bounded below by it."""
        g = assign_labels(powerlaw_graph(120, 3, seed=5), 2, seed=5)
        few = run_tlp_fsm(g, 8, max_edges=2, num_workers=2)
        many = run_tlp_fsm(g, 8, max_edges=2, num_workers=32)
        max_single_pattern_work = max(
            step.max_work for step in many.metrics.steps
        )
        assert max_single_pattern_work > 0
        # Critical path with many workers >= the heaviest single pattern.
        assert sum(s.max_work for s in many.metrics.steps) >= max_single_pattern_work

    def test_validation(self):
        with pytest.raises(ValueError):
            run_tlp_fsm(complete_graph(3), 0)
        with pytest.raises(ValueError):
            run_tlp_fsm(complete_graph(3), 1, num_workers=0)


class TestTlv:
    def oracle_frequent(self, graph, threshold, max_size):
        """Vertex-induced frequent patterns via ESU + induced MNI."""
        frequent = {}
        seen = set()
        for size in range(1, max_size + 1):
            for members in enumerate_connected_subgraphs(graph, size):
                from repro.core import VertexInducedEmbedding
                from repro.core.canonical import canonicalize_vertex_set

                words = canonicalize_vertex_set(graph, members)
                pattern = VertexInducedEmbedding(graph, words).pattern().canonical()
                if pattern in seen:
                    continue
                seen.add(pattern)
                support = exact_mni_support(graph, pattern, induced=True)
                if support >= threshold:
                    frequent[pattern] = support
        return frequent

    @pytest.mark.parametrize("workers", [1, 3])
    def test_finds_frequent_patterns(self, workers):
        g = assign_labels(gnm_random_graph(12, 24, seed=6), 2, seed=6)
        result = run_tlv_fsm(g, threshold=3, max_size=2, num_workers=workers)
        oracle = self.oracle_frequent(g, 3, 2)
        # TLV explores everything whose every prefix-pattern stays frequent;
        # at max_size=2 with threshold on singles this is exact.
        assert result.frequent == {
            p: s for p, s in oracle.items()
            if all(
                exact_mni_support(g, sub, induced=True) >= 3
                for sub in [p]
            )
        }

    def test_message_explosion_vs_arabesque(self):
        """The paradigm comparison of section 6.2: TLV sends orders of
        magnitude more messages than the TLE engine for the same job."""
        g = powerlaw_graph(80, 2, seed=7)
        tlv = run_tlv_fsm(g, threshold=1, max_size=4, num_workers=4)
        from repro.core import ArabesqueConfig

        tle = run_computation(
            g, MotifCounting(4), ArabesqueConfig(num_workers=4)
        )
        # The gap widens with depth and graph size (the paper reports three
        # orders of magnitude on CiteSeer FSM); at this miniature scale one
        # order of magnitude is already clear.
        assert tlv.metrics.total_messages > 10 * tle.total_messages

    def test_hotspot_imbalance(self):
        """A star graph concentrates expansion work on the hub's worker."""
        g = star_graph(30)
        result = run_tlv_fsm(g, threshold=1, max_size=3, num_workers=4)
        worst = max(step.imbalance() for step in result.metrics.steps
                    if step.work_units)
        assert worst > 2.0

    def test_worker_invariance_of_embedding_count(self):
        g = gnm_random_graph(15, 30, seed=8)
        counts = {
            workers: run_tlv_fsm(
                g, threshold=1, max_size=3, num_workers=workers
            ).embeddings_processed
            for workers in (1, 3)
        }
        assert counts[1] == counts[3]

    def test_validation(self):
        with pytest.raises(ValueError):
            run_tlv_fsm(complete_graph(3), 0, 2)
        with pytest.raises(ValueError):
            run_tlv_fsm(complete_graph(3), 1, 0)
