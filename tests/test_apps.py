"""Application tests: FSM, motifs, cliques, maximal cliques — each
cross-validated against an independent oracle (brute force or networkx)."""

import io
import itertools

import networkx as nx
import pytest

from repro.apps import (
    CliqueFinding,
    FrequentSubgraphMining,
    MaximalCliqueFinding,
    MotifCounting,
    cliques_by_size,
    frequent_patterns,
    motif_counts,
    motif_counts_by_size,
)
from repro.core import ArabesqueConfig, Pattern, run_computation
from repro.graph import (
    assign_labels,
    complete_graph,
    cycle_graph,
    gnm_random_graph,
    graph_from_edges,
    grid_graph,
    path_graph,
    read_edge_list,
    star_graph,
)
from repro.isomorphism import find_isomorphisms


def to_networkx(graph):
    nxg = nx.Graph()
    nxg.add_nodes_from(graph.vertices())
    for eid, u, v in graph.edge_iter():
        nxg.add_edge(u, v)
    return nxg


TRIANGLE = Pattern((0, 0, 0), ((0, 1, 0), (0, 2, 0), (1, 2, 0)))
PATH3 = Pattern((0, 0, 0), ((0, 1, 0), (1, 2, 0)))


class TestMotifs:
    def test_c5_has_only_paths(self):
        counts = motif_counts(run_computation(cycle_graph(5), MotifCounting(3)))
        assert counts == {PATH3.canonical(): 5}

    def test_k4_triangle_and_path_counts(self):
        counts = motif_counts(run_computation(complete_graph(4), MotifCounting(3)))
        # K4: 4 triangles; induced P3s: none (every 3-set is a triangle).
        assert counts == {TRIANGLE.canonical(): 4}

    def test_star_counts(self):
        counts = motif_counts(run_computation(star_graph(5), MotifCounting(3)))
        # Star: C(5,2)=10 induced P3 through the hub; no triangles.
        assert counts == {PATH3.canonical(): 10}

    @pytest.mark.parametrize("seed", [1, 5, 9])
    def test_size3_against_bruteforce(self, seed):
        g = gnm_random_graph(16, 40, seed=seed)
        counts = motif_counts(run_computation(g, MotifCounting(3)))
        triangles = 0
        paths = 0
        for combo in itertools.combinations(g.vertices(), 3):
            edges = sum(
                1 for u, v in itertools.combinations(combo, 2) if g.adjacent(u, v)
            )
            if edges == 3:
                triangles += 1
            elif edges == 2:
                paths += 1
        expected = {}
        if triangles:
            expected[TRIANGLE.canonical()] = triangles
        if paths:
            expected[PATH3.canonical()] = paths
        assert counts == expected

    def test_size4_motif_census_on_grid(self):
        """Grid graphs have exactly 3 induced size-4 motifs: paths, stars
        (claws), and squares (C4)."""
        counts = motif_counts_by_size(
            run_computation(grid_graph(3, 3), MotifCounting(4))
        )[4]
        shapes = {(p.num_edges): c for p, c in counts.items()}
        # C4 count in a 3x3 grid = 4 unit squares.
        assert shapes[4] == 4
        assert len(counts) == 3

    def test_min_size_filters_reporting(self):
        result = run_computation(complete_graph(4), MotifCounting(3, min_size=3))
        assert all(p.num_vertices == 3 for p in motif_counts(result))

    def test_labeled_motifs(self):
        g = graph_from_edges([(0, 1), (1, 2)], vertex_labels=[1, 2, 1])
        counts = motif_counts(run_computation(g, MotifCounting(3)))
        assert len(counts) == 1
        (pattern, count), = counts.items()
        assert count == 1
        assert sorted(pattern.vertex_labels) == [1, 1, 2]

    def test_validation(self):
        with pytest.raises(ValueError):
            MotifCounting(0)
        with pytest.raises(ValueError):
            MotifCounting(3, min_size=5)


class TestCliques:
    @pytest.mark.parametrize("seed", [2, 7])
    def test_counts_against_networkx(self, seed):
        g = gnm_random_graph(18, 60, seed=seed)
        result = run_computation(g, CliqueFinding(max_size=4))
        ours = cliques_by_size(result)
        expected = {}
        for clique in nx.enumerate_all_cliques(to_networkx(g)):
            if len(clique) > 4:
                break
            expected.setdefault(len(clique), set()).add(tuple(sorted(clique)))
        assert {k: set(v) for k, v in ours.items()} == expected

    def test_k5_counts(self):
        result = run_computation(complete_graph(5), CliqueFinding(max_size=5))
        sizes = {k: len(v) for k, v in cliques_by_size(result).items()}
        assert sizes == {1: 5, 2: 10, 3: 10, 4: 5, 5: 1}

    def test_min_size(self):
        result = run_computation(
            complete_graph(4), CliqueFinding(max_size=4, min_size=3)
        )
        assert {len(c) for c in result.outputs} == {3, 4}

    def test_unbounded_enumeration(self):
        result = run_computation(complete_graph(4), CliqueFinding())
        assert result.num_outputs == 4 + 6 + 4 + 1

    def test_triangle_free_graph(self):
        result = run_computation(
            grid_graph(3, 3), CliqueFinding(max_size=3, min_size=3)
        )
        assert result.num_outputs == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            CliqueFinding(max_size=0)
        with pytest.raises(ValueError):
            CliqueFinding(min_size=0)


class TestMaximalCliques:
    @pytest.mark.parametrize("seed", [3, 8])
    def test_against_networkx(self, seed):
        g = gnm_random_graph(16, 48, seed=seed)
        result = run_computation(g, MaximalCliqueFinding())
        ours = set(result.outputs)
        expected = {
            tuple(sorted(c)) for c in nx.find_cliques(to_networkx(g))
        }
        assert ours == expected

    def test_k4_single_maximal(self):
        result = run_computation(complete_graph(4), MaximalCliqueFinding())
        assert set(result.outputs) == {(0, 1, 2, 3)}

    def test_size_cap_keeps_globally_maximal_only(self):
        # K4: with cap 3 nothing of size <= 3 is maximal in the full graph.
        result = run_computation(complete_graph(4), MaximalCliqueFinding(max_size=3))
        assert result.num_outputs == 0

    def test_path_maximal_cliques_are_edges(self):
        result = run_computation(path_graph(4), MaximalCliqueFinding())
        assert set(result.outputs) == {(0, 1), (1, 2), (2, 3)}

    def test_min_size_drops_smaller_maximal_cliques(self):
        path = path_graph(5)
        assert run_computation(path, MaximalCliqueFinding(min_size=3)).num_outputs == 0
        assert run_computation(path, MaximalCliqueFinding(min_size=2)).num_outputs == 4

    @pytest.mark.parametrize("min_size", [2, 3, 4])
    def test_min_size_against_networkx(self, min_size):
        g = gnm_random_graph(16, 48, seed=3)
        result = run_computation(g, MaximalCliqueFinding(min_size=min_size))
        expected = {
            tuple(sorted(c)) for c in nx.find_cliques(to_networkx(g))
            if len(c) >= min_size
        }
        assert set(result.outputs) == expected and expected

    def test_exploration_is_inherited_from_clique_finding(self):
        assert issubclass(MaximalCliqueFinding, CliqueFinding)
        own = {name for name in vars(MaximalCliqueFinding) if not name.startswith("__")}
        assert own == {"process"}


class TestFsm:
    def brute_force_fsm(self, graph, threshold, max_edges):
        """Oracle: enumerate connected edge subsets, group by canonical
        pattern, compute MNI via VF2 over all isomorphisms."""
        from repro.core import EdgeInducedEmbedding

        patterns = {}
        edge_sets = set()
        for size in range(1, max_edges + 1):
            for combo in itertools.combinations(range(graph.num_edges), size):
                span = set()
                for eid in combo:
                    span.update(graph.edge_endpoints(eid))
                sub_ok = True
                # connectivity over edges
                comp = {next(iter(span))}
                changed = True
                while changed:
                    changed = False
                    for eid in combo:
                        u, v = graph.edge_endpoints(eid)
                        if (u in comp) != (v in comp):
                            comp.update((u, v))
                            changed = True
                if comp != span:
                    continue
                edge_sets.add(frozenset(combo))
        for edge_set in edge_sets:
            embedding = EdgeInducedEmbedding(graph, tuple(sorted(edge_set)))
            canonical = embedding.pattern().canonical()
            patterns.setdefault(canonical, set()).add(edge_set)
        frequent = {}
        for pattern, instances in patterns.items():
            mappings = find_isomorphisms(
                pattern.vertex_labels, pattern.edge_dict(), graph
            )
            domains = [set() for _ in range(pattern.num_vertices)]
            for mapping in mappings:
                for position, vertex in enumerate(mapping):
                    domains[position].add(vertex)
            support = min(len(d) for d in domains) if domains else 0
            if support >= threshold:
                frequent[pattern] = support
        return frequent

    @pytest.mark.parametrize("seed,threshold", [(1, 3), (2, 4), (3, 2)])
    def test_against_vf2_bruteforce(self, seed, threshold):
        g = assign_labels(gnm_random_graph(14, 22, seed=seed), 2, seed=seed)
        result = run_computation(
            g, FrequentSubgraphMining(threshold, max_edges=3)
        )
        ours = frequent_patterns(result, threshold)
        expected = self.brute_force_fsm(g, threshold, 3)
        assert ours == expected

    def test_alpha_prunes_infrequent_subtrees(self):
        g = assign_labels(gnm_random_graph(20, 40, seed=5), 3, seed=5)
        high = run_computation(g, FrequentSubgraphMining(50, max_edges=3))
        low = run_computation(g, FrequentSubgraphMining(2, max_edges=3))
        pruned_high = sum(s.aggregation_pruned for s in high.steps)
        pruned_low = sum(s.aggregation_pruned for s in low.steps)
        assert pruned_high > pruned_low

    def test_outputs_are_frequent_embeddings(self):
        g = read_edge_list(io.StringIO(
            """
            v 0 1
            v 1 2
            v 2 1
            v 3 2
            v 4 1
            0 1
            1 2
            2 3
            3 4
            """
        ))
        result = run_computation(g, FrequentSubgraphMining(2, max_edges=2))
        assert result.num_outputs > 0
        for item in result.outputs:
            assert item.support >= 2
            assert item.pattern.is_canonical()

    def test_worker_invariance(self):
        g = assign_labels(gnm_random_graph(15, 30, seed=6), 2, seed=6)
        reference = frequent_patterns(
            run_computation(g, FrequentSubgraphMining(3, max_edges=3)), 3
        )
        for workers in (2, 4):
            config = ArabesqueConfig(num_workers=workers)
            result = run_computation(g, FrequentSubgraphMining(3, max_edges=3), config)
            assert frequent_patterns(result, 3) == reference

    def test_unbounded_run_terminates_by_infrequency(self):
        # High threshold: exploration dies out without a max_edges cap.
        g = assign_labels(gnm_random_graph(12, 20, seed=7), 2, seed=7)
        result = run_computation(g, FrequentSubgraphMining(1000))
        assert frequent_patterns(result, 1000) == {}

    def test_validation(self):
        with pytest.raises(ValueError):
            FrequentSubgraphMining(0)
        with pytest.raises(ValueError):
            FrequentSubgraphMining(2, max_edges=0)
