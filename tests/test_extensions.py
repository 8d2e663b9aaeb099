"""Tests for the graph-matching application."""

import pytest

from repro.apps import GraphMatching, pattern_embeds_in
from repro.core import ArabesqueConfig, Pattern, run_computation
from repro.graph import complete_graph, cycle_graph, gnm_random_graph
from repro.isomorphism import distinct_embeddings

TRIANGLE = Pattern((0, 0, 0), ((0, 1, 0), (0, 2, 0), (1, 2, 0)))
PATH3 = Pattern((0, 0, 0), ((0, 1, 0), (1, 2, 0)))
EDGE = Pattern((0, 0), ((0, 1, 0),))


class TestPatternEmbedsIn:
    def test_edge_in_triangle(self):
        assert pattern_embeds_in(EDGE, TRIANGLE, induced=False)
        assert pattern_embeds_in(EDGE, TRIANGLE, induced=True)

    def test_path_in_triangle_monomorphism_only(self):
        assert pattern_embeds_in(PATH3, TRIANGLE, induced=False)
        assert not pattern_embeds_in(PATH3, TRIANGLE, induced=True)

    def test_size_pruning(self):
        assert not pattern_embeds_in(TRIANGLE, EDGE, induced=False)

    def test_labels_respected(self):
        labeled_edge = Pattern((1, 2), ((0, 1, 0),))
        labeled_triangle = Pattern((1, 1, 2), ((0, 1, 0), (0, 2, 0), (1, 2, 0)))
        assert pattern_embeds_in(labeled_edge, labeled_triangle, induced=False)
        wrong = Pattern((3, 3), ((0, 1, 0),))
        assert not pattern_embeds_in(wrong, labeled_triangle, induced=False)


class TestGraphMatching:
    @pytest.mark.parametrize("seed", [1, 4])
    def test_matches_vf2_induced(self, seed):
        g = gnm_random_graph(15, 45, seed=seed)
        result = run_computation(g, GraphMatching(TRIANGLE, induced=True))
        ours = {frozenset(m) for m in result.outputs}
        expected = distinct_embeddings(
            TRIANGLE.vertex_labels, TRIANGLE.edge_dict(), g, induced=True
        )
        assert ours == expected

    def test_each_match_reported_once(self):
        g = complete_graph(5)
        result = run_computation(g, GraphMatching(TRIANGLE, induced=True))
        assert len(result.outputs) == len(set(result.outputs)) == 10

    def test_path_query_induced(self):
        g = cycle_graph(6)
        result = run_computation(g, GraphMatching(PATH3, induced=True))
        assert len(result.outputs) == 6

    def test_path_query_in_clique_no_induced_match(self):
        g = complete_graph(4)
        result = run_computation(g, GraphMatching(PATH3, induced=True))
        assert result.outputs == []

    def test_edge_based_monomorphism_mode(self):
        g = complete_graph(4)
        result = run_computation(g, GraphMatching(PATH3, induced=False))
        # Every vertex pair plus a middle: 4*3/2 choose middle... count via
        # VF2 distinct vertex sets of the monomorphism.
        expected = distinct_embeddings(
            PATH3.vertex_labels, PATH3.edge_dict(), g, induced=False
        )
        # Edge-based exploration reports edge-subgraph matches: each pattern
        # instance is an edge set whose vertex set we compare.
        assert {frozenset(m) for m in result.outputs} == expected

    def test_empty_query_rejected(self):
        with pytest.raises(ValueError):
            GraphMatching(Pattern((), ()))

    def test_worker_invariance(self):
        g = gnm_random_graph(14, 40, seed=3)
        reference = run_computation(g, GraphMatching(TRIANGLE)).outputs
        parallel = run_computation(
            g, GraphMatching(TRIANGLE), ArabesqueConfig(num_workers=4)
        ).outputs
        assert sorted(reference) == sorted(parallel)
