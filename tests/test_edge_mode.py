"""Edge-based exploration deep-dive: the mode FSM runs in.

Vertex-based exploration gets heavy coverage through motifs/cliques; these
tests pin the edge-mode specifics — edge-word canonicality through the full
engine, edge-mode ODAG spurious handling, and edge-mode extension
semantics."""

import itertools

import pytest

from repro.core import (
    ArabesqueConfig,
    Computation,
    EDGE_EXPLORATION,
    EdgeInducedEmbedding,
    run_computation,
)
from repro.graph import (
    complete_graph,
    cycle_graph,
    gnm_random_graph,
    path_graph,
    star_graph,
)
from repro.graph.bitset import from_bitset

from reference import canonicalize_edge_set, extensions


class CollectEdgeSubgraphs(Computation):
    """Outputs every explored edge set up to a size cap."""

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


def connected_edge_sets(graph, max_edges):
    """Brute-force oracle: connected edge subsets up to max_edges."""

    def connected(edge_ids):
        span = {}

        def find(x):
            while span.setdefault(x, x) != x:
                span[x] = span[span[x]]
                x = span[x]
            return x

        for eid in edge_ids:
            u, v = graph.edge_endpoints(eid)
            ru, rv = find(u), find(v)
            if ru != rv:
                span[ru] = rv
        return len({find(x) for x in span}) == 1

    found = set()
    for size in range(1, max_edges + 1):
        for combo in itertools.combinations(range(graph.num_edges), size):
            if connected(combo):
                found.add(frozenset(combo))
    return found


class TestEdgeModeCompleteness:
    @pytest.mark.parametrize("seed", [1, 6])
    @pytest.mark.parametrize("workers", [1, 3])
    def test_matches_bruteforce(self, seed, workers):
        g = gnm_random_graph(9, 16, seed=seed)
        config = ArabesqueConfig(num_workers=workers)
        result = run_computation(g, CollectEdgeSubgraphs(3), config)
        assert set(result.outputs) == connected_edge_sets(g, 3)
        assert result.num_outputs == len(result.outputs)  # no duplicates

    def test_star_graph_edge_subgraphs(self):
        # Star: every edge subset is connected (all share the hub).
        g = star_graph(5)
        result = run_computation(g, CollectEdgeSubgraphs(3))
        expected = sum(
            len(list(itertools.combinations(range(5), k))) for k in (1, 2, 3)
        )
        assert result.num_outputs == expected

    def test_cycle_edge_subgraphs(self):
        g = cycle_graph(5)
        result = run_computation(g, CollectEdgeSubgraphs(2))
        # 5 single edges + 5 adjacent pairs.
        assert result.num_outputs == 10


class TestEdgeExtensions:
    def test_extensions_are_incident(self):
        g = gnm_random_graph(12, 26, seed=4)
        words = canonicalize_edge_set(g, [0, *[e for e in from_bitset(g.incident_bits(
            g.edge_endpoints(0)[0])) if e != 0][:1]])
        for candidate in extensions(g, EDGE_EXPLORATION, words):
            u, v = g.edge_endpoints(candidate)
            span = set()
            for eid in words:
                span.update(g.edge_endpoints(eid))
            assert u in span or v in span

    def test_extensions_exclude_members(self):
        g = complete_graph(4)
        words = (0, 1)
        assert not set(words) & set(extensions(g, EDGE_EXPLORATION, words))

    def test_extensions_sorted(self):
        g = complete_graph(5)
        exts = extensions(g, EDGE_EXPLORATION, (0,))
        assert exts == sorted(exts)

    def test_path_end_extension(self):
        g = path_graph(4)  # edges 0,1,2 in a line
        assert extensions(g, EDGE_EXPLORATION, (0,)) == [1]
        assert extensions(g, EDGE_EXPLORATION, (0, 1)) == [2]


class TestEdgeEmbeddingSemantics:
    def test_pattern_excludes_absent_edges(self):
        # Triangle graph, embedding of 2 edges only: pattern has 2 edges.
        g = complete_graph(3)
        e = EdgeInducedEmbedding(g, (0, 1))
        assert e.pattern().num_edges == 2
        assert e.num_vertices == 3

    def test_multi_edge_between_same_vertices_impossible(self):
        # Edge words are unique ids; extending by a member id never happens.
        g = complete_graph(3)
        e = EdgeInducedEmbedding(g, (0,))
        assert 0 not in extensions(g, EDGE_EXPLORATION, e.words)

    def test_edge_mode_canonicalization_roundtrip(self):
        g = gnm_random_graph(8, 14, seed=7)
        for combo in itertools.combinations(range(g.num_edges), 3):
            try:
                words = canonicalize_edge_set(g, combo)
            except ValueError:
                continue  # disconnected
            assert frozenset(words) == frozenset(combo)
            assert words[0] == min(combo)
