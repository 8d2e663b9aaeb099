"""End-to-end integration tests: the full pipeline on realistic datasets
and cross-application consistency.  Configuration invariance (storage,
workers, two-level aggregation) lives in tests/test_equivalence_matrix.py."""

import pytest

from repro.apps import (
    CliqueFinding,
    FrequentCliqueMining,
    FrequentSubgraphMining,
    GraphMatching,
    MaximalCliqueFinding,
    MotifCounting,
    cliques_by_size,
    frequent_clique_patterns,
    frequent_patterns,
    motif_counts,
)
from repro.baselines import (
    count_cliques_by_size,
    enumerate_maximal_cliques,
    run_tlp_fsm,
)
from repro.core import ArabesqueConfig, Pattern, run_computation
from repro.datasets import citeseer_like, mico_like
from repro.graph import strip_labels

TRIANGLE = Pattern((0, 0, 0), ((0, 1, 0), (0, 2, 0), (1, 2, 0)))


@pytest.fixture(scope="module")
def citeseer():
    return citeseer_like(scale=0.3)


@pytest.fixture(scope="module")
def mico():
    return strip_labels(mico_like(scale=0.004))


class TestCrossApplicationConsistency:
    def test_cliques_are_motifs(self, mico):
        """The K3 count must agree between the motif census and the clique
        enumerator — two different applications, same engine."""
        motifs = motif_counts(run_computation(mico, MotifCounting(3)))
        triangle_count = motifs.get(TRIANGLE.canonical(), 0)
        cliques = cliques_by_size(
            run_computation(mico, CliqueFinding(max_size=3, min_size=3))
        )
        assert triangle_count == len(cliques.get(3, []))

    def test_matching_agrees_with_motifs(self, mico):
        """Matching the triangle query finds exactly the triangle motifs."""
        matches = run_computation(mico, GraphMatching(TRIANGLE, induced=True))
        motifs = motif_counts(run_computation(mico, MotifCounting(3)))
        assert matches.num_outputs == motifs.get(TRIANGLE.canonical(), 0)

    def test_maximal_cliques_equal_bron_kerbosch(self, mico):
        """With a size cap, the maximal cliques of size <= cap: the larger
        maximal cliques' capped subsets are not maximal, so none appear."""
        maximal = run_computation(mico, MaximalCliqueFinding(max_size=4)).outputs
        assert sorted(maximal) == sorted(
            tuple(sorted(c)) for c in enumerate_maximal_cliques(mico) if len(c) <= 4
        )

    def test_frequent_cliques_subset_of_fsm_like_threshold(self, mico):
        """Every frequent clique pattern must be a clique and meet the
        threshold under the same MNI machinery FSM uses."""
        threshold = 25
        result = run_computation(mico, FrequentCliqueMining(threshold, max_size=3))
        for pattern, support in frequent_clique_patterns(result, threshold).items():
            assert support >= threshold
            expected_edges = pattern.num_vertices * (pattern.num_vertices - 1) // 2
            assert pattern.num_edges == expected_edges

    def test_tlp_and_engine_find_same_frequent_patterns(self, citeseer):
        threshold = 40
        tlp = run_tlp_fsm(citeseer, threshold, max_edges=2, num_workers=3)
        engine = run_computation(
            citeseer,
            FrequentSubgraphMining(threshold, max_edges=2),
            ArabesqueConfig(collect_outputs=False),
        )
        assert set(tlp.frequent) == set(frequent_patterns(engine, threshold))


class TestDatasetPipelines:
    def test_full_citeseer_fsm_smoke(self):
        """The paper's FSM-CiteSeer S=300 workload end to end."""
        graph = citeseer_like()
        result = run_computation(
            graph,
            FrequentSubgraphMining(300, max_edges=3),
            ArabesqueConfig(num_workers=4, collect_outputs=False),
        )
        frequent = frequent_patterns(result, 300)
        assert frequent  # CiteSeer-like has frequent single edges at S=300
        assert all(support >= 300 for support in frequent.values())
        assert result.total_messages > 0

    def test_mico_cliques_smoke(self, mico):
        result = run_computation(
            mico,
            CliqueFinding(max_size=4),
            ArabesqueConfig(num_workers=4, output_limit=1000),
        )
        by_size = cliques_by_size(result)
        assert by_size[1] and by_size[2]
        assert count_cliques_by_size(mico, max_size=2)[2] == mico.num_edges

    def test_stats_are_monotone_through_steps(self, mico):
        result = run_computation(
            mico, MotifCounting(3), ArabesqueConfig(collect_outputs=False)
        )
        for stats in result.steps:
            assert 0 <= stats.canonical_candidates <= stats.candidates_generated
            assert stats.stored_embeddings <= stats.processed_embeddings
