"""Statistics-driven cost-based planning (repro.plan.stats + repro.plan.cost).

The acceptance surface of the cost-based planner:

* **catalog determinism** — building a :class:`GraphCatalog` twice from
  the same graph yields equal catalogs that pickle byte-identically, the
  accounting invariants hold (frequencies sum to V, pair counts to 2E),
  and sessions cache one catalog per graph variant
  (``cache_info().catalog_builds/catalog_hits``);
* **order choice** — on the adversarial ``skewed`` dataset the cost
  model anchors the 1-0-1 wedge at the rare label while the pattern-only
  degree heuristic anchors at the frequent crowd label; without a
  catalog ``compile_plan`` keeps the heuristic order exactly;
* **results invariance** — the cost-chosen order changes only candidate
  counts, never results: cost-based guided matching is byte-identical
  (``canonical_signature``) to the exhaustive filter-process oracle
  across serial/thread/process × worker counts × storage modes (the
  ``wedge-101@skewed`` rows of tests/test_equivalence_matrix.py), and to
  the heuristic-order guided run (property-tested on random labeled
  graphs too);
* **harmonized DAG prefixes** — catalog-aware multi-query DAGs compile
  deterministically and labeled guided motifs over them stay
  byte-identical to the exhaustive motif oracle;
* **explain** — ``Miner.explain`` reports the catalog, the chosen
  order's per-step estimates, and who won (and why).
"""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Pattern
from repro.datasets import citeseer_like, skewed_label_graph
from repro.graph import assign_labels, gnm_random_graph, strip_labels
from repro.plan import (
    build_catalog,
    build_plan_dag,
    choose_order,
    compile_plan,
    estimate_order,
)
from repro.plan.cost import connected_orders
from repro.plan.planner import _matching_order
from repro.session import Miner

#: The adversarial query for the skewed dataset: a wedge whose center
#: carries the frequent crowd label (0) and whose leaves carry the rare
#: label (1) — the degree heuristic anchors at the center.
WEDGE_101 = Pattern((1, 0, 1), ((0, 1, 0), (1, 2, 0))).canonical()


@pytest.fixture(scope="module")
def skewed():
    return skewed_label_graph()


@pytest.fixture(scope="module")
def citeseer_small():
    return citeseer_like(scale=0.1)


# ---------------------------------------------------------------------------
# Catalog determinism + accounting
# ---------------------------------------------------------------------------
class TestCatalog:
    def test_build_is_deterministic_and_serializes_byte_identically(
        self, skewed
    ):
        first = build_catalog(skewed)
        second = build_catalog(skewed)
        assert first == second
        assert pickle.dumps(first) == pickle.dumps(second)

    def test_pickle_round_trip(self, skewed):
        catalog = build_catalog(skewed)
        clone = pickle.loads(pickle.dumps(catalog))
        assert clone == catalog
        for label in catalog.label_frequency:
            assert clone.frequency(label) == catalog.frequency(label)
            assert clone.anchor_degree(label) == catalog.anchor_degree(label)
        assert clone.pair_counts == catalog.pair_counts
        for pair in catalog.pair_counts:
            assert clone.closure_probability(*pair) == (
                catalog.closure_probability(*pair)
            )

    def test_accounting_invariants(self, skewed):
        catalog = build_catalog(skewed)
        assert sum(catalog.label_frequency.values()) == skewed.num_vertices
        # Each undirected edge contributes both orientations.
        assert sum(catalog.pair_counts.values()) == 2 * skewed.num_edges
        assert sum(catalog.degree_histogram.values()) == skewed.num_vertices
        weighted = sum(
            catalog.anchor_degree(label) * count
            for label, count in catalog.label_frequency.items()
        )
        assert weighted == pytest.approx(2 * skewed.num_edges)
        # Quantiles are a nondecreasing min..max slice of the histogram.
        assert list(catalog.degree_quantiles) == sorted(
            catalog.degree_quantiles
        )
        assert catalog.degree_quantiles[0] == min(catalog.degree_histogram)
        assert catalog.degree_quantiles[-1] == max(catalog.degree_histogram)

    def test_absent_labels_cost_nothing(self, skewed):
        catalog = build_catalog(skewed)
        assert catalog.frequency(99) == 0
        assert (99, 0) not in catalog.pair_counts
        assert catalog.closure_probability(0, 99) == 0.0
        assert catalog.anchor_degree(99) == 0.0

    def test_session_caches_one_catalog_per_variant(self, skewed):
        miner = Miner(skewed)
        miner.explain(WEDGE_101)
        info = miner.cache_info()
        assert info.catalog_builds == 1
        miner.explain("triangle")
        miner.match(WEDGE_101).run()
        info = miner.cache_info()
        assert info.catalog_builds == 1
        assert info.catalog_hits >= 2
        # The stripped variant gets its own catalog.
        miner.match("wedge").unlabeled().run()
        assert miner.cache_info().catalog_builds == 2


# ---------------------------------------------------------------------------
# Order choice: the skewed regression + heuristic fallback
# ---------------------------------------------------------------------------
class TestOrderChoice:
    def test_skewed_wedge_anchors_at_rare_label(self, skewed):
        catalog = build_catalog(skewed)
        choice = choose_order(WEDGE_101, catalog)
        assert choice.cost_based
        assert choice.order != _matching_order(WEDGE_101)
        # Step 0 lands on a rare-label leaf, not the frequent center.
        anchor_label = WEDGE_101.vertex_labels[choice.order[0]]
        rare = min(
            catalog.label_frequency, key=catalog.label_frequency.__getitem__
        )
        assert anchor_label == rare
        assert (
            choice.chosen.total_candidates
            < choice.heuristic.total_candidates
        )
        assert "cost model predicts" in choice.reason

    def test_skewed_wedge_cost_order_generates_fewer_candidates(
        self, skewed
    ):
        catalog = build_catalog(skewed)
        choice = choose_order(WEDGE_101, catalog)
        miner = Miner(skewed)
        cost_plan = compile_plan(WEDGE_101, catalog=catalog)
        heuristic_plan = compile_plan(WEDGE_101)
        assert cost_plan.order == choice.order
        assert heuristic_plan.order == _matching_order(WEDGE_101)
        cost = miner.match(WEDGE_101).plan(cost_plan).run()
        heuristic = miner.match(WEDGE_101).plan(heuristic_plan).run()
        assert cost.num_matches == heuristic.num_matches
        # Orders change only the emission sequence, never the match set.
        assert (
            cost.raw.canonical_signature(ignore_output_order=True)
            == heuristic.raw.canonical_signature(ignore_output_order=True)
        )
        assert (
            cost.raw.total_candidates < heuristic.raw.total_candidates
        )

    def test_no_catalog_keeps_heuristic_order_exactly(self):
        blind = build_catalog(strip_labels(gnm_random_graph(20, 40, seed=3)))
        for name in ("wedge", "triangle", "square", "star3"):
            from repro.plan import NAMED_SHAPES

            pattern = NAMED_SHAPES[name].canonical()
            assert compile_plan(pattern).order == _matching_order(pattern)
            # A single-label catalog cannot tell pools apart: a tie, and a
            # tie keeps the heuristic plan — so its exact candidate stream.
            assert not choose_order(pattern, blind).cost_based
            assert compile_plan(pattern, catalog=blind) == compile_plan(pattern)

    def test_estimates_cover_every_step_of_every_connected_order(self):
        catalog = build_catalog(skewed_label_graph())
        orders = connected_orders(WEDGE_101)
        assert all(len(order) == WEDGE_101.num_vertices for order in orders)
        assert len(set(orders)) == len(orders)
        for order in orders:
            estimate = estimate_order(WEDGE_101, order, catalog)
            assert len(estimate.steps) == WEDGE_101.num_vertices
            assert estimate.total_candidates > 0
            assert tuple(step.pattern_vertex for step in estimate.steps) == (
                tuple(order)
            )

    def test_choice_always_considers_the_heuristic(self, citeseer_small):
        catalog = build_catalog(citeseer_small)
        for name in ("wedge", "triangle", "square"):
            from repro.plan import NAMED_SHAPES

            pattern = NAMED_SHAPES[name].canonical()
            choice = choose_order(pattern, catalog)
            assert choice.considered >= 1
            assert choice.heuristic.order == _matching_order(pattern)
            assert "order=" in choice.describe()
            assert "reason:" in choice.describe()


# ---------------------------------------------------------------------------
# Results invariance: cost-based guided == exhaustive oracle, everywhere
# ---------------------------------------------------------------------------
class TestOracleEquivalence:
    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        shape=st.sampled_from(["wedge", "triangle", "square", "star3"]),
    )
    def test_random_labeled_graphs_guided_equals_exhaustive(
        self, seed, shape
    ):
        from repro.plan import NAMED_SHAPES

        graph = assign_labels(
            gnm_random_graph(14, 28, seed=seed), 3, seed=seed + 1, skew=0.7
        )
        pattern = NAMED_SHAPES[shape].canonical()
        miner = Miner(graph)
        guided = miner.match(pattern).run()
        exhaustive = miner.match(pattern).exhaustive().run()
        assert guided.signature(True) == exhaustive.signature(True)


# ---------------------------------------------------------------------------
# Harmonized catalog-aware DAGs
# ---------------------------------------------------------------------------
class TestHarmonizedDag:
    def test_harmonized_build_is_deterministic(self, citeseer_small):
        from repro.apps import enumerate_motif_patterns

        catalog = build_catalog(citeseer_small)
        batch = tuple(enumerate_motif_patterns(citeseer_small, 3))
        first = build_plan_dag(batch, catalog=catalog)
        second = build_plan_dag(batch, catalog=catalog)
        assert [p.order for p in first.plans] == [
            p.order for p in second.plans
        ]
        assert len(first.nodes) == len(second.nodes)

    def test_labeled_guided_motifs_match_exhaustive(self, citeseer_small):
        miner = Miner(citeseer_small)
        guided = miner.motifs(4).run()
        exhaustive = miner.motifs(4).exhaustive().run()
        assert guided.counts() == exhaustive.counts()
        assert guided.signature(True) == exhaustive.signature(True)

    def test_unlabeled_batches_ignore_the_catalog(self, citeseer_small):
        """Single-label catalogs must not perturb the DAG: stripped-graph
        batches compile to the same orders with and without a catalog."""
        from repro.apps import enumerate_motif_patterns
        stripped = strip_labels(citeseer_small)
        catalog = build_catalog(stripped)
        batch = tuple(enumerate_motif_patterns(stripped, 4))
        with_catalog = build_plan_dag(batch, catalog=catalog)
        without = build_plan_dag(batch)
        assert [p.order for p in with_catalog.plans] == [
            p.order for p in without.plans
        ]
        assert len(with_catalog.nodes) == len(without.nodes)


# ---------------------------------------------------------------------------
# Explain
# ---------------------------------------------------------------------------
class TestExplain:
    def test_explain_reports_catalog_order_and_reason(self, skewed):
        miner = Miner(skewed)
        report = miner.explain(WEDGE_101)
        assert "graph: V=" in report
        assert "order=" in report
        assert "winner=cost-based" in report
        assert "reason:" in report
        assert "step 0" in report

    def test_explain_heuristic_win_is_reported_too(self, citeseer_small):
        miner = Miner(citeseer_small)
        report = miner.explain("wedge")
        assert "winner=" in report
        assert "considered=" in report

    def test_explain_resolves_named_shapes_and_patterns(self, skewed):
        miner = Miner(skewed)
        assert miner.explain("triangle")
        assert miner.explain(WEDGE_101)
