"""The pattern-aware exploration planner (repro.plan).

Four layers of validation:

* **planner** — structural invariants of compiled plans (connected order,
  every earlier position accounted for as back-edge or back-non-edge,
  restrictions baked into the right steps, picklability);
* **symmetry** — the Grochow-Kellis soundness invariant, property-style:
  (#matches satisfying the restrictions) x |Aut(P)| == #unrestricted
  monomorphisms, with VF2 enumerating the mappings;
* **cross-validation** — guided matching returns the identical match
  multiset as the exhaustive filter-process oracle AND a direct VF2
  oracle, on every bundled dataset and on a hypothesis random sweep,
  under both induced and monomorphic semantics;
* **determinism** — guided runs are byte-identical across backends,
  worker counts, and storage modes, like exhaustive ones: the guided
  match rows of tests/test_equivalence_matrix.py.
"""

import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import (
    GuidedMatching,
    MotifCounting,
    match_vertex_sets,
    motif_counts,
)
from repro.core import ArabesqueConfig, Pattern, run_computation
from repro.datasets import DATASETS
from repro.graph import (
    LabeledGraph,
    assign_labels,
    gnm_random_graph,
    strip_labels,
)
from repro.isomorphism import SubgraphMatcher, distinct_embeddings
from repro.plan import (
    NAMED_SHAPES,
    PlanError,
    compile_plan,
    guided_candidates,
    guided_extension_check,
    match_mapping,
    pattern_automorphisms,
    read_pattern_file,
    satisfies_restrictions,
    symmetry_breaking_restrictions,
)
from repro.session import Miner

#: Scales keeping every bundled dataset in the few-hundred-vertex range so
#: the exhaustive oracle stays fast.
DATASET_SCALES = {
    "citeseer": 0.1,
    "mico": 0.004,
    "patents": 0.0002,
    "youtube": 0.0001,
    "sn": 0.0001,
    "instagram": 1 / 300_000,
}


def pattern_of_graph(graph: LabeledGraph) -> Pattern:
    """A pattern structurally identical to a (small) graph."""
    return Pattern(
        graph.vertex_labels,
        tuple(
            sorted(
                (u, v, graph.edge_label(eid)) for eid, u, v in graph.edge_iter()
            )
        ),
    )


def random_connected_pattern(seed: int, max_vertices: int = 5, labels: int = 1) -> Pattern:
    """A random connected pattern with 2..max_vertices vertices."""
    rng = random.Random(seed)
    for attempt in range(100):
        n = rng.randint(2, max_vertices)
        max_edges = n * (n - 1) // 2
        m = rng.randint(n - 1, max_edges)
        candidate = gnm_random_graph(n, m, seed=seed + 7919 * attempt)
        if labels > 1:
            candidate = assign_labels(candidate, labels, seed=seed + 13)
        if candidate.is_connected_vertex_set(tuple(candidate.vertices())):
            return pattern_of_graph(candidate)
    raise AssertionError("no connected pattern found (generator bug)")


def monomorphism_images(query: Pattern, graph: LabeledGraph) -> set[frozenset]:
    """VF2 oracle: distinct edge images of all monomorphisms."""
    matcher = SubgraphMatcher(
        query.vertex_labels, query.edge_dict(), graph, induced=False
    )
    images = set()
    for mapping in matcher.match_iter():
        images.add(
            frozenset(
                (min(mapping[u], mapping[v]), max(mapping[u], mapping[v]))
                for u, v, _ in query.edges
            )
        )
    return images


# ----------------------------------------------------------------------
# Planner structure
# ----------------------------------------------------------------------
def both_runs(graph, query, induced=True):
    """``(exhaustive, guided)`` raw runs of one match query."""
    request = Miner(graph).match
    return (
        request(query, induced=induced).exhaustive().run().raw,
        request(query, induced=induced).run().raw,
    )


class TestPlanner:
    def test_order_is_connected_and_complete(self):
        for name, shape in NAMED_SHAPES.items():
            plan = compile_plan(shape)
            assert sorted(plan.order) == list(range(shape.num_vertices)), name
            # Every step after the first touches an earlier position.
            for step in plan.steps[1:]:
                assert step.back_edges, (name, step)

    def test_steps_partition_earlier_positions(self):
        for shape in NAMED_SHAPES.values():
            plan = compile_plan(shape)
            for step in plan.steps:
                back = {position for position, _ in step.back_edges}
                non = set(step.back_non_edges)
                assert back | non == set(range(step.position))
                assert not back & non

    def test_first_step_matches_highest_degree_vertex(self):
        plan = compile_plan(NAMED_SHAPES["star3"])
        degree = {0: 3, 1: 1, 2: 1, 3: 1}
        assert degree[plan.order[0]] == 3

    def test_restrictions_attached_to_later_position(self):
        plan = compile_plan(NAMED_SHAPES["triangle"])
        # Triangle: all three positions interchangeable -> words strictly
        # increasing; each step must exceed every earlier position.
        for step in plan.steps:
            assert step.must_exceed == tuple(range(step.position))
            assert step.must_precede == ()

    def test_rigid_pattern_has_no_restrictions(self):
        # A labeled path 1-2-3 with distinct labels is rigid.
        rigid = Pattern((1, 2, 3), ((0, 1, 0), (1, 2, 0)))
        plan = compile_plan(rigid)
        assert plan.restrictions == ()
        assert plan.num_automorphisms == 1

    def test_empty_and_disconnected_rejected(self):
        with pytest.raises(PlanError):
            compile_plan(Pattern((), ()))
        with pytest.raises(PlanError):
            compile_plan(Pattern((0, 0), ()))

    def test_plan_is_picklable(self):
        plan = compile_plan(NAMED_SHAPES["house"], induced=False)
        clone = pickle.loads(pickle.dumps(plan))
        assert clone == plan

    def test_describe_mentions_order_and_automorphisms(self):
        text = compile_plan(NAMED_SHAPES["square"]).describe()
        assert "order=" in text and "|Aut|=8" in text

    def test_match_mapping_inverts_order(self):
        plan = compile_plan(NAMED_SHAPES["wedge"])
        words = tuple(100 + position for position in range(plan.num_steps))
        mapping = match_mapping(plan, words)
        for position, vertex in enumerate(plan.order):
            assert mapping[vertex] == words[position]
        with pytest.raises(ValueError):
            match_mapping(plan, words[:-1])

    def test_guided_candidates_drawn_from_anchor_neighborhood(self):
        graph = strip_labels(gnm_random_graph(20, 50, seed=5))
        plan = compile_plan(NAMED_SHAPES["triangle"])
        words = None
        for v in graph.vertices():
            for u in graph.neighbors(v):
                if u > v:
                    words = (v, u)
                    break
            if words:
                break
        pool = set(guided_candidates(plan, graph, words))
        assert pool <= set(graph.neighbors(words[0])) | set(
            graph.neighbors(words[1])
        )
        for w in pool:
            if guided_extension_check(plan, graph, words, w):
                assert graph.adjacent(w, words[0]) and graph.adjacent(w, words[1])
                assert w > words[1]


# ----------------------------------------------------------------------
# Symmetry breaking soundness
# ----------------------------------------------------------------------
class TestSymmetry:
    @pytest.mark.parametrize(
        "name,expected_aut",
        [("edge", 2), ("wedge", 2), ("triangle", 6), ("square", 8),
         ("star3", 6), ("clique4", 24), ("path3", 2), ("diamond", 4)],
    )
    def test_automorphism_counts(self, name, expected_aut):
        restrictions, num_automorphisms = symmetry_breaking_restrictions(
            NAMED_SHAPES[name]
        )
        assert num_automorphisms == expected_aut
        assert len(pattern_automorphisms(NAMED_SHAPES[name])) == expected_aut
        if expected_aut == 1:
            assert restrictions == ()

    @given(pattern_seed=st.integers(0, 2000), graph_seed=st.integers(0, 2000))
    @settings(max_examples=40, deadline=None)
    def test_restrictions_sound_on_random_patterns(self, pattern_seed, graph_seed):
        """(#restricted matches) x |Aut| == #unrestricted monomorphisms."""
        query = random_connected_pattern(pattern_seed, max_vertices=5)
        graph = strip_labels(gnm_random_graph(9, random.Random(graph_seed).randint(8, 30), seed=graph_seed))
        restrictions, num_automorphisms = symmetry_breaking_restrictions(query)
        matcher = SubgraphMatcher(
            query.vertex_labels, query.edge_dict(), graph, induced=False
        )
        mappings = list(matcher.match_iter())
        restricted = [
            m for m in mappings if satisfies_restrictions(m, restrictions)
        ]
        assert len(restricted) * num_automorphisms == len(mappings)

    @given(pattern_seed=st.integers(0, 2000), graph_seed=st.integers(0, 2000))
    @settings(max_examples=25, deadline=None)
    def test_restrictions_sound_with_labels(self, pattern_seed, graph_seed):
        query = random_connected_pattern(pattern_seed, max_vertices=4, labels=2)
        graph = assign_labels(
            gnm_random_graph(8, random.Random(graph_seed).randint(7, 24), seed=graph_seed),
            2,
            seed=graph_seed + 1,
        )
        restrictions, num_automorphisms = symmetry_breaking_restrictions(query)
        matcher = SubgraphMatcher(
            query.vertex_labels, query.edge_dict(), graph, induced=True
        )
        mappings = list(matcher.match_iter())
        restricted = [
            m for m in mappings if satisfies_restrictions(m, restrictions)
        ]
        assert len(restricted) * num_automorphisms == len(mappings)


# ----------------------------------------------------------------------
# Guided == exhaustive == VF2 oracle
# ----------------------------------------------------------------------
class TestCrossValidation:
    @pytest.mark.parametrize("dataset", sorted(DATASET_SCALES))
    def test_triangle_on_every_bundled_dataset(self, dataset):
        graph = strip_labels(DATASETS[dataset](scale=DATASET_SCALES[dataset]))
        query = NAMED_SHAPES["triangle"]
        exhaustive, guided = both_runs(graph, query)
        assert match_vertex_sets(exhaustive) == match_vertex_sets(guided)
        assert exhaustive.num_outputs == guided.num_outputs
        oracle = distinct_embeddings(
            query.vertex_labels, query.edge_dict(), graph, induced=True
        )
        assert {tuple(sorted(s)) for s in oracle} == set(
            match_vertex_sets(guided)
        )
        assert len(oracle) == guided.num_outputs

    @pytest.mark.parametrize("shape", ["wedge", "square", "diamond", "clique4"])
    @pytest.mark.parametrize("induced", [True, False])
    def test_shapes_on_citeseer(self, shape, induced):
        graph = strip_labels(DATASETS["citeseer"](scale=0.1))
        query = NAMED_SHAPES[shape]
        exhaustive, guided = both_runs(graph, query, induced)
        assert match_vertex_sets(exhaustive) == match_vertex_sets(guided)
        if induced:
            oracle_count = len(
                distinct_embeddings(
                    query.vertex_labels, query.edge_dict(), graph, induced=True
                )
            )
        else:
            oracle_count = len(monomorphism_images(query, graph))
        assert guided.num_outputs == oracle_count

    @given(seed=st.integers(0, 4000))
    @settings(max_examples=30, deadline=None)
    def test_random_graph_sweep(self, seed):
        rng = random.Random(seed)
        n = rng.randint(5, 12)
        m = rng.randint(n - 1, min(n * (n - 1) // 2, 3 * n))
        graph = assign_labels(gnm_random_graph(n, m, seed=seed), 2, seed=seed + 1)
        query = random_connected_pattern(seed + 2, max_vertices=4, labels=2)
        induced = bool(seed % 2)
        exhaustive, guided = both_runs(graph, query, induced)
        assert match_vertex_sets(exhaustive) == match_vertex_sets(guided)
        if induced:
            oracle_count = len(
                distinct_embeddings(
                    query.vertex_labels, query.edge_dict(), graph, induced=True
                )
            )
        else:
            oracle_count = len(monomorphism_images(query, graph))
        assert guided.num_outputs == oracle_count

    def test_single_vertex_query(self):
        graph = assign_labels(gnm_random_graph(12, 20, seed=9), 3, seed=2)
        label = graph.vertex_label(0)
        query = Pattern((label,), ())
        exhaustive, guided = both_runs(graph, query)
        expected = sorted(
            (v,) for v in graph.vertices() if graph.vertex_label(v) == label
        )
        assert match_vertex_sets(guided) == expected
        assert match_vertex_sets(exhaustive) == expected

    def test_single_motif_match_count_agrees_with_motif_distribution(self):
        graph = strip_labels(gnm_random_graph(25, 60, seed=17))
        distribution = motif_counts(
            run_computation(graph, MotifCounting(4), ArabesqueConfig())
        )
        for name in ("triangle", "wedge", "square", "diamond"):
            canonical = NAMED_SHAPES[name].canonical()
            expected = distribution.get(canonical, 0)
            match = Miner(graph).match
            assert match(NAMED_SHAPES[name]).count() == expected
            assert match(NAMED_SHAPES[name]).exhaustive().count() == expected


# ----------------------------------------------------------------------
# Configuration plumbing
# ----------------------------------------------------------------------
class TestPlanConfig:
    def test_config_rejects_non_plan(self):
        with pytest.raises(ValueError):
            ArabesqueConfig(plan="triangle")

    def test_plan_requires_vertex_exploration(self):
        from repro.apps import GraphMatching

        plan = compile_plan(NAMED_SHAPES["triangle"])
        graph = strip_labels(gnm_random_graph(10, 20, seed=1))
        edge_mode = GraphMatching(NAMED_SHAPES["triangle"], induced=False)
        with pytest.raises(ValueError):
            run_computation(
                graph, edge_mode, ArabesqueConfig(plan=plan)
            )

    def test_plan_requires_computation_opt_in(self):
        # A plan paired with an unaware computation would silently
        # restrict what it explores (e.g. a motif census losing every
        # non-query shape) — must be a loud error, not a wrong answer.
        plan = compile_plan(NAMED_SHAPES["triangle"])
        graph = strip_labels(gnm_random_graph(10, 20, seed=1))
        with pytest.raises(ValueError, match="plan_compatible"):
            run_computation(
                graph, MotifCounting(3), ArabesqueConfig(plan=plan)
            )

    def test_precompiled_plan_reused(self):
        graph = strip_labels(gnm_random_graph(15, 30, seed=3))
        query = NAMED_SHAPES["triangle"]
        plan = compile_plan(query.canonical(), induced=True)
        miner = Miner(graph)
        with_plan = miner.match(query).plan(plan).run().raw
        without_plan = miner.match(query).run().raw
        assert with_plan.canonical_signature() == without_plan.canonical_signature()
        with pytest.raises(ValueError):
            miner.match(query, induced=False).plan(plan)
        # Pairing a plan compiled from a different query must fail loudly
        # instead of returning the other pattern's matches.
        with pytest.raises(ValueError, match="different query"):
            miner.match(NAMED_SHAPES["square"]).plan(plan)
        # A plan on an exhaustive query signals caller confusion — reject
        # it rather than silently running the exhaustive path.
        with pytest.raises(ValueError, match="conflicts"):
            miner.match(query).exhaustive().plan(plan)

    def test_disconnected_query_rejected_by_both_modes(self):
        from repro.apps import GraphMatching

        disconnected = Pattern((0, 0, 0, 0), ((0, 1, 0), (2, 3, 0)))
        assert not disconnected.is_connected()
        with pytest.raises(ValueError, match="connected"):
            GraphMatching(disconnected)
        with pytest.raises(PlanError):
            compile_plan(disconnected)

    def test_exhaustive_query_strips_a_plan_carried_by_its_config(self):
        plan = compile_plan(NAMED_SHAPES["triangle"].canonical())
        graph = strip_labels(gnm_random_graph(12, 25, seed=2))
        config = ArabesqueConfig(plan=plan)
        request = Miner(graph).match
        exhaustive = request("triangle").config(config).exhaustive().run()
        guided = request("triangle").config(config).run()
        assert exhaustive.raw.total_batched == 0  # really the oracle path
        assert exhaustive.vertex_sets() == guided.vertex_sets()

    def test_mismatched_computation_and_config_plans_rejected(self):
        graph = strip_labels(gnm_random_graph(10, 20, seed=4))
        plan_a = compile_plan(NAMED_SHAPES["triangle"].canonical())
        plan_b = compile_plan(NAMED_SHAPES["square"].canonical())
        with pytest.raises(ValueError, match="different plan"):
            run_computation(
                graph, GuidedMatching(plan_a), ArabesqueConfig(plan=plan_b)
            )
        # A guided computation on the exhaustive path would emit every
        # size-k connected subgraph as a "match" — also rejected.
        with pytest.raises(ValueError, match="different plan"):
            run_computation(graph, GuidedMatching(plan_a), ArabesqueConfig())

    def test_guided_matching_computation_is_picklable(self):
        plan = compile_plan(NAMED_SHAPES["wedge"])
        clone = pickle.loads(pickle.dumps(GuidedMatching(plan)))
        assert clone.plan == plan


# ----------------------------------------------------------------------
# Pattern files
# ----------------------------------------------------------------------
class TestPatternFiles:
    def test_round_trip_with_labels(self, tmp_path):
        path = tmp_path / "labeled.pattern"
        path.write_text("# labeled wedge\nv 0 5\nv 2 7\n0 1 3\n1 2\n")
        pattern = read_pattern_file(path)
        assert pattern.vertex_labels == (5, 0, 7)
        assert pattern.edges == ((0, 1, 3), (1, 2, 0))

    def test_malformed_lines_rejected(self, tmp_path):
        for body in ("0 0\n", "0 1\n0 1\n", "v 0\n", "0 1 2 3\n", ""):
            path = tmp_path / "bad.pattern"
            path.write_text(body)
            with pytest.raises(ValueError):
                read_pattern_file(path)

    def test_duplicate_vertex_label_rejected(self, tmp_path):
        path = tmp_path / "dup_label.pattern"
        path.write_text("v 0 1\nv 0 2\n0 1\n")
        with pytest.raises(ValueError, match="duplicate label"):
            read_pattern_file(path)

    def test_negative_ids_rejected(self, tmp_path):
        for body in ("-1 0\n0 1\n", "v -1 5\n0 1\n"):
            path = tmp_path / "negative.pattern"
            path.write_text(body)
            with pytest.raises(ValueError, match="negative|>= 0"):
                read_pattern_file(path)

    def test_one_based_file_rejected_with_dense_id_hint(self, tmp_path):
        path = tmp_path / "one_based.pattern"
        path.write_text("1 2\n1 3\n2 3\n")
        with pytest.raises(ValueError, match="dense"):
            read_pattern_file(path)
