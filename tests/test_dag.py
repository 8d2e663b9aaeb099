"""Multi-query plan DAGs (repro.plan.dag) and the DAG-guided motif path.

The acceptance surface of the multi-query refactor:

* **trie construction** — prefix-affine orders make sibling patterns
  share their common subpattern's nodes (shared-prefix node counts are
  asserted exactly on known batches), member plans stay valid solo plans,
  and malformed batches fail loudly;
* **per-leaf restriction soundness** — each member's symmetry
  restrictions stay sound inside the batch: restricted leaf count ×
  |Aut| == monomorphism count (the same invariant the solo planner is
  property-tested on), and induced leaf counts equal the solo guided and
  exhaustive match counts;
* **motif distribution equivalence** — DAG-guided == exhaustive
  ``MotifCounting`` == per-pattern guided counts, byte-identical to the
  exhaustive oracle itself (both strategies only aggregate); across
  backend × workers × storage it is the ``guided-motifs`` and
  ``costed-motifs`` rows of tests/test_equivalence_matrix.py;
* **session integration** — ``.motifs()`` runs guided by default, the
  DAG cache makes the second run skip compilation, and collect-style
  options are rejected loudly.
"""

import copy
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import (
    DagMotifCounting,
    DagPatternDomains,
    GraphMatching,
    MotifCounting,
    enumerate_motif_patterns,
    motif_counts,
    run_guided_motifs,
)
from repro.core import ArabesqueConfig, Computation, Pattern, run_computation
from repro.core.embedding import VERTEX_EXPLORATION
from repro.graph import (
    LabeledGraph,
    assign_labels,
    from_bitset,
    gnm_random_graph,
    strip_labels,
    to_bitset,
)
from repro.isomorphism import SubgraphMatcher
from repro.plan import (
    NAMED_SHAPES,
    PlanError,
    accepting_patterns,
    build_plan_dag,
    compile_plan,
    dag_survivors,
    restrict_dag,
)
from repro.plan.dag import DagStepper, dag_extendable
from repro.session import Miner, SessionError


def shapes(*names):
    return tuple(NAMED_SHAPES[name].canonical() for name in names)


def unlabeled_graph(seed: int, n: int = 25, m: int = 60):
    return strip_labels(gnm_random_graph(n, m, seed=seed))


def labeled_graph(seed: int, n: int = 24, m: int = 60, labels: int = 3):
    return assign_labels(gnm_random_graph(n, m, seed=seed), labels, seed=seed)


def exhaustive_counts(graph, max_size, min_size=3):
    run = run_computation(
        graph,
        MotifCounting(max_size, min_size=min_size),
        ArabesqueConfig(collect_outputs=False),
    )
    return motif_counts(run)


# ---------------------------------------------------------------------------
# Trie construction (prefix-affine orders + shared-prefix node counts)
# ---------------------------------------------------------------------------
class TestTrieConstruction:
    def test_wedge_and_triangle_share_their_two_step_prefix(self):
        dag = build_plan_dag(shapes("wedge", "triangle"), induced=True)
        # 3 + 3 plan steps collapse into 4 trie nodes: both orders start
        # vertex + neighbor identically, then diverge at the third step
        # (one back-edge vs two).
        assert dag.total_plan_steps == 6
        assert dag.num_nodes == 4
        assert dag.shared_steps == 2
        wedge_path, triangle_path = dag.paths
        assert wedge_path[:2] == triangle_path[:2]
        assert wedge_path[2] != triangle_path[2]

    def test_triangle_aligns_as_square_prefix_sibling(self):
        dag = build_plan_dag(shapes("triangle", "square"), induced=True)
        # The affine order search walks the square along the triangle's
        # existing trie path for the shared 2-path subpattern.
        assert dag.shared_steps >= 2
        assert dag.paths[0][:2] == dag.paths[1][:2]

    def test_whole_motif_batch_shares_one_root(self):
        graph = unlabeled_graph(3)
        batch = enumerate_motif_patterns(graph, 4)
        dag = build_plan_dag(batch, induced=True)
        assert {path[0] for path in dag.paths} == {dag.paths[0][0]}
        # Sharing must be substantial, not incidental: every plan's first
        # two steps are structurally identical on an unlabeled graph.
        assert all(path[:2] == dag.paths[0][:2] for path in dag.paths)
        assert dag.num_nodes < dag.total_plan_steps

    def test_member_plans_are_valid_solo_plans(self):
        batch = shapes("wedge", "triangle", "square", "diamond")
        dag = build_plan_dag(batch, induced=True)
        for pattern, plan in zip(batch, dag.plans):
            assert plan.pattern == pattern
            # Recompiling solo with the DAG's affine order reproduces the
            # member plan exactly — constraints and restrictions included.
            assert compile_plan(pattern, induced=True, order=plan.order) == plan

    def test_empty_and_duplicate_batches_rejected(self):
        with pytest.raises(PlanError, match="must not be empty"):
            build_plan_dag(())
        with pytest.raises(PlanError, match="duplicate"):
            build_plan_dag(shapes("triangle", "triangle"))

    def test_disconnected_member_rejected(self):
        disconnected = Pattern((0, 0, 0, 0), ((0, 1, 0), (2, 3, 0)))
        with pytest.raises(PlanError, match="connected"):
            build_plan_dag((NAMED_SHAPES["triangle"].canonical(), disconnected))

    def test_explicit_order_validation(self):
        triangle = NAMED_SHAPES["triangle"].canonical()
        with pytest.raises(PlanError, match="permutation"):
            compile_plan(triangle, order=(0, 1))
        with pytest.raises(PlanError, match="permutation"):
            compile_plan(triangle, order=(0, 1, 1))
        path3 = NAMED_SHAPES["wedge"].canonical()
        # An order whose second vertex is not adjacent to the first
        # breaks the connected-prefix invariant.
        adjacency = {v: set() for v in range(3)}
        for i, j, _ in path3.edges:
            adjacency[i].add(j)
            adjacency[j].add(i)
        endpoints = [v for v in range(3) if len(adjacency[v]) == 1]
        bad = (endpoints[0], endpoints[1], 3 - endpoints[0] - endpoints[1])
        with pytest.raises(PlanError, match="connected prefix"):
            compile_plan(path3, order=bad)

    def test_dag_is_picklable_and_hashable(self):
        dag = build_plan_dag(shapes("wedge", "triangle", "square"))
        clone = pickle.loads(pickle.dumps(dag))
        assert clone == dag
        assert hash(clone) == hash(dag)

    def test_describe_mentions_sharing(self):
        dag = build_plan_dag(shapes("wedge", "triangle"))
        text = dag.describe()
        assert "patterns=2" in text and "shared" in text
        assert "induced" in text

    def test_plan_describe_reports_whitelists(self):
        plan = compile_plan(NAMED_SHAPES["edge"].canonical(), induced=False)
        assert "whitelists=[none]" in plan.describe()
        from repro.plan.planner import restrict_plan

        restricted = restrict_plan(plan, {0: frozenset({1, 2, 3})})
        assert "whitelists=[0:3]" in restricted.describe()


# ---------------------------------------------------------------------------
# restrict_dag: per-leaf whitelist push-down
# ---------------------------------------------------------------------------
class TestRestrictDag:
    def test_overlays_member_whitelists_and_node_unions(self):
        batch = shapes("wedge", "triangle")
        dag = build_plan_dag(batch, induced=False)
        wedge, triangle = batch
        restricted = restrict_dag(
            dag,
            {
                wedge: {0: frozenset({1, 2})},
                triangle: {0: frozenset({2, 3})},
            },
        )
        # Member plans carry their own exact whitelists (bitset form)...
        for plan, pattern in zip(restricted.plans, batch):
            by_vertex = {s.pattern_vertex: s.allowed for s in plan.steps}
            expected = {wedge: (1, 2), triangle: (2, 3)}[pattern]
            assert from_bitset(by_vertex[0]) == expected
        # ...while a shared node's pool whitelist is the union when every
        # member is restricted there, and None as soon as one is not.
        whitelisted = {
            node.allowed
            for node in restricted.nodes
            if node.allowed is not None
        }
        assert all(
            set(from_bitset(allowed)) <= {1, 2, 3} for allowed in whitelisted
        )
        # The base DAG is untouched (cache safety).
        assert all(node.allowed is None for node in dag.nodes)
        assert all(
            step.allowed is None for plan in dag.plans for step in plan.steps
        )

    def test_unrestricted_member_forces_open_pools(self):
        batch = shapes("wedge", "triangle")
        dag = build_plan_dag(batch, induced=False)
        wedge = batch[0]
        restricted = restrict_dag(dag, {wedge: {0: frozenset({5})}})
        # The shared prefix nodes serve the unrestricted triangle too, so
        # their pools must stay open.
        shared = set(restricted.paths[0]) & set(restricted.paths[1])
        for node_id in shared:
            assert restricted.nodes[node_id].allowed is None

    def test_restriction_prunes_survivors(self):
        graph = unlabeled_graph(5)
        batch = shapes("wedge",)
        dag = build_plan_dag(batch, induced=True)
        full_pool = DagStepper(dag, graph).zero_pool()
        assert tuple(full_pool) == tuple(graph.vertices())
        restricted = restrict_dag(
            dag, {batch[0]: {dag.plans[0].order[0]: frozenset({0, 1})}}
        )
        assert DagStepper(restricted, graph).zero_pool() == (0, 1)
        assert dag_survivors(restricted, graph, (2,)) == []


# ---------------------------------------------------------------------------
# The stepper's grouped survivor cache vs the naive root-to-leaf walk
# ---------------------------------------------------------------------------
class _TinyCacheStepper(DagStepper):
    """Overflows its survivor cache every few prefixes."""

    CACHE_LIMIT = 3


class TestGroupedSurvivorCache:
    @staticmethod
    def restricted_labeled_dag(graph):
        # Sizes 2 and 3 in one batch: members finish at different depths,
        # so entries hold live and finished members side by side.
        batch = enumerate_motif_patterns(graph, 3, min_size=2)
        dag = build_plan_dag(batch, induced=True)
        allowed = to_bitset(v for v in graph.vertices() if v % 3)
        return restrict_dag(dag, {pattern: {0: allowed} for pattern in batch[::2]})

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_reads_equal_the_naive_walk_across_cache_resets(self, data):
        graph = labeled_graph(2)
        dag = self.restricted_labeled_dag(graph)
        stepper = _TinyCacheStepper(dag, graph)
        vertices = list(graph.vertices())
        words = ()
        for _ in range(data.draw(st.integers(1, 12))):
            assert stepper.survivors(words) == dag_survivors(dag, graph, words)
            assert stepper.accepting(words) == list(
                accepting_patterns(dag, graph, words)
            )
            assert stepper.extendable(words) == dag_extendable(dag, graph, words)
            expected = tuple(
                w for w in vertices if dag_survivors(dag, graph, words + (w,))
            )
            assert stepper.step(words)[1] == expected
            probe = data.draw(st.sampled_from(vertices))
            assert stepper.check(graph, words, probe) == (probe in expected)
            # Mostly walk down an accepted child; sometimes restart, or
            # step onto a word nothing accepts.
            move = data.draw(st.integers(0, 9))
            if expected and move < 7:
                words += (data.draw(st.sampled_from(expected)),)
            else:
                words = () if move < 9 or len(words) > 3 else words + (probe,)
            assert stepper.survivors(()) == list(range(dag.num_patterns))

    def test_overflow_resets_to_the_root_entry(self):
        graph = labeled_graph(2)
        stepper = _TinyCacheStepper(self.restricted_labeled_dag(graph), graph)
        sizes = []
        for root in stepper.zero_pool():
            stepper.step((root,))
            sizes.append(len(stepper._cache))
        # One reset per overflowing call: never more than the limit plus
        # what a single prefix and its children add.
        assert max(sizes) <= _TinyCacheStepper.CACHE_LIMIT + 2 + graph.num_vertices
        assert min(sizes[1:]) < max(sizes) and () in stepper._cache

    @pytest.mark.parametrize("strategy", ["rows", "masks"])
    def test_shared_entries_are_never_mutated_through_a_sharer(self, strategy):
        graph = unlabeled_graph(4)
        dag = build_plan_dag(shapes("wedge", "triangle", "square"), induced=True)
        stepper = DagStepper(dag, graph)
        root = max(graph.vertices(), key=graph.degree)
        _, found = stepper.step((root,), strategy)
        children = [(root, word) for word in found]
        cache = stepper._cache
        assert len({id(cache[child]) for child in children}) < len(children)
        before = copy.deepcopy({child: cache[child] for child in children})
        for child in children:
            stepper.survivors(child).append(-1)  # the flat view is a copy
            assert stepper.accepting(child) == list(
                accepting_patterns(dag, graph, child)
            )
            stepper.extendable(child)
            stepper.check(graph, child, root)
            stepper.step(child, strategy)
            stepper.advance(child, True)
        assert {child: cache[child] for child in children} == before


# ---------------------------------------------------------------------------
# Per-leaf restriction soundness inside a batch
# ---------------------------------------------------------------------------
class _LeafCounter(Computation):
    """Test-only DAG computation: count accepting-leaf hits per member."""

    exploration_mode = VERTEX_EXPLORATION
    plan_compatible = True

    def __init__(self, dag):
        super().__init__()
        self.plan = dag

    def process(self, embedding):
        for member in accepting_patterns(
            self.plan, embedding.graph, embedding.words
        ):
            self.map_output(member, 1)

    def reduce_output(self, key, counts):
        return sum(counts)

    def termination_filter(self, embedding):
        return not dag_extendable(self.plan, embedding.graph, embedding.words)


def _leaf_counts(graph, dag):
    run = run_computation(
        graph,
        _LeafCounter(dag),
        ArabesqueConfig(plan=dag, collect_outputs=False, storage="list"),
    )
    return {
        member: count
        for member, count in run.output_aggregates.items()
        if isinstance(member, int)
    }


class TestLeafSoundness:
    @pytest.mark.parametrize("seed", [2, 11])
    def test_monomorphic_leaf_counts_times_aut_equal_monomorphisms(self, seed):
        graph = labeled_graph(seed)
        batch = tuple(
            p
            for p in enumerate_motif_patterns(graph, 3, min_size=2)
            if p.num_vertices >= 2
        )[:6]
        dag = build_plan_dag(batch, induced=False)
        counts = _leaf_counts(graph, dag)
        for member, plan in enumerate(dag.plans):
            matcher = SubgraphMatcher(
                plan.pattern.vertex_labels, plan.pattern.edge_dict(), graph
            )
            total = sum(1 for _ in matcher.match_iter())
            assert counts.get(member, 0) * plan.num_automorphisms == total

    @pytest.mark.parametrize("seed", [4, 9])
    def test_induced_leaf_counts_equal_solo_guided_and_exhaustive(self, seed):
        graph = unlabeled_graph(seed)
        batch = shapes("wedge", "triangle", "square", "diamond")
        dag = build_plan_dag(batch, induced=True)
        counts = _leaf_counts(graph, dag)
        miner = Miner(graph)
        for member, pattern in enumerate(batch):
            solo_guided = miner.match(pattern, induced=True).count()
            exhaustive = run_computation(
                graph,
                GraphMatching(pattern, induced=True),
                ArabesqueConfig(collect_outputs=False),
            ).num_outputs
            assert counts.get(member, 0) == solo_guided == exhaustive


# ---------------------------------------------------------------------------
# Motif distribution equivalence (the tentpole's hard bar)
# ---------------------------------------------------------------------------
class TestMotifEquivalence:
    @pytest.mark.parametrize("seed", [1, 7, 13])
    @pytest.mark.parametrize("max_size", [3, 4])
    def test_guided_equals_exhaustive_unlabeled(self, seed, max_size):
        graph = unlabeled_graph(seed)
        guided = run_guided_motifs(graph, max_size)
        assert motif_counts(guided.run) == exhaustive_counts(graph, max_size)

    @pytest.mark.parametrize("seed", [2, 8])
    def test_guided_equals_exhaustive_labeled(self, seed):
        graph = labeled_graph(seed)
        guided = run_guided_motifs(graph, 3)
        assert motif_counts(guided.run) == exhaustive_counts(graph, 3)

    def test_guided_equals_per_pattern_guided_counts(self):
        graph = unlabeled_graph(6)
        guided = run_guided_motifs(graph, 4)
        distribution = motif_counts(guided.run)
        miner = Miner(graph)
        for pattern in guided.batch:
            solo = miner.match(pattern, induced=True).count()
            assert distribution.get(pattern, 0) == solo

    def test_small_min_sizes(self):
        graph = labeled_graph(3)
        for min_size in (1, 2):
            guided = run_guided_motifs(graph, 3, min_size=min_size)
            assert motif_counts(guided.run) == exhaustive_counts(
                graph, 3, min_size=min_size
            )
        # Order-1 counts are the vertex label histogram.
        ones = {
            p: c
            for p, c in motif_counts(
                run_guided_motifs(graph, 3, min_size=1).run
            ).items()
            if p.num_vertices == 1
        }
        assert {
            p.vertex_labels[0]: c for p, c in ones.items()
        } == graph.vertex_label_histogram()

    def test_edgeless_graph_yields_empty_distribution(self):
        graph = LabeledGraph((0, 0, 0), [], [])
        guided = run_guided_motifs(graph, 3)
        assert guided.dag is None and guided.batch == ()
        assert motif_counts(guided.run) == {}
        assert guided.run.total_messages == 0  # summary surface intact

    def test_zero_count_candidates_are_absent(self):
        # A triangle-free graph enumerates the triangle candidate but
        # reports no entry for it, matching the oracle's >=1 reporting.
        graph = strip_labels(
            LabeledGraph((0, 0, 0, 0), [(0, 1), (1, 2), (2, 3), (3, 0)], [0] * 4)
        )
        guided = run_guided_motifs(graph, 3)
        triangle = NAMED_SHAPES["triangle"].canonical()
        assert triangle in guided.batch
        assert triangle not in motif_counts(guided.run)

    def test_byte_identical_to_the_exhaustive_oracle(self):
        # Both strategies only aggregate (no outputs), so the canonical
        # signature — the application-observable surface — must agree
        # between them, not just across backends.
        graph = unlabeled_graph(12)
        guided = Miner(graph).motifs(4).run()
        exhaustive = Miner(graph).motifs(4).exhaustive().collect(False).run()
        assert guided.signature() == exhaustive.signature()


# ---------------------------------------------------------------------------
# Engine validation for plan DAGs
# ---------------------------------------------------------------------------
class TestEngineValidation:
    def test_dag_requires_vertex_exploration(self):
        from repro.apps import FrequentSubgraphMining

        graph = labeled_graph(1)
        dag = build_plan_dag(shapes("triangle"), induced=False)
        with pytest.raises(ValueError, match="vertex-based"):
            run_computation(
                graph, FrequentSubgraphMining(2), ArabesqueConfig(plan=dag)
            )

    def test_dag_requires_plan_compatible_computation(self):
        graph = unlabeled_graph(1)
        dag = build_plan_dag(shapes("triangle"), induced=True)
        with pytest.raises(ValueError, match="plan_compatible"):
            run_computation(graph, MotifCounting(3), ArabesqueConfig(plan=dag))

    def test_computation_dag_must_match_config_dag(self):
        graph = unlabeled_graph(1)
        dag = build_plan_dag(shapes("triangle"), induced=True)
        other = build_plan_dag(shapes("wedge", "triangle"), induced=True)
        with pytest.raises(ValueError, match="different plan"):
            run_computation(
                graph, DagMotifCounting(dag), ArabesqueConfig(plan=other)
            )

    def test_config_rejects_non_plan_values(self):
        with pytest.raises(ValueError, match="MatchingPlan or"):
            ArabesqueConfig(plan=123)

    def test_semantics_guards_on_dag_computations(self):
        induced = build_plan_dag(shapes("triangle"), induced=True)
        mono = build_plan_dag(shapes("triangle"), induced=False)
        with pytest.raises(ValueError, match="induced"):
            DagMotifCounting(mono)
        with pytest.raises(ValueError, match="monomorphic"):
            DagPatternDomains(induced)


# ---------------------------------------------------------------------------
# Session integration: guided-by-default motifs + DAG cache
# ---------------------------------------------------------------------------
class TestSessionMotifs:
    def test_guided_is_the_default_and_carries_the_dag(self):
        result = Miner(unlabeled_graph(2)).motifs(3).run()
        assert result.guided
        assert result.dag is not None
        assert result.dag.num_patterns == len(
            [p for p in result.dag.patterns if p.num_vertices >= 3]
        )

    def test_second_motifs_run_skips_dag_compilation(self):
        miner = Miner(unlabeled_graph(4))
        miner.motifs(3).run()
        first = miner.cache_info()
        assert first.dag_compilations == 1
        assert first.dag_hits == 0
        second_result = miner.motifs(3).run()
        second = miner.cache_info()
        assert second.dag_compilations == 1
        assert second.dag_hits == 1
        assert second.runs == first.runs + 1
        assert second_result.counts()

    def test_dag_cache_keys_on_batch_and_semantics(self):
        miner = Miner(unlabeled_graph(4))
        miner.motifs(3).run()
        miner.motifs(4).run()  # different batch -> new DAG
        assert miner.cache_info().dag_compilations == 2
        miner.fsm(2, max_edges=2).run()  # monomorphic level DAGs
        assert miner.cache_info().dag_compilations > 2

    def test_collect_limit_count_require_exhaustive(self):
        miner = Miner(unlabeled_graph(2))
        with pytest.raises(SessionError, match="exhaustive"):
            miner.motifs(3).collect(True)
        with pytest.raises(SessionError, match="exhaustive"):
            miner.motifs(3).limit(10)
        with pytest.raises(SessionError, match="exhaustive"):
            miner.motifs(3).count()
        with pytest.raises(SessionError, match="exhaustive"):
            miner.motifs(3).collect(False).guided().collect(True)
        capped = ArabesqueConfig(output_limit=5)
        with pytest.raises(SessionError, match="exhaustive"):
            miner.motifs(3).config(capped).run()
        # The exhaustive path keeps the engine-level meaning.
        ok = miner.motifs(3).exhaustive().config(capped).run()
        assert not ok.guided and ok.dag is None

    def test_stream_works_guided(self):
        graph = unlabeled_graph(2)
        items = list(Miner(graph).motifs(3).stream())
        assert items == sorted(
            Miner(graph).motifs(3).run().counts().items(),
            key=lambda kv: (kv[0].num_vertices, -kv[1], repr(kv[0])),
        )

    def test_guided_default_storage_is_list(self):
        result = Miner(unlabeled_graph(2)).motifs(3).run()
        assert result.raw.steps[0].shipped_format == "list"
        explicit = (
            Miner(unlabeled_graph(2)).motifs(3).storage("odag").run()
        )
        assert explicit.raw.steps[0].shipped_format == "odag"
