"""Differential kernel-test harness for the fused DAG stepper.

The fused multi-query kernel (:meth:`repro.plan.dag.DagStepper.step`)
must be *indistinguishable* from the legacy per-candidate stepper it
replaced — candidate-for-candidate, survivor-for-survivor, emission
order included — on every path through it:

* **differential replay** — the full exploration tree of every bundled
  dataset × motif/FSM-style batch is replayed through the fused stepper
  (adaptive, forced-rows, forced-masks) AND the legacy
  ``candidates()``+``check()`` pair, hard-asserting pool-size and
  survivor-stream equality at every state and accepting-leaf equality
  at every emission point;
* **hybrid fallback regression** — the degree-adaptive decision
  (:func:`repro.plan.guided.prefers_row_iteration`) is pinned: sparse
  low-degree pools (the citeseer triangle case, by name) take the
  row-iteration path, dense pools take the mask path, and both paths
  produce identical streams for the single-plan kernel and the DAG
  kernel alike;
* **property tests** (hypothesis) — random graphs × random pattern
  batches: the fused DAG-guided engine's per-leaf counts equal the
  per-pattern guided counts equal the exhaustive filter-process oracle,
  and after :func:`~repro.plan.dag.restrict_dag` the
  :class:`~repro.plan.dag.DagMaskBundle`'s root pools stay inside the
  whitelist;
* **restriction composition** — ``restrict_plan``/``restrict_dag``
  applied twice compose by intersection (never a silent overwrite) and
  are idempotent, at the step level and in end-to-end counts;
* **the stepper contract** — the three steppers the runtime drives
  (exhaustive in both exploration modes, single plan, DAG) are one
  parametrised axis: ``advance`` equals generate-then-``check`` at every
  replayed state, ``zero_pool`` is what step 0 partitions, and turning
  ``profile_phases`` on changes nothing but the clock;
* **the canonicality kernel** — Algorithm 2 as one mask per parent
  (:func:`repro.core.canonical.canonical_extension_mask`) equals the
  per-candidate ``is_canonical_*_extension`` oracle on every bundled
  dataset and on random graphs, in both exploration modes, for pools that
  include members and words with no neighbour in the parent.
"""

import time
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import (
    CliqueFinding,
    DagMotifCounting,
    GraphMatching,
    GuidedMatching,
    MotifCounting,
    enumerate_motif_patterns,
)
from repro.core import ArabesqueConfig, Pattern, extensions, run_computation
from repro.core.canonical import canonical_extension_mask, extension_checker
from repro.core.extension import extension_mask, word_row
from repro.core.pattern import PatternCanonicalizer
from repro.datasets import (
    citeseer_like,
    instagram_like,
    mico_like,
    patents_like,
    sn_like,
    youtube_like,
)
from repro.graph import assign_labels, gnm_random_graph, strip_labels
from repro.graph.bitset import from_bitset, to_bitset
from repro.plan import (
    NAMED_SHAPES,
    build_plan_dag,
    compile_plan,
    guided_candidates,
    make_stepper,
    restrict_dag,
)
from repro.plan.dag import DagStepper, mask_bundle
from repro.plan.fsm_guide import (
    label_triples,
    one_edge_extensions,
    single_edge_candidates,
)
from repro.plan.guided import (
    SMALL_POOL_DEGREE,
    guided_survivors,
    prefers_row_iteration,
)
from repro.plan.planner import restrict_plan
from repro.session import Miner


def shapes(*names):
    return tuple(NAMED_SHAPES[name].canonical() for name in names)


# ---------------------------------------------------------------------------
# The differential replay core
# ---------------------------------------------------------------------------
def replay_tree(dag, graph, max_states=None):
    """Replay the whole DAG exploration tree through four steppers.

    At every surviving state the fused kernel (adaptive), the fused
    kernel pinned to each hybrid path, and the legacy per-candidate
    stepper (memoized ``candidates()`` + ``check()`` — exactly what the
    runtime ran before the fusion) must agree on the candidate pool
    size, the survivor stream (ascending — the emission order), the
    accepting leaves, and extendability.  Returns
    ``(num_states, num_survivors, emissions)``.
    """
    fused = DagStepper(dag, graph)
    forced_rows = DagStepper(dag, graph)
    forced_masks = DagStepper(dag, graph)
    legacy = DagStepper(dag, graph)
    emissions = []
    stack = [()]
    num_states = 0
    num_survivors = 0
    while stack:
        words = stack.pop()
        num_states += 1
        if max_states is not None and num_states > max_states:
            break
        num_candidates, survivors = fused.step(words)
        rows_candidates, rows_survivors = forced_rows.step(words, strategy="rows")
        masks_candidates, masks_survivors = forced_masks.step(
            words, strategy="masks"
        )
        pool = legacy.candidates(words)
        legacy_survivors = tuple(
            word for word in pool if legacy.check(graph, words, word)
        )
        assert (
            num_candidates
            == rows_candidates
            == masks_candidates
            == len(pool)
        ), f"pool sizes diverge at {words}"
        assert (
            survivors == rows_survivors == masks_survivors == legacy_survivors
        ), f"survivor streams diverge at {words}"
        num_survivors += len(survivors)
        for word in survivors:
            child = words + (word,)
            accepting = fused.accepting(child)
            assert accepting == legacy.accepting(child), (
                f"accepting leaves diverge at {child}"
            )
            emissions.extend((child, member) for member in accepting)
            extendable = fused.extendable(child)
            assert extendable == legacy.extendable(child), (
                f"extendability diverges at {child}"
            )
            if extendable:
                stack.append(child)
    return num_states, num_survivors, emissions


def degree_domain(graph, min_degree=2):
    """The FSM-shaped whitelist: every vertex of degree >= ``min_degree``."""
    return frozenset(
        v for v in graph.vertices() if graph.degree(v) >= min_degree
    )


def fsm_style_dag(graph, max_patterns=6, min_degree=2):
    """A monomorphic, whitelist-restricted DAG — the guided-FSM shape.

    Level-1/2 candidates from the graph's own label triples, compiled
    monomorphic and restricted with a degree->=k domain per pattern
    vertex (the parent-domain push-down form).
    """
    triples = label_triples(graph)
    batch = list(single_edge_candidates(graph))
    for pattern in batch[:2]:
        batch.extend(one_edge_extensions(pattern, triples))
    batch = tuple(dict.fromkeys(batch))[:max_patterns]
    dag = build_plan_dag(batch, induced=False)
    domain = degree_domain(graph, min_degree)
    return restrict_dag(
        dag,
        {
            pattern: {v: domain for v in range(pattern.num_vertices)}
            for pattern in batch
        },
    )


# ---------------------------------------------------------------------------
# Differential replay over every bundled dataset
# ---------------------------------------------------------------------------
def _bounded_labels(graph, max_labels=4):
    """Coarsen wide label alphabets so motif enumeration stays tiny.

    The mico/patents/youtube generators ship dozens of labels; a
    size-3 motif sweep over them is tens of thousands of canonical
    candidates (pure enumeration cost, nothing kernel-related).  Four
    labels keep every labeled code path live — mixed edge-label
    confirms included — with double-digit batches.
    """
    if len(set(graph.vertex_labels)) <= max_labels:
        return graph
    return assign_labels(graph, max_labels, seed=0)


#: Every bundled dataset at a tiny scale (~100-250 vertices: the scale
#: knob is relative to PAPER size, not the default).  Sizes keep the
#: full-tree replay affordable while covering every graph family the
#: package ships: sparse scale-free labeled (citeseer), dense labeled
#: (mico, patents, youtube), near-regular unlabeled (sn), and sparse
#: unlabeled (instagram).
BUNDLED = [
    ("citeseer", lambda: citeseer_like(scale=0.06)),
    ("mico", lambda: _bounded_labels(mico_like(scale=0.0015))),
    ("patents", lambda: _bounded_labels(patents_like(scale=0.00005))),
    ("youtube", lambda: _bounded_labels(youtube_like(scale=0.00003))),
    ("sn", lambda: sn_like(scale=0.00002)),
    ("instagram", lambda: instagram_like(scale=0.0000008)),
]


class TestDifferentialReplay:
    @pytest.mark.parametrize(
        "name,factory", BUNDLED, ids=[name for name, _ in BUNDLED]
    )
    def test_motif_batch_fused_equals_legacy(self, name, factory):
        graph = factory()
        batch = enumerate_motif_patterns(graph, 3, min_size=2)
        assert batch, f"{name}: motif batch must not be empty"
        dag = build_plan_dag(batch, induced=True)
        num_states, num_survivors, emissions = replay_tree(
            dag, graph, max_states=4000
        )
        assert num_states > 1, f"{name}: replay must explore the tree"
        assert num_survivors > 0
        assert emissions, f"{name}: no emissions — batch too restrictive"

    @pytest.mark.parametrize(
        "name,factory", BUNDLED, ids=[name for name, _ in BUNDLED]
    )
    def test_fsm_batch_fused_equals_legacy(self, name, factory):
        graph = factory()
        dag = fsm_style_dag(graph)
        num_states, _, emissions = replay_tree(dag, graph, max_states=4000)
        assert num_states > 1, f"{name}: replay must explore the tree"
        assert emissions, f"{name}: no emissions — whitelists too tight"

    def test_unlabeled_shape_batch_with_symmetry_restrictions(self):
        graph = strip_labels(gnm_random_graph(30, 90, seed=5))
        dag = build_plan_dag(
            shapes("wedge", "triangle", "square", "diamond"), induced=True
        )
        _, num_survivors, emissions = replay_tree(dag, graph)
        assert num_survivors > 0 and emissions

    def test_engine_run_matches_per_pattern_counts(self):
        # End to end: the engine's expansion pass now calls the fused
        # kernel; its leaf counts must still equal solo guided matching.
        graph = strip_labels(gnm_random_graph(25, 60, seed=9))
        batch = shapes("wedge", "triangle", "square")
        miner = Miner(graph)
        counts = _engine_leaf_counts(graph, build_plan_dag(batch, induced=True))
        for member, pattern in enumerate(batch):
            assert counts.get(member, 0) == miner.match(pattern).count()


# ---------------------------------------------------------------------------
# The stepper contract: exhaustive, single plan and DAG are one axis
# ---------------------------------------------------------------------------
STEPPER_KINDS = ("exhaustive-vertex", "exhaustive-edge", "plan", "dag")


def stepper_case(kind, graph):
    """``(plan, make_computation, mode, reference pool, grows)`` of one
    stepper kind: what ``config.plan`` carries, a computation that runs
    on it, and the per-candidate reference ``advance`` is replayed
    against."""
    batch = enumerate_motif_patterns(graph, 3, min_size=2)
    if kind in ("plan", "plan-whitelisted"):
        plan = compile_plan(batch[-1], induced=True)
        if kind == "plan-whitelisted":
            domain = degree_domain(graph)
            plan = restrict_plan(plan, {pv: domain for pv in plan.order})
        return (
            plan,
            lambda: GuidedMatching(plan),
            "vertex",
            partial(guided_candidates, plan, graph),
            lambda words: len(words) < plan.num_steps,
        )
    if kind == "dag":
        dag = build_plan_dag(batch, induced=True)
        reference = DagStepper(dag, graph)
        return (
            dag,
            lambda: DagMotifCounting(dag),
            "vertex",
            reference.candidates,
            reference.extendable,
        )
    mode = kind.split("-")[1]
    make = (
        (lambda: MotifCounting(3))
        if mode == "vertex"
        else (lambda: GraphMatching(batch[-1], induced=False))
    )
    return None, make, mode, partial(extensions, graph, mode), lambda words: len(words) < 3


CONTRACT_GRAPHS = [BUNDLED[0], BUNDLED[1]]  # sparse rows / dense masks


class TestStepperContract:
    @pytest.mark.parametrize("kind", STEPPER_KINDS + ("plan-whitelisted",))
    @pytest.mark.parametrize(
        "name,factory", CONTRACT_GRAPHS, ids=[name for name, _ in CONTRACT_GRAPHS]
    )
    def test_advance_is_generate_then_check(self, name, factory, kind):
        graph = factory()
        plan, make_computation, mode, pool_of, grows = stepper_case(kind, graph)
        stepper = make_stepper(plan, graph, mode)
        zero_pool = stepper.zero_pool()
        roots = [w for w in zero_pool if stepper.check(graph, (), w)]
        stack = [(word,) for word in roots]
        states = deepest = 0
        while stack and states < 1500:
            words = stack.pop()
            states += 1
            deepest = max(deepest, len(words))
            pool = pool_of(words)
            accepted = [w for w in pool if stepper.check(graph, words, w)]
            num_candidates, num_accepted, found, terminal = stepper.advance(
                words, False
            )
            assert (num_candidates, num_accepted, list(found), terminal) == (
                len(pool),
                len(accepted),
                accepted,
                None,
            ), f"{kind}: advance diverges from generate-then-check at {words}"
            # ``accept`` is ``check`` over any pool the caller brings — the
            # extension pool, or (as ODAG extraction does) something else:
            # here every third word of the graph, members included.
            assert from_bitset(stepper.accept(words, to_bitset(pool))) == tuple(
                accepted
            )
            other = to_bitset(range(0, len(zero_pool), 3)) & ~to_bitset(words)
            assert stepper.accept(words, other) == to_bitset(
                w for w in from_bitset(other) if stepper.check(graph, words, w)
            ), f"{kind}: accept diverges from check on a foreign pool at {words}"
            stack.extend(
                words + (w,) for w in found if grows(words + (w,))
            )
        assert roots and deepest > 1, f"{kind}: replay must leave step 0"
        # zero_pool() is what step 0 partitions, whatever the worker count.
        for workers in (1, 3):
            step0 = run_computation(
                graph,
                make_computation(),
                ArabesqueConfig(
                    plan=plan, num_workers=workers, collect_outputs=False
                ),
            ).steps[0]
            assert step0.candidates_generated == len(zero_pool)
            assert step0.canonical_candidates == len(roots)

    @pytest.mark.parametrize("kind", STEPPER_KINDS)
    def test_step0_work_units_are_each_workers_rank_range(self, kind):
        # Each step-0 task slices its own rank range of the stepper's
        # zero_pool(): worker w's work is the roots among positions
        # [total * w // n, total * (w + 1) // n).
        graph = citeseer_like(scale=0.06)
        plan, make_computation, mode, _, _ = stepper_case(kind, graph)
        stepper = make_stepper(plan, graph, mode)
        zero_pool = stepper.zero_pool()
        total = len(zero_pool)
        workers = 3
        expected = {
            worker: float(
                sum(
                    stepper.check(graph, (), zero_pool[index])
                    for index in range(
                        total * worker // workers,
                        total * (worker + 1) // workers,
                    )
                )
            )
            for worker in range(workers)
        }
        assert sum(expected.values()) > 0
        step0 = run_computation(
            graph,
            make_computation(),
            ArabesqueConfig(plan=plan, num_workers=workers, collect_outputs=False),
        ).steps[0]
        assert step0.work_units == expected

    @pytest.mark.parametrize("backend", ["serial", "process"])
    @pytest.mark.parametrize("storage", ["list", "odag"])
    @pytest.mark.parametrize("kind", STEPPER_KINDS)
    def test_profile_phases_changes_nothing_but_the_clock(
        self, kind, storage, backend
    ):
        graph = _bounded_labels(mico_like(scale=0.001))
        plan, make_computation, _, _, _ = stepper_case(kind, graph)

        def run(profile):
            config = ArabesqueConfig(
                plan=plan,
                storage=storage,
                backend=backend,
                num_workers=2,
                profile_phases=profile,
                collect_outputs=False,
            )
            return run_computation(graph, make_computation(), config)

        timed, plain = run(True), run(False)
        assert timed.canonical_signature() == plain.canonical_signature()
        assert timed.steps == plain.steps  # every StepStats field
        assert not plain.phase_totals()
        # Phase seconds are summed over workers, which a process backend
        # may run side by side.
        overlap = 2 if backend == "process" else 1
        for superstep in timed.steps:
            phases = superstep.phase_seconds
            assert phases.keys() <= set("WRGCP")
            assert sum(phases.values()) <= superstep.wall_seconds * overlap
        assert timed.steps[0].phase_seconds["P"] > 0

    def test_step_zero_charges_canonicalization_to_P(self, monkeypatch):
        # Paper Figure 12: P = pattern aggregation, W = the store write.
        # Step 0 used to charge both to W.  Canonicalization is slowed by
        # a known amount so the attribution is visible on any machine;
        # CliqueFinding canonicalizes nowhere but the store tail.
        nap = 0.002
        real = PatternCanonicalizer.canonicalize

        def slow(self, pattern):
            time.sleep(nap)
            return real(self, pattern)

        monkeypatch.setattr(PatternCanonicalizer, "canonicalize", slow)
        graph = strip_labels(gnm_random_graph(20, 40, seed=1))
        run = run_computation(
            graph, CliqueFinding(3), ArabesqueConfig(profile_phases=True)
        )
        slept = nap * run.steps[0].stored_embeddings
        step0 = run.steps[0].phase_seconds
        assert step0["P"] >= slept > step0["W"]


# ---------------------------------------------------------------------------
# Algorithm 2 as a pool-level mask == the per-candidate oracle
# ---------------------------------------------------------------------------
def assert_mask_is_oracle(graph, mode, words, pool):
    row = word_row(graph, mode)
    check = extension_checker(mode)
    assert from_bitset(canonical_extension_mask(row, words, pool)) == tuple(
        w for w in from_bitset(pool) if check(graph, words, w)
    ), f"{mode}: canonical mask diverges from Algorithm 2 at {words}"


class TestCanonicalMaskKernel:
    @pytest.mark.parametrize("mode", ["vertex", "edge"])
    @pytest.mark.parametrize(
        "name,factory", BUNDLED, ids=[name for name, _ in BUNDLED]
    )
    def test_mask_equals_per_candidate_check_at_every_state(
        self, name, factory, mode
    ):
        graph = factory()
        stepper = make_stepper(None, graph, mode)
        # Every word of the mode: members, and words with no neighbour in
        # the parent (Algorithm 2 would accept those; this repo's P2
        # deviation rejects them, and so must the mask).
        universe = (1 << len(stepper.zero_pool())) - 1
        stack = [(word,) for word in stepper.zero_pool()[:40]]
        states = deepest = 0
        while stack and states < 600:
            words = stack.pop()
            states += 1
            deepest = max(deepest, len(words))
            assert_mask_is_oracle(graph, mode, words, universe)
            pool = extension_mask(word_row(graph, mode), words)
            assert_mask_is_oracle(graph, mode, words, pool)
            _, _, found, _ = stepper.advance(words, False)
            if len(words) < 4:
                stack.extend(words + (w,) for w in found[:3])
        assert deepest == 4, f"{name}/{mode}: replay must reach depth 4"

    @given(
        seed=st.integers(0, 10_000),
        edges=st.integers(5, 60),
        size=st.integers(0, 5),
        mode=st.sampled_from(["vertex", "edge"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_mask_equals_oracle_for_any_parent_and_pool(
        self, seed, edges, size, mode
    ):
        # No precondition: the parent need not be canonical or even
        # connected, and the pool is every word of the mode.
        import random

        graph = gnm_random_graph(16, edges, seed=seed)
        ids = range(graph.num_vertices if mode == "vertex" else graph.num_edges)
        words = tuple(random.Random(seed).sample(ids, min(size, len(ids))))
        assert_mask_is_oracle(graph, mode, words, (1 << len(ids)) - 1)

    @pytest.mark.parametrize("mode", ["vertex", "edge"])
    def test_from_scratch_ablation_accepts_the_same_words(self, mode):
        graph = citeseer_like(scale=0.03)
        incremental = make_stepper(None, graph, mode)
        from_scratch = make_stepper(None, graph, mode, incremental=False)
        stack = [(word,) for word in incremental.zero_pool()[:25]]
        while stack:
            words = stack.pop()
            expected = incremental.advance(words, False)
            assert from_scratch.advance(words, False) == expected
            if len(words) < 3:
                stack.extend(words + (w,) for w in expected[2][:3])


def _engine_leaf_counts(graph, dag):
    """Leaf counts from a real engine run over the fused DAG path."""
    from repro.core import Computation
    from repro.plan.dag import accepting_patterns, dag_extendable

    class LeafCounter(Computation):
        plan_compatible = True

        def __init__(self, plan):
            super().__init__()
            self.plan = plan

        def process(self, embedding):
            for member in accepting_patterns(
                self.plan, embedding.graph, embedding.words
            ):
                self.map_output(member, 1)

        def reduce_output(self, key, counts):
            return sum(counts)

        def termination_filter(self, embedding):
            return not dag_extendable(
                self.plan, embedding.graph, embedding.words
            )

    run = run_computation(
        graph,
        LeafCounter(dag),
        ArabesqueConfig(plan=dag, collect_outputs=False, storage="list"),
    )
    return {
        member: count
        for member, count in run.output_aggregates.items()
        if isinstance(member, int)
    }


# ---------------------------------------------------------------------------
# Hybrid fallback regression (the citeseer-triangle fix, pinned)
# ---------------------------------------------------------------------------
class TestHybridFallback:
    def test_threshold_boundary(self):
        assert prefers_row_iteration(0)
        assert prefers_row_iteration(SMALL_POOL_DEGREE)
        assert not prefers_row_iteration(SMALL_POOL_DEGREE + 1)
        assert not prefers_row_iteration(10 * SMALL_POOL_DEGREE)

    def _plan_states(self, plan, graph):
        states = []
        stack = [()]
        while stack:
            words = stack.pop()
            states.append(words)
            _, survivors = guided_survivors(plan, graph, words)
            for word in survivors:
                child = words + (word,)
                if len(child) < plan.num_steps:
                    stack.append(child)
        return states

    def test_citeseer_triangle_sparse_pools_take_the_row_path(self):
        # THE regression case: citeseer is sparse (avg degree ~2.8), so
        # triangle anchors are low-degree and universe-width mask algebra
        # used to lose to the legacy kernel (0.75x floor).  The hybrid
        # must route these tiny pools through row iteration.
        graph = strip_labels(citeseer_like(scale=0.1))
        plan = compile_plan(NAMED_SHAPES["triangle"].canonical(), induced=True)
        states = [s for s in self._plan_states(plan, graph) if s]
        assert states
        anchored = [
            min(
                (words[earlier] for earlier, _ in plan.steps[len(words)].back_edges),
                key=lambda v: (graph.degree(v), v),
            )
            for words in states
        ]
        decisions = [
            prefers_row_iteration(graph.degree(anchor)) for anchor in anchored
        ]
        # Scale-free: a few hub anchors legitimately go dense, but the
        # overwhelming majority of pools must take the row path — that is
        # what erased the 0.75x wall-clock floor.
        assert sum(decisions) >= 0.8 * len(decisions), (
            f"only {sum(decisions)}/{len(decisions)} citeseer triangle "
            "pools took the row path; the sparse fallback regressed"
        )
        # Identical streams regardless of path (the hybrid is wall-clock
        # only, spot-checked over the whole tree).
        for words in states:
            adaptive = guided_survivors(plan, graph, words)
            assert adaptive == guided_survivors(plan, graph, words, "rows")
            assert adaptive == guided_survivors(plan, graph, words, "masks")

    def test_dense_pools_take_the_mask_path(self):
        graph = strip_labels(mico_like(scale=0.002))
        plan = compile_plan(NAMED_SHAPES["triangle"].canonical(), induced=True)
        states = [s for s in self._plan_states(plan, graph) if s]
        dense = 0
        for words in states[:400]:
            step = plan.steps[len(words)]
            anchor = min(
                (words[earlier] for earlier, _ in step.back_edges),
                key=lambda v: (graph.degree(v), v),
            )
            if not prefers_row_iteration(graph.degree(anchor)):
                dense += 1
            adaptive = guided_survivors(plan, graph, words)
            assert adaptive == guided_survivors(plan, graph, words, "rows")
            assert adaptive == guided_survivors(plan, graph, words, "masks")
        assert dense, "dense mico pools must exercise the mask path"

    def test_dag_stepper_hybrid_paths_agree_on_both_regimes(self):
        sparse = strip_labels(citeseer_like(scale=0.08))
        dense = strip_labels(mico_like(scale=0.0015))
        dag = build_plan_dag(shapes("wedge", "triangle", "square"), induced=True)
        for graph in (sparse, dense):
            replay_tree(dag, graph, max_states=1500)

    def test_dag_estimate_sums_per_node_anchor_degrees(self):
        # Two live nodes with distinct anchors: the DAG decision reads
        # the SUM of their anchor degrees, so a batch can go dense even
        # when each node alone would not.  Pin by construction: a hub
        # graph where the hub degree is just over half the threshold.
        hub_edges = [(0, i) for i in range(1, SMALL_POOL_DEGREE + 2)]
        graph = strip_labels(
            gnm_random_graph(SMALL_POOL_DEGREE + 2, 1, seed=1)
        )
        # build explicitly instead: star graph
        from repro.graph import LabeledGraph

        graph = strip_labels(
            LabeledGraph(
                [0] * (SMALL_POOL_DEGREE + 2), sorted(hub_edges), name="star"
            )
        )
        dag = build_plan_dag(shapes("wedge", "triangle"), induced=True)
        stepper = DagStepper(dag, graph)
        # From the hub, the wedge/triangle second-step nodes both anchor
        # on vertex 0 (degree SMALL_POOL_DEGREE+1): a single node is
        # already past the threshold; the replay just has to agree.
        replay_tree(dag, graph)


# ---------------------------------------------------------------------------
# Mask-bundle invariants
# ---------------------------------------------------------------------------
def root_pools(dag, graph) -> list[int]:
    """The step-0 pool bitsets of ``dag``'s root nodes on ``graph``."""
    return [pool for pool in mask_bundle(dag, graph).root_pools if pool is not None]


class TestMaskBundle:
    def test_bundle_tracks_graph_identity(self):
        # The same DAG on two graphs of different sizes: each bundle is
        # built for the graph it is asked for, whichever came first.
        g1 = strip_labels(gnm_random_graph(20, 50, seed=3))
        g2 = strip_labels(gnm_random_graph(30, 50, seed=4))
        dag = build_plan_dag(shapes("wedge", "triangle"), induced=True)
        b1 = mask_bundle(dag, g1)
        b2 = mask_bundle(dag, g2)
        assert b1.graph is g1 and b2.graph is g2
        assert root_pools(dag, g2) == [(1 << 30) - 1]
        assert root_pools(dag, g1) == [(1 << 20) - 1]
        assert DagStepper(dag, g1).bundle.graph is g1
        assert DagStepper(dag, g1).zero_pool() == tuple(range(20))

    def test_restricted_dag_root_pools_exclude_vertices_outside_domain(self):
        graph = citeseer_like(scale=0.08)
        base = fsm_style_dag(graph)
        domain = degree_domain(graph, min_degree=3)
        tighter = restrict_dag(
            base,
            {
                plan.pattern: {
                    v: domain for v in range(plan.pattern.num_vertices)
                }
                for plan in base.plans
            },
        )
        outside = ~to_bitset(domain)
        # The base DAG's (degree >= 2) roots do reach outside the tighter
        # domain, so the check below can fail.
        assert any(pool & outside for pool in root_pools(base, graph))
        assert not any(pool & outside for pool in root_pools(tighter, graph))
        assert set(DagStepper(tighter, graph).zero_pool()) <= domain


# ---------------------------------------------------------------------------
# Hypothesis properties: random graphs x random pattern batches
# ---------------------------------------------------------------------------
class TestKernelProperties:
    @given(data=st.data())
    @settings(max_examples=12, deadline=None)
    def test_fused_dag_counts_equal_per_pattern_and_exhaustive(self, data):
        seed = data.draw(st.integers(0, 2**20), label="seed")
        n = data.draw(st.integers(8, 16), label="vertices")
        m = data.draw(st.integers(n, 3 * n), label="edges")
        num_labels = data.draw(st.integers(1, 3), label="labels")
        graph = assign_labels(
            gnm_random_graph(n, m, seed=seed), num_labels, seed=seed
        )
        if num_labels == 1:
            graph = strip_labels(graph)
        candidates = enumerate_motif_patterns(graph, 3, min_size=2)
        if not candidates:
            return
        size = data.draw(
            st.integers(1, min(4, len(candidates))), label="batch size"
        )
        batch = tuple(
            sorted(
                data.draw(
                    st.permutations(list(candidates)), label="batch order"
                )[:size],
                key=lambda p: (p.vertex_labels, p.edges),
            )
        )
        dag = build_plan_dag(batch, induced=True)
        replay_tree(dag, graph)
        counts = _engine_leaf_counts(graph, dag)
        miner = Miner(graph)
        for member, pattern in enumerate(batch):
            guided_count = miner.match(pattern, induced=True).count()
            exhaustive = run_computation(
                graph,
                GraphMatching(pattern, induced=True),
                ArabesqueConfig(collect_outputs=False),
            ).num_outputs
            assert counts.get(member, 0) == guided_count == exhaustive

    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_restricted_dag_root_pools_stay_inside_whitelist(self, data):
        seed = data.draw(st.integers(0, 2**20), label="seed")
        n = data.draw(st.integers(8, 14), label="vertices")
        m = data.draw(st.integers(n, 3 * n), label="edges")
        graph = assign_labels(
            gnm_random_graph(n, m, seed=seed),
            data.draw(st.integers(1, 3), label="labels"),
            seed=seed,
        )
        batch = enumerate_motif_patterns(graph, 3, min_size=2)[:3]
        if not batch:
            return
        dag = build_plan_dag(batch, induced=True)
        whitelist = data.draw(
            st.sets(st.integers(0, n - 1), min_size=1), label="whitelist"
        )
        restricted = restrict_dag(
            dag,
            {
                pattern: {
                    v: frozenset(whitelist)
                    for v in range(pattern.num_vertices)
                }
                for pattern in batch
            },
        )
        outside = ~to_bitset(whitelist)
        assert not any(pool & outside for pool in root_pools(restricted, graph))
        replay_tree(restricted, graph, max_states=600)


# ---------------------------------------------------------------------------
# restrict_plan / restrict_dag composition (the overwrite-bug fix)
# ---------------------------------------------------------------------------
class TestRestrictComposition:
    def _triangle_plan(self):
        return compile_plan(NAMED_SHAPES["triangle"].canonical(), induced=True)

    def test_restrict_plan_composes_by_intersection(self):
        plan = self._triangle_plan()
        first = restrict_plan(plan, {v: {0, 1, 2, 3} for v in plan.order})
        second = restrict_plan(first, {v: {2, 3, 4, 5} for v in plan.order})
        combined = to_bitset({2, 3})
        for step in second.steps:
            assert step.allowed == combined
        # ... and equals restricting once with the intersection.
        direct = restrict_plan(plan, {v: {2, 3} for v in plan.order})
        assert second.steps == direct.steps

    def test_restrict_plan_is_idempotent(self):
        plan = self._triangle_plan()
        overlay = {v: {1, 2, 5} for v in plan.order}
        once = restrict_plan(plan, overlay)
        twice = restrict_plan(once, overlay)
        assert once.steps == twice.steps

    def test_restrict_plan_absent_vertices_keep_existing_whitelists(self):
        plan = self._triangle_plan()
        first = restrict_plan(plan, {v: {0, 1, 2} for v in plan.order})
        # Re-restricting only ONE pattern vertex must not wipe the
        # whitelists of the others (the old behavior silently replaced
        # only what the overlay named — but a second overlay on a named
        # vertex overwrote instead of intersecting).
        target = plan.order[0]
        second = restrict_plan(first, {target: {1, 2, 9}})
        for step in second.steps:
            if step.pattern_vertex == target:
                assert step.allowed == to_bitset({1, 2})
            else:
                assert step.allowed == to_bitset({0, 1, 2})

    def test_restrict_plan_accepts_bitset_overlays(self):
        plan = self._triangle_plan()
        once = restrict_plan(plan, {v: to_bitset({1, 4}) for v in plan.order})
        again = restrict_plan(once, {v: to_bitset({4, 7}) for v in plan.order})
        for step in again.steps:
            assert step.allowed == to_bitset({4})

    def test_restrict_dag_composes_and_recomputes_node_unions(self):
        batch = shapes("wedge", "triangle")
        dag = build_plan_dag(batch, induced=True)
        overlay_a = {
            pattern: {v: {0, 1, 2, 3} for v in range(pattern.num_vertices)}
            for pattern in batch
        }
        overlay_b = {
            pattern: {v: {2, 3, 4} for v in range(pattern.num_vertices)}
            for pattern in batch
        }
        composed = restrict_dag(restrict_dag(dag, overlay_a), overlay_b)
        direct = restrict_dag(
            dag,
            {
                pattern: {v: {2, 3} for v in range(pattern.num_vertices)}
                for pattern in batch
            },
        )
        assert composed.plans == direct.plans
        assert composed.nodes == direct.nodes

    def test_restrict_dag_is_idempotent(self):
        batch = shapes("wedge", "triangle")
        dag = build_plan_dag(batch, induced=True)
        overlay = {
            pattern: {v: {0, 2, 4, 6} for v in range(pattern.num_vertices)}
            for pattern in batch
        }
        once = restrict_dag(dag, overlay)
        twice = restrict_dag(once, overlay)
        assert once.plans == twice.plans and once.nodes == twice.nodes

    def test_composed_restriction_end_to_end_counts(self):
        # Behavior, not just structure: running the twice-restricted DAG
        # counts exactly what the once-with-intersection DAG counts.
        graph = strip_labels(gnm_random_graph(20, 55, seed=12))
        batch = shapes("wedge", "triangle")
        dag = build_plan_dag(batch, induced=True)
        big = frozenset(range(0, 16))
        small = frozenset(range(8, 20))
        composed = restrict_dag(
            restrict_dag(
                dag,
                {
                    p: {v: big for v in range(p.num_vertices)}
                    for p in batch
                },
            ),
            {p: {v: small for v in range(p.num_vertices)} for p in batch},
        )
        direct = restrict_dag(
            dag,
            {
                p: {v: big & small for v in range(p.num_vertices)}
                for p in batch
            },
        )
        assert _engine_leaf_counts(graph, composed) == _engine_leaf_counts(
            graph, direct
        )
        replay_tree(composed, graph)
