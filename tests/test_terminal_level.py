"""Differential tests for terminal-level mask aggregation.

On a plan's last level the guided runtime hands the fused kernel's
per-member survivor masks to ``Computation.process_terminal`` instead of
materialising one child embedding per set bit.  The reference for every
test here is the *same computation with the hook stripped* (a subclass
with ``process_terminal = None``), which takes the per-child loop: the two
must agree on ``canonical_signature``, output order, every ``StepStats``
field except ``batched_embeddings``, work units, metered messages, domain
hits and all aggregates — and ``batched_embeddings`` must show the fast
path really engaged instead of silently falling back.  That equality across
backend × workers × storage is a twin row of every hooked workload in
tests/test_equivalence_matrix.py; this module holds the dataset families,
edge cases, interrupts and resume.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import CliqueFinding, MaximalCliqueFinding, MotifCounting, fsm as fsm_app
from repro.apps.fsm import DagPatternDomains, run_guided_fsm
from repro.apps.matching import GuidedMatching
from repro.apps.motifs import DagMotifCounting, enumerate_motif_patterns
from repro.checkpoint import resume_run
from repro.core import (
    ArabesqueConfig,
    BudgetExceeded,
    CancelFlag,
    ComputationContext,
    RunCancelled,
    make_embedding,
    run_computation,
)
from repro.core.budget import DEADLINE_CHECK_INTERVAL
from repro.datasets import (
    citeseer_like,
    instagram_like,
    mico_like,
    patents_like,
    sn_like,
    youtube_like,
)
from repro.graph import (
    LabeledGraph,
    assign_labels,
    gnm_random_graph,
    graph_from_edges,
    star_graph,
    strip_labels,
)
from repro.graph.bitset import from_bitset, to_bitset
from repro.plan import (
    NAMED_SHAPES,
    build_plan_dag,
    compile_plan,
    make_stepper,
    restrict_dag,
)
from repro.plan.dag import DagStepper
from repro.plan.fsm_guide import single_edge_candidates
from repro.plan.guided import SMALL_POOL_DEGREE, PlanStepper, guided_survivors
from repro.plan.planner import restrict_plan
from repro.runtime.tasks import _extension_filter, _terminal_hook

from faults import run_to_crash
from reference import dag_survivors, guided_extension_check, phase_totals


# Module-level so the process backend and snapshots can pickle them.
class PerChildMotifs(DagMotifCounting):
    process_terminal = None


class PerChildMatching(GuidedMatching):
    process_terminal = None


class PerChildDagDomains(DagPatternDomains):
    process_terminal = None


def assert_same_run(batched, per_child, expect_batched=True):
    """The whole observable record, minus the one counter that differs."""
    assert batched.canonical_signature() == per_child.canonical_signature()
    assert batched.outputs == per_child.outputs  # emission order included
    assert batched.num_outputs == per_child.num_outputs
    assert batched.output_aggregates == per_child.output_aggregates
    assert batched.final_aggregates == per_child.final_aggregates
    assert len(batched.steps) == len(per_child.steps)
    for ours, theirs in zip(batched.steps, per_child.steps):
        # Work units and metered wire are record fields too.
        assert dataclasses.replace(ours, batched_embeddings=0) == theirs
        assert ours.batched_embeddings <= ours.processed_embeddings
    assert per_child.total_batched == 0
    if expect_batched:
        assert batched.total_batched > 0, "terminal hook never engaged"


def config_for(**overrides):
    overrides.setdefault("storage", "list")
    return ArabesqueConfig(**overrides)


def run_pair(graph, plan, batched_cls, per_child_cls, **overrides):
    config = config_for(**overrides)
    return (
        run_computation(graph, batched_cls(plan), config),
        run_computation(graph, per_child_cls(plan), config),
    )


def motif_pair(graph, max_size=3, min_size=3, **overrides):
    dag = build_plan_dag(
        enumerate_motif_patterns(graph, max_size, min_size=min_size), induced=True
    )
    overrides.setdefault("collect_outputs", False)
    return run_pair(graph, dag, DagMotifCounting, PerChildMotifs, **overrides)


def match_pair(graph, shape="wedge", induced=True, **overrides):
    plan = compile_plan(NAMED_SHAPES[shape].canonical(), induced=induced)
    return run_pair(graph, plan, GuidedMatching, PerChildMatching, **overrides)


def fsm_pair(graph, monkeypatch, support=2, max_edges=3, **overrides):
    config = ArabesqueConfig(storage=overrides.pop("storage", "list"), **overrides)
    batched = run_guided_fsm(graph, support, max_edges, config=config)
    with monkeypatch.context() as patch:
        patch.setattr(fsm_app, "DagPatternDomains", PerChildDagDomains)
        per_child = run_guided_fsm(graph, support, max_edges, config=config)
    assert batched.frequent == per_child.frequent
    return batched.combined, per_child.combined


def _bounded_labels(graph, max_labels=3):
    if len(set(graph.vertex_labels)) <= max_labels:
        return graph
    return assign_labels(graph, max_labels, seed=0)


#: The six bundled dataset families at the kernel-equivalence scales,
#: each with an FSM ``(support, max_edges)`` that keeps the level runs small.
BUNDLED = [
    ("citeseer", lambda: citeseer_like(scale=0.06), (4, 3)),
    ("mico", lambda: _bounded_labels(mico_like(scale=0.0015)), (37, 2)),
    ("patents", lambda: _bounded_labels(patents_like(scale=0.00005)), (34, 2)),
    ("youtube", lambda: _bounded_labels(youtube_like(scale=0.00003)), (34, 2)),
    ("sn", lambda: sn_like(scale=0.00002), (25, 2)),
    ("instagram", lambda: instagram_like(scale=0.0000008), (35, 2)),
]
FAMILIES = pytest.mark.parametrize(
    "name,factory,fsm_knobs", BUNDLED, ids=[name for name, _, _ in BUNDLED]
)


def small_labeled(seed=3, vertices=40, edges=110, labels=2):
    return assign_labels(gnm_random_graph(vertices, edges, seed=seed), labels, seed=seed)


# ---------------------------------------------------------------------------
# Dataset families × workloads
# ---------------------------------------------------------------------------
class TestFamilies:
    @FAMILIES
    def test_motifs(self, name, factory, fsm_knobs):
        assert_same_run(*motif_pair(factory()))

    @FAMILIES
    def test_match_collecting_and_counting(self, name, factory, fsm_knobs):
        graph = strip_labels(factory())
        for shape in ("wedge", "triangle"):
            for collect in (True, False):
                assert_same_run(
                    *match_pair(graph, shape, collect_outputs=collect)
                )

    @FAMILIES
    def test_fsm(self, name, factory, fsm_knobs, monkeypatch):
        support, max_edges = fsm_knobs
        assert_same_run(
            *fsm_pair(factory(), monkeypatch, support=support, max_edges=max_edges)
        )


# ---------------------------------------------------------------------------
# Output collection: decode-on-read, order, and output_limit cuts
# ---------------------------------------------------------------------------
class Interleaving(GuidedMatching):
    """Brackets every batch with two plain ``output`` calls."""

    def process_terminal(self, words, member_masks):
        self.output(("before", words))
        super().process_terminal(words, member_masks)
        self.output(("after", len(words)))


def expected_outputs(graph, plan, computation_cls):
    """What a serial one-worker run emits, call by call, decoded here:
    ``(batch sizes, values)``."""
    sizes, values = [], []

    class Expecting(computation_cls):
        def output(self, value):
            values.append(value)
            super().output(value)

        def output_batch(self, words, mask):
            sizes.append(mask.bit_count())
            values.extend(tuple(sorted(words + (w,))) for w in from_bitset(mask))
            super().output_batch(words, mask)

    full = run_computation(graph, Expecting(plan), config_for())
    assert full.outputs == values and full.num_outputs == len(values)
    return sizes, values


class TestOutputs:
    def test_limit_cuts_inside_at_and_before_a_batch(self):
        """``output_limit`` inside a batch, on a batch boundary and at 0,
        at 1-3 workers on every backend: the hooked run equals the
        per-child loop, and at one worker it is the full emission's
        prefix."""
        graph = strip_labels(small_labeled(seed=8, vertices=16, edges=40))
        plan = compile_plan(NAMED_SHAPES["wedge"].canonical())
        sizes, values = expected_outputs(graph, plan, GuidedMatching)
        boundaries = [sum(sizes[: i + 1]) for i in range(len(sizes))]
        inside = next(b - 1 for b, n in zip(boundaries, sizes) if n > 1)
        limits = (0, 1, inside, boundaries[3], len(values) - 1, len(values) + 5)
        assert inside not in boundaries and boundaries[3] in boundaries
        for backend in ("serial", "thread", "process"):
            for workers in (1, 2, 3):
                for limit in limits:
                    batched, per_child = match_pair(
                        graph, "wedge", output_limit=limit,
                        num_workers=workers, backend=backend,
                    )
                    assert_same_run(batched, per_child)
                    assert len(batched.outputs) == min(limit, len(values))
                    assert batched.num_outputs == len(values)
                    if workers == 1:
                        assert batched.outputs == values[:limit]

    def test_interleaved_output_and_output_batch_keep_emission_order(self):
        graph = strip_labels(small_labeled(seed=8, vertices=16, edges=40))
        plan = compile_plan(NAMED_SHAPES["wedge"].canonical())
        sizes, values = expected_outputs(graph, plan, Interleaving)
        assert len(values) == sum(sizes) + 2 * len(sizes)
        for limit in (None, 1, 2, 3, len(values) // 2):
            config = config_for(output_limit=limit)
            run = run_computation(graph, Interleaving(plan), config)
            assert run.outputs == values[:limit]
            assert run.num_outputs == len(values)
        for workers in (2, 3):
            runs = [
                run_computation(graph, Interleaving(plan), config_for(
                    num_workers=workers, backend=backend, output_limit=limit
                ))
                for backend in ("serial", "thread", "process")
                for limit in (None, len(values) // 2)
            ]
            full, cut = runs[0].outputs, runs[1].outputs
            assert sorted(full, key=repr) == sorted(values, key=repr)
            assert cut == full[: len(values) // 2]
            assert [run.outputs for run in runs] == [full, cut] * 3

    def test_count_only_reads_leave_the_log_undecoded(self, monkeypatch):
        """``num_matches``/``num_outputs`` are exact from the log alone;
        the first ``outputs`` read decodes once, the second reuses it."""
        from repro.core import results
        from repro.session import Miner

        decoded = []
        real = results.decode_output_log
        monkeypatch.setattr(
            results, "decode_output_log", lambda log: decoded.append(log) or real(log)
        )
        graph = strip_labels(small_labeled())
        view = Miner(graph).match("square").unlabeled().run()
        raw = view.raw
        assert view.num_matches == view.num_outputs == raw.num_outputs > 0
        assert raw.total_batched == raw.num_outputs
        assert decoded == [] and raw.output_log
        assert sum(take for _, _, take in raw.output_log) == raw.num_outputs
        outputs = view.outputs
        assert len(decoded) == 1 and raw.output_log is None
        assert len(outputs) == raw.num_outputs
        assert view.outputs is outputs and raw.outputs is outputs
        assert view.vertex_sets() == sorted(outputs) and len(decoded) == 1

    def test_concurrent_first_reads_decode_once(self, monkeypatch):
        import threading
        import time

        from repro.core import results

        decoded = []
        real = results.decode_output_log

        def slow_decode(log):
            decoded.append(log)
            time.sleep(0.05)
            return real(log)

        monkeypatch.setattr(results, "decode_output_log", slow_decode)
        graph = strip_labels(small_labeled())
        plan = compile_plan(NAMED_SHAPES["wedge"].canonical())
        run = run_computation(graph, GuidedMatching(plan), config_for())
        start, seen = threading.Barrier(4), []

        def read():
            start.wait()
            seen.append(run.outputs)

        readers = [threading.Thread(target=read) for _ in range(4)]
        for reader in readers:
            reader.start()
        for reader in readers:
            reader.join()
        assert len(decoded) == 1 and len(seen) == 4
        assert all(outputs is seen[0] for outputs in seen)
        assert len(seen[0]) == run.num_outputs

    def test_not_collecting_logs_nothing(self):
        graph = strip_labels(small_labeled())
        batched, per_child = match_pair(graph, "wedge", collect_outputs=False)
        assert_same_run(batched, per_child)
        assert batched.outputs == [] and batched.num_outputs > 0


# ---------------------------------------------------------------------------
# Edge cases of the kernel and the dispatch
# ---------------------------------------------------------------------------
class TestMixedDepth:
    def test_motifs_3_to_4(self):
        batched, per_child = motif_pair(small_labeled(edges=80), 4, min_size=3)
        assert_same_run(batched, per_child)
        # The level mixing finishing 3-motifs with continuing 4-motif
        # prefixes stays per-child; the last level is wholly batched.
        assert batched.steps[2].batched_embeddings == 0
        last = batched.steps[3]
        assert last.batched_embeddings == last.processed_embeddings > 0

    def test_fsm_level_with_3_and_4_vertex_candidates(self, monkeypatch):
        graph = strip_labels(gnm_random_graph(18, 60, seed=4))
        batched, per_child = fsm_pair(graph, monkeypatch, support=3, max_edges=3)
        assert_same_run(batched, per_child)
        three_edge = {
            p.num_vertices for p in batched.final_aggregates if p.num_edges == 3
        }
        assert three_edge == {3, 4}


class TestMixedEdgeLabels:
    @pytest.mark.parametrize("edges", [60, 420], ids=["rows", "masks"])
    def test_dag_and_plan(self, edges):
        base = gnm_random_graph(40, edges, seed=6)
        pairs = [base.edge_endpoints(e) for e in base.edges()]
        graph = LabeledGraph(
            [v % 2 for v in range(40)], pairs, [e % 2 for e in range(len(pairs))]
        )
        assert graph.uniform_edge_label is None
        batched, per_child = motif_pair(graph)
        assert_same_run(batched, per_child)
        counts = batched.output_aggregates
        plan = compile_plan(max(counts, key=counts.get))
        assert_same_run(
            *run_pair(graph, plan, GuidedMatching, PerChildMatching)
        )


class TestWhitelists:
    def _restricted(self, graph, empty_for=None):
        batch = tuple(single_edge_candidates(graph))[:3]
        dag = build_plan_dag(batch, induced=False)
        domain = frozenset(v for v in graph.vertices() if graph.degree(v) >= 2)
        allowed = {
            p: {v: domain for v in range(p.num_vertices)} for p in batch
        }
        if empty_for is not None:
            allowed[batch[empty_for]] = {1: frozenset()}
        return restrict_dag(dag, allowed)

    def test_restrict_dag(self):
        graph = small_labeled()
        dag = self._restricted(graph)
        assert_same_run(
            *run_pair(graph, dag, DagPatternDomains, PerChildDagDomains,
                      collect_outputs=False)
        )

    def test_empty_whitelist_blocks_one_member_only(self):
        graph = small_labeled()
        dag = self._restricted(graph, empty_for=0)
        batched, per_child = run_pair(
            graph, dag, DagPatternDomains, PerChildDagDomains,
            collect_outputs=False,
        )
        assert_same_run(batched, per_child)
        assert dag.plans[0].pattern not in batched.final_aggregates
        assert dag.plans[1].pattern in batched.final_aggregates

    def test_restrict_plan(self):
        # A whitelisted single plan (GuidedMatching is the single-plan
        # hook) and the same whitelists on a one-member DAG (domains).
        graph = strip_labels(small_labeled())
        wedge = NAMED_SHAPES["wedge"].canonical()
        domain = frozenset(range(0, graph.num_vertices, 2))
        dag = build_plan_dag((wedge,), induced=False)
        for whitelist in (domain, frozenset()):
            allowed = {0: whitelist, 2: domain}
            plan = restrict_plan(compile_plan(wedge, induced=False), allowed)
            assert_same_run(
                *run_pair(graph, plan, GuidedMatching, PerChildMatching),
                expect_batched=bool(whitelist),
            )
            assert_same_run(
                *run_pair(graph, restrict_dag(dag, {wedge: allowed}),
                          DagPatternDomains, PerChildDagDomains,
                          collect_outputs=False),
                expect_batched=bool(whitelist),
            )


class TestPoolDegreeBoundary:
    @pytest.mark.parametrize(
        "leaves", [SMALL_POOL_DEGREE, SMALL_POOL_DEGREE + 1], ids=["rows", "masks"]
    )
    def test_star_hub_on_either_side(self, leaves):
        star = star_graph(leaves)
        hub = max(star.vertices(), key=star.degree)
        assert star.degree(hub) == leaves
        assert_same_run(*motif_pair(star))
        assert_same_run(*match_pair(star, "wedge"))

    def test_member_masks_equal_each_members_plan_check(self):
        graph = small_labeled(edges=200)
        dag = build_plan_dag(enumerate_motif_patterns(graph, 3), induced=True)
        stepper = DagStepper(dag, graph)
        frontier, states = [()], 0
        while frontier:
            words = frontier.pop()
            num_candidates, num_accepted, found, finished = stepper.advance(
                words, True
            )
            finishes = finished is not None
            assert finishes == (len(words) == 2)
            if finishes:
                # Bit ``w`` of a member's mask: its own plan accepts the child.
                assert finished == num_accepted
                assert found == [
                    (p, mask) for p in dag_survivors(dag, graph, words)
                    if (mask := to_bitset(
                        w for w in graph.vertices()
                        if guided_extension_check(dag.plans[p], graph, words, w)
                    ))
                ]
                union = 0
                for _, mask in found:
                    union |= mask
                assert num_accepted == union.bit_count()
                survivors = from_bitset(union)
            else:
                survivors = found
                assert num_accepted == len(survivors)
                frontier.extend(words + (w,) for w in survivors[:6])
            assert stepper.step(words) == (num_candidates, survivors)
            states += 1
        assert states > 20

    def test_single_plan_mask_equals_survivors(self):
        graph = strip_labels(small_labeled(edges=200))
        plan = compile_plan(NAMED_SHAPES["square"].canonical())
        stepper = PlanStepper(plan, graph)
        for u in list(graph.vertices())[:10]:
            for v in graph.neighbors(u)[:4]:
                for words in [(u, v)] + [(u, v, w) for w in graph.neighbors(v)[:3]]:
                    expected = guided_survivors(plan, graph, words)
                    survivors = len(expected[1])
                    assert stepper.advance(words, False) == (
                        expected[0], survivors, expected[1], None
                    )
                    count, accepted, found, terminal = stepper.advance(words, True)
                    assert terminal == (survivors if len(words) == 3 else None)
                    assert (count, accepted) == (expected[0], survivors)
                    if terminal is not None:
                        bits = sum(1 << w for w in expected[1])
                        assert found == ([(0, bits)] if bits else [])
                    else:
                        assert found == expected[1]


class TestEngineKnobs:
    def test_two_level_aggregation_off(self, monkeypatch):
        graph = small_labeled()
        assert_same_run(*motif_pair(graph, two_level_aggregation=False))
        assert_same_run(
            *fsm_pair(graph, monkeypatch, two_level_aggregation=False)
        )

    def test_profile_phases_charges_the_same_keys(self):
        batched, per_child = motif_pair(small_labeled(), profile_phases=True)
        assert_same_run(batched, per_child)
        assert phase_totals(batched).keys() == phase_totals(per_child).keys()
        for ours, theirs in zip(
            batched.steps, per_child.steps
        ):
            assert ours.phase_seconds.keys() == theirs.phase_seconds.keys()
        assert {"G", "P"} <= batched.steps[-1].phase_seconds.keys()

    def test_overridden_filter_or_process_falls_back(self):
        graph = strip_labels(small_labeled())
        plan = compile_plan(NAMED_SHAPES["wedge"].canonical())

        class Filtering(GuidedMatching):
            def filter(self, embedding):
                return embedding.words[-1] % 2 == 0

        class Refined(GuidedMatching):
            def process(self, embedding):
                super().process(embedding)

        for cls in (Filtering, Refined):
            run = run_computation(graph, cls(plan), config_for())
            assert run.total_batched == 0 and run.num_outputs > 0


# ---------------------------------------------------------------------------
# Interrupts and durability across a batched last step
# ---------------------------------------------------------------------------
class CancelAfterFirstBatch(DagMotifCounting):
    """Trips the run's own cancel flag from inside the terminal hook."""

    def __init__(self, dag, flag):
        super().__init__(dag)
        self.flag = flag
        self.calls = []

    def process_terminal(self, words, member_masks):
        super().process_terminal(words, member_masks)
        self.calls.append(words)
        self.flag.set()


class TestInterrupts:
    def test_embedding_budget_trips_identically(self):
        graph = small_labeled()
        full, _ = motif_pair(graph)
        before_last = sum(s.processed_embeddings for s in full.steps[:-1])
        trips = []
        for cls in (DagMotifCounting, PerChildMotifs):
            dag = build_plan_dag(enumerate_motif_patterns(graph, 3), induced=True)
            with pytest.raises(BudgetExceeded) as info:
                run_computation(
                    graph, cls(dag),
                    config_for(max_embeddings=before_last - 1),
                )
            trips.append((info.value.kind, info.value.limit, info.value.spent))
        assert trips[0] == trips[1]
        # The batched last step empties set F, so a budget the earlier
        # steps respect lets the run finish on either path.
        assert_same_run(*motif_pair(graph, max_embeddings=before_last))

    def test_expired_deadline_stops_both_paths(self):
        graph = small_labeled()
        for cls in (DagMotifCounting, PerChildMotifs):
            dag = build_plan_dag(enumerate_motif_patterns(graph, 3), induced=True)
            with pytest.raises(BudgetExceeded):
                run_computation(
                    graph, cls(dag), config_for(deadline_seconds=1e-9)
                )

    def test_cancel_is_probed_per_parent_inside_the_batched_step(self):
        graph = strip_labels(gnm_random_graph(60, 700, seed=2))
        dag = build_plan_dag(enumerate_motif_patterns(graph, 3), induced=True)
        flag = CancelFlag()
        computation = CancelAfterFirstBatch(dag, flag)
        with pytest.raises(RunCancelled, match="mid-step"):
            run_computation(
                graph, computation,
                config_for(cancel=flag, collect_outputs=False),
            )
        # Tripped by the first hook call, noticed at the next per-parent
        # probe of the same step — not after the whole level ran.
        assert 1 <= len(computation.calls) <= DEADLINE_CHECK_INTERVAL

    def test_resume_across_the_batched_step(self, tmp_path):
        graph = small_labeled()
        dag = build_plan_dag(enumerate_motif_patterns(graph, 3), induced=True)
        uninterrupted, per_child = motif_pair(graph)
        for barrier in range(len(uninterrupted.steps) - 1):
            run_dir = tmp_path / f"crash-{barrier}"
            config = config_for(
                collect_outputs=False, checkpoint_dir=str(run_dir)
            )
            run_to_crash(graph, DagMotifCounting(dag), config, run_dir, barrier)
            resumed = resume_run(str(run_dir), graph)
            assert_same_run(resumed, per_child)
            assert resumed.total_batched == uninterrupted.total_batched


# ---------------------------------------------------------------------------
# Property: random graphs × random shape batches × random execution knobs
# ---------------------------------------------------------------------------
SHAPES = ["wedge", "triangle", "square", "diamond", "path3", "star3"]


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    vertices=st.integers(5, 14),
    density=st.floats(0.15, 0.7),
    labels=st.integers(1, 3),
    names=st.sets(st.sampled_from(SHAPES), min_size=1),
    induced=st.booleans(),
    workers=st.integers(1, 3),
    limit=st.one_of(st.none(), st.integers(1, 9)),
)
def test_hook_equals_per_child_loop(
    seed, vertices, density, labels, names, induced, workers, limit
):
    edges = max(vertices - 1, int(density * vertices * (vertices - 1) / 2))
    graph = gnm_random_graph(vertices, edges, seed=seed)
    labeled = assign_labels(graph, labels, seed=seed)
    batch = tuple(NAMED_SHAPES[name].canonical() for name in sorted(names))
    if induced:
        dag = build_plan_dag(batch, induced=True)
        assert_same_run(
            *run_pair(strip_labels(labeled), dag, DagMotifCounting,
                      PerChildMotifs, num_workers=workers, collect_outputs=False),
            expect_batched=False,
        )
    else:
        dag = build_plan_dag(batch, induced=False)
        assert_same_run(
            *run_pair(strip_labels(labeled), dag, DagPatternDomains,
                      PerChildDagDomains, num_workers=workers,
                      collect_outputs=False),
            expect_batched=False,
        )
    assert_same_run(
        *match_pair(strip_labels(labeled), sorted(names)[0], induced=induced,
                    num_workers=workers, output_limit=limit),
        expect_batched=False,
    )
    assert_same_run(*motif_pair(labeled, num_workers=workers), expect_batched=False)


# ---------------------------------------------------------------------------
# The exhaustive twin: a computation that names its last size
# ---------------------------------------------------------------------------
# An exhaustive run has no plan to say which level is the last; the
# computation does (``terminal_size``), and its ``process_terminal`` takes
# one bitmask — the canonical children φ kept — instead of member masks.
class PerChildExhaustiveMotifs(MotifCounting):
    process_terminal = None


class PerChildCliques(CliqueFinding):
    process_terminal = None


class RecordingContext(ComputationContext):
    """Keeps what a computation emits, in emission order."""

    def __init__(self):
        self.mapped = []
        self.outputs = []

    def map_output(self, key, value):
        self.mapped.append((key, value))

    def output(self, value):
        self.outputs.append(value)

    def output_batch(self, words, mask):
        self.outputs.extend(tuple(sorted(words + (w,))) for w in from_bitset(mask))

    def totals(self):
        """Per-key sums, keys in first-emission order."""
        sums = {}
        for key, value in self.mapped:
            sums[key] = sums.get(key, 0) + value
        return list(sums.items())


def multi_edge_label_graph():
    base = gnm_random_graph(14, 40, seed=5)
    edges = [base.edge_endpoints(eid) for eid in base.edges()]
    graph = graph_from_edges(
        edges,
        vertex_labels=[v % 2 for v in base.vertices()],
        edge_labels=[eid % 3 for eid in range(len(edges))],
    )
    assert graph.uniform_edge_label is None
    return graph


def last_level_states(graph, computation):
    """``(words, accepted mask, φ-kept mask)`` of every canonical embedding
    one word short of the computation's terminal size, by replay."""
    computation.init(graph, ArabesqueConfig())
    stepper = make_stepper(
        None, graph, "vertex", pool_filter=_extension_filter(computation),
        terminal_size=computation.terminal_size,
    )
    frontier = [(v,) for v in graph.vertices()]
    while frontier:
        words = frontier.pop()
        candidates, accepted, found, terminal = stepper.advance(words, True)
        if len(words) + 1 == computation.terminal_size:
            assert terminal == found.bit_count() and accepted >= terminal
            yield words, accepted, found
        else:
            assert terminal is None
            frontier.extend(words + (w,) for w in found)


TERMINAL_MOTIF_GRAPHS = [
    ("labeled", lambda: assign_labels(gnm_random_graph(16, 44, seed=2), 3, seed=2)),
    ("unlabeled", lambda: strip_labels(gnm_random_graph(16, 44, seed=2))),
    ("multi-edge-label", multi_edge_label_graph),
]


class TestExhaustiveHookEqualsPerChild:
    @pytest.mark.parametrize("min_size", [1, 2, 3])
    @pytest.mark.parametrize(
        "name,factory", TERMINAL_MOTIF_GRAPHS,
        ids=[name for name, _ in TERMINAL_MOTIF_GRAPHS],
    )
    def test_motifs_on_every_last_level_state(self, name, factory, min_size):
        graph = factory()
        computation = MotifCounting(3, min_size=min_size)
        states = classes = children = 0
        for words, _, mask in last_level_states(graph, computation):
            batched, per_child = RecordingContext(), RecordingContext()
            computation.bind_context(batched)
            computation.process_terminal(words, mask)
            computation.bind_context(per_child)
            parent = make_embedding(graph, "vertex", words)
            for word in from_bitset(mask):
                child = parent.extend(word)
                assert computation.filter(child)
                computation.process(child)
                assert computation.termination_filter(child)
            # Same quick patterns, same counts, first met in the same order.
            assert batched.totals() == per_child.totals()
            states += 1
            classes += len(batched.mapped)
            children += len(per_child.mapped)
        assert states > 20
        # One map per class of children, unless edge labels split siblings.
        assert (classes < children) == (graph.uniform_edge_label is not None)

    @pytest.mark.parametrize("min_size", [1, 3, 4])
    def test_cliques_on_every_last_level_state(self, min_size):
        graph = gnm_random_graph(18, 90, seed=4)
        computation = CliqueFinding(4, min_size=min_size)
        states = rejected = 0
        for words, accepted, mask in last_level_states(graph, computation):
            batched, per_child = RecordingContext(), RecordingContext()
            computation.bind_context(batched)
            computation.process_terminal(words, mask)
            computation.bind_context(per_child)
            parent = make_embedding(graph, "vertex", words)
            for word in from_bitset(mask):
                child = parent.extend(word)
                assert computation.filter(child)
                computation.process(child)
                assert computation.termination_filter(child)
            assert batched.outputs == per_child.outputs  # emission order too
            states += 1
            rejected += accepted - mask.bit_count()
        assert states > 20 and rejected > 0

    def test_counters_keep_their_meaning(self):
        """On the batched level ``canonical_candidates`` is still the mask
        Algorithm 2 accepted and ``processed_embeddings`` the part of it φ
        kept — all of which came from masks."""
        graph = gnm_random_graph(18, 90, seed=4)
        config = ArabesqueConfig(storage="odag", num_workers=2)
        batched = run_computation(graph, CliqueFinding(4), config)
        per_child = run_computation(graph, PerChildCliques(4), config)
        assert_same_run(batched, per_child)
        last = batched.steps[-1]
        assert last.batched_embeddings == last.processed_embeddings
        assert last.canonical_candidates > last.processed_embeddings > 0
        assert [s.batched_embeddings for s in batched.steps[:-1]] == [0, 0, 0]


class StrictMotifs(MotifCounting):
    def process(self, embedding):
        super().process(embedding)


class EagerMotifs(MotifCounting):
    def termination_filter(self, embedding):
        return embedding.num_vertices >= self.max_size


class TriangleFreeMotifs(MotifCounting):
    """Refines φ below both hooks: neither may answer for it."""

    def filter(self, embedding):
        return super().filter(embedding) and embedding.num_edges < 3


class TestExhaustiveHookGuard:
    def test_bundled_hooks_are_honoured(self):
        for computation in (MotifCounting(3), CliqueFinding(4)):
            assert _terminal_hook(computation, _extension_filter(computation))

    @pytest.mark.parametrize("klass", [StrictMotifs, EagerMotifs, TriangleFreeMotifs])
    def test_refining_subclasses_fall_back(self, klass):
        computation = klass(3)
        assert _terminal_hook(computation, _extension_filter(computation)) is None
        graph = small_labeled()
        run = run_computation(graph, klass(3), ArabesqueConfig(storage="odag"))
        assert run.total_batched == 0
        if klass is not TriangleFreeMotifs:
            plain = run_computation(
                graph, MotifCounting(3), ArabesqueConfig(storage="odag")
            )
            assert run.canonical_signature() == plain.canonical_signature()
            assert plain.total_batched > 0

    def test_maximal_cliques_decline_the_inherited_hook(self):
        # ``process`` is refined below CliqueFinding's ``process_terminal``:
        # a batched last level would emit cliques that are not maximal.
        computation = MaximalCliqueFinding(4, min_size=2)
        assert _terminal_hook(computation, _extension_filter(computation)) is None
        graph = gnm_random_graph(14, 50, seed=1)
        run = run_computation(graph, MaximalCliqueFinding(4, min_size=2))
        assert run.total_batched == 0
        assert all(len(clique) >= 2 for clique in run.outputs)

    def test_an_uncapped_clique_run_has_no_last_level(self):
        assert CliqueFinding().terminal_size is None
        graph = gnm_random_graph(14, 50, seed=1)
        assert run_computation(graph, CliqueFinding()).total_batched == 0

    def test_guided_hooks_resolve_as_before(self):
        """The trust rule's new clause needs a pool-level φ, which no
        plan-compatible computation is ever given."""
        graph = small_labeled()
        dag = build_plan_dag(enumerate_motif_patterns(graph, 3), induced=True)
        plan = compile_plan(NAMED_SHAPES["wedge"].canonical())
        for computation in (DagMotifCounting(dag), GuidedMatching(plan)):
            assert _extension_filter(computation) is None
            assert _terminal_hook(computation, None) == computation.process_terminal
            assert computation.terminal_size is None

        class Choosy(GuidedMatching):
            def filter(self, embedding):
                return True

        assert _terminal_hook(Choosy(plan), None) is None


class TestExhaustiveRunsAreIdenticalWithoutTheHook:
    def test_resume_across_the_batched_step(self, tmp_path):
        graph = small_labeled()
        for storage in ("odag", "adaptive"):
            config = ArabesqueConfig(storage=storage, num_workers=2)
            uninterrupted = run_computation(graph, MotifCounting(3), config)
            per_child = run_computation(graph, PerChildExhaustiveMotifs(3), config)
            assert_same_run(uninterrupted, per_child)
            for barrier in range(len(uninterrupted.steps) - 1):
                run_dir = tmp_path / f"crash-{storage}-{barrier}"
                crash_config = dataclasses.replace(
                    config, checkpoint_dir=str(run_dir)
                )
                run_to_crash(graph, MotifCounting(3), crash_config, run_dir, barrier)
                resumed = resume_run(str(run_dir), graph)
                assert_same_run(resumed, per_child)
                assert resumed.total_batched == uninterrupted.total_batched
