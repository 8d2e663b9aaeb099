"""The ``filter_extensions`` hook: φ over a whole extension pool.

A computation may answer its filter for every child of one stored
embedding at once, as a bitmask, so the exhaustive runtime decodes and
builds only the children φ keeps.  Three things pin the contract:

* the hook equals the per-child ``filter`` for every bundled computation
  that defines it, on every replayed state;
* it stands in for φ only while it is trustworthy — a subclass that
  refines ``filter`` silently gets the per-child loop back;
* a run is indistinguishable with the hook and with it taken away:
  counters, outputs and signature, across backend × workers × storage —
  the hook-stripped twin rows of tests/test_equivalence_matrix.py.
"""

import pytest

from repro.apps import CliqueFinding, MaximalCliqueFinding, MotifCounting
from repro.core import ArabesqueConfig, make_embedding, run_computation
from repro.core.extension import extension_mask, word_row
from repro.graph import gnm_random_graph
from repro.graph.bitset import from_bitset
from repro.plan import NAMED_SHAPES, compile_plan, make_stepper
from repro.runtime.tasks import _extension_filter

from test_equivalence_matrix import FrequentCliques

HOOKED = [
    ("cliques", lambda: CliqueFinding(4)),
    ("cliques-uncapped", lambda: CliqueFinding()),
    ("maximal-cliques", lambda: MaximalCliqueFinding(3)),
    ("frequent-cliques", lambda: FrequentCliques(2, max_size=3)),
    ("motifs", lambda: MotifCounting(3)),
]
IDS = [name for name, _ in HOOKED]


def dense_graph():
    return gnm_random_graph(24, 110, seed=11)


def bound(make, graph):
    computation = make()
    computation.init(graph, ArabesqueConfig())
    return computation


class TestHookEqualsPerChildFilter:
    @pytest.mark.parametrize("name,make", HOOKED, ids=IDS)
    def test_on_every_replayed_state(self, name, make):
        graph = dense_graph()
        computation = bound(make, graph)
        row = word_row(graph, "vertex")
        stack = [(v,) for v in graph.vertices()]
        kept_some = dropped_some = False
        while stack:
            words = stack.pop()
            # Beyond the canonical sub-mask the runtime passes: φ is a
            # function of the child alone, so the whole pool must agree.
            pool = extension_mask(row, words)
            per_child = tuple(
                w
                for w in from_bitset(pool)
                if computation.filter(make_embedding(graph, "vertex", words + (w,)))
            )
            assert from_bitset(computation.filter_extensions(words, pool)) == per_child
            kept_some |= bool(per_child)
            dropped_some |= len(per_child) < pool.bit_count()
            if len(words) < 4:
                stack.extend(words + (w,) for w in per_child[:2])
        assert kept_some and dropped_some, f"{name}: replay must see both outcomes"

    @pytest.mark.parametrize("name,make", HOOKED, ids=IDS)
    def test_stepper_drops_what_phi_rejects_but_counts_it(self, name, make):
        graph = dense_graph()
        computation = bound(make, graph)
        plain = make_stepper(None, graph, "vertex")
        hooked = make_stepper(
            None, graph, "vertex", pool_filter=_extension_filter(computation)
        )
        for words in [(0,), (0, 1), (2, 5, 7), (1, 3, 4, 9)]:
            num_candidates, num_accepted, accepted, _ = plain.advance(words, False)
            assert hooked.advance(words, False) == (
                num_candidates,
                num_accepted,
                tuple(
                    w
                    for w in accepted
                    if computation.filter(
                        make_embedding(graph, "vertex", words + (w,))
                    )
                ),
                None,
            )


class LooseCliques(CliqueFinding):
    """Refines φ below the class that wrote the hook: any connected
    embedding up to the size cap, not only cliques."""

    def filter(self, embedding):
        return embedding.num_vertices <= self.max_size


class RehookedCliques(LooseCliques):
    def filter_extensions(self, words, mask):
        return mask if len(words) < self.max_size else 0


class TestHookGuard:
    @pytest.mark.parametrize("name,make", HOOKED, ids=IDS)
    def test_bundled_hooks_are_honoured(self, name, make):
        assert _extension_filter(make()) is not None

    def test_overriding_filter_disables_an_inherited_hook(self):
        assert _extension_filter(LooseCliques(3)) is None
        graph = dense_graph()
        loose = run_computation(graph, LooseCliques(3), ArabesqueConfig())
        cliques = run_computation(graph, CliqueFinding(3), ArabesqueConfig())
        everything = run_computation(graph, MotifCounting(3, min_size=1))
        # The subclass's own φ ran: far more than the cliques came out.
        assert loose.num_outputs == everything.total_processed
        assert loose.num_outputs > cliques.num_outputs

    def test_a_hook_written_with_the_refined_filter_is_honoured_again(self):
        assert _extension_filter(RehookedCliques(3)) is not None
        graph = dense_graph()
        assert (
            run_computation(graph, RehookedCliques(3)).canonical_signature()
            == run_computation(graph, LooseCliques(3)).canonical_signature()
        )

    def test_guided_computations_keep_the_per_child_filter(self):
        class Guided(CliqueFinding):
            plan = compile_plan(NAMED_SHAPES["triangle"].canonical())

        assert _extension_filter(CliqueFinding(3)) is not None
        assert _extension_filter(Guided(3)) is None

    def test_base_computation_has_no_hook(self):
        from repro.core import Computation

        assert _extension_filter(Computation()) is None


class TestRunsAreIdenticalWithoutTheHook:
    def test_emission_order_is_identical_too(self, monkeypatch):
        graph = dense_graph()
        config = ArabesqueConfig(num_workers=2, storage="odag")
        hooked = run_computation(graph, CliqueFinding(4), config)
        monkeypatch.setattr(CliqueFinding, "filter_extensions", None)
        plain = run_computation(graph, CliqueFinding(4), config)
        assert hooked.canonical_signature() == plain.canonical_signature()
        assert hooked.outputs == plain.outputs
