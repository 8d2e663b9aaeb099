"""Tests for the inter-step stores (OdagStore / ListStore).

Every :class:`ListStore` case runs twice: with no budget (every row stays
in memory) and under a byte budget below two rows, so the same
assertions hold when rows are spilled to segment files and merged back.
"""

import os
import pickle

import pytest

from repro.core import ListStore, OdagStore, Pattern
from repro.core.storage import make_store

P_EDGE = Pattern((1, 2), ((0, 1, 0),))
P_PATH = Pattern((1, 2, 1), ((0, 1, 0), (1, 2, 0)))


class TestOdagStore:
    def test_add_and_count(self):
        store = OdagStore()
        store.add(P_EDGE, (0, 1))
        store.add(P_EDGE, (2, 3))
        store.add(P_PATH, (0, 1, 2))
        assert store.num_embeddings == 3
        assert store.num_patterns == 2
        assert not store.is_empty()

    def test_patterns_sorted_deterministically(self):
        store = OdagStore()
        store.add(P_PATH, (0, 1, 2))
        store.add(P_EDGE, (0, 1))
        assert store.patterns() == sorted(
            [P_EDGE, P_PATH], key=lambda p: (p.vertex_labels, p.edges)
        )

    def test_merge(self):
        a = OdagStore()
        a.add(P_EDGE, (0, 1))
        b = OdagStore()
        b.add(P_EDGE, (2, 3))
        b.add(P_PATH, (0, 1, 2))
        a.merge(b)
        assert a.num_embeddings == 3
        assert a.num_patterns == 2
        # b unchanged
        assert b.num_embeddings == 2

    def test_merge_does_not_alias(self):
        a = OdagStore()
        b = OdagStore()
        b.add(P_EDGE, (0, 1))
        a.merge(b)
        a.add(P_EDGE, (4, 5))
        assert b.num_embeddings == 1

    def test_extract_partition_covers_everything(self):
        store = OdagStore()
        for words in [(0, 1), (1, 2), (2, 3), (3, 4)]:
            store.add(P_EDGE, words)
        for workers in (1, 2, 3):
            collected = []
            for w in range(workers):
                collected.extend(
                    words for _, words in store.extract_partition(w, workers)
                )
            assert sorted(collected) == [(0, 1), (1, 2), (2, 3), (3, 4)]

    def test_extract_partition_tags_patterns(self):
        store = OdagStore()
        store.add(P_EDGE, (0, 1))
        store.add(P_PATH, (0, 1, 2))
        tagged = dict(store.extract_partition(0, 1))
        assert tagged[P_EDGE] == (0, 1)
        assert tagged[P_PATH] == (0, 1, 2)

    def test_wire_size_includes_patterns(self):
        store = OdagStore()
        store.add(P_EDGE, (0, 1))
        assert store.wire_size() > P_EDGE.wire_size()

    def test_total_paths(self):
        store = OdagStore()
        store.add(P_EDGE, (0, 1))
        store.add(P_EDGE, (0, 2))
        assert store.total_paths() == 2


#: A list-store budget below two rows of either pattern (an edge row is
#: 12 bytes, a path row 16), so the spilled cases spill almost every add.
TINY_BUDGET = 20


def segment_files(directory):
    return [name for name in os.listdir(directory) if name.endswith(".seg")]


def fill(store, n=200):
    for i in range(n):
        store.add(P_PATH, (i, i + 1, i + 2))
        store.add(P_EDGE, (n - i, n - i + 1))


@pytest.fixture(params=[None, TINY_BUDGET], ids=["resident", "spilled"])
def budget(request):
    return request.param


@pytest.fixture
def new_store(budget, tmp_path):
    """``new_store(tag)``: a list store under the case's budget, writing
    segments to ``tmp_path``; every store made is disposed afterwards."""
    made = []

    def new(tag="seg"):
        made.append(ListStore(budget, str(tmp_path), tag))
        return made[-1]

    yield new
    for store in made:
        store.dispose()


class TestListStore:
    def test_add_and_count(self, new_store):
        store = new_store()
        store.add(P_EDGE, (0, 1))
        store.add(P_EDGE, (0, 1))  # duplicates allowed at store level
        assert store.num_embeddings == 2

    def test_partition_covers_everything(self, new_store):
        store = new_store()
        for words in [(3, 4), (0, 1), (2, 3), (1, 2)]:
            store.add(P_EDGE, words)
        store.sort()
        for workers in (1, 2, 4):
            collected = []
            for w in range(workers):
                collected.extend(
                    words for _, words in store.extract_partition(w, workers)
                )
            assert collected == [(0, 1), (1, 2), (2, 3), (3, 4)]

    def test_merge_and_sort(self, new_store):
        a = new_store("a")
        a.add(P_EDGE, (2, 3))
        b = new_store("b")
        b.add(P_EDGE, (0, 1))
        a.merge(b)
        a.sort()
        assert [w for _, w in a.extract_partition(0, 1)] == [(0, 1), (2, 3)]

    def test_wire_size_linear_in_embeddings(self, new_store):
        store = new_store()
        store.add(P_EDGE, (0, 1))
        base = store.wire_size()
        store.add(P_EDGE, (1, 2))
        assert store.wire_size() == base + 4 + 8

    def test_empty(self, new_store):
        assert new_store().is_empty()
        assert new_store().num_embeddings == 0

    def test_matches_a_resident_store(self, new_store):
        store = new_store()
        reference = ListStore()
        rows = [(P_PATH, (9 - i, i, i + 1)) for i in range(10)] + [
            (P_EDGE, (i % 5, i)) for i in range(1, 11)
        ]
        for pattern, words in rows:
            store.add(pattern, words)
            reference.add(pattern, words)
        store.sort()
        reference.sort()
        assert store.num_embeddings == reference.num_embeddings == 20
        assert store.wire_size() == reference.wire_size() == (
            P_PATH.wire_size() + 4 + 10 * (4 + 12)
            + P_EDGE.wire_size() + 4 + 10 * (4 + 8)
        )
        assert store.patterns() == reference.patterns()
        assert store.num_patterns == reference.num_patterns == 2
        for workers in (1, 2, 3, 7):
            for worker in range(workers):
                assert list(store.extract_partition(worker, workers)) == list(
                    reference.extract_partition(worker, workers)
                )

    def test_resident_bytes_stay_within_the_budget(self, new_store, budget, tmp_path):
        store = new_store()
        for i in range(200):
            store.add(P_PATH, (i, i + 1, i + 2))
            assert store._resident_nbytes <= (budget or 0)
        assert len(segment_files(tmp_path)) == store.num_segments
        assert (store.num_segments > 0) == (budget is not None)

    def test_dispose_removes_segments(self, new_store, budget, tmp_path):
        store = new_store()
        fill(store, n=60)
        assert bool(segment_files(tmp_path)) == (budget is not None)
        store.dispose()
        assert not segment_files(tmp_path)

    def test_survives_pickling_with_segments_on_disk(self, new_store):
        """The process backend ships worker deltas by pickling; a spilled
        store's segment paths must stay valid across the round-trip."""
        store = new_store()
        fill(store, n=40)
        store.sort()
        clone = pickle.loads(pickle.dumps(store))
        assert clone.num_segments == store.num_segments
        assert list(clone.extract_partition(0, 1)) == list(
            store.extract_partition(0, 1)
        )

    def test_merge_accepts_spilled_and_resident_sources(self, new_store, tmp_path):
        merged = new_store("m")
        spilled = ListStore(TINY_BUDGET, str(tmp_path), "a")
        fill(spilled, n=40)
        assert spilled.num_segments > 0
        resident = ListStore()
        resident.add(P_EDGE, (900, 901))
        merged.merge(spilled)
        merged.merge(resident)
        assert merged.num_embeddings == spilled.num_embeddings + 1
        merged.sort()
        spilled.sort()
        assert [row for row in merged.extract_partition(0, 1)
                if row != (P_EDGE, (900, 901))] == list(spilled.extract_partition(0, 1))
        spilled.dispose()
        with pytest.raises(TypeError):
            merged.merge(object())


def test_owned_spill_directory_is_created_and_disposed():
    store = ListStore(TINY_BUDGET)
    fill(store, n=60)
    directory = store._directory
    assert directory is not None and os.path.isdir(directory)
    store.dispose()
    assert not os.path.exists(directory)


class TestFactory:
    def test_make_store(self):
        assert isinstance(make_store("odag"), OdagStore)
        assert isinstance(make_store("adaptive"), OdagStore)  # ODAG in memory
        assert isinstance(make_store("list"), ListStore)
        with pytest.raises(ValueError):
            make_store("bogus")

    def test_make_spill_store(self, tmp_path):
        store = make_store(
            "spill", spill_dir=str(tmp_path), spill_budget_nbytes=128
        )
        assert isinstance(store, ListStore)
        for i in range(40):
            store.add(P_PATH, (i, i + 1, i + 2))
            assert store._resident_nbytes <= 128
        assert store.num_segments > 0
        store.dispose()
