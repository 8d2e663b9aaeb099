"""Tests for the inter-step stores (OdagStore / ListStore / SpillListStore).

The deeper SpillListStore behaviours (budget enforcement, segment merge
streaming, engine equality, snapshot portability) live in
``tests/test_checkpoint.py``; here we pin the shared ``EmbeddingStore``
surface and the factory.
"""

import pytest

from repro.core import ListStore, OdagStore, Pattern, SpillListStore
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
        assert store.num_odags == 2
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
        assert a.num_odags == 2
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


class TestListStore:
    def test_add_and_count(self):
        store = ListStore()
        store.add(P_EDGE, (0, 1))
        store.add(P_EDGE, (0, 1))  # duplicates allowed at store level
        assert store.num_embeddings == 2

    def test_partition_covers_everything(self):
        store = ListStore()
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

    def test_merge_and_sort(self):
        a = ListStore()
        a.add(P_EDGE, (2, 3))
        b = ListStore()
        b.add(P_EDGE, (0, 1))
        a.merge(b)
        a.sort()
        assert [w for _, w in a.extract_partition(0, 1)] == [(0, 1), (2, 3)]

    def test_wire_size_linear_in_embeddings(self):
        store = ListStore()
        store.add(P_EDGE, (0, 1))
        base = store.wire_size()
        store.add(P_EDGE, (1, 2))
        assert store.wire_size() == base + 4 + 8

    def test_empty(self):
        assert ListStore().is_empty()
        assert ListStore().num_embeddings == 0


class TestSpillStoreSurface:
    def test_matches_list_store_on_the_shared_interface(self, tmp_path):
        spill = SpillListStore(directory=str(tmp_path), budget_nbytes=64)
        reference = ListStore()
        rows = [(P_PATH, (3, 1, 2)), (P_EDGE, (0, 1)), (P_EDGE, (2, 3))]
        for pattern, words in rows:
            spill.add(pattern, words)
            reference.add(pattern, words)
        reference.sort()
        assert spill.num_embeddings == reference.num_embeddings
        assert spill.wire_size() == reference.wire_size()
        assert spill.patterns() == reference.patterns()
        assert list(spill.extract_partition(0, 1)) == list(
            reference.extract_partition(0, 1)
        )

    def test_empty(self, tmp_path):
        store = SpillListStore(directory=str(tmp_path), budget_nbytes=64)
        assert store.is_empty()
        assert store.num_embeddings == 0


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
        assert isinstance(store, SpillListStore)
        for i in range(40):
            store.add(P_PATH, (i, i + 1, i + 2))
        assert store.spill_count > 0
        assert store.peak_memory_nbytes <= 128 + 4 + 4 * 3
        store.dispose()
