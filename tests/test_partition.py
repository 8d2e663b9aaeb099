"""Tests for the load-balancing analysis utilities (section 5.3) and the
single rank space :meth:`OdagStore.extract_partition` deals blocks of."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    Odag,
    OdagStore,
    Pattern,
    PartitionReport,
    PatternCanonicalizer,
    measure_partition,
)
from repro.core.canonical import canonical_extension_mask, canonicalize_vertex_set
from repro.core.embedding import VERTEX_EXPLORATION, make_embedding
from repro.graph import assign_labels, gnm_random_graph

UNLABELED_P3 = Pattern((0, 0, 0), ((0, 1, 0), (1, 2, 0)))


def random_store(seed: int, size: int = 3, universe: int = 20) -> OdagStore:
    rng = random.Random(seed)
    store = OdagStore()
    for _ in range(rng.randint(1, 60)):
        store.add(UNLABELED_P3, tuple(rng.sample(range(universe), size)))
    return store


class TestPartitionReport:
    def test_totals(self):
        report = PartitionReport(num_workers=3, shares=(4, 5, 3))
        assert report.total == 12
        assert report.max_share == 5

    def test_imbalance(self):
        report = PartitionReport(num_workers=2, shares=(9, 3))
        assert report.imbalance() == pytest.approx(9 / 6)

    def test_imbalance_empty(self):
        assert PartitionReport(num_workers=2, shares=(0, 0)).imbalance() == 1.0
        assert PartitionReport(num_workers=0, shares=()).imbalance() == 1.0


class TestMeasurePartition:
    def test_shares_cover_store(self):
        store = random_store(1)
        report = measure_partition(store, 4)
        assert report.total == sum(
            1 for _ in store.extract_partition(0, 1)
        )

    def test_single_worker_gets_everything(self):
        store = random_store(2)
        report = measure_partition(store, 1)
        assert report.shares == (report.total,)

    def test_balance_reasonable(self):
        store = random_store(3)
        report = measure_partition(store, 4)
        if report.total >= 8:
            assert report.imbalance() < 2.5

    def test_detects_dropped_embeddings(self):
        class LossyStore(OdagStore):
            def extract_partition(self, worker, num_workers, prefix_filter=None):
                rows = list(
                    super().extract_partition(worker, num_workers, prefix_filter)
                )
                return rows[1:] if num_workers > 1 and worker == 0 else rows

        store = random_store(4)
        # baseline: the honest store passes
        measure_partition(store, 3)
        lossy = LossyStore()
        lossy.merge(store)
        with pytest.raises(ValueError, match="partition invariant violated"):
            measure_partition(lossy, 3)

    def test_detects_duplicated_embeddings(self):
        class DupStore(OdagStore):
            def extract_partition(self, worker, num_workers, prefix_filter=None):
                rows = list(
                    super().extract_partition(worker, num_workers, prefix_filter)
                )
                if num_workers > 1 and worker == 1 and rows:
                    return rows + rows[:1]
                return rows

        dup = DupStore()
        dup.merge(random_store(5))
        with pytest.raises(ValueError, match="partition invariant violated"):
            measure_partition(dup, 3)


@given(seed=st.integers(0, 2000), workers=st.integers(1, 6))
@settings(max_examples=40, deadline=None)
def test_property_partition_exact_on_random_stores(seed, workers):
    """measure_partition validates the no-loss/no-dup invariant by summing
    per-worker extraction counts against the full extraction."""
    store = random_store(seed)
    report = measure_partition(store, workers)
    full = sum(1 for _ in store.extract_partition(0, 1))
    assert report.total == full


# ----------------------------------------------------------------------
# One rank space per step: blocks span pattern ODAGs
# ----------------------------------------------------------------------

#: ``_KEEP[r]``: the words 0..129 not congruent to ``r`` mod 5.
_KEEP = [sum(1 << w for w in range(130) if w % 5 != r) for r in range(5)]


def drop_fifths(prefix, pool):
    """A deterministic pool filter: drops ``w`` when ``sum(prefix) + w``
    is a multiple of 5, so some subtrees are pruned mid-walk."""
    return pool & _KEEP[-sum(prefix) % 5]


def multi_pattern_store(seed: int) -> OdagStore:
    """One to eight pattern ODAGs of sizes 1-4, each grown to 1 to about
    100 overapproximated paths."""
    rng = random.Random(seed)
    store = OdagStore()
    for label in range(rng.randint(1, 8)):
        size = rng.randint(1, 4)
        pattern = Pattern((label,) * size, ())
        target = rng.randint(1, 100)
        universe = range(120 if size == 1 else 12)
        store.add(pattern, tuple(rng.sample(universe, size)))
        while store.odag_for(pattern).total_paths() < target:
            store.add(pattern, tuple(rng.sample(universe, size)))
    return store


def row_key(row):
    return row[0].vertex_labels, row[1]


def assert_exact_split(store: OdagStore, workers: int, children=None) -> None:
    """Shares are disjoint and their union is the one-worker extraction."""
    full = list(store.extract_partition(0, 1, children))
    assert measure_partition(store, workers, children).total == len(full)
    dealt = [
        row
        for worker in range(workers)
        for row in store.extract_partition(worker, workers, children)
    ]
    assert sorted(dealt, key=row_key) == sorted(full, key=row_key)


def record_extracts(monkeypatch):
    """Patch :meth:`Odag.extract` to log ``(odag, ranges)`` per call."""
    calls = []
    extract = Odag.extract

    def recording(self, children=None, ranges=None):
        calls.append((self, ranges))
        return extract(self, children, ranges)

    monkeypatch.setattr(Odag, "extract", recording)
    return calls


def blocks_meeting(store: OdagStore, worker: int, workers: int) -> list:
    """``(odag, whole)`` for each ODAG a worker's blocks meet, from the
    spec: ODAGs end to end in ``patterns()`` order, the whole space cut
    into ``min(total, workers * blocks_per_worker)`` blocks dealt
    round-robin; ``whole`` when one block covers the ODAG."""
    odags = [store.odag_for(pattern) for pattern in store.patterns()]
    total = sum(odag.total_paths() for odag in odags)
    num_blocks = min(total, workers * store.blocks_per_worker)
    mine = [
        (total * b // num_blocks, total * (b + 1) // num_blocks)
        for b in range(worker, num_blocks, workers)
    ]
    met, offset = [], 0
    for odag in odags:
        end = offset + odag.total_paths()
        if any(start < end and offset < stop for start, stop in mine):
            whole = any(start <= offset and end <= stop for start, stop in mine)
            met.append((odag, whole))
        offset = end
    return met


@given(
    seed=st.integers(0, 100_000),
    workers=st.integers(1, 6),
    blocks_per_worker=st.integers(1, 8),
)
@settings(max_examples=60, deadline=None)
def test_property_blocks_spanning_odags_split_exactly(seed, workers, blocks_per_worker):
    """Many pattern ODAGs in one rank space: blocks that start, end or lie
    inside an ODAG, or cover several, still deal every path exactly once,
    with and without a pool filter pruning subtrees."""
    store = multi_pattern_store(seed)
    store.blocks_per_worker = blocks_per_worker
    assert_exact_split(store, workers)
    assert_exact_split(store, workers, drop_fifths)


class TestOneRankSpace:
    def test_blocks_ending_on_odag_boundaries(self, monkeypatch):
        """Six 4-path ODAGs, six 4-path blocks: every block is one whole
        ODAG, read without rank tests by the worker the deal names."""
        store = OdagStore()
        for label in range(6):
            for word in range(4):
                store.add(Pattern((label,), ()), (word,))
        store.blocks_per_worker = 3
        assert_exact_split(store, 2)
        calls = record_extracts(monkeypatch)
        for worker in range(2):
            calls.clear()
            list(store.extract_partition(worker, 2))
            assert [ranges for _, ranges in calls] == [None] * 3
            assert [odag for odag, _ in calls] == [
                store.odag_for(pattern) for pattern in store.patterns()[worker::2]
            ]

    @pytest.mark.parametrize("workers", [2, 3, 6])
    def test_more_workers_than_paths(self, workers, monkeypatch):
        store = OdagStore()
        store.add(Pattern((0, 0), ()), (3, 5))
        store.add(Pattern((1,), ()), (7,))
        assert_exact_split(store, workers)
        calls = record_extracts(monkeypatch)
        shares = [len(list(store.extract_partition(w, workers))) for w in range(workers)]
        assert shares == [1, 1] + [0] * (workers - 2)
        assert len(calls) == 2, "a worker with no block reads no ODAG"


def labeled_triangle_store(seed: int = 7):
    """Labeled triangles of G(60, 400) under 8 labels: about a hundred
    pattern ODAGs of a handful of paths each, with the engine's
    canonicality pool filter."""
    graph = assign_labels(gnm_random_graph(60, 400, seed=seed), 8, seed=seed)
    canonicalizer = PatternCanonicalizer()
    store = OdagStore()
    for combo in itertools.combinations(range(60), 3):
        u, v, w = combo
        if graph.adjacent(u, v) and graph.adjacent(u, w) and graph.adjacent(v, w):
            words = canonicalize_vertex_set(graph, combo)
            embedding = make_embedding(graph, VERTEX_EXPLORATION, words)
            store.add(canonicalizer.canonicalize(embedding.pattern())[0], words)

    def children(prefix, pool):
        return canonical_extension_mask(graph.neighbor_bits, prefix, pool)

    return store, children


@pytest.mark.parametrize("workers", [2, 3, 4])
def test_split_does_not_repeat_work_on_many_small_odags(workers, monkeypatch):
    """Workers split a step's paths instead of each re-walking every
    pattern: summed over workers, pool-filter calls exceed the one-worker
    count by at most one root-to-leaf chain (``size - 2`` filtered
    prefixes) per block boundary, and each worker reads only the ODAGs
    its blocks meet — whole, with no rank tests, when one block covers
    the ODAG."""
    store, children = labeled_triangle_store()
    assert store.num_patterns > 80 and store.total_paths() < 8 * store.num_patterns
    filter_calls = [0]

    def counted(prefix, pool):
        filter_calls[0] += 1
        return children(prefix, pool)

    size = 3
    list(store.extract_partition(0, 1, counted))
    alone = filter_calls[0]
    calls = record_extracts(monkeypatch)
    filter_calls[0] = 0
    for worker in range(workers):
        calls.clear()
        list(store.extract_partition(worker, workers, counted))
        read = [(odag, ranges is None) for odag, ranges in calls]
        assert read == blocks_meeting(store, worker, workers)
    num_blocks = min(store.total_paths(), workers * store.blocks_per_worker)
    assert filter_calls[0] <= alone + (num_blocks - 1) * (size - 2)
