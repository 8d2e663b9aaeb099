"""Tests for the ODAG data structure: faithfulness, overapproximation,
compression, merging, and rank-range extraction — plus a differential of
the bitset layout against a set-of-tuples reference ODAG."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Odag, OdagStore, Pattern
from repro.graph.bitset import filter_bitset


def build_odag(size, embeddings):
    odag = Odag(size)
    for words in embeddings:
        odag.add(words)
    return odag


def per_path(predicate):
    """A per-path predicate as the pool filter extraction takes: keep the
    successors whose extended path the predicate accepts."""
    return lambda prefix, pool: filter_bitset(
        pool, lambda word: predicate(prefix + (word,))
    )


def member_prefix(embeddings):
    """Membership oracle standing in for canonicality + φ."""
    return per_path(
        lambda words: any(c[: len(words)] == words for c in embeddings)
    )


def rank_slices(odag, workers):
    total = odag.total_paths()
    return [
        (total * w // workers, total * (w + 1) // workers) for w in range(workers)
    ]


PAPER_EMBEDDINGS = [
    (1, 4, 2),
    (1, 4, 3),
    (1, 4, 5),
    (2, 3, 4),
    (2, 4, 5),
    (3, 4, 5),
]
"""The canonical embeddings of the paper's Figure 5."""


class TestConstruction:
    def test_size_validation(self):
        with pytest.raises(ValueError):
            Odag(0)

    def test_add_validates_length(self):
        odag = Odag(3)
        with pytest.raises(ValueError):
            odag.add((1, 2))

    def test_counts(self):
        odag = build_odag(3, PAPER_EMBEDDINGS)
        assert odag.num_added == 6
        assert odag.level_sizes() == (3, 2, 4)  # {1,2,3}, {3,4}, {2,3,4,5}

    def test_empty(self):
        assert Odag(2).is_empty()
        assert not build_odag(1, [(5,)]).is_empty()


class TestExtraction:
    def test_roundtrip_includes_all_added(self):
        odag = build_odag(3, PAPER_EMBEDDINGS)
        extracted = set(odag.extract())
        assert set(PAPER_EMBEDDINGS) <= extracted

    def test_paper_spurious_path(self):
        """Figure 6: the ODAG also encodes <3, 4, 2>, which was never added."""
        odag = build_odag(3, PAPER_EMBEDDINGS)
        extracted = set(odag.extract())
        assert (3, 4, 2) in extracted
        assert extracted > set(PAPER_EMBEDDINGS)

    def test_pool_filter_recovers_exact_set(self):
        original = set(PAPER_EMBEDDINGS)
        odag = build_odag(3, PAPER_EMBEDDINGS)
        assert set(odag.extract(member_prefix(original))) == original

    def test_pool_filter_sees_successor_pools_from_the_third_word(self):
        """One- and two-word paths are always the start of a stored
        embedding, so the filter is first asked at the third array — about
        the whole successor set at once, minus the prefix's own words."""
        odag = build_odag(3, [(0, 1, 2), (0, 1, 0), (3, 1, 4)])
        seen = []

        def record(prefix, pool):
            seen.append((prefix, pool))
            return pool

        assert list(odag.extract(record)) == [
            (0, 1, 2), (0, 1, 4), (3, 1, 0), (3, 1, 2), (3, 1, 4),
        ]
        assert seen == [((0, 1), 0b10100), ((3, 1), 0b10101)]

    def test_pool_filter_prunes_subtrees(self):
        odag = build_odag(4, [(0, 1, 2, 3), (0, 1, 4, 5)])
        asked = []

        def no_twos(prefix, pool):
            asked.append(prefix)
            return pool & ~0b100

        assert list(odag.extract(no_twos)) == [(0, 1, 4, 5)]
        assert asked == [(0, 1), (0, 1, 4)]

    def test_extraction_rank_order_is_sorted(self):
        odag = build_odag(3, PAPER_EMBEDDINGS)
        extracted = list(odag.extract())
        assert extracted == sorted(extracted)

    def test_single_level_odag(self):
        odag = build_odag(1, [(3,), (1,), (2,)])
        assert list(odag.extract()) == [(1,), (2,), (3,)]
        assert odag.total_paths() == 3


class TestPathCounting:
    def test_total_paths_overapproximates(self):
        odag = build_odag(3, PAPER_EMBEDDINGS)
        assert odag.total_paths() >= len(PAPER_EMBEDDINGS)
        # total_paths counts every path (even word-repeating ones, which
        # extraction drops), so it upper-bounds the extractable set.
        assert odag.total_paths() >= len(list(odag.extract()))

    def test_word_repeating_paths_are_skipped(self):
        # Figure 5's ODAG encodes the path <3, 4, 3>: same word twice.
        odag = build_odag(3, PAPER_EMBEDDINGS)
        for words in odag.extract():
            assert len(set(words)) == len(words)

    def test_path_count_per_element(self):
        odag = build_odag(3, PAPER_EMBEDDINGS)
        # From vertex 4 at level 1 every level-2 successor is reachable.
        assert odag.path_count(1, 4) == len({2, 3, 5})
        assert odag.path_count(2, 5) == 1


class TestRangeExtraction:
    def test_ranges_partition_everything(self):
        odag = build_odag(3, PAPER_EMBEDDINGS)
        for workers in (1, 2, 3, 4, 7):
            pieces = []
            for piece in rank_slices(odag, workers):
                pieces.extend(odag.extract(ranges=[piece]))
            assert pieces == list(odag.extract())

    def test_many_ranges_in_one_walk(self):
        odag = build_odag(3, PAPER_EMBEDDINGS)
        everything = list(odag.extract())
        slices = rank_slices(odag, 5)
        assert list(odag.extract(ranges=slices)) == everything
        odd = list(odag.extract(ranges=slices[1::2]))
        even = list(odag.extract(ranges=slices[0::2]))
        assert sorted(odd + even) == everything and not set(odd) & set(even)

    def test_empty_range(self):
        odag = build_odag(3, PAPER_EMBEDDINGS)
        assert list(odag.extract(ranges=[(2, 2)])) == []
        assert list(odag.extract(ranges=[])) == []

    def test_range_respects_filter(self):
        original = set(PAPER_EMBEDDINGS)
        odag = build_odag(3, PAPER_EMBEDDINGS)
        collected = set()
        for piece in rank_slices(odag, 3):
            collected.update(odag.extract(member_prefix(original), [piece]))
        assert collected == original


class TestMerge:
    def test_merge_unions_embeddings(self):
        left = build_odag(3, PAPER_EMBEDDINGS[:3])
        right = build_odag(3, PAPER_EMBEDDINGS[3:])
        left.merge(right)
        assert set(PAPER_EMBEDDINGS) <= set(left.extract())
        assert left.num_added == 6

    def test_merge_size_mismatch(self):
        with pytest.raises(ValueError):
            Odag(2).merge(Odag(3))

    def test_entry_and_edge_counts(self):
        """What the engine meters the per-entry merge shuffle from."""
        odag = build_odag(3, PAPER_EMBEDDINGS)
        assert odag.num_entries() == sum(odag.level_sizes()) == 9
        # 1->4, 2->{3,4}, 3->4 then 3->4, 4->{2,3,5}
        assert odag.num_edges() == 4 + 4
        assert odag.wire_size() == 4 * 3 + 4 * 4 + 8 * 5 + 4 * 8

    def test_paper_merge_example(self):
        """Section 5.2: one worker explored <2,3>, another <2,4> — merging
        must union the entries for element 2 of the first array."""
        a = build_odag(2, [(2, 3)])
        b = build_odag(2, [(2, 4)])
        a.merge(b)
        assert set(a.extract()) == {(2, 3), (2, 4)}


class TestCompression:
    def test_wire_size_beats_lists_on_dense_sets(self):
        """Store all k-subsets of a clique: N^k embeddings vs O(k N^2) ODAG."""
        n, k = 12, 3
        embeddings = [
            words for words in itertools.combinations(range(n), k)
        ]
        odag = build_odag(k, embeddings)
        list_bytes = sum(4 + 4 * k for _ in embeddings)
        assert odag.wire_size() < list_bytes

    def test_wire_size_grows_with_content(self):
        small = build_odag(2, [(0, 1)])
        large = build_odag(2, [(0, 1), (1, 2), (2, 3), (0, 3)])
        assert large.wire_size() > small.wire_size()


@given(seed=st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_property_roundtrip_with_membership_filter(seed):
    """extract(membership filter) == stored set, for random word sets."""
    rng = random.Random(seed)
    size = rng.randint(1, 4)
    population = range(10)
    embeddings = set()
    for _ in range(rng.randint(1, 20)):
        words = tuple(rng.sample(population, size))
        embeddings.add(words)
    odag = build_odag(size, sorted(embeddings))
    assert set(odag.extract(member_prefix(embeddings))) == embeddings


@given(seed=st.integers(0, 10_000), workers=st.integers(1, 6))
@settings(max_examples=50, deadline=None)
def test_property_range_partition_is_exact(seed, workers):
    """Worker rank ranges partition the path space with no dup or loss."""
    rng = random.Random(seed)
    size = rng.randint(1, 4)
    embeddings = {
        tuple(rng.sample(range(8), size)) for _ in range(rng.randint(1, 15))
    }
    odag = build_odag(size, sorted(embeddings))
    pieces = []
    for piece in rank_slices(odag, workers):
        pieces.extend(odag.extract(ranges=[piece]))
    everything = list(odag.extract())
    assert pieces == everything
    assert len(set(pieces)) == len(pieces)


# ----------------------------------------------------------------------
# Differential: the bitset ODAG against a set-of-tuples reference
# ----------------------------------------------------------------------
class ReferenceOdag:
    """The ODAG as the paper draws it — Python sets, paths enumerated one
    word at a time, ranks counted by listing every path."""

    def __init__(self, size):
        self.size = size
        self.levels = [set() for _ in range(size)]
        self.edges = [set() for _ in range(size - 1)]

    def add(self, words):
        for level, word in enumerate(words):
            self.levels[level].add(word)
        for level in range(self.size - 1):
            self.edges[level].add((words[level], words[level + 1]))

    def merge(self, other):
        for mine, theirs in zip(self.levels, other.levels):
            mine |= theirs
        for mine, theirs in zip(self.edges, other.edges):
            mine |= theirs

    def all_paths(self):
        """Every overapproximated path, word-repeating ones included, in
        rank (lexicographic) order."""
        paths = [(word,) for word in sorted(self.levels[0])]
        for level in range(self.size - 1):
            paths = [
                path + (v,)
                for path in paths
                for u, v in sorted(self.edges[level])
                if u == path[-1]
            ]
        return paths

    def extract(self, predicate=None, ranges=None):
        out = []
        for rank, path in enumerate(self.all_paths()):
            if ranges is not None and not any(lo <= rank < hi for lo, hi in ranges):
                continue
            if len(set(path)) != len(path):
                continue
            if predicate is not None and not all(
                predicate(path[:length]) for length in range(1, len(path) + 1)
            ):
                continue
            out.append(path)
        return out

    def path_count(self, level, word):
        if level == self.size - 1:
            return int(word in self.levels[level])
        return sum(
            self.path_count(level + 1, v) for u, v in self.edges[level] if u == word
        )

    def wire_size(self):
        total = 4 + 4 * len(self.levels[-1])
        for level in range(self.size - 1):
            total += 4
            for word in {u for u, _ in self.edges[level]}:
                total += 8 + 4 * sum(1 for u, _ in self.edges[level] if u == word)
        return total


def assert_same_odag(odag, reference, rng):
    everything = reference.extract()
    assert list(odag.extract()) == everything
    assert odag.total_paths() == len(reference.all_paths())
    assert odag.level_sizes() == tuple(len(level) for level in reference.levels)
    assert odag.wire_size() == reference.wire_size()
    for level, words in enumerate(reference.levels):
        for word in words:
            assert odag.path_count(level, word) == reference.path_count(level, word)
        assert odag.path_count(level, 1000) == 0
    # A path predicate true on every stored prefix (as canonicality + φ
    # are), false on a random half of everything else.
    stored = {path[:n] for path in everything for n in range(1, len(path) + 1)}
    rejected = {prefix for prefix in stored if rng.random() < 0.5}
    predicate = lambda words: len(words) <= 2 or words not in rejected
    assert list(odag.extract(per_path(predicate))) == reference.extract(predicate)
    total = odag.total_paths()
    cuts = sorted(rng.randint(0, total) for _ in range(rng.randint(0, 6)))
    ranges = list(zip(cuts[0::2], cuts[1::2]))
    assert list(odag.extract(ranges=ranges)) == reference.extract(ranges=ranges)
    assert list(odag.extract(per_path(predicate), ranges)) == reference.extract(
        predicate, ranges
    )


def random_pair(rng, size, universe, count):
    odag, reference = Odag(size), ReferenceOdag(size)
    for _ in range(count):
        words = tuple(rng.sample(range(universe), size))
        odag.add(words)
        reference.add(words)
    return odag, reference


@given(seed=st.integers(0, 100_000))
@settings(max_examples=150, deadline=None)
def test_bitset_odag_equals_reference_on_tiny_odags(seed):
    rng = random.Random(seed)
    size = rng.randint(1, 4)
    odag, reference = random_pair(rng, size, rng.randint(size, 9), rng.randint(1, 14))
    assert_same_odag(odag, reference, rng)
    other, other_reference = random_pair(
        rng, size, rng.randint(size, 9), rng.randint(1, 10)
    )
    added = odag.num_added + other.num_added
    odag.merge(other)
    reference.merge(other_reference)
    assert odag.num_added == added
    assert_same_odag(odag, reference, rng)


def test_bitset_odag_equals_reference_on_a_wide_odag():
    """Words past one machine word, hundreds of paths per first word."""
    rng = random.Random(20150704)
    odag, reference = random_pair(rng, 3, 200, 400)
    for hub in range(5):  # a few hubs so subtrees straddle rank blocks
        for _ in range(40):
            words = (hub, 70 + rng.randrange(6), rng.randrange(64, 200))
            odag.add(words)
            reference.add(words)
    assert_same_odag(odag, reference, rng)


@given(seed=st.integers(0, 100_000), workers=st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_store_partitions_concatenate_to_full_extraction(seed, workers):
    """Every worker's share of every pattern ODAG, one walk each: disjoint,
    and per pattern the union in rank order is the full extraction."""
    rng = random.Random(seed)
    store = OdagStore()
    size = rng.randint(1, 4)
    patterns = [Pattern((label,) * size, ()) for label in range(rng.randint(1, 3))]
    for pattern in patterns:
        for _ in range(rng.randint(1, 80 if seed % 5 == 0 else 12)):
            store.add(pattern, tuple(rng.sample(range(12), size)))
    full = list(store.extract_partition(0, 1))
    shares = [list(store.extract_partition(w, workers)) for w in range(workers)]
    row_key = lambda row: (row[0].vertex_labels, row[1])
    dealt = [row for share in shares for row in share]
    assert sorted(dealt, key=row_key) == sorted(full, key=row_key)
    for pattern in store.patterns():
        odag = store.odag_for(pattern)
        order = {words: rank for rank, words in enumerate(odag.extract())}
        for share in shares:
            ranks = [order[words] for p, words in share if p == pattern]
            assert ranks == sorted(ranks), "a share must stay in rank order"
