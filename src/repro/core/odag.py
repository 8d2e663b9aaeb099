"""ODAG — Overapproximating Directed Acyclic Graph (paper, section 5.2).

Graph mining generates trillions of intermediate embeddings; storing each
one separately is prohibitive.  An ODAG stores a set of same-size canonical
embeddings as ``k`` arrays — the i-th array holds every word (vertex or edge
id) appearing at position i in any stored embedding — plus edges between
consecutive arrays: word ``v`` at position i connects to word ``u`` at
position i+1 iff some stored embedding has ``v, u`` at those positions.

The structure is an *overapproximation*: following array edges can produce
spurious paths that were never stored (Figure 6's ``<3, 4, 2>``).  Callers
filter them during extraction by re-applying the same criteria Algorithm 1
used — the incremental canonicality check and the application filters — so
extraction recovers exactly the stored set (the paper's key observation:
anti-monotone filters make membership recomputable).

The first array and every word's successor set are big-int bitsets
(:mod:`repro.graph.bitset`; a later array is the union of the successor
sets before it, so it is not stored): merging is ``|``, sizes are
popcounts, and extraction filters a prefix's whole successor pool in one
call (:data:`PoolFilter`) instead of one path at a time.

The i-th array also carries a **path count** per word — how many
(overapproximated) paths start from it — used for the cost-estimation load
balancing of section 5.3: workers take *rank ranges* of the path space,
recursively splitting array elements whose subtree straddles a boundary.
The index keeps, per word, the prefix sums of its ascending successors'
path counts, so the subtree of successor ``w`` of a word with successor set
``succ`` starts ``offsets[(succ & ((1 << w) - 1)).bit_count()]`` ranks after
the word's own subtree — rank ranges stay exact without walking siblings.
:meth:`Odag.extract` is that recursive split as one rank-windowed DFS over
any number of ranges.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate
from typing import Callable, Iterator, Sequence

from ..graph.bitset import from_bitset

PoolFilter = Callable[[tuple[int, ...], int], int]
"""Extraction filter ``children(prefix, pool) -> mask``: of the words in the
bitset ``pool`` that may follow the path ``prefix`` (never a word already in
it), the sub-mask whose paths ``prefix + (w,)`` survive.  A dropped word
prunes its whole subtree.  Only asked about prefixes of two or more words:
every one- and two-word path of an ODAG is the start of a stored embedding
(an edge between the first two arrays *is* one embedding's first two
words), so it passed every anti-monotone check when it was generated."""

RankRanges = Sequence[tuple[int, int]]
"""Ascending, disjoint ``[start, end)`` ranges of path ranks."""


class Odag:
    """An ODAG for embeddings of a fixed size (word count).

    One instance stores one pattern's embeddings of one size — Arabesque
    keeps "one ODAG per pattern" (section 5.2) to reduce spurious paths.
    """

    __slots__ = ("size", "_first", "_successors", "num_added", "_index")

    def __init__(self, size: int) -> None:
        if size < 1:
            raise ValueError("ODAG size (embedding word count) must be >= 1")
        self.size = size
        #: Bitset of the words of the first array.
        self._first = 0
        #: _successors[i]: word at position i -> bitset of successor words
        #: (every word of an array before the last has an entry).
        self._successors: list[dict[int, int]] = [{} for _ in range(size - 1)]
        self.num_added = 0
        #: ``(counts, offsets, root_offsets)`` — see :meth:`_ensure_index`.
        self._index: tuple | None = None

    # ------------------------------------------------------------------
    # Building
    # ------------------------------------------------------------------
    def add(self, words: tuple[int, ...]) -> None:
        """Store one embedding's words (must match this ODAG's size)."""
        if len(words) != self.size:
            raise ValueError(f"expected {self.size} words, got {len(words)}")
        previous = words[0]
        self._first |= 1 << previous
        for row, word in zip(self._successors, words[1:]):
            row[previous] = row.get(previous, 0) | 1 << word
            previous = word
        self.num_added += 1
        self._index = None

    def merge(self, other: "Odag") -> None:
        """Union another ODAG of the same size into this one.

        This is the per-pattern global merge executed after every
        exploration step (workers' local ODAGs -> one global ODAG).
        """
        if other.size != self.size:
            raise ValueError("cannot merge ODAGs of different sizes")
        self._first |= other._first
        for mine, theirs in zip(self._successors, other._successors):
            for word, successors in theirs.items():
                mine[word] = mine.get(word, 0) | successors
        self.num_added += other.num_added
        self._index = None

    # ------------------------------------------------------------------
    # Size accounting
    # ------------------------------------------------------------------
    def is_empty(self) -> bool:
        return not self._first

    def _last_level(self) -> int:
        """Bitset of the last array's words."""
        if self.size == 1:
            return self._first
        words = 0
        for successors in self._successors[-1].values():
            words |= successors
        return words

    def level_sizes(self) -> tuple[int, ...]:
        """Number of distinct words per array (diagnostics)."""
        return (
            *(len(row) for row in self._successors),
            self._last_level().bit_count(),
        )

    def num_entries(self) -> int:
        """Array entries: one per (position, word) — what the per-entry
        merge shuffle of section 5.2 sends one message for."""
        return sum(self.level_sizes())

    def num_edges(self) -> int:
        """Edges between consecutive arrays."""
        return sum(
            successors.bit_count()
            for row in self._successors
            for successors in row.values()
        )

    def wire_size(self) -> int:
        """Serialized size under the wire model of :mod:`repro.core.wire`.

        Each array: a 4-byte length header plus, per entry, the 4-byte word
        and a header plus 4 bytes per outgoing edge.  This is what makes an
        ODAG "more compact than storing the full set of embeddings": edges
        between k arrays are bounded by O(k * N^2) regardless of how many
        of the up-to-N^k embeddings are stored.
        """
        *inner, last = self.level_sizes()
        return 4 * self.size + 4 * last + 8 * sum(inner) + 4 * self.num_edges()

    # ------------------------------------------------------------------
    # Path counting (section 5.3 cost estimation)
    # ------------------------------------------------------------------
    def _ensure_index(self) -> tuple:
        """``(counts, offsets, root_offsets)``, built once per content.

        ``counts[i][w]``: paths from word ``w`` of array ``i`` to the end
        (arrays before the last; a last-array word starts one path).
        ``offsets[i][w]``: prefix sums of ``counts[i + 1]`` over ``w``'s
        ascending successors, leading 0 included — kept for ``i <= k - 3``
        only, because one level further down every successor is a single
        path and its offset is its index.  ``root_offsets``: the same over
        the first array.
        """
        index = self._index
        if index is None:
            size = self.size
            counts: list[dict[int, int]] = [{} for _ in range(size - 1)]
            offsets: list[dict[int, tuple[int, ...]]] = [
                {} for _ in range(size - 2)
            ]
            if size > 1:
                counts[-1] = {
                    word: successors.bit_count()
                    for word, successors in self._successors[-1].items()
                }
            for level in range(size - 3, -1, -1):
                below = counts[level + 1].__getitem__
                level_counts = counts[level]
                level_offsets = offsets[level]
                for word, successors in self._successors[level].items():
                    sums = tuple(
                        accumulate(map(below, from_bitset(successors)), initial=0)
                    )
                    level_offsets[word] = sums
                    level_counts[word] = sums[-1]
            first = from_bitset(self._first)
            if size > 1:
                root = tuple(
                    accumulate(map(counts[0].__getitem__, first), initial=0)
                )
            else:
                root = tuple(range(len(first) + 1))
            index = self._index = (counts, offsets, root)
        return index

    def total_paths(self) -> int:
        """Number of overapproximated paths (>= stored embeddings)."""
        return self._ensure_index()[2][-1]

    def path_count(self, level: int, word: int) -> int:
        """Paths reaching the end from ``word`` at ``level`` (cost estimate)."""
        if level == self.size - 1:
            return self._last_level() >> word & 1
        return self._ensure_index()[0][level].get(word, 0)

    # ------------------------------------------------------------------
    # Extraction
    # ------------------------------------------------------------------
    def extract(
        self,
        children: PoolFilter | None = None,
        ranges: RankRanges | None = None,
    ) -> Iterator[tuple[int, ...]]:
        """Paths passing ``children`` whose rank lies in ``ranges`` (``None``
        = the whole path space), in rank order.

        Ranks index the *overapproximated* path space in the deterministic
        order induced by ascending arrays, so disjoint rank ranges across
        workers partition the work without coordination — the paper's
        block/round-robin scheme realized as exact range splitting.  All of
        a worker's ranges are served by one walk: a subtree is entered only
        if its rank interval meets a range, and once an interval lies
        inside one range nothing below it is rank-tested again.

        Paths repeating a word are always spurious (an embedding never
        contains the same vertex/edge twice); the candidate generator never
        proposes them, so the canonicality check does not guard against
        them — the walk masks a prefix's own words out of every pool.
        """
        if self.is_empty():
            return
        _, offsets, root_offsets = self._ensure_index()
        if ranges is None:
            ranges = ((0, root_offsets[-1]),)
        ranges = [(start, end) for start, end in ranges if start < end]
        if not ranges:
            return
        starts, ends = zip(*ranges)
        num_ranges = len(ranges)
        successors = self._successors
        last = self.size - 1

        def in_ranges(rank):
            at = bisect_right(ends, rank)
            return at < num_ranges and starts[at] <= rank

        def leaves(prefix, prefix_bits, base, pool, inside):
            """Last level: the i-th word of ``pool`` ends the path of rank
            ``base + i``; ``inside`` says all of them lie in one range."""
            kept = pool & ~prefix_bits
            if children is not None and last > 1:
                kept = children(prefix, kept)
            if inside:
                return [prefix + (word,) for word in from_bitset(kept)]
            return [
                prefix + (word,)
                for word in from_bitset(kept)
                if in_ranges(base + (pool & ((1 << word) - 1)).bit_count())
            ]

        def walk(level, prefix, prefix_bits, base, pool, sums, inside):
            """Levels before the last: the subtree of the i-th word of
            ``pool`` spans ranks ``base + sums[i]`` to ``base + sums[i+1]``."""
            kept = pool & ~prefix_bits
            if children is not None and level > 1:
                kept = children(prefix, kept)
            level_successors = successors[level]
            for word in from_bitset(kept):
                first = base  # inside a range, ranks are not consulted again
                covered = inside
                if not covered:
                    position = (pool & ((1 << word) - 1)).bit_count()
                    first += sums[position]
                    end = base + sums[position + 1]
                    at = bisect_right(ends, first)
                    if at == num_ranges or starts[at] >= end:
                        continue
                    covered = starts[at] <= first and end <= ends[at]
                extended = prefix + (word,)
                extended_bits = prefix_bits | 1 << word
                below = level_successors[word]
                if level + 1 == last:
                    yield from leaves(extended, extended_bits, first, below, covered)
                else:
                    yield from walk(
                        level + 1, extended, extended_bits, first, below,
                        offsets[level][word], covered,
                    )

        whole = starts[0] <= 0 and root_offsets[-1] <= ends[0]
        if last == 0:
            yield from leaves((), 0, 0, self._first, whole)
        else:
            yield from walk(0, (), 0, 0, self._first, root_offsets, whole)

    def __repr__(self) -> str:
        return (
            f"Odag(size={self.size}, added={self.num_added}, "
            f"levels={self.level_sizes()})"
        )
