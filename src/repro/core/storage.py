"""Inter-step embedding storage: per-pattern ODAGs or plain lists.

After each exploration step Arabesque must persist the surviving embeddings
(set ``F`` of Algorithm 1) so the next step can expand them.  Two stores
sit behind one interface (``adaptive`` storage picks a wire format per
step, ``spill`` is a list store under a byte budget):

* :class:`OdagStore` — the paper's design: one
  :class:`~repro.core.odag.Odag` per canonical pattern, merged globally and
  broadcast (sections 5.2-5.3);
* :class:`ListStore` — explicit word lists, the "No ODAGs" configuration of
  Figure 10 (also what the real system falls back to when ODAGs compress
  poorly, e.g. the Instagram runs of Table 5).  Given a byte budget it
  spills sorted rows to disk segments and merges them back at extraction,
  so step state is no longer bounded by RAM (the ASYMP / G-thinker
  direction named in the ROADMAP); without one it never touches disk.

Both report wire sizes so the Figure 9 compression experiment can compare
them on identical embedding sets, and both support deterministic rank-range
partitioning so worker counts do not change what is explored.

An exhaustive run keys each row by its canonical pattern; a guided run
keys every row by :data:`PLAN_LEVEL` (the plan already said what it is),
so a guided ODAG holds one plan level and is read back by membership.
"""

from __future__ import annotations

import heapq
import os
import pickle
import shutil
import tempfile
from bisect import bisect_left, bisect_right
from itertools import groupby, islice
from operator import itemgetter
from typing import Iterator

from .odag import Odag, PoolFilter
from .pattern import Pattern

#: Storage-mode configuration values.
ODAG_STORAGE = "odag"
LIST_STORAGE = "list"
#: Per-step choice of the cheaper wire format (section 6.3: "in the first
#: exploration steps with very large and sparse graphs ... we can revert to
#: using embedding lists").
ADAPTIVE_STORAGE = "adaptive"
#: List storage under a byte budget: a :class:`ListStore` that spills
#: sorted embedding segments to disk past ``spill_budget_nbytes``.
SPILL_STORAGE = "spill"
#: Every valid ``ArabesqueConfig.storage`` value — the single source of
#: truth shared by config validation, the CLI's ``--storage`` choices, and
#: the session facade's ``.storage()`` option.
STORAGE_MODES = (ODAG_STORAGE, LIST_STORAGE, ADAPTIVE_STORAGE, SPILL_STORAGE)
#: The one key of every guided row: a guided step's store is one plan level.
PLAN_LEVEL = Pattern((), ())

#: Default in-memory byte allowance of a ``spill`` :class:`ListStore`
#: before it spills a segment (under the wire model
#: :meth:`ListStore.wire_size` reports, so budgets and Figure 9 numbers are
#: directly comparable).
DEFAULT_SPILL_BUDGET_NBYTES = 4 << 20

#: Rows per pickle record inside a spilled segment file — segments are
#: written and re-read in bounded chunks so replaying a segment never
#: materializes it whole.
_SEGMENT_CHUNK_ROWS = 2048


def _pattern_sort_key(pattern: Pattern) -> tuple:
    return (pattern.vertex_labels, pattern.edges)


class EmbeddingStore:
    """Interface shared by :class:`ListStore` (which also serves
    ``"spill"`` storage) and :class:`OdagStore` (which also serves
    ``"adaptive"`` storage)."""

    def add(self, pattern: Pattern, words: tuple[int, ...]) -> None:
        """Store one embedding under its (canonical) pattern."""
        raise NotImplementedError

    def is_empty(self) -> bool:
        raise NotImplementedError

    @property
    def num_embeddings(self) -> int:
        """Embeddings stored (exact, not overapproximated)."""
        raise NotImplementedError

    def patterns(self) -> list[Pattern]:
        """Stored patterns in deterministic (sorted) order."""
        raise NotImplementedError

    @property
    def num_patterns(self) -> int:
        """Distinct stored patterns (``len(patterns())`` without the sort)."""
        raise NotImplementedError

    def wire_size(self) -> int:
        """Bytes to ship this store under the wire model."""
        raise NotImplementedError

    def extract_partition(
        self,
        worker_id: int,
        num_workers: int,
        children: PoolFilter | None = None,
    ) -> Iterator[tuple[Pattern, tuple[int, ...]]]:
        """Yield ``(pattern, words)`` of this worker's share of embeddings.

        ``children`` is the spurious-path filter of stores that
        overapproximate (:data:`~repro.core.odag.PoolFilter`; ``None``
        accepts every path); exact stores never consult it."""
        raise NotImplementedError

    def dispose(self) -> None:
        """Release what the store keeps outside memory (a spilled list
        store's segment files); it must not be read afterwards."""


class OdagStore(EmbeddingStore):
    """Per-pattern ODAGs (the paper's default storage)."""

    def __init__(self) -> None:
        self._odags: dict[Pattern, Odag] = {}

    def add(self, pattern: Pattern, words: tuple[int, ...]) -> None:
        odag = self._odags.get(pattern)
        if odag is None:
            odag = Odag(len(words))
            self._odags[pattern] = odag
        odag.add(words)

    def odag_for(self, pattern: Pattern) -> Odag:
        """The pattern's ODAG (KeyError if absent)."""
        return self._odags[pattern]

    def is_empty(self) -> bool:
        return not self._odags

    @property
    def num_embeddings(self) -> int:
        return sum(odag.num_added for odag in self._odags.values())

    @property
    def num_patterns(self) -> int:
        """Distinct patterns — "as the number of patterns grows, so does the
        number of ODAGs" (section 6.3)."""
        return len(self._odags)

    def patterns(self) -> list[Pattern]:
        return sorted(self._odags, key=_pattern_sort_key)

    def wire_size(self) -> int:
        return sum(
            pattern.wire_size() + odag.wire_size()
            for pattern, odag in self._odags.items()
        )

    def total_paths(self) -> int:
        """Overapproximated path count across all patterns."""
        return sum(odag.total_paths() for odag in self._odags.values())

    def merge(self, other: "OdagStore") -> None:
        """Union another store (per-pattern ODAG merge)."""
        for pattern, odag in other._odags.items():
            mine = self._odags.get(pattern)
            if mine is None:
                fresh = Odag(odag.size)
                fresh.merge(odag)
                self._odags[pattern] = fresh
            else:
                mine.merge(odag)

    #: Rank blocks per worker in a step's single rank space (every
    #: pattern ODAG laid end to end).  Interleaving blocks round-robin
    #: (rather than one contiguous range per worker) spreads hub-heavy rank
    #: regions across workers — the paper's "round robin on large blocks
    #: of b embeddings" (section 5.3).
    blocks_per_worker: int = 32

    def extract_partition(
        self,
        worker_id: int,
        num_workers: int,
        children: PoolFilter | None = None,
    ) -> Iterator[tuple[Pattern, tuple[int, ...]]]:
        """Block round-robin share of one rank space per step (section 5.3).

        The pattern ODAGs lie end to end in :meth:`patterns` order (an
        ODAG's offset is the sum of the overapproximated path counts
        before it); that whole space is cut into equal rank blocks dealt
        round-robin.  An ODAG no block of this worker meets is not read,
        one a single block covers is read whole (no rank tests), so many
        small ODAGs (labeled cliques) are split between workers instead of
        each worker walking every pattern for a path or two.  All workers
        see the same global structure, so the split needs no coordination.
        """
        patterns = self.patterns()
        grand_total = sum(self._odags[pattern].total_paths() for pattern in patterns)
        # One worker gets one block, so it reads every ODAG whole.
        per_worker = self.blocks_per_worker if num_workers > 1 else 1
        num_blocks = min(grand_total, num_workers * per_worker)
        blocks = [
            (grand_total * block // num_blocks, grand_total * (block + 1) // num_blocks)
            for block in range(worker_id, num_blocks, num_workers)
        ]
        starts = [start for start, _ in blocks]
        ends = [end for _, end in blocks]
        end = 0
        for pattern in patterns:
            odag = self._odags[pattern]
            offset, end = end, end + odag.total_paths()
            first, last = bisect_right(ends, offset), bisect_left(starts, end)
            if first >= last:
                continue
            if starts[first] <= offset and end <= ends[first]:
                ranges = None  # one block covers the whole ODAG
            else:
                ranges = [
                    (max(start, offset) - offset, min(stop, end) - offset)
                    for start, stop in blocks[first:last]
                ]
            for words in odag.extract(children, ranges):
                yield pattern, words


class ListStore(EmbeddingStore):
    """Explicit embedding lists — the Figure 10 "No ODAGs" ablation.

    Without a budget every row stays in memory.  With ``budget_nbytes``
    (``"spill"`` storage) the store also accounts the resident rows under
    the list wire model; once they pass the budget it sorts them into
    ``(pattern, words)`` order and appends them to a segment file under
    ``directory`` (``None``: a private temp directory, made on the first
    spill), named with ``tag`` so many stores can share one directory.
    :meth:`sort` sorts the resident rows once; extraction then merges the
    sorted segments with them, in the order and per-pattern rank ranges a
    store that never spilled would use — which is what keeps spill runs
    byte-identical to list runs.  The store pickles with its segment paths
    (the process backend ships paths, not spilled bytes);
    :meth:`dispose` deletes the segments once the rows live elsewhere.
    """

    def __init__(
        self,
        budget_nbytes: int | None = None,
        directory: str | None = None,
        tag: str = "seg",
    ) -> None:
        if budget_nbytes is not None and budget_nbytes < 1:
            raise ValueError("spill budget_nbytes must be >= 1")
        self._lists: dict[Pattern, list[tuple[int, ...]]] = {}
        self._budget_nbytes = budget_nbytes
        self._directory = directory
        self._owns_directory = False
        self._tag = tag
        #: List-wire bytes of the in-memory rows, accounted only under a
        #: budget (which they never exceed after an :meth:`add`).
        self._resident_nbytes = 0
        self._segments: list[str] = []
        #: Rows per pattern, and their list-wire bytes, held in segments.
        self._spilled: dict[Pattern, int] = {}
        self._spilled_nbytes = 0

    @property
    def num_segments(self) -> int:
        return len(self._segments)

    def add(self, pattern: Pattern, words: tuple[int, ...]) -> None:
        self._lists.setdefault(pattern, []).append(words)
        if self._budget_nbytes is not None:
            self._resident_nbytes += 4 + 4 * len(words)
            if self._resident_nbytes > self._budget_nbytes:
                self._spill()

    def _spill(self) -> None:
        """Append the sorted resident rows to a new segment file."""
        if self._directory is None:
            self._directory = tempfile.mkdtemp(prefix="arabesque-spill-")
            self._owns_directory = True
        else:
            os.makedirs(self._directory, mode=0o700, exist_ok=True)
        self.sort()
        rows = list(self._resident_rows())
        path = os.path.join(
            self._directory, f"{self._tag}-{len(self._segments):05d}.seg"
        )
        with open(path, "wb") as handle:
            for start in range(0, len(rows), _SEGMENT_CHUNK_ROWS):
                pickle.dump(
                    rows[start : start + _SEGMENT_CHUNK_ROWS],
                    handle,
                    protocol=pickle.HIGHEST_PROTOCOL,
                )
        self._segments.append(path)
        for pattern, words_list in self._lists.items():
            spilled = self._spilled.get(pattern, 0)
            self._spilled[pattern] = spilled + len(words_list)
        self._spilled_nbytes += self._resident_nbytes
        self._lists.clear()
        self._resident_nbytes = 0

    def _resident_rows(self) -> Iterator[tuple[Pattern, tuple[int, ...]]]:
        """The in-memory rows, in global order once :meth:`sort` ran."""
        for pattern in sorted(self._lists, key=_pattern_sort_key):
            for words in self._lists[pattern]:
                yield pattern, words

    def _counts(self) -> dict[Pattern, int]:
        """Stored rows per pattern, resident and spilled."""
        counts = dict(self._spilled)
        for pattern, words_list in self._lists.items():
            counts[pattern] = counts.get(pattern, 0) + len(words_list)
        return counts

    def is_empty(self) -> bool:
        return not self._lists and not self._spilled

    @property
    def num_embeddings(self) -> int:
        return sum(map(len, self._lists.values())) + sum(self._spilled.values())

    def patterns(self) -> list[Pattern]:
        return sorted(self._counts(), key=_pattern_sort_key)

    @property
    def num_patterns(self) -> int:
        return len(self._counts())

    def wire_size(self) -> int:
        """Header + 4 bytes per word of every stored embedding."""
        resident = sum(
            4 * (len(rows) + sum(map(len, rows))) for rows in self._lists.values()
        )
        headers = sum(pattern.wire_size() + 4 for pattern in self._counts())
        return headers + resident + self._spilled_nbytes

    def merge(self, other: "ListStore") -> None:
        """Add another list store's rows, spilling as this store's budget
        demands: after each spilled row, and after each pattern's resident
        rows (already in memory, in ``other``)."""
        if not isinstance(other, ListStore):
            raise TypeError(f"cannot merge {type(other).__name__} into ListStore")
        for path in other._segments:
            for pattern, words in _read_segment(path):
                self.add(pattern, words)
        for pattern, words_list in other._lists.items():
            self._lists.setdefault(pattern, []).extend(words_list)
            if self._budget_nbytes is not None:
                self._resident_nbytes += 4 * (
                    len(words_list) + sum(map(len, words_list))
                )
                if self._resident_nbytes > self._budget_nbytes:
                    self._spill()

    def sort(self) -> None:
        """Make extraction order deterministic after merging."""
        for words_list in self._lists.values():
            words_list.sort()

    def extract_partition(
        self,
        worker_id: int,
        num_workers: int,
        children: PoolFilter | None = None,
    ) -> Iterator[tuple[Pattern, tuple[int, ...]]]:
        """Contiguous per-pattern slices; stored embeddings are exact, so
        ``children`` is not consulted (nothing spurious to discard)."""
        counts = self._counts()
        if self._segments:
            rows = heapq.merge(
                *map(_read_segment, self._segments),
                self._resident_rows(),
                key=_row_key,
            )
            groups = (
                (pattern, map(itemgetter(1), group))
                for pattern, group in groupby(rows, key=itemgetter(0))
            )
        else:
            groups = (
                (pattern, self._lists[pattern])
                for pattern in sorted(counts, key=_pattern_sort_key)
            )
        for pattern, words_list in groups:
            total = counts[pattern]
            start = total * worker_id // num_workers
            end = total * (worker_id + 1) // num_workers
            for words in islice(words_list, start, end):
                yield pattern, words

    def dispose(self) -> None:
        """Delete this store's segment files (idempotent).  Call once the
        rows have been merged into another store; the store must not be
        extracted from afterwards."""
        for path in self._segments:
            try:
                os.unlink(path)
            except OSError:
                pass
        self._segments.clear()
        if self._owns_directory:
            shutil.rmtree(self._directory, ignore_errors=True)
            self._owns_directory = False


def _row_key(row: tuple[Pattern, tuple[int, ...]]) -> tuple:
    """Global order of ``(pattern, words)`` rows: patterns in
    :func:`_pattern_sort_key` order, words ascending within a pattern."""
    return (_pattern_sort_key(row[0]), row[1])


def _read_segment(path: str) -> Iterator[tuple[Pattern, tuple[int, ...]]]:
    with open(path, "rb") as handle:
        while True:
            try:
                chunk = pickle.load(handle)
            except EOFError:
                return
            yield from chunk


def make_store(
    storage_mode: str,
    *,
    spill_dir: str | None = None,
    spill_budget_nbytes: int = DEFAULT_SPILL_BUDGET_NBYTES,
    spill_tag: str = "seg",
) -> EmbeddingStore:
    """Factory for the configured storage strategy."""
    if storage_mode in (ODAG_STORAGE, ADAPTIVE_STORAGE):
        # Adaptive picks the cheaper *wire* format per step (the engine's
        # store merge); the in-process representation is an ODAG either way.
        return OdagStore()
    if storage_mode == LIST_STORAGE:
        return ListStore()
    if storage_mode == SPILL_STORAGE:
        return ListStore(spill_budget_nbytes, spill_dir, spill_tag)
    raise ValueError(f"unknown storage mode {storage_mode!r}")
