"""Inter-step embedding storage: per-pattern ODAGs or plain lists.

After each exploration step Arabesque must persist the surviving embeddings
(set ``F`` of Algorithm 1) so the next step can expand them.  Three stores
sit behind one interface (a fourth mode, ``adaptive``, picks one per step):

* :class:`OdagStore` — the paper's design: one
  :class:`~repro.core.odag.Odag` per canonical pattern, merged globally and
  broadcast (sections 5.2-5.3);
* :class:`ListStore` — explicit word lists, the "No ODAGs" configuration of
  Figure 10 (also what the real system falls back to when ODAGs compress
  poorly, e.g. the Instagram runs of Table 5);
* :class:`SpillListStore` — list semantics with out-of-core backing: past a
  configurable in-memory byte budget, embedding blocks are sorted and
  spilled to disk segments, then streamed back in global order for
  extraction — step state is no longer bounded by RAM (the ASYMP /
  G-thinker direction named in the ROADMAP).

All report wire sizes so the Figure 9 compression experiment can compare
them on identical embedding sets, and all support deterministic rank-range
partitioning so worker counts do not change what is explored.
"""

from __future__ import annotations

import heapq
import os
import pickle
import shutil
import tempfile
from typing import Callable, Iterator

from .odag import Odag, PoolFilter
from .pattern import Pattern

#: Storage-mode configuration values.
ODAG_STORAGE = "odag"
LIST_STORAGE = "list"
#: Per-step choice of the cheaper wire format (section 6.3: "in the first
#: exploration steps with very large and sparse graphs ... we can revert to
#: using embedding lists").
ADAPTIVE_STORAGE = "adaptive"
#: List-format storage that spills sorted embedding segments to disk past
#: an in-memory byte budget (see :class:`SpillListStore`).
SPILL_STORAGE = "spill"
#: Every valid ``ArabesqueConfig.storage`` value — the single source of
#: truth shared by config validation, the CLI's ``--storage`` choices, and
#: the session facade's ``.storage()`` option.
STORAGE_MODES = (ODAG_STORAGE, LIST_STORAGE, ADAPTIVE_STORAGE, SPILL_STORAGE)

#: Default in-memory byte allowance of a :class:`SpillListStore` before it
#: spills a segment (under the same wire model :meth:`ListStore.wire_size`
#: reports, so budgets and Figure 9 numbers are directly comparable).
DEFAULT_SPILL_BUDGET_NBYTES = 4 << 20

#: Rows per pickle record inside a spilled segment file — segments are
#: written and re-read in bounded chunks so replaying a segment never
#: materializes it whole.
_SEGMENT_CHUNK_ROWS = 2048


def _pattern_sort_key(pattern: Pattern) -> tuple:
    return (pattern.vertex_labels, pattern.edges)


class EmbeddingStore:
    """Interface shared by the three stores: :class:`ListStore`,
    :class:`SpillListStore` and :class:`OdagStore` (which also serves
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

    #: Rank blocks each worker receives per pattern ODAG.  Interleaving
    #: blocks round-robin (rather than one contiguous range per worker)
    #: spreads hub-heavy rank regions across workers — the paper's "round
    #: robin on large blocks of b embeddings" (section 5.3).
    blocks_per_worker: int = 32

    def extract_partition(
        self,
        worker_id: int,
        num_workers: int,
        children: PoolFilter | None = None,
    ) -> Iterator[tuple[Pattern, tuple[int, ...]]]:
        """Block round-robin share of each pattern's ODAG (section 5.3).

        The overapproximated path space of every pattern ODAG is cut into
        equal rank blocks (per-element path counts are the cost estimate)
        and dealt round-robin.  The deal is rotated by the pattern's index
        so that workloads with many small per-pattern ODAGs (e.g. labeled
        cliques, where most patterns hold a handful of embeddings and form
        a single block) spread across workers instead of all landing on
        worker 0.  All workers see the same global structure, so the split
        needs no coordination.
        """
        for pattern_index, pattern in enumerate(self.patterns()):
            odag = self._odags[pattern]
            total = odag.total_paths()
            if total == 0:
                continue
            if num_workers == 1:
                ranges = None  # every block: the whole path space
            else:
                num_blocks = min(total, num_workers * self.blocks_per_worker)
                first = (worker_id + pattern_index) % num_workers
                ranges = [
                    (total * block // num_blocks, total * (block + 1) // num_blocks)
                    for block in range(first, num_blocks, num_workers)
                ]
            for words in odag.extract(children, ranges):
                yield pattern, words


class ListStore(EmbeddingStore):
    """Explicit embedding lists — the Figure 10 "No ODAGs" ablation."""

    def __init__(self) -> None:
        self._lists: dict[Pattern, list[tuple[int, ...]]] = {}

    def add(self, pattern: Pattern, words: tuple[int, ...]) -> None:
        self._lists.setdefault(pattern, []).append(words)

    def is_empty(self) -> bool:
        return not self._lists

    @property
    def num_embeddings(self) -> int:
        return sum(len(words_list) for words_list in self._lists.values())

    def patterns(self) -> list[Pattern]:
        return sorted(self._lists, key=_pattern_sort_key)

    @property
    def num_patterns(self) -> int:
        return len(self._lists)

    def wire_size(self) -> int:
        """Header + 4 bytes per word of every stored embedding."""
        return sum(
            pattern.wire_size() + 4 * (1 + len(rows) + sum(map(len, rows)))
            for pattern, rows in self._lists.items()
        )

    def merge(self, other: "ListStore") -> None:
        for pattern, words_list in other._lists.items():
            self._lists.setdefault(pattern, []).extend(words_list)

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
        for pattern in self.patterns():
            words_list = self._lists[pattern]
            total = len(words_list)
            start = total * worker_id // num_workers
            end = total * (worker_id + 1) // num_workers
            for words in words_list[start:end]:
                yield pattern, words


def _spill_row_key(row: tuple[Pattern, tuple[int, ...]]) -> tuple:
    """Global sort key of one ``(pattern, words)`` row — patterns in
    :func:`_pattern_sort_key` order, words ascending within a pattern,
    exactly the order :meth:`ListStore.extract_partition` walks."""
    return (_pattern_sort_key(row[0]), row[1])


class SpillListStore(EmbeddingStore):
    """List-format storage with spill-to-disk past an in-memory byte budget.

    Semantically identical to :class:`ListStore` — exact embeddings, no
    spurious paths, contiguous per-pattern rank-range partitioning — but
    the resident set is bounded: once the in-memory tail exceeds
    ``budget_nbytes`` (measured under the list wire model, so budgets are
    comparable to :meth:`ListStore.wire_size`), the tail is sorted into
    ``(pattern, words)`` row order and appended to a segment file.
    Extraction streams a ``heapq.merge`` over the sorted segments plus the
    sorted tail, reproducing the *global* sorted order a merged-and-sorted
    ``ListStore`` would extract — which is what keeps spill runs
    byte-identical to list runs across backends and worker counts.

    ``directory`` is where segment files land; ``None`` creates (and owns)
    a private temp directory on first spill.  ``tag`` prefixes this store's
    segment filenames so many stores (per step × worker) can share one
    spill root.  The store is picklable — the process backend ships only
    segment *paths* and the in-memory tail back to the engine, not the
    spilled bytes.  :meth:`dispose` deletes the segment files once the
    store's rows have been merged elsewhere.
    """

    def __init__(
        self,
        directory: str | None = None,
        budget_nbytes: int = DEFAULT_SPILL_BUDGET_NBYTES,
        tag: str = "seg",
    ) -> None:
        if budget_nbytes < 1:
            raise ValueError("spill budget_nbytes must be >= 1")
        self._directory = directory
        self._owns_directory = False
        self._budget_nbytes = int(budget_nbytes)
        self._tag = tag
        self._mem: dict[Pattern, list[tuple[int, ...]]] = {}
        self._mem_nbytes = 0
        self._segments: list[str] = []
        self._counts: dict[Pattern, int] = {}
        self._wire_nbytes = 0
        #: High-water mark of the accounted in-memory tail — what the
        #: spill benchmark compares against ``ListStore.wire_size()``.
        self.peak_memory_nbytes = 0
        #: Segments written so far (observability + tests).
        self.spill_count = 0

    @property
    def budget_nbytes(self) -> int:
        return self._budget_nbytes

    def memory_nbytes(self) -> int:
        """Accounted bytes of the resident (unspilled) tail."""
        return self._mem_nbytes

    @property
    def num_segments(self) -> int:
        return len(self._segments)

    def add(self, pattern: Pattern, words: tuple[int, ...]) -> None:
        if pattern in self._counts:
            self._counts[pattern] += 1
        else:
            self._counts[pattern] = 1
            header = pattern.wire_size() + 4
            self._wire_nbytes += header
            self._mem_nbytes += header
        row_nbytes = 4 + 4 * len(words)
        self._wire_nbytes += row_nbytes
        self._mem_nbytes += row_nbytes
        self._mem.setdefault(pattern, []).append(words)
        if self._mem_nbytes > self.peak_memory_nbytes:
            self.peak_memory_nbytes = self._mem_nbytes
        if self._mem_nbytes > self._budget_nbytes:
            self._spill()

    def _ensure_directory(self) -> str:
        if self._directory is None:
            self._directory = tempfile.mkdtemp(prefix="arabesque-spill-")
            self._owns_directory = True
        else:
            os.makedirs(self._directory, exist_ok=True)
        return self._directory

    def _spill(self) -> None:
        """Sort the in-memory tail into row order and append a segment."""
        if not self._mem:
            return
        rows = [
            (pattern, words)
            for pattern, words_list in self._mem.items()
            for words in words_list
        ]
        rows.sort(key=_spill_row_key)
        path = os.path.join(
            self._ensure_directory(),
            f"{self._tag}-{len(self._segments):05d}.seg",
        )
        with open(path, "wb") as handle:
            for start in range(0, len(rows), _SEGMENT_CHUNK_ROWS):
                pickle.dump(
                    rows[start : start + _SEGMENT_CHUNK_ROWS],
                    handle,
                    protocol=pickle.HIGHEST_PROTOCOL,
                )
        self._segments.append(path)
        self.spill_count += 1
        self._mem.clear()
        self._mem_nbytes = 0

    def is_empty(self) -> bool:
        return not self._counts

    @property
    def num_embeddings(self) -> int:
        return sum(self._counts.values())

    def patterns(self) -> list[Pattern]:
        return sorted(self._counts, key=_pattern_sort_key)

    @property
    def num_patterns(self) -> int:
        return len(self._counts)

    def wire_size(self) -> int:
        """Same wire model as :meth:`ListStore.wire_size`, tracked
        incrementally (content-only, so identical for identical rows no
        matter how they were segmented)."""
        return self._wire_nbytes

    def merge(self, other: "SpillListStore | ListStore") -> None:
        """Stream another list-format store's rows through :meth:`add`
        (spilling as the budget demands)."""
        if isinstance(other, SpillListStore):
            rows: Iterator[tuple[Pattern, tuple[int, ...]]] = other._iter_all()
        elif isinstance(other, ListStore):
            rows = (
                (pattern, words)
                for pattern, words_list in other._lists.items()
                for words in words_list
            )
        else:
            raise TypeError(
                f"cannot merge {type(other).__name__} into SpillListStore"
            )
        for pattern, words in rows:
            self.add(pattern, words)

    def sort(self) -> None:
        """No-op for interface parity with :class:`ListStore`: extraction
        always streams the globally sorted merge of segments + tail."""

    @staticmethod
    def _iter_segment(path: str) -> Iterator[tuple[Pattern, tuple[int, ...]]]:
        with open(path, "rb") as handle:
            while True:
                try:
                    chunk = pickle.load(handle)
                except EOFError:
                    return
                yield from chunk

    def _iter_all(self) -> Iterator[tuple[Pattern, tuple[int, ...]]]:
        """Every stored row in global sorted order, streamed."""
        iterators = [self._iter_segment(path) for path in self._segments]
        mem_rows = [
            (pattern, words)
            for pattern, words_list in self._mem.items()
            for words in words_list
        ]
        mem_rows.sort(key=_spill_row_key)
        iterators.append(iter(mem_rows))
        return heapq.merge(*iterators, key=_spill_row_key)

    def extract_partition(
        self,
        worker_id: int,
        num_workers: int,
        children: PoolFilter | None = None,
    ) -> Iterator[tuple[Pattern, tuple[int, ...]]]:
        """Contiguous per-pattern rank-range slices of the sorted stream —
        the exact slices :meth:`ListStore.extract_partition` yields for the
        same content.  Stored rows are exact, so ``children`` is not
        consulted (nothing spurious to discard)."""
        current: Pattern | None = None
        index = start = end = 0
        for pattern, words in self._iter_all():
            if pattern != current:
                current = pattern
                total = self._counts[pattern]
                start = total * worker_id // num_workers
                end = total * (worker_id + 1) // num_workers
                index = 0
            if start <= index < end:
                yield pattern, words
            index += 1

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
        if self._owns_directory and self._directory is not None:
            shutil.rmtree(self._directory, ignore_errors=True)
            self._owns_directory = False


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
        return SpillListStore(
            directory=spill_dir,
            budget_nbytes=spill_budget_nbytes,
            tag=spill_tag,
        )
    raise ValueError(f"unknown storage mode {storage_mode!r}")
