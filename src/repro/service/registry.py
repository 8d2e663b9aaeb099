"""Pooled mining sessions: one warm :class:`~repro.session.Miner` per graph.

The registry is the serving story's stateful core.  Loading a graph under
a name builds (and keeps) a ``Miner`` for it, so every compiled plan,
plan DAG, catalog, and stripped variant stays warm across
requests — the whole point of the session caches built in earlier PRs.
On top of the miner pool sits a **whole-result cache** keyed by
``(graph name, query signature, config signature)``: loaded graphs are
immutable, so a cached result can never go stale and invalidation is
free; an entry lives until its graph is evicted or the byte-accounted
LRU cap pushes it out.  Each cached payload is deep-sized at insert
time (:func:`payload_nbytes`), so one query returning a million matches
is accounted as the megabytes it is, not as "one entry" — the failure
mode of the old count-based cap.  A single payload larger than the
whole budget is never cached (counted in ``result_oversize``).

Memory accounting rides :meth:`repro.graph.LabeledGraph.memory_nbytes`:
each entry records its graph's footprint at load time, and when a
``memory_limit_nbytes`` is set, loading a new graph evicts
least-recently-used entries (and their cached results) until the new
total fits.  A graph that cannot fit even alone is rejected loudly.

Everything here is thread-safe under one registry lock.  Result-cache
*lookups* and bookkeeping run under the lock; the miss-path ``compute``
callable runs **outside** it, so one slow query never blocks the pool —
the cost is that two racing identical queries may both compute (last
write wins, both correct), which beats serializing every request.
"""

from __future__ import annotations

import sys
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable

from ..graph import LabeledGraph
from ..session import Miner


class ServiceError(ValueError):
    """A service request was malformed or cannot be admitted."""


class UnknownGraphError(ServiceError):
    """A request named a graph the registry has not loaded."""


#: A result-cache key: (graph name, query signature, config signature).
ResultKey = tuple[str, str, str]

#: Default result-cache budget: plenty for thousands of typical payloads
#: while keeping a handful of huge match lists from hoarding the heap.
DEFAULT_RESULT_CACHE_NBYTES = 16 << 20


def payload_nbytes(obj: Any) -> int:
    """Deep ``sys.getsizeof`` of a JSON-able payload (dicts, lists,
    strings, numbers).  Shared objects (interned ints/strings) are
    counted once — matching what they actually cost the heap."""
    seen: set[int] = set()
    total = 0
    stack = [obj]
    while stack:
        item = stack.pop()
        if id(item) in seen:
            continue
        seen.add(id(item))
        total += sys.getsizeof(item)
        if isinstance(item, dict):
            stack.extend(item.keys())
            stack.extend(item.values())
        elif isinstance(item, (list, tuple, set, frozenset)):
            stack.extend(item)
    return total


@dataclass
class RegistryCacheInfo:
    """Counters for the registry's pools (mirrors ``Miner.cache_info``)."""

    #: Graphs loaded over the registry's lifetime.
    graphs_loaded: int = 0
    #: Graphs evicted (explicitly or by the memory limit).
    graphs_evicted: int = 0
    #: Queries answered straight from the whole-result cache.
    result_hits: int = 0
    #: Queries that had to run the engine.
    result_misses: int = 0
    #: Cached results dropped (LRU byte cap or graph eviction).
    result_evictions: int = 0
    #: Results never cached because one payload exceeds the whole budget.
    result_oversize: int = 0


@dataclass
class _Entry:
    """One pooled graph: its warm session plus accounting."""

    miner: Miner
    #: ``memory_nbytes()`` snapshot taken at load time (graphs are
    #: immutable, so it never changes).
    nbytes: int
    #: Requests served against this graph (any outcome).
    requests: int = 0
    #: Result keys cached for this graph, for eviction-time cleanup.
    result_keys: set[ResultKey] = field(default_factory=set)


class MinerRegistry:
    """Load/evict graphs by name; serve warm sessions and cached results.

    ``memory_limit_nbytes`` bounds the summed ``memory_nbytes()`` of the
    pooled graphs (``None`` = unbounded); ``result_cache_limit_nbytes``
    bounds the whole-result cache by **deep payload bytes**
    (:func:`payload_nbytes`) — 0 disables result caching entirely.
    """

    def __init__(
        self,
        *,
        memory_limit_nbytes: int | None = None,
        result_cache_limit_nbytes: int = DEFAULT_RESULT_CACHE_NBYTES,
    ) -> None:
        if memory_limit_nbytes is not None and memory_limit_nbytes < 1:
            raise ServiceError(
                "memory_limit_nbytes must be positive when given "
                f"(got {memory_limit_nbytes!r})"
            )
        if (
            not isinstance(result_cache_limit_nbytes, int)
            or isinstance(result_cache_limit_nbytes, bool)
            or result_cache_limit_nbytes < 0
        ):
            raise ServiceError(
                "result_cache_limit_nbytes must be an integer >= 0 "
                f"(got {result_cache_limit_nbytes!r})"
            )
        self.memory_limit_nbytes = memory_limit_nbytes
        self.result_cache_limit_nbytes = result_cache_limit_nbytes
        #: name -> entry, in least-recently-used-first order.
        self._entries: "OrderedDict[str, _Entry]" = OrderedDict()
        #: result key -> (payload, deep nbytes), least-recently-used-first.
        self._results: "OrderedDict[ResultKey, tuple[Any, int]]" = OrderedDict()
        #: Running sum of the cached payloads' deep sizes.
        self._results_nbytes = 0
        self._info = RegistryCacheInfo()
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # Graph pool
    # ------------------------------------------------------------------
    def load(self, name: str, graph: LabeledGraph) -> Miner:
        """Register ``graph`` under ``name`` and return its warm session.

        Re-loading an existing name is rejected loudly — graphs are
        immutable, so a silent swap would poison the result cache;
        :meth:`evict` first to replace one.
        """
        if not name or not isinstance(name, str):
            raise ServiceError(f"graph name must be a non-empty string (got {name!r})")
        miner = Miner(graph)  # validates the graph type loudly
        nbytes = graph.memory_nbytes()
        with self._lock:
            if name in self._entries:
                raise ServiceError(
                    f"graph {name!r} is already loaded — evict it first to "
                    "replace it (loaded graphs are immutable)"
                )
            limit = self.memory_limit_nbytes
            if limit is not None and nbytes > limit:
                raise ServiceError(
                    f"graph {name!r} needs {nbytes:,} bytes but the "
                    f"registry's memory limit is {limit:,} — raise "
                    "memory_limit_nbytes or load a smaller graph"
                )
            if limit is not None:
                while self._entries and self._total_nbytes() + nbytes > limit:
                    evicted, _ = self._entries.popitem(last=False)
                    self._drop_results_for(evicted)
                    self._info.graphs_evicted += 1
            self._entries[name] = _Entry(miner=miner, nbytes=nbytes)
            self._info.graphs_loaded += 1
            return miner

    def load_dataset(
        self, name: str, *, dataset: str | None = None, scale: float | None = None
    ) -> Miner:
        """Load a built-in dataset (``dataset`` defaults to ``name``)
        through :func:`repro.datasets.load` — unknown names fail loudly
        listing what exists."""
        from ..datasets import load as load_named_dataset

        return self.load(name, load_named_dataset(dataset or name, scale=scale))

    def get(self, name: str) -> Miner:
        """The warm session for ``name`` — loud error listing the loaded
        names when unknown (and marks the entry most recently used)."""
        with self._lock:
            entry = self._entries.get(name)
            if entry is None:
                loaded = ", ".join(sorted(self._entries)) or "none"
                raise UnknownGraphError(
                    f"no graph named {name!r} is loaded (loaded: {loaded}) — "
                    "load it via the registry (POST /graphs on the server)"
                )
            self._entries.move_to_end(name)
            entry.requests += 1
            return entry.miner

    def evict(self, name: str) -> None:
        """Drop a graph, its warm session, and its cached results."""
        with self._lock:
            if name not in self._entries:
                loaded = ", ".join(sorted(self._entries)) or "none"
                raise UnknownGraphError(
                    f"cannot evict {name!r}: not loaded (loaded: {loaded})"
                )
            del self._entries[name]
            self._drop_results_for(name)
            self._info.graphs_evicted += 1

    def names(self) -> tuple[str, ...]:
        """Loaded graph names, sorted."""
        with self._lock:
            return tuple(sorted(self._entries))

    def memory_nbytes(self) -> int:
        """Summed ``memory_nbytes()`` of every pooled graph."""
        with self._lock:
            return self._total_nbytes()

    def describe(self) -> dict[str, Any]:
        """JSON-able snapshot of the pool (the ``/graphs`` endpoint)."""
        with self._lock:
            return {
                "graphs": {
                    name: {
                        "vertices": entry.miner.graph.num_vertices,
                        "edges": entry.miner.graph.num_edges,
                        "labels": entry.miner.graph.num_vertex_labels,
                        "memory_nbytes": entry.nbytes,
                        "requests": entry.requests,
                        "cached_results": len(entry.result_keys),
                        "session": vars(entry.miner.cache_info()),
                    }
                    for name, entry in self._entries.items()
                },
                "memory_nbytes": self._total_nbytes(),
                "memory_limit_nbytes": self.memory_limit_nbytes,
                "result_cache": {
                    "entries": len(self._results),
                    "nbytes": self._results_nbytes,
                    "limit_nbytes": self.result_cache_limit_nbytes,
                },
            }

    # ------------------------------------------------------------------
    # Whole-result cache
    # ------------------------------------------------------------------
    def cached(
        self,
        graph_name: str,
        query_signature: str,
        config_signature: str,
        compute: Callable[[Miner], Any],
    ) -> tuple[Any, bool]:
        """Serve ``(payload, was_hit)`` for one query, computing on miss.

        The lookup, counters, and insert run under the registry lock;
        ``compute(miner)`` runs outside it (see module docstring).  The
        graph must already be loaded — unknown names raise through
        :meth:`get` before anything runs.
        """
        key: ResultKey = (graph_name, query_signature, config_signature)
        miner = self.get(graph_name)  # loud UnknownGraphError + LRU touch
        with self._lock:
            if key in self._results:
                self._results.move_to_end(key)
                self._info.result_hits += 1
                return self._results[key][0], True
            self._info.result_misses += 1
        payload = compute(miner)
        limit = self.result_cache_limit_nbytes
        if limit > 0:
            nbytes = payload_nbytes(payload)  # deep-size outside the lock
            with self._lock:
                entry = self._entries.get(graph_name)
                if nbytes > limit:
                    self._info.result_oversize += 1
                elif entry is not None:  # graph may have been evicted mid-run
                    old = self._results.pop(key, None)  # racing identical query
                    if old is not None:
                        self._results_nbytes -= old[1]
                    self._results[key] = (payload, nbytes)
                    self._results_nbytes += nbytes
                    entry.result_keys.add(key)
                    while self._results_nbytes > limit:
                        old_key, (_, old_nbytes) = self._results.popitem(last=False)
                        self._results_nbytes -= old_nbytes
                        self._info.result_evictions += 1
                        old_entry = self._entries.get(old_key[0])
                        if old_entry is not None:
                            old_entry.result_keys.discard(old_key)
        return payload, False

    def cache_info(self) -> RegistryCacheInfo:
        """A snapshot of the registry's counters."""
        with self._lock:
            return RegistryCacheInfo(**vars(self._info))

    def result_cache_nbytes(self) -> int:
        """Deep bytes currently held by the whole-result cache."""
        with self._lock:
            return self._results_nbytes

    # ------------------------------------------------------------------
    # Internals (call with the lock held)
    # ------------------------------------------------------------------
    def _total_nbytes(self) -> int:
        return sum(entry.nbytes for entry in self._entries.values())

    def _drop_results_for(self, name: str) -> None:
        dropped = [key for key in self._results if key[0] == name]
        for key in dropped:
            _, nbytes = self._results.pop(key)
            self._results_nbytes -= nbytes
        self._info.result_evictions += len(dropped)


__all__ = [
    "DEFAULT_RESULT_CACHE_NBYTES",
    "MinerRegistry",
    "RegistryCacheInfo",
    "ServiceError",
    "UnknownGraphError",
    "payload_nbytes",
]
