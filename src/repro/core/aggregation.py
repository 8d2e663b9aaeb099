"""Aggregation framework with two-level pattern aggregation (sections 4.1, 5.4).

Arabesque applications aggregate values across embeddings with a
MapReduce-like model: ``map(key, value)`` routes a value to a reducer,
``reduce(key, values)`` folds them, ``readAggregate(key)`` reads the result
in the *next* exploration step.  Output aggregation (``mapOutput`` /
``reduceOutput``) accumulates over the whole run and is folded once at the
end.

When the key is a :class:`~repro.core.pattern.Pattern` the reducer identity
is the pattern's *isomorphism class* — mapping each embedding's pattern to a
canonical form would mean one graph-isomorphism computation per candidate
embedding.  Two-level aggregation avoids that:

1. **level 1 (local, cheap)** — values are grouped by *quick pattern* (the
   linear-time visit-order pattern) and reduced locally;
2. **level 2 (global, rare)** — each distinct quick pattern is canonicalized
   once (cached), its reduced value is *remapped* from quick-pattern vertex
   positions to canonical positions, and sent to the canonical reducer.

Values that are position-indexed (FSM domains) implement
``remap_positions(mapping)``; plain values (counts) pass through unchanged.

Reducers must be **associative on reduced values**: the framework reduces
locally, merges partials across quick patterns, and merges again across
workers, so ``reduce`` sees partial results as inputs.  All aggregations in
the paper (domain union, count sum) have this property.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable

from .pattern import Pattern, PatternCanonicalizer

ReduceFn = Callable[[Hashable, list], Any]


def remap_value(value: Any, mapping: tuple[int, ...]) -> Any:
    """Translate a position-indexed value to canonical pattern positions."""
    remap = getattr(value, "remap_positions", None)
    if callable(remap):
        return remap(mapping)
    return value


class AggregationChannel:
    """Global (cross-worker, cross-step) state of one named aggregation.

    Non-persistent channels publish each step's merged values for
    ``readAggregate`` during the following step.  Persistent channels
    (output aggregation) fold every step's partials into a running
    accumulation that :meth:`finalize` returns at the end of the run.
    """

    def __init__(self, name: str, reduce_fn: ReduceFn, persistent: bool = False):
        self.name = name
        self.reduce_fn = reduce_fn
        self.persistent = persistent
        self._published: dict[Hashable, Any] = {}
        self._accumulated: dict[Hashable, Any] = {}
        self._latest: dict[Hashable, Any] = {}

    def read(self, key: Hashable) -> Any:
        """Value published for ``key`` by the previous step (None if absent)."""
        return self._published.get(key)

    def published(self) -> dict[Hashable, Any]:
        """All values published by the previous step."""
        return dict(self._published)

    def step_barrier(self, merged: dict[Hashable, Any]) -> None:
        """Install this step's merged values (superstep flip)."""
        if self.persistent:
            for key, value in merged.items():
                if key in self._accumulated:
                    self._accumulated[key] = self.reduce_fn(
                        key, [self._accumulated[key], value]
                    )
                else:
                    self._accumulated[key] = value
        else:
            self._published = merged
            self._latest.update(merged)

    def latest(self) -> dict[Hashable, Any]:
        """Per-key value from the *last step that produced the key*.

        Non-persistent channels replace their published values wholesale at
        every step barrier, so a key mapped at step i and never again is
        invisible to ``readAggregate`` from step i+2 on — but its step-i
        value is still the key's final channel state for the run.  This view
        keeps exactly that: each key maps to the merged value of the most
        recent step that produced it, never reduced *across* steps (which
        would violate per-step channel semantics).  It is what
        :attr:`~repro.core.results.RunResult.final_aggregates` reports.
        """
        return dict(self._latest)

    def finalize(self) -> dict[Hashable, Any]:
        """Final values of a persistent channel (empty for per-step ones)."""
        return dict(self._accumulated)

    def restore(
        self,
        published: dict[Hashable, Any],
        latest: dict[Hashable, Any],
    ) -> None:
        """Reinstall a non-persistent channel's barrier state (checkpoint
        resume): what the snapshotted step published for the next step's
        ``readAggregate``, and the per-key latest view."""
        self._published = dict(published)
        self._latest = dict(latest)

    def restore_accumulated(self, accumulated: dict[Hashable, Any]) -> None:
        """Reinstall a persistent channel's running accumulation
        (checkpoint resume)."""
        self._accumulated = dict(accumulated)


class LocalAggregation:
    """One worker's map-side buffer for one channel during one step.

    Accepts either the :class:`AggregationChannel` itself or just its reduce
    function — worker tasks run without any reference to global channel
    state (see :mod:`repro.runtime.tasks`), so they pass the bare reducer.
    Without a ``canonicalizer`` (a guided run) every key is final.
    """

    def __init__(
        self,
        channel: AggregationChannel | ReduceFn,
        canonicalizer: PatternCanonicalizer | None,
    ) -> None:
        self._reduce_fn: ReduceFn = (
            channel.reduce_fn if isinstance(channel, AggregationChannel) else channel
        )
        self._canonicalizer = canonicalizer
        self._buffer: dict[Hashable, list] = {}

    def map(self, key: Hashable, value: Any) -> None:
        """Buffer ``value`` under ``key`` (quick patterns stay quick here
        when two-level aggregation is on; are canonicalized immediately —
        one isomorphism run per call — when it is off)."""
        canonicalizer = self._canonicalizer
        if isinstance(key, Pattern) and canonicalizer and not canonicalizer.two_level:
            canonical, mapping = canonicalizer.canonicalize(key)
            key = canonical
            value = remap_value(value, mapping)
        self._buffer.setdefault(key, []).append(value)

    def is_empty(self) -> bool:
        return not self._buffer

    def merged_partials(self) -> dict[Hashable, Any]:
        """Level-1 reduce: fold the buffer into per-final-key partials.

        Quick-pattern keys are reduced locally first, then canonicalized
        once each and their reduced value remapped — the whole point of
        two-level aggregation (Table 4's reduction factor).
        """
        reduce_fn = self._reduce_fn
        canonicalizer = self._canonicalizer
        partials: dict[Hashable, Any] = {}
        for key, values in self._buffer.items():
            reduced = reduce_fn(key, values) if len(values) > 1 else values[0]
            if isinstance(key, Pattern) and canonicalizer and canonicalizer.two_level:
                canonical, mapping = canonicalizer.canonicalize(key)
                final_key = canonical
                reduced = remap_value(reduced, mapping)
            else:
                final_key = key
            if final_key in partials:
                partials[final_key] = reduce_fn(final_key, [partials[final_key], reduced])
            else:
                partials[final_key] = reduced
        return partials


def merge_partials(
    channel: AggregationChannel,
    per_worker_partials: list[dict[Hashable, Any]],
) -> dict[Hashable, Any]:
    """Reduce-side merge of all workers' partials (the shuffle's receive end)."""
    collected: dict[Hashable, list] = {}
    for partials in per_worker_partials:
        for key, value in partials.items():
            collected.setdefault(key, []).append(value)
    merged: dict[Hashable, Any] = {}
    for key, values in collected.items():
        merged[key] = channel.reduce_fn(key, values) if len(values) > 1 else values[0]
    return merged
