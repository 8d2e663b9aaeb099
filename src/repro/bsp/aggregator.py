"""Giraph-style aggregators.

Arabesque executes its user-level aggregation "using standard Giraph
aggregators" (paper, section 4.3).  An aggregator collects values from all
workers during a superstep; the reduced result becomes visible to every
worker at the start of the next superstep.
"""

from __future__ import annotations

from typing import Any, Callable, Generic, TypeVar

T = TypeVar("T")


class Aggregator(Generic[T]):
    """A named commutative/associative reduction across workers.

    Parameters
    ----------
    initial:
        Zero-argument factory producing the identity value for a superstep.
    combine:
        Binary function folding one contributed value into the accumulator.
    """

    def __init__(self, initial: Callable[[], T], combine: Callable[[T, Any], T]):
        self._initial = initial
        self._combine = combine
        self._current: T = initial()
        self._previous: T = initial()

    def aggregate(self, value: Any) -> None:
        """Contribute ``value`` to the current superstep's accumulation."""
        self._current = self._combine(self._current, value)

    def flip(self) -> None:
        """Superstep barrier: publish current value, reset the accumulator."""
        self._previous = self._current
        self._current = self._initial()

    @property
    def value(self) -> T:
        """The value accumulated over the *previous* superstep."""
        return self._previous


def dict_merge_aggregator(merge_value: Callable[[Any, Any], Any]) -> Aggregator[dict]:
    """Merges contributed ``(key, value)`` pairs into a dict.

    Collisions are resolved with ``merge_value(old, new)`` — the primitive
    behind pattern-keyed aggregation in the Arabesque layer.
    """
    def combine(acc: dict, pair: tuple[Any, Any]) -> dict:
        key, value = pair
        if key in acc:
            acc[key] = merge_value(acc[key], value)
        else:
            acc[key] = value
        return acc

    return Aggregator(initial=dict, combine=combine)
