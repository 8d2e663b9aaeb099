"""One stepper shape for exhaustive, single-plan and multi-query runs.

Algorithm 1 is one loop — read set I, expand, filter, process, write set
F — and what differs between an exhaustive run, a guided
:class:`~repro.plan.planner.MatchingPlan` and a multi-query
:class:`~repro.plan.dag.PlanDAG` is only how an embedding is expanded.
A *stepper* is that difference, behind four methods:

``zero_pool()``
    the sorted step-0 candidate words (the expansion of the "undefined"
    embedding), computed once per run by the engine;
``check(graph, parent_words, word)``
    the per-candidate acceptance test: what step 0 applies to its pool;
``accept(words, pool) -> mask``
    ``check`` over a whole bitset pool — ``{w in pool : check(graph,
    words, w)}`` for *any* pool, not just the extension pool.  ODAG
    extraction re-applies it to a path prefix's successor set to discard
    spurious paths;
``advance(words, batch) -> (num_candidates, num_accepted, found, terminal)``
    one expansion: the size of the candidate pool, how many of its words
    ``check`` accepts, and those words ascending — ``[w for w in pool if
    check(graph, words, w)]``, less any a pool-level φ rejected (below) —
    with ``terminal`` ``None``.  When ``batch`` is set and every child
    finishes at the next word, ``found`` is instead left undecoded for
    ``Computation.process_terminal`` and ``terminal`` is the number of
    children it holds: the ``(member, bitmask)`` survivor masks of a plan
    whose live members all complete (``num_accepted`` the popcount of
    their union), or the one bitmask of the children φ kept on an
    exhaustive run whose computation names that size as its last.

Three steppers have the shape — :class:`ExhaustiveStepper` (extension
mask, then Algorithm 2 over the whole pool),
:class:`~repro.plan.guided.PlanStepper` (the single-plan anchor-row
kernel) and :class:`~repro.plan.dag.DagStepper` (the multi-query
closure-complete kernel); docs/plans.md §6 tabulates them, derives the
mask form of Algorithm 2, and records why a single plan is not run as a
one-member DAG (measured 1.6-1.8x slower, and a different pool definition
would change ``candidates_generated``).  :func:`make_stepper` is the only
place that looks at the plan's type.

Exhaustive exploration is mask algebra end to end: no Python call per
candidate.  The pool, its canonical subset and the subset φ keeps
(``Computation.filter_extensions``, where the computation offers it) are
three bitsets; the two counters are popcounts; only the children that
will be built are decoded — none at all on the last level of a
computation with a ``terminal_size``.  The per-candidate ``check`` remains
for step 0 and the ``incremental_canonicality=False`` ablation, and as the
oracle ``tests/test_kernel_equivalence.py`` replays the masks against.
"""

from __future__ import annotations

from functools import partial

from ..core.canonical import (
    canonical_extension_mask,
    extension_checker,
    full_checker,
)
from ..core.extension import extension_mask, initial_candidates, word_row
from ..graph import LabeledGraph
from ..graph.bitset import filter_bitset, from_bitset
from .dag import DagStepper, PlanDAG, bound_stepper
from .guided import PlanStepper


def _keep_all(words: tuple[int, ...], mask: int) -> int:
    """The pool-level φ of a computation without ``filter_extensions``."""
    return mask


class ExhaustiveStepper:
    """Exhaustive exploration as a stepper: every incident word is a
    candidate, and the canonicality check (Algorithm 2) — incremental, or
    from scratch when ``incremental`` is off — is the acceptance test that
    keeps one copy per automorphism class.

    ``advance`` never looks at one candidate: the pool is the extension
    *mask* (phase G), the accepted words are its canonical sub-mask (phase
    C, one :func:`~repro.core.canonical.canonical_extension_mask` call per
    parent), both counted by popcount; ``pool_filter`` — the computation's
    ``filter_extensions`` — then drops the children φ rejects before
    anything is decoded.  Children of ``terminal_size`` words (the size at
    which the computation says every embedding terminates) are not decoded
    at all when the caller batches.  ``accept`` is the same canonical
    kernel, unwrapped, over a pool the caller brings; ``check`` keeps the
    per-candidate form."""

    __slots__ = (
        "graph", "mode", "check", "accept", "_row", "_canonical", "_pool_filter",
        "_terminal_size",
    )

    def __init__(
        self,
        graph: LabeledGraph,
        mode: str,
        incremental: bool,
        wrap_check=None,
        pool_filter=None,
        terminal_size: int | None = None,
    ) -> None:
        self.graph = graph
        self.mode = mode
        self._row = word_row(graph, mode)
        if incremental:
            self.check = extension_checker(mode)
            canonical = partial(canonical_extension_mask, self._row)
        else:
            full = full_checker(mode)
            self.check = check = lambda graph, parent_words, word: full(
                graph, parent_words + (word,)
            )
            canonical = lambda words, pool: filter_bitset(
                pool, partial(check, graph, words)
            )
        self.accept = canonical
        # Generate and check are two separable phases here (G and C of the
        # paper's Figure 12), so ``advance`` reaches its canonical pass
        # through a slot the caller may have wrapped; ``accept`` (part of
        # the caller's read) and ``check`` stay raw.
        self._canonical = canonical if wrap_check is None else wrap_check(canonical)
        self._pool_filter = _keep_all if pool_filter is None else pool_filter
        self._terminal_size = terminal_size

    def zero_pool(self) -> tuple[int, ...]:
        return tuple(initial_candidates(self.graph, self.mode))

    def advance(self, words: tuple[int, ...], batch: bool):
        pool = extension_mask(self._row, words)
        accepted = self._canonical(words, pool)
        kept = self._pool_filter(words, accepted)
        if batch and len(words) + 1 == self._terminal_size:
            return pool.bit_count(), accepted.bit_count(), kept, kept.bit_count()
        return pool.bit_count(), accepted.bit_count(), from_bitset(kept), None


def make_stepper(
    plan,
    graph: LabeledGraph,
    mode: str,
    incremental: bool = True,
    computation=None,
    wrap_check=None,
    pool_filter=None,
    terminal_size: int | None = None,
):
    """The stepper for ``plan`` (``None`` = exhaustive) on ``graph``.

    ``computation`` is the worker task's private computation copy: a DAG
    stepper is bound to it (:func:`repro.plan.dag.bound_stepper`), because
    its survivor memo is how ``advance`` hands the accepted members to the
    computation's own ``process``/``termination_filter``.  ``wrap_check``
    decorates the canonicality kernel where it runs as a pass of its own
    inside ``advance`` (exhaustive only — the runtime's phase timer); a
    fused kernel has no separate check to wrap.  ``pool_filter`` is the
    computation's ``filter_extensions`` when it may stand in for the
    per-child φ, and ``terminal_size`` its ``terminal_size`` when its
    ``process_terminal`` may finish that level from the mask (exhaustive
    only too: both are defined over extension masks, and a plan knows its
    own last level).
    """
    if plan is None:
        return ExhaustiveStepper(
            graph, mode, incremental, wrap_check, pool_filter, terminal_size
        )
    if isinstance(plan, PlanDAG):
        if computation is None:
            return DagStepper(plan, graph)
        return bound_stepper(computation, plan, graph)
    return PlanStepper(plan, graph)
