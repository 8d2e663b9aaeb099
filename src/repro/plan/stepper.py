"""One stepper shape for exhaustive, single-plan and multi-query runs.

Algorithm 1 is one loop — read set I, expand, filter, process, write set
F — and what differs between an exhaustive run, a guided
:class:`~repro.plan.planner.MatchingPlan` and a multi-query
:class:`~repro.plan.dag.PlanDAG` is only how an embedding is expanded.
A *stepper* is that difference, behind three methods:

``zero_pool()``
    the sorted step-0 candidate words (the expansion of the "undefined"
    embedding), computed once per run by the engine;
``check(graph, parent_words, word)``
    the per-candidate acceptance test: what step 0 applies to its pool
    and what ODAG extraction re-applies prefix by prefix to discard
    spurious paths;
``advance(words, batch) -> (num_candidates, found, terminal)``
    one expansion: the size of the candidate pool, and the accepted
    words ascending — always equal to ``[w for w in pool if
    check(graph, words, w)]``.  When ``batch`` is set and every live plan
    member completes at the next word (``terminal``), ``found`` is
    instead the undecoded ``(member, bitmask)`` survivor masks for
    ``Computation.process_terminal``.

Three steppers have the shape — :class:`ExhaustiveStepper` (``extensions``
+ Algorithm 2 canonicality), :class:`~repro.plan.guided.PlanStepper` (the
single-plan anchor-row kernel) and :class:`~repro.plan.dag.DagStepper` (the
multi-query closure-complete kernel); docs/plans.md §6 tabulates them and
records why a single plan is not run as a one-member DAG (measured
1.6-1.8x slower, and a different pool definition would change
``candidates_generated``).  :func:`make_stepper` is the only place that
looks at the plan's type.
"""

from __future__ import annotations

from ..core.canonical import extension_checker, full_checker
from ..core.extension import extensions, initial_candidates
from ..graph import LabeledGraph
from .dag import DagStepper, PlanDAG, bound_stepper
from .guided import PlanStepper


class ExhaustiveStepper:
    """Exhaustive exploration as a stepper: every incident word is a
    candidate, and the canonicality check (Algorithm 2) — incremental, or
    from scratch when ``incremental`` is off — is the acceptance test that
    keeps one copy per automorphism class.  Never ``terminal``: there is
    no plan whose last level could be aggregated."""

    __slots__ = ("graph", "mode", "check", "_accept")

    def __init__(
        self, graph: LabeledGraph, mode: str, incremental: bool, wrap_check=None
    ) -> None:
        self.graph = graph
        self.mode = mode
        if incremental:
            self.check = extension_checker(mode)
        else:
            full = full_checker(mode)
            self.check = lambda graph, parent_words, word: full(
                graph, parent_words + (word,)
            )
        # Generate and check are two separable phases here (G and C of the
        # paper's Figure 12), so ``advance`` reaches its check through a
        # slot the caller may have wrapped; ``check`` itself stays raw.
        self._accept = self.check if wrap_check is None else wrap_check(self.check)

    def zero_pool(self) -> tuple[int, ...]:
        return tuple(initial_candidates(self.graph, self.mode))

    def advance(self, words: tuple[int, ...], batch: bool):
        graph = self.graph
        accept = self._accept
        pool = extensions(graph, self.mode, words)
        return len(pool), [w for w in pool if accept(graph, words, w)], False


def make_stepper(
    plan,
    graph: LabeledGraph,
    mode: str,
    incremental: bool = True,
    computation=None,
    wrap_check=None,
):
    """The stepper for ``plan`` (``None`` = exhaustive) on ``graph``.

    ``computation`` is the worker task's private computation copy: a DAG
    stepper is bound to it (:func:`repro.plan.dag.bound_stepper`), because
    its survivor memo is how ``advance`` hands the accepted members to the
    computation's own ``process``/``termination_filter``.  ``wrap_check``
    decorates the check where it runs as a pass of its own inside
    ``advance`` (exhaustive only — the runtime's phase timer); a fused
    kernel has no separate check to wrap.
    """
    if plan is None:
        return ExhaustiveStepper(graph, mode, incremental, wrap_check)
    if isinstance(plan, PlanDAG):
        if computation is None:
            return DagStepper(plan, graph)
        return bound_stepper(computation, plan, graph)
    return PlanStepper(plan, graph)
