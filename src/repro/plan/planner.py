"""Compile a query pattern into a guided exploration plan.

The exhaustive filter-process engine is *exploration-agnostic*: it extends
every canonical embedding in every direction and only afterwards asks the
application filter whether the candidate still embeds in the query.  For
graph matching that wastes almost all of the generated candidates.  A
:class:`MatchingPlan` front-loads the query analysis instead:

* a **vertex matching order** — pattern vertices sorted so each step's
  vertex is adjacent to an already-matched one, highest-connectivity
  first, so mismatches are discovered as early as possible;
* **per-step constraints** — the required vertex label, the back-edges to
  already-matched positions (with their edge labels), the back-non-edges
  (induced semantics only), and the symmetry-breaking order restrictions
  of :mod:`repro.plan.symmetry`;
* an **anchor** choice per step — candidates are drawn from the adjacency
  list of one already-matched back-neighbor instead of the whole frontier.

The plan is immutable, picklable plain data: the process backend ships it
to workers inside the :class:`~repro.runtime.tasks.StepContext`, and the
actual candidate generation lives in :mod:`repro.plan.guided`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Iterable

from ..core.pattern import Pattern
from ..graph.bitset import to_bitset
from .symmetry import symmetry_breaking_restrictions


class PlanError(ValueError):
    """Raised when a pattern cannot be compiled into a guided plan."""


@dataclass(frozen=True)
class PlanStep:
    """Constraints on the graph vertex matched at one plan position."""

    #: Index of this step in the matching order (== embedding size before it).
    position: int
    #: The pattern vertex this step matches.
    pattern_vertex: int
    #: Required vertex label.
    vertex_label: int
    #: ``(earlier position, required edge label)`` — the candidate must be
    #: adjacent to the vertex matched at that position, with that label.
    back_edges: tuple[tuple[int, int], ...]
    #: Earlier positions the candidate must NOT be adjacent to (checked
    #: only under induced semantics).
    back_non_edges: tuple[int, ...]
    #: Earlier positions whose matched vertex id must be *smaller* than
    #: the candidate (restrictions ``m(earlier) < m(this)``).
    must_exceed: tuple[int, ...]
    #: Earlier positions whose matched vertex id must be *larger* than
    #: the candidate (restrictions ``m(this) < m(earlier)``).
    must_precede: tuple[int, ...]
    #: Optional whitelist of graph vertices this step may match, as a
    #: big-int bitset over vertex ids (``None`` = unrestricted; ``0`` =
    #: empty whitelist, which blocks everything).  Guided FSM pushes a
    #: candidate pattern's parent MNI domains down here
    #: (:func:`restrict_plan`), GraMi-style: every full match maps
    #: inherited pattern vertices into the parent's domains, so pruning
    #: against them loses nothing.  The bitset form makes the hot pool
    #: intersection in :func:`repro.plan.guided.guided_survivors` a
    #: single ``&``.
    allowed: int | None = None


@dataclass(frozen=True)
class MatchingPlan:
    """A compiled query: matching order + per-step constraints.

    ``order[i]`` is the pattern vertex matched at step ``i``; a guided
    embedding's word ``i`` is the graph vertex assigned to it, so a full
    embedding of ``num_steps`` words IS a match mapping.  Symmetry
    restrictions guarantee each distinct occurrence is found through
    exactly one word sequence — no canonicality check needed.
    """

    pattern: Pattern
    induced: bool
    order: tuple[int, ...]
    steps: tuple[PlanStep, ...]
    #: Restrictions in pattern-vertex terms ``(u, v)`` meaning
    #: ``m(u) < m(v)`` (also baked into the steps; kept for reporting).
    restrictions: tuple[tuple[int, int], ...]
    num_automorphisms: int

    @property
    def num_steps(self) -> int:
        return len(self.steps)

    def describe(self) -> str:
        """One-line human-readable plan summary (CLI / benchmarks)."""
        order = ",".join(map(str, self.order))
        rules = " ".join(f"m({u})<m({v})" for u, v in self.restrictions)
        sizes = ",".join(
            f"{step.position}:{step.allowed.bit_count()}"
            for step in self.steps
            if step.allowed is not None
        )
        return (
            f"order=[{order}] |Aut|={self.num_automorphisms}"
            f" restrictions=[{rules or 'none'}]"
            f" whitelists=[{sizes or 'none'}]"
            f" semantics={'induced' if self.induced else 'monomorphic'}"
        )


def _matching_order(pattern: Pattern) -> tuple[int, ...]:
    """Connectivity-first greedy order over the pattern vertices.

    Start from the highest-degree vertex, then repeatedly pick the
    unplaced vertex with the most already-placed neighbors (ties broken
    toward higher degree, then smaller id) — the same fail-fast heuristic
    the VF2 substitute uses, made explicit and inspectable here.
    """
    n = pattern.num_vertices
    adjacency: list[set[int]] = [set() for _ in range(n)]
    for u, v, _ in pattern.edges:
        adjacency[u].add(v)
        adjacency[v].add(u)
    degree = [len(adjacency[v]) for v in range(n)]
    start = max(range(n), key=lambda v: (degree[v], -v))
    order = [start]
    placed = {start}
    while len(order) < n:
        frontier = [v for v in range(n) if v not in placed and adjacency[v] & placed]
        # compile_plan validates connectivity up front; an empty frontier
        # here would mean the two checks disagree.
        assert frontier, "disconnected pattern reached the order builder"
        chosen = max(
            frontier, key=lambda v: (len(adjacency[v] & placed), degree[v], -v)
        )
        order.append(chosen)
        placed.add(chosen)
    return tuple(order)


def _validated_order(pattern: Pattern, order: tuple[int, ...]) -> tuple[int, ...]:
    """Check a caller-supplied matching order (prefix-affine DAG mode).

    The order must be a permutation of the pattern vertices in which every
    vertex after the first is adjacent to an earlier one — the same
    connected-prefix invariant :func:`_matching_order` guarantees, without
    which the anchor-based candidate generator would be incomplete.
    """
    order = tuple(order)
    if sorted(order) != list(range(pattern.num_vertices)):
        raise PlanError(
            f"matching order {order!r} is not a permutation of the "
            f"{pattern.num_vertices} pattern vertices"
        )
    adjacency: dict[int, set[int]] = {v: set() for v in range(pattern.num_vertices)}
    for u, v, _ in pattern.edges:
        adjacency[u].add(v)
        adjacency[v].add(u)
    placed: set[int] = set()
    for position, vertex in enumerate(order):
        if position and not (adjacency[vertex] & placed):
            raise PlanError(
                f"matching order {order!r} places vertex {vertex} with no "
                "already-placed neighbor — every step after the first must "
                "extend the connected prefix"
            )
        placed.add(vertex)
    return order


def compile_plan(
    pattern: Pattern,
    induced: bool = True,
    *,
    order: tuple[int, ...] | None = None,
    catalog=None,
) -> MatchingPlan:
    """Compile ``pattern`` into a :class:`MatchingPlan`.

    ``induced=True`` plans for vertex-induced occurrences (back-non-edges
    are enforced), ``False`` for monomorphisms (extra graph edges between
    matched vertices are allowed).  ``order`` overrides the connectivity
    heuristic with an explicit matching order (validated: a permutation
    with connected prefixes) — the prefix-affine mode multi-query DAG
    compilation uses so sibling patterns agree on their common
    subpattern's order (:mod:`repro.plan.dag`).  ``catalog`` (a
    :class:`~repro.plan.stats.GraphCatalog`; ignored when ``order`` is
    given) switches the order choice to the cost-based search of
    :func:`repro.plan.cost.choose_order` — the heuristic order still
    wins every cost tie, and order choice never affects *results*, only
    how many candidates are generated finding them.  Raises
    :class:`PlanError` for empty or disconnected patterns.
    """
    if pattern.num_vertices == 0:
        raise PlanError("query pattern must not be empty")
    if not pattern.is_connected():
        # Same wording as GraphMatching's validation — one user error,
        # one message, whichever mode hits it first.
        raise PlanError("query pattern must be connected")
    if order is None:
        if catalog is None:
            order = _matching_order(pattern)
        else:
            # Local import: cost builds on the planner's heuristic.
            from .cost import choose_order

            order = choose_order(pattern, catalog).order
    else:
        order = _validated_order(pattern, order)
    position_of = {vertex: i for i, vertex in enumerate(order)}
    edge_labels = pattern.edge_dict()
    restrictions, num_automorphisms = symmetry_breaking_restrictions(pattern)

    adjacency: dict[int, dict[int, int]] = {v: {} for v in range(pattern.num_vertices)}
    for (u, v), label in edge_labels.items():
        adjacency[u][v] = label
        adjacency[v][u] = label

    steps: list[PlanStep] = []
    for position, vertex in enumerate(order):
        back_edges = tuple(
            sorted(
                (position_of[other], label)
                for other, label in adjacency[vertex].items()
                if position_of[other] < position
            )
        )
        back_non_edges = tuple(
            earlier
            for earlier in range(position)
            if order[earlier] not in adjacency[vertex]
        )
        # A restriction (u, v) is checkable once both endpoints are
        # matched; attach it to the later position.
        must_exceed = tuple(
            sorted(
                position_of[u]
                for u, v in restrictions
                if v == vertex and position_of[u] < position
            )
        )
        must_precede = tuple(
            sorted(
                position_of[v]
                for u, v in restrictions
                if u == vertex and position_of[v] < position
            )
        )
        steps.append(
            PlanStep(
                position=position,
                pattern_vertex=vertex,
                vertex_label=pattern.vertex_labels[vertex],
                back_edges=back_edges,
                back_non_edges=back_non_edges,
                must_exceed=must_exceed,
                must_precede=must_precede,
            )
        )
    return MatchingPlan(
        pattern=pattern,
        induced=induced,
        order=order,
        steps=tuple(steps),
        restrictions=restrictions,
        num_automorphisms=num_automorphisms,
    )


def restrict_plan(
    plan: MatchingPlan,
    allowed_by_vertex: dict[int, Iterable[int] | int],
) -> MatchingPlan:
    """A copy of ``plan`` whose steps only match whitelisted vertices.

    ``allowed_by_vertex`` maps pattern vertices to the graph vertices
    they may be assigned — as any iterable of vertex ids (guided FSM
    passes frozenset domains) or an already-packed bitset ``int``;
    vertices absent from the dict keep whatever whitelist the step
    already carries.  Whitelists are stored on the steps in bitset form
    (:mod:`repro.graph.bitset`).  Restrictions **compose**: applying a
    second overlay intersects with the first (a vertex must satisfy
    every whitelist ever pushed onto it), so ``restrict_plan`` applied
    twice is the conjunction, never a silent overwrite — and applying
    the same overlay twice is idempotent.  The compiled order,
    constraints, and symmetry restrictions are reused unchanged, so
    restricting a cached plan costs no recompilation; soundness is the
    caller's contract — the whitelists must cover every image the
    restricted plan could otherwise produce (guided FSM derives them
    from complete parent domains).
    """
    steps = []
    for step in plan.steps:
        if step.pattern_vertex not in allowed_by_vertex:
            steps.append(step)
            continue
        incoming = _as_bitset(allowed_by_vertex[step.pattern_vertex])
        if incoming is None or step.allowed is None:
            combined = step.allowed if incoming is None else incoming
        else:
            combined = step.allowed & incoming
        steps.append(dataclasses.replace(step, allowed=combined))
    return dataclasses.replace(plan, steps=tuple(steps))


def _as_bitset(allowed: Iterable[int] | int | None) -> int | None:
    """Normalize a whitelist value to its bitset form (``None`` passes)."""
    if allowed is None or isinstance(allowed, int):
        return allowed
    return to_bitset(allowed)
