"""Cost-based matching-order selection over a statistics catalog.

Given a query pattern and a :class:`~repro.plan.stats.GraphCatalog`,
this module prices candidate matching orders with a **selectivity
chain** and picks the cheapest:

* the step-0 pool is the anchor label's frequency;
* every later step draws its candidates from one already-matched
  back-neighbor's adjacency row, so its per-embedding pool is the
  *minimum* expected anchor degree over the placed back-neighbors
  (mirroring the guided kernel's min-degree anchor choice);
* of those candidates, the expected survivors are the new label's
  frequency scaled by one **fan-out / closure factor per back-edge**
  (``pair_counts`` selectivities, independence-assumed), and halved
  once per symmetry restriction that becomes checkable at the step —
  survivors feed the next step's multiplier, so a cheap early step
  shrinks every later pool.

The total predicted cost of an order is the sum of per-step expected
candidate counts — the same quantity the runtime meters as
``total_candidates``, which is what the benchmarks compare.

Order search is **exhaustive** over connected-prefix permutations for
small patterns (≤ :data:`EXHAUSTIVE_VERTICES` vertices) and a greedy
**beam** (width :data:`BEAM_WIDTH`) beyond.  The planner's degree/
connectivity heuristic order is always evaluated too, and wins every
tie: on graphs where the catalog cannot distinguish orders (one label,
uniform statistics) the cost-based planner reproduces the heuristic
plan exactly, so unlabeled workloads keep byte-identical candidate
streams.  Order choice never affects *results* — only which candidates
are generated on the way — so the exhaustive-oracle equality guarantees
are untouched by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.pattern import Pattern
from .planner import _matching_order
from .stats import GraphCatalog
from .symmetry import symmetry_breaking_restrictions

#: Patterns up to this many vertices get an exhaustive connected-prefix
#: order search (5! = 120 orders at the bound — negligible next to one
#: engine run); larger patterns use the beam.
EXHAUSTIVE_VERTICES = 5

#: Beam width for the greedy order search on larger patterns.
BEAM_WIDTH = 8

#: Relative margin the best cost-based order must clear to displace the
#: heuristic — guards against replacing a known-good order on modelling
#: noise (and makes exact ties deterministically heuristic).
_IMPROVEMENT_MARGIN = 1e-9


@dataclass(frozen=True)
class StepEstimate:
    """Predicted cost of one step of a candidate matching order."""

    position: int
    pattern_vertex: int
    #: Expected candidates generated per parent embedding (the anchor
    #: row size; label frequency at step 0).
    pool: float
    #: Expected candidates generated at this step in total.
    candidates: float
    #: Expected embeddings surviving this step's full check.
    matches: float


@dataclass(frozen=True)
class OrderEstimate:
    """A candidate order with its predicted per-step and total cost."""

    order: tuple[int, ...]
    steps: tuple[StepEstimate, ...]

    @property
    def total_candidates(self) -> float:
        return sum(step.candidates for step in self.steps)

    def describe(self) -> str:
        """One line per step: pool, cumulative candidates, survivors."""
        lines = []
        for step in self.steps:
            lines.append(
                f"  step {step.position}: vertex {step.pattern_vertex}"
                f" pool~{step.pool:,.1f}"
                f" candidates~{step.candidates:,.1f}"
                f" matches~{step.matches:,.1f}"
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class OrderChoice:
    """The outcome of :func:`choose_order` (also the explain payload)."""

    pattern: Pattern
    chosen: OrderEstimate
    heuristic: OrderEstimate
    #: True when the cost model displaced the heuristic order.
    cost_based: bool
    reason: str
    #: Number of candidate orders the search evaluated.
    considered: int

    @property
    def order(self) -> tuple[int, ...]:
        return self.chosen.order

    def describe(self) -> str:
        """Multi-line explain report (``Miner.explain`` / ``--explain``)."""
        winner = "cost-based" if self.cost_based else "heuristic"
        lines = [
            f"order=[{','.join(map(str, self.chosen.order))}]"
            f" winner={winner} considered={self.considered}",
            f"reason: {self.reason}",
            f"chosen order (~{self.chosen.total_candidates:,.1f} candidates):",
            self.chosen.describe(),
        ]
        if self.cost_based:
            lines += [
                f"heuristic order"
                f" [{','.join(map(str, self.heuristic.order))}]"
                f" (~{self.heuristic.total_candidates:,.1f} candidates):",
                self.heuristic.describe(),
            ]
        return "\n".join(lines)


class _PatternContext:
    """Pattern-shape facts every estimate step reads (built once)."""

    __slots__ = ("labels", "adjacency", "restriction_at")

    def __init__(self, pattern: Pattern) -> None:
        n = pattern.num_vertices
        self.labels = pattern.vertex_labels
        self.adjacency: list[set[int]] = [set() for _ in range(n)]
        for u, v, _ in pattern.edges:
            self.adjacency[u].add(v)
            self.adjacency[v].add(u)
        #: restriction endpoints as vertex pairs — a restriction becomes
        #: checkable (and halves the survivors) at the step placing its
        #: later endpoint.
        restrictions, _ = symmetry_breaking_restrictions(pattern)
        self.restriction_at: tuple[tuple[int, int], ...] = restrictions


def _estimate_step(
    context: _PatternContext,
    catalog: GraphCatalog,
    position_of: dict[int, int],
    matches: float,
    vertex: int,
) -> tuple[float, float, float]:
    """``(pool, candidates, survivors)`` of placing ``vertex`` next.

    ``position_of`` maps the already-placed vertices; ``matches`` is the
    expected embedding count entering this step.
    """
    label = context.labels[vertex]
    position = len(position_of)
    if position == 0:
        pool = float(catalog.frequency(label))
        candidates = pool
        survivors = pool
    else:
        back_labels = [
            context.labels[u]
            for u in context.adjacency[vertex]
            if u in position_of
        ]
        pool = min(catalog.anchor_degree(la) for la in back_labels)
        candidates = matches * pool
        survivors = matches * catalog.frequency(label)
        for la in back_labels:
            survivors *= catalog.closure_probability(la, label)
        survivors = min(survivors, candidates)
    for u, v in context.restriction_at:
        if u == vertex or v == vertex:
            other = v if u == vertex else u
            if other in position_of:
                survivors *= 0.5
    return pool, candidates, survivors


def estimate_order(
    pattern: Pattern, order: tuple[int, ...], catalog: GraphCatalog
) -> OrderEstimate:
    """Price one connected-prefix matching order against the catalog."""
    context = _PatternContext(pattern)
    position_of: dict[int, int] = {}
    matches = 0.0
    steps: list[StepEstimate] = []
    for position, vertex in enumerate(order):
        pool, candidates, survivors = _estimate_step(
            context, catalog, position_of, matches, vertex
        )
        steps.append(
            StepEstimate(
                position=position,
                pattern_vertex=vertex,
                pool=pool,
                candidates=candidates,
                matches=survivors,
            )
        )
        position_of[vertex] = position
        matches = survivors
    return OrderEstimate(order=tuple(order), steps=tuple(steps))


def connected_orders(pattern: Pattern) -> list[tuple[int, ...]]:
    """Every matching order with connected prefixes, lexicographic.

    Exponential in the worst case — callers gate on
    :data:`EXHAUSTIVE_VERTICES`.
    """
    n = pattern.num_vertices
    adjacency: list[set[int]] = [set() for _ in range(n)]
    for u, v, _ in pattern.edges:
        adjacency[u].add(v)
        adjacency[v].add(u)
    orders: list[tuple[int, ...]] = []
    order: list[int] = []
    placed: set[int] = set()

    def extend() -> None:
        if len(order) == n:
            orders.append(tuple(order))
            return
        for vertex in range(n):
            if vertex in placed:
                continue
            if order and not (adjacency[vertex] & placed):
                continue
            order.append(vertex)
            placed.add(vertex)
            extend()
            placed.discard(vertex)
            order.pop()

    extend()
    return orders


def _beam_orders(
    pattern: Pattern, catalog: GraphCatalog, width: int
) -> list[tuple[int, ...]]:
    """Greedy beam over connected-prefix orders, cheapest-first.

    Deterministic: states are ranked by (cost so far, expected
    embeddings, order tuple) at every level.
    """
    n = pattern.num_vertices
    context = _PatternContext(pattern)
    #: (total cost, matches, order tuple, position_of)
    states: list[tuple[float, float, tuple[int, ...], dict[int, int]]] = []
    for vertex in range(n):
        pool, candidates, survivors = _estimate_step(
            context, catalog, {}, 0.0, vertex
        )
        states.append((candidates, survivors, (vertex,), {vertex: 0}))
    states.sort(key=lambda s: (s[0], s[1], s[2]))
    states = states[:width]
    for _ in range(n - 1):
        frontier: list[tuple[float, float, tuple[int, ...], dict[int, int]]] = []
        for total, matches, order, position_of in states:
            for vertex in range(n):
                if vertex in position_of:
                    continue
                if not (context.adjacency[vertex] & position_of.keys()):
                    continue
                _, candidates, survivors = _estimate_step(
                    context, catalog, position_of, matches, vertex
                )
                frontier.append(
                    (
                        total + candidates,
                        survivors,
                        order + (vertex,),
                        {**position_of, vertex: len(order)},
                    )
                )
        frontier.sort(key=lambda s: (s[0], s[1], s[2]))
        states = frontier[:width]
    return [order for _, _, order, _ in states]


def candidate_orders(
    pattern: Pattern, catalog: GraphCatalog
) -> list[tuple[int, ...]]:
    """The orders the search will price: exhaustive for small patterns,
    beam beyond — always including the planner's heuristic order."""
    if pattern.num_vertices <= EXHAUSTIVE_VERTICES:
        orders = connected_orders(pattern)
    else:
        orders = _beam_orders(pattern, catalog, BEAM_WIDTH)
    heuristic = _matching_order(pattern)
    if heuristic not in orders:
        orders.append(heuristic)
    return orders


def choose_order(pattern: Pattern, catalog: GraphCatalog) -> OrderChoice:
    """Pick the cheapest matching order for ``pattern`` on this graph.

    The heuristic order wins every tie (within a tiny relative margin),
    so graphs whose statistics cannot separate orders — notably
    unlabeled graphs — keep the exact heuristic plan and its candidate
    stream.
    """
    heuristic_order = _matching_order(pattern)
    heuristic = estimate_order(pattern, heuristic_order, catalog)
    best = heuristic
    considered = 0
    for order in candidate_orders(pattern, catalog):
        considered += 1
        if order == heuristic_order:
            continue
        estimate = estimate_order(pattern, order, catalog)
        if estimate.total_candidates < best.total_candidates * (
            1.0 - _IMPROVEMENT_MARGIN
        ) or (
            best is not heuristic
            and estimate.total_candidates == best.total_candidates
            and estimate.order < best.order
        ):
            best = estimate
    if best is heuristic:
        reason = (
            "heuristic order is already cost-minimal among "
            f"{considered} considered orders"
            f" (~{heuristic.total_candidates:,.1f} candidates)"
        )
        return OrderChoice(
            pattern=pattern,
            chosen=heuristic,
            heuristic=heuristic,
            cost_based=False,
            reason=reason,
            considered=considered,
        )
    ratio = (
        heuristic.total_candidates / best.total_candidates
        if best.total_candidates > 0
        else float("inf")
    )
    reason = (
        f"cost model predicts ~{best.total_candidates:,.1f} candidates"
        f" vs ~{heuristic.total_candidates:,.1f} for the heuristic"
        f" ({ratio:,.1f}x fewer)"
    )
    return OrderChoice(
        pattern=pattern,
        chosen=best,
        heuristic=heuristic,
        cost_based=True,
        reason=reason,
        considered=considered,
    )
