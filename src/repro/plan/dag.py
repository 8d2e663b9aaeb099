"""Multi-query plan DAGs: one shared-prefix exploration for a pattern batch.

A single :class:`~repro.plan.planner.MatchingPlan` answers one pattern per
engine run, so multi-pattern workloads — the motif distribution, guided
FSM's per-level candidate sets — re-enumerate the same partial matches
once per pattern.  A :class:`PlanDAG` compiles a *batch* of patterns into
one structure instead:

* **prefix-affine orders** — each member pattern is compiled through
  :func:`repro.plan.planner.compile_plan` with a matching order chosen
  greedily against a shared trie (:func:`build_plan_dag`): at every step
  the order search prefers the pattern vertex whose structural step
  signature (required vertex label + back-edges with edge labels) matches
  an existing trie child, so sibling patterns agree on their common
  subpattern's matching order and their plans share trie nodes;
* **shared trie nodes** — a :class:`DagNode` carries only the structural
  constraints every pattern routed through it agrees on; per-pattern
  symmetry restrictions, induced back-non-edges, and per-pattern domain
  whitelists stay on the member plans, where they are sound per pattern
  by construction (they are exactly the solo plan's);
* **set-of-active-nodes execution** — the runtime advances each embedding
  against the whole batch at once through a :class:`DagStepper`:
  :func:`dag_survivors` tracks which member patterns still accept the
  word sequence, candidate pools are generated once per distinct trie
  node of the surviving patterns and deduplicated
  (:meth:`DagStepper.candidates`), a candidate is kept if *any* survivor
  accepts it (:meth:`DagStepper.check`), and a full-size embedding is
  emitted once per accepting leaf (:func:`accepting_patterns`).

Correctness is independent of how much sharing the order search finds:
every member pattern owns a complete plan, and an embedding advances a
pattern only if it passes that plan's own per-step check — so the DAG run
explores exactly the union of the per-pattern guided runs, with shared
prefixes generated (and stored) once instead of once per pattern.

The DAG is immutable, hashable, picklable plain data, accepted everywhere
a single plan is: ``ArabesqueConfig.plan``, the runtime's
:class:`~repro.runtime.tasks.StepContext`, and the engine's validation.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import partial
from typing import Collection, Sequence

from ..core.pattern import Pattern
from ..graph import LabeledGraph
from ..graph.bitset import filter_bitset, from_bitset, to_bitset
from .guided import (
    confirm_edge_labels,
    guided_extension_check,
    prefers_row_iteration,
    residual_mask,
    residual_ok,
    root_pool_bits,
    structural_ok,
)
from .planner import MatchingPlan, PlanError, compile_plan, restrict_plan


@dataclass(frozen=True)
class DagNode:
    """One shared trie position: structural constraints only.

    Two member plans share a node exactly when their whole step prefixes
    agree structurally (same label + back-edge signature at every earlier
    position).  Per-pattern constraints — symmetry restrictions, induced
    back-non-edges, domain whitelists — live on the member plans.
    """

    node_id: int
    #: Index of this step in the matching order (== prefix length).
    position: int
    #: Required vertex label (shared — part of the trie signature).
    vertex_label: int
    #: ``(earlier position, required edge label)`` back-edges (shared).
    back_edges: tuple[tuple[int, int], ...]
    #: Union of the member whitelists routed through this node, as a
    #: big-int bitset over vertex ids (``None`` when any member is
    #: unrestricted here).  Pool pruning only — each member plan still
    #: enforces its own exact whitelist, so using the union never loses
    #: a match and never admits one.  Bitset form keeps the union a
    #: single ``|`` and the pool intersection a single ``&``.
    allowed: int | None = None


@dataclass(frozen=True)
class PlanDAG:
    """A compiled pattern batch: member plans + their shared-prefix trie.

    ``plans[p]`` is pattern ``p``'s full :class:`MatchingPlan` (compiled
    with the prefix-affine order); ``paths[p][d]`` is the trie node plan
    ``p`` occupies at step ``d``.  All member plans share one semantics
    flag (``induced``), mirroring the single-plan contract.
    """

    induced: bool
    plans: tuple[MatchingPlan, ...]
    nodes: tuple[DagNode, ...]
    paths: tuple[tuple[int, ...], ...]

    @property
    def patterns(self) -> tuple[Pattern, ...]:
        """The batch, in member order."""
        return tuple(plan.pattern for plan in self.plans)

    @property
    def num_patterns(self) -> int:
        return len(self.plans)

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def total_plan_steps(self) -> int:
        """Steps the batch would occupy as independent plans."""
        return sum(plan.num_steps for plan in self.plans)

    @property
    def shared_steps(self) -> int:
        """Plan steps the trie deduplicated away (the sharing win)."""
        return self.total_plan_steps - self.num_nodes

    @property
    def max_depth(self) -> int:
        return max(plan.num_steps for plan in self.plans)

    def describe(self) -> str:
        """One-line human-readable DAG summary (CLI / benchmarks)."""
        whitelisted = sum(
            1
            for plan in self.plans
            for step in plan.steps
            if step.allowed is not None
        )
        return (
            f"patterns={self.num_patterns} nodes={self.num_nodes}"
            f" (plan steps={self.total_plan_steps},"
            f" {self.shared_steps} shared)"
            f" depth<={self.max_depth}"
            f" whitelisted-steps={whitelisted}"
            f" semantics={'induced' if self.induced else 'monomorphic'}"
        )


# ----------------------------------------------------------------------
# Compilation: prefix-affine order search over a shared trie
# ----------------------------------------------------------------------
def _step_signature(
    pattern: Pattern,
    adjacency: dict[int, dict[int, int]],
    position_of: dict[int, int],
    vertex: int,
) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Structural signature of placing ``vertex`` after the placed prefix.

    Only the shared constraints enter the signature: the vertex label and
    the (position, edge label) back-edges.  Induced back-non-edges and
    symmetry restrictions are deliberately excluded — they differ between
    patterns that can still share candidate pools, and each member plan
    enforces its own.
    """
    back_edges = tuple(
        sorted(
            (position_of[other], label)
            for other, label in adjacency[vertex].items()
            if other in position_of
        )
    )
    return (pattern.vertex_labels[vertex], back_edges)


def _pattern_adjacency(pattern: Pattern) -> dict[int, dict[int, int]]:
    """``vertex -> {neighbor: edge label}`` of a pattern (order search)."""
    adjacency: dict[int, dict[int, int]] = {
        v: {} for v in range(pattern.num_vertices)
    }
    for u, v, label in pattern.edges:
        adjacency[u][v] = label
        adjacency[v][u] = label
    return adjacency


def _signature_chain(
    pattern: Pattern,
    adjacency: dict[int, dict[int, int]],
    order: Sequence[int],
) -> tuple[tuple, ...]:
    """The trie-signature sequence an order walks, root to leaf."""
    position_of: dict[int, int] = {}
    chain = []
    for vertex in order:
        chain.append(_step_signature(pattern, adjacency, position_of, vertex))
        position_of[vertex] = len(position_of)
    return tuple(chain)


def _insert_chain(
    chain: tuple[tuple, ...], root_children: dict, node_children: list[dict]
) -> tuple[int, ...]:
    """Walk ``chain`` down the trie, creating missing nodes (ids are
    assigned in creation order); returns the node path, root to leaf.
    ``root_children`` is the child table of position 0, ``node_children[i]``
    that of node ``i``."""
    path = []
    table = root_children
    for signature in chain:
        child = table.get(signature)
        if child is None:
            child = len(node_children)
            node_children.append({})
            table[signature] = child
        path.append(child)
        table = node_children[child]
    return tuple(path)


def _affine_greedy_order(
    pattern: Pattern,
    adjacency: dict[int, dict[int, int]],
    root_children: dict,
    node_children: list[dict],
) -> tuple[int, ...]:
    """The catalog-free greedy prefix-affine order against the current trie.

    At every step, prefer a frontier vertex whose structural step
    signature matches an existing child of the current trie node (so
    shared subpatterns align), falling back to the single-plan
    connectivity heuristic (most placed neighbors, then degree, then
    smaller id) when nothing matches — from then on the pattern is on
    novel nodes and the heuristic alone decides.
    """
    position_of: dict[int, int] = {}
    order: list[int] = []
    table: dict | None = root_children
    while len(order) < pattern.num_vertices:
        if order:
            frontier = [
                v
                for v in range(pattern.num_vertices)
                if v not in position_of
                and position_of.keys() & adjacency[v].keys()
            ]
        else:
            frontier = list(range(pattern.num_vertices))
        ranked = sorted(
            frontier,
            key=lambda v: (
                len(position_of.keys() & adjacency[v].keys()),
                len(adjacency[v]),
                -v,
            ),
            reverse=True,
        )
        chosen = ranked[0]
        if table is not None:
            child = None
            for v in ranked:
                child = table.get(_step_signature(pattern, adjacency, position_of, v))
                if child is not None:
                    chosen = v
                    break
            table = None if child is None else node_children[child]
        position_of[chosen] = len(order)
        order.append(chosen)
    return tuple(order)


def _harmonized_orders(
    batch: tuple[Pattern, ...], catalog
) -> list[tuple[int, ...]]:
    """Catalog-aware joint order selection: restriction harmonization.

    The greedy prefix-affine search only aligns a pattern with trie
    children its *heuristic* ranking happens to walk past — order-variant
    prefixes of the same subpattern (typical in labeled batches, where
    label-distinct signatures defeat the heuristic ranking) end up on
    separate nodes doing duplicate work.  This search prices orders
    jointly instead, in two passes:

    * **pass 1** — patterns are inserted in batch order; each one picks,
      among its cost-search candidate orders
      (:func:`repro.plan.cost.candidate_orders`), the order minimizing
      the estimated cost of its **novel** trie nodes only (nodes already
      in the trie are shared and price at zero), tying back to the
      greedy affine baseline unless an alternative is strictly cheaper;
    * **pass 2** — with the full pass-1 trie known, every pattern
      re-chooses against it (early members now see the prefixes later
      members created), and the final trie is rebuilt from the final
      orders.

    Deterministic throughout: candidate enumeration, scoring tuples, and
    tie-breaks are all total orders over plain data.
    """
    from .cost import candidate_orders, estimate_order

    adjacencies = [_pattern_adjacency(pattern) for pattern in batch]
    #: Per pattern: [(order, signature chain, cost estimate)].
    priced: list[list[tuple[tuple[int, ...], tuple, object]]] = []
    estimates: list[dict[tuple[int, ...], object]] = []
    for index, pattern in enumerate(batch):
        rows = []
        memo: dict[tuple[int, ...], object] = {}
        for order in candidate_orders(pattern, catalog):
            estimate = estimate_order(pattern, order, catalog)
            memo[order] = estimate
            rows.append(
                (order, _signature_chain(pattern, adjacencies[index], order), estimate)
            )
        priced.append(rows)
        estimates.append(memo)

    def estimate_for(index: int, order: tuple[int, ...]):
        memo = estimates[index]
        estimate = memo.get(order)
        if estimate is None:
            estimate = estimate_order(batch[index], order, catalog)
            memo[order] = estimate
        return estimate

    def score(
        chain: tuple[tuple, ...],
        estimate,
        root_children: dict,
        node_children: list[dict],
    ) -> tuple[float, int, float]:
        """(novel-node cost, novel-node count, total cost) of inserting
        ``chain`` into the given trie — shared prefixes price at zero."""
        parent: int | None = None
        diverged = False
        novel_cost = 0.0
        novel = 0
        for depth, signature in enumerate(chain):
            if not diverged:
                table = root_children if parent is None else node_children[parent]
                child = table.get(signature)
                if child is not None:
                    parent = child
                    continue
                diverged = True
            novel_cost += estimate.steps[depth].candidates
            novel += 1
        return (novel_cost, novel, estimate.total_candidates)

    def choose(
        index: int,
        root_children: dict,
        node_children: list[dict],
        baseline_order: tuple[int, ...],
    ) -> tuple[int, ...]:
        pattern = batch[index]
        baseline_score = score(
            _signature_chain(pattern, adjacencies[index], baseline_order),
            estimate_for(index, baseline_order),
            root_children,
            node_children,
        )
        best: tuple[tuple[float, int, float], tuple[int, ...]] | None = None
        for order, chain, estimate in priced[index]:
            if order == baseline_order:
                continue
            key = (score(chain, estimate, root_children, node_children), order)
            if best is None or key < best:
                best = key
        if best is not None and best[0] < baseline_score:
            return best[1]
        return baseline_order

    root1: dict = {}
    children1: list[dict] = []
    pass1: list[tuple[int, ...]] = []
    for index, pattern in enumerate(batch):
        # The baseline an alternative must strictly beat.
        baseline = _affine_greedy_order(
            pattern, adjacencies[index], root1, children1
        )
        order = choose(index, root1, children1, baseline)
        pass1.append(order)
        _insert_chain(
            _signature_chain(pattern, adjacencies[index], order), root1, children1
        )
    return [
        choose(index, root1, children1, pass1[index])
        for index in range(len(batch))
    ]


def build_plan_dag(
    patterns: Sequence[Pattern], induced: bool = True, *, catalog=None
) -> PlanDAG:
    """Compile a batch of patterns into one prefix-sharing :class:`PlanDAG`.

    Patterns are inserted into the trie in batch order; each one's
    matching order is chosen greedily against the trie built so far
    (:func:`_affine_greedy_order`).

    ``catalog`` (a :class:`~repro.plan.stats.GraphCatalog`) upgrades the
    order search to the jointly-costed **harmonized** mode
    (:func:`_harmonized_orders`) on graphs with more than one vertex
    label: shared prefixes are priced at zero, so order-variant prefixes
    of the same subpattern collapse onto one :class:`DagNode` whenever
    the cost model says the alignment is worth it.  On single-label
    graphs the statistics cannot separate label pools and the greedy
    alignment is kept — byte-identical to ``catalog=None``.  Order
    choice never affects results, only candidate counts.

    Raises :class:`PlanError` for an empty batch, duplicate patterns, or
    any empty/disconnected member.
    """
    batch = tuple(patterns)
    if not batch:
        raise PlanError("pattern batch must not be empty")
    if len(set(batch)) != len(batch):
        raise PlanError("pattern batch contains duplicate patterns")
    for pattern in batch:
        if pattern.num_vertices == 0:
            raise PlanError("query pattern must not be empty")
        if not pattern.is_connected():
            raise PlanError("query pattern must be connected")

    harmonized: list[tuple[int, ...]] | None = None
    if catalog is not None and len(catalog.label_frequency) > 1:
        harmonized = _harmonized_orders(batch, catalog)

    root_children: dict[tuple, int] = {}
    node_children: list[dict[tuple, int]] = []
    #: node_info[i] = (position, signature) of trie node i.
    node_info: list[tuple[int, tuple]] = []
    orders: list[tuple[int, ...]] = []
    paths: list[tuple[int, ...]] = []
    for member, pattern in enumerate(batch):
        adjacency = _pattern_adjacency(pattern)
        if harmonized is not None:
            order = harmonized[member]
        else:
            order = _affine_greedy_order(
                pattern, adjacency, root_children, node_children
            )
        chain = _signature_chain(pattern, adjacency, order)
        path = _insert_chain(chain, root_children, node_children)
        # New nodes sit at the tail of the path, numbered in path order.
        node_info.extend(
            (depth, chain[depth])
            for depth in range(len(path))
            if path[depth] >= len(node_info)
        )
        orders.append(order)
        paths.append(path)

    plans = tuple(
        compile_plan(pattern, induced=induced, order=order)
        for pattern, order in zip(batch, orders)
    )
    nodes = tuple(
        DagNode(
            node_id=node_id,
            position=position,
            vertex_label=signature[0],
            back_edges=signature[1],
        )
        for node_id, (position, signature) in enumerate(node_info)
    )
    return _with_node_whitelists(
        PlanDAG(induced=induced, plans=plans, nodes=nodes, paths=tuple(paths))
    )


_UNSET = object()


def _with_node_whitelists(dag: PlanDAG) -> PlanDAG:
    """Recompute each node's pool whitelist as the member-whitelist union.

    ``None`` (unrestricted) wins as soon as any member routed through the
    node has no whitelist at that step — the pool must cover every
    member's candidates.
    """
    unions: list = [_UNSET] * len(dag.nodes)
    for plan, path in zip(dag.plans, dag.paths):
        for depth, node_id in enumerate(path):
            allowed = plan.steps[depth].allowed
            current = unions[node_id]
            if current is _UNSET:
                unions[node_id] = allowed
            elif current is None or allowed is None:
                unions[node_id] = None
            else:
                unions[node_id] = current | allowed
    nodes = tuple(
        dataclasses.replace(
            node, allowed=None if unions[i] is _UNSET else unions[i]
        )
        for i, node in enumerate(dag.nodes)
    )
    return dataclasses.replace(dag, nodes=nodes)


def restrict_dag(
    dag: PlanDAG,
    allowed_by_pattern: dict[Pattern, dict],
) -> PlanDAG:
    """A copy of ``dag`` with per-pattern vertex whitelists overlaid.

    ``allowed_by_pattern`` maps member patterns to the per-pattern-vertex
    whitelists :func:`repro.plan.planner.restrict_plan` takes (iterables
    of vertex ids or pre-packed bitset ints); members absent from the
    dict keep whatever whitelists they already carry.  Like
    ``restrict_plan``, overlays **compose**: restricting an
    already-restricted DAG intersects the new whitelists with the
    existing ones (never a silent overwrite), and re-applying the same
    overlay is idempotent.  The trie structure, matching orders, and
    symmetry restrictions are reused unchanged (no recompilation — the
    point of caching DAGs by pattern batch); node pool whitelists are
    recomputed as the member unions.  Soundness is the caller's
    contract, exactly as for ``restrict_plan``.
    """
    plans = tuple(
        restrict_plan(plan, allowed_by_pattern.get(plan.pattern, {}))
        for plan in dag.plans
    )
    return _with_node_whitelists(dataclasses.replace(dag, plans=plans))


# ----------------------------------------------------------------------
# Execution: advance the set of active nodes / surviving patterns
# ----------------------------------------------------------------------
def dag_survivors(
    dag: PlanDAG, graph: LabeledGraph, words: tuple[int, ...]
) -> list[int]:
    """Member patterns (by index) whose plan accepts ``words`` as a prefix.

    A pattern survives depth ``d`` iff its plan has a step there and that
    step's full check (label, back-edges, induced non-edges, symmetry
    restrictions, whitelist) accepts ``words[d]`` — i.e. exactly the
    per-pattern guided acceptance, applied batch-wide.  Patterns whose
    plan length equals ``len(words)`` and survived every step are full
    matches (see :func:`accepting_patterns`).
    """
    survivors = list(range(len(dag.plans)))
    for depth in range(len(words)):
        if not survivors:
            break
        prefix = words[:depth]
        word = words[depth]
        survivors = [
            p
            for p in survivors
            if dag.plans[p].num_steps > depth
            and guided_extension_check(dag.plans[p], graph, prefix, word)
        ]
    return survivors


def accepting_patterns(
    dag: PlanDAG, graph: LabeledGraph, words: tuple[int, ...]
) -> tuple[int, ...]:
    """Member indices whose plan accepts ``words`` as a *full* match.

    An embedding is emitted once per accepting leaf: each index here is
    one leaf whose whole root-to-leaf constraint chain ``words``
    satisfies.  Under monomorphic semantics several leaves can accept the
    same words (extra graph edges belong to a denser sibling's edge set
    too); under induced semantics back-non-edges make the leaf unique.
    """
    size = len(words)
    return tuple(
        p
        for p in dag_survivors(dag, graph, words)
        if dag.plans[p].num_steps == size
    )


def dag_extendable(
    dag: PlanDAG, graph: LabeledGraph, words: tuple[int, ...]
) -> bool:
    """Whether any surviving member still has plan steps beyond ``words``.

    The DAG computations' termination filter: embeddings that are a leaf
    for every surviving pattern must not be stored for the next step (they
    would only generate empty candidate pools).
    """
    size = len(words)
    return any(
        dag.plans[p].num_steps > size
        for p in dag_survivors(dag, graph, words)
    )


def _pool_for_nodes(
    dag: PlanDAG,
    graph: LabeledGraph,
    words: tuple[int, ...],
    live_nodes: Collection[int],
) -> Sequence[int]:
    """Merged sorted-unique candidate pool of the given trie nodes.

    Each node's pool is **closure-complete**: the intersection of *all*
    its shared back-edge neighbor rows (then the union whitelist) — the
    node honors every structural back-edge its members agree on, so a
    shared node's pool admits only vertices adjacent to the whole
    anchored prefix, not just the cheapest single anchor.  The
    intersection is amortized across every member routed through the
    node, which is exactly the sharing win a solo plan (one member per
    "node") does not get — the solo kernel keeps its single min-degree
    anchor row (:func:`repro.plan.guided.guided_candidates`).  Merging
    is one ``&`` chain + one ``|`` per node and one ascending decode; a
    single one-back-edge unrestricted node returns the anchor's CSR row
    directly.
    """
    if not live_nodes:
        return ()
    merged = 0
    single = len(live_nodes) == 1
    for node_id in live_nodes:
        node = dag.nodes[node_id]
        back = node.back_edges
        if not back:
            # A node without back-neighbors is a root; connected-prefix
            # order validation keeps roots out of positions >= 1, so a
            # violated invariant must fail loudly rather than quietly
            # degrade into an inflated pool.
            assert not words, "back-edge-less DAG node reached mid-plan"
            merged |= root_pool_bits(node, graph)
            continue
        if single and len(back) == 1 and node.allowed is None:
            return graph.neighbors(words[back[0][0]])
        pool = graph.neighbor_bits(words[back[0][0]])
        for earlier, _ in back[1:]:
            pool &= graph.neighbor_bits(words[earlier])
        if node.allowed is not None:
            pool &= node.allowed
        merged |= pool
    return from_bitset(merged)


class DagMaskBundle:
    """Per-``(PlanDAG, graph)`` structural masks, one slot per trie node.

    Everything in a node's fused step check that does **not** depend on
    the embedding being extended is precomputed here, so the hot kernel
    (:meth:`DagStepper.step`) assembles each per-node survivor chain from
    ready-made big ints:

    * ``label_masks[node_id]`` — the graph's label-index bitset for the
      node's required vertex label (the chain's label clause);
    * ``edge_label_ok[node_id]`` — the back-edge *label* verdict, settled
      per node instead of per candidate: ``True`` when adjacency already
      implies the labels (uniformly-labeled graph, labels match — or no
      back-edges at all), ``False`` when a required label cannot exist on
      a uniformly-labeled graph (the node's survivor set is always
      empty), ``None`` on mixed-label graphs (confirm per decoded
      survivor, exactly like the single-plan kernel);
    * ``root_pools[node_id]`` — for back-edge-less roots only: the step-0
      pool bitset (:func:`repro.plan.guided.root_pool_bits` over the
      node's union whitelist).

    Bundles are plain derived data, built fresh by every
    :class:`DagStepper` (one per worker step task): a build is a few
    lookups per trie node (the spine times it as ``plan.mask_bundle_s``),
    so nothing caches them.
    """

    __slots__ = ("dag", "graph", "label_masks", "edge_label_ok", "root_pools")

    def __init__(self, dag: PlanDAG, graph: LabeledGraph) -> None:
        self.dag = dag
        self.graph = graph
        uniform = graph.uniform_edge_label
        label_masks = []
        edge_label_ok: list[bool | None] = []
        root_pools: list[int | None] = []
        for node in dag.nodes:
            label_masks.append(graph.label_bits(node.vertex_label))
            if not node.back_edges:
                verdict: bool | None = True
            elif uniform is None:
                verdict = None
            else:
                verdict = all(
                    label == uniform for _, label in node.back_edges
                )
            edge_label_ok.append(verdict)
            root_pools.append(
                None if node.back_edges else root_pool_bits(node, graph)
            )
        self.label_masks = tuple(label_masks)
        self.edge_label_ok = tuple(edge_label_ok)
        self.root_pools = tuple(root_pools)


def mask_bundle(dag: PlanDAG, graph: LabeledGraph) -> DagMaskBundle:
    """The structural :class:`DagMaskBundle` of ``dag`` on ``graph``,
    computed from scratch on every call."""
    return DagMaskBundle(dag, graph)


def bound_stepper(computation, dag: PlanDAG, graph: LabeledGraph) -> "DagStepper":
    """Lazily attach a per-task :class:`DagStepper` to a computation copy.

    The runtime shallow-copies each computation per worker task before
    binding its context, and the engine's template instance never runs
    user functions — so a stepper created inside ``process``/
    ``termination_filter`` lands on the task's private copy, is never
    shared between concurrent tasks, and is never pickled (the template
    ships clean).  Re-created if the graph or DAG changes (defensive;
    one task sees one of each).
    """
    stepper = getattr(computation, "_dag_stepper", None)
    if stepper is None or stepper.graph is not graph or stepper.dag is not dag:
        stepper = DagStepper(dag, graph)
        computation._dag_stepper = stepper
    return stepper


class DagStepper:
    """Per-task DAG execution helper with memoized survivor walks.

    The naive functions above re-walk the trie from the root on every
    call — an O(depth × patterns) rescan per candidate check.  A stepper
    caches each word tuple's surviving members, derived from the parent
    prefix's entry and held **grouped** (:meth:`_entry`): the live members
    by next trie node, plus those that finish there.  An entry is built
    once per distinct member list (every prefix it fits shares it,
    read-only), so the structural half of the step check (label, injectivity,
    back-edges) runs once per *node*, only the residual (whitelist,
    induced non-edges, symmetry restrictions) runs per member, and
    ``accepting``/``extendable`` are reads; :meth:`survivors` is the flat view.

    :meth:`step` is the fused whole-pool kernel the runtime's expansion
    pass calls: per live trie node the structural half of the check —
    anchor adjacency ∧ union whitelist ∧ label ∧ shared back-edges —
    is one big-int ``&`` chain over the node's precomputed
    :class:`DagMaskBundle` masks, and each member's residual is more mask
    algebra on top, giving one **survivor bitmask per live member**; a
    degree-adaptive hybrid (:func:`repro.plan.guided.prefers_row_iteration`
    on the summed anchor degrees) probes a tiny row pool word by word
    instead.  Decoding warms the survivor cache for every accepted child
    (so ``accepting``/``extendable`` lookups hit); on a *terminal level*
    :meth:`advance` leaves the masks undecoded for
    ``Computation.process_terminal``.

    One stepper is created per worker step task (and lazily per task
    copy of the DAG computations), never shared between threads or
    processes, so the cache is private mutable state of a pure task:
    results are a deterministic function of ``(dag, graph, words)``
    with or without it.  The cache is cleared past a bound to keep
    memory proportional to the working set, not the store.
    """

    __slots__ = ("dag", "graph", "bundle", "_depths", "_entries", "_cache")

    #: Cache-entry bound; on overflow the cache resets to the root entry.
    CACHE_LIMIT = 8192

    def __init__(self, dag: PlanDAG, graph: LabeledGraph) -> None:
        self.dag = dag
        self.graph = graph
        self.bundle = mask_bundle(dag, graph)
        #: Per-member plan lengths, hoisted off the ``num_steps`` property.
        self._depths = tuple(len(plan.steps) for plan in dag.plans)
        #: ``(prefix length, *members) -> entry``, shared by every prefix.
        self._entries: dict[tuple[int, ...], tuple] = {}
        self._cache = {(): self._entry(0, range(len(dag.plans)))}

    def _entry(self, depth: int, members) -> tuple[dict[int, list[int]], list[int]]:
        """The (shared, read-only) entry of ``depth``-word prefixes ``members``
        (ascending) survive: ``(live ones by next trie node, finished ones)``."""
        key = (depth, *members)
        entry = self._entries.get(key)
        if entry is None:
            depths = self._depths
            paths = self.dag.paths
            live: dict[int, list[int]] = {}
            finished: list[int] = []
            for p in members:
                if depths[p] > depth:
                    live.setdefault(paths[p][depth], []).append(p)
                else:
                    finished.append(p)
            entry = self._entries[key] = (live, finished)
        return entry

    def _grouped(self, words: tuple[int, ...]):
        """``words``' cache entry, derived from its parent's on a miss."""
        hit = self._cache.get(words)
        if hit is None:
            depth = len(words) - 1
            accepted = sorted(self._members_accepting(words[:depth], words[depth]))
            hit = self._cache_with_room()[words] = self._entry(depth + 1, accepted)
        return hit

    def _cache_with_room(self) -> dict:
        """The survivor cache, reset to the root entry once past its bound."""
        cache = self._cache
        if len(cache) > self.CACHE_LIMIT:
            cache.clear()
            self._entries.clear()
            cache[()] = self._entry(0, range(len(self.dag.plans)))
        return cache

    def _members_accepting(self, prefix: tuple[int, ...], word: int):
        """Members surviving ``prefix`` that also accept ``word``, lazily:
        the structural half once per live node, the residual per member."""
        depth = len(prefix)
        dag = self.dag
        graph = self.graph
        plans = dag.plans
        for node_id, members in self._grouped(prefix)[0].items():
            if structural_ok(dag.nodes[node_id], graph, prefix, word):
                for p in members:
                    if residual_ok(plans[p], depth, graph, prefix, word):
                        yield p

    def survivors(self, words: tuple[int, ...]) -> list[int]:
        """Memoized :func:`dag_survivors` — the flat view of the entry."""
        live, finished = self._grouped(words)
        return sorted(finished + [p for members in live.values() for p in members])

    def step(
        self, words: tuple[int, ...], strategy: str | None = None
    ) -> tuple[int, tuple[int, ...]]:
        """Fused one-step kernel: ``(num_candidates, survivors)``.

        Equivalent to filtering :meth:`candidates` through :meth:`check`
        word by word — ``num_candidates`` is the deduplicated union
        pool's size, ``survivors`` the ascending words at least one live
        member accepts.  ``strategy`` pins a path (``"rows"`` /
        ``"masks"``) for tests and benchmarks; ``None`` selects
        adaptively.  Accepted children's survivor lists are cached as a
        byproduct, exactly as on-demand derivation would compute them.
        """
        return self._run(words, strategy, False)[:2]

    def member_masks(
        self, words: tuple[int, ...], strategy: str | None = None
    ) -> tuple[int, list[tuple[int, int]]]:
        """:meth:`step` left undecoded: ``(num_candidates, masks)`` with
        ``masks`` the non-empty ``(member, bitmask)`` pairs in ascending
        member order — bit ``w`` set iff the member accepts
        ``words + (w,)``."""
        return self._run(words, strategy, True)[:2]

    def advance(self, words: tuple[int, ...], batch: bool):
        """What the expansion pass runs: ``(num_candidates, num_accepted,
        found, terminal)`` — :meth:`member_masks` when ``batch`` and every
        live member completes at the next word (``terminal``: the children
        the masks hold, one several members accept counting once), else
        :meth:`step` (``terminal`` is ``None``)."""
        num_candidates, found, terminal = self._run(
            words, None, None if batch else False
        )
        if not terminal:
            return num_candidates, len(found), found, None
        union = 0
        for _, mask in found:
            union |= mask
        survivors = union.bit_count()
        return num_candidates, survivors, found, survivors

    def _run(self, words: tuple[int, ...], strategy, terminal):
        """The one kernel: ``(num_candidates, found, terminal)`` with
        ``found`` member masks (``terminal``) or decoded survivors;
        ``terminal=None`` asks whether every live member finishes here."""
        by_node = self._grouped(words)[0]
        if not by_node:
            return 0, (), bool(terminal)
        if terminal is None:
            last = len(words) + 1
            depths = self._depths
            terminal = all(
                depths[p] == last for members in by_node.values() for p in members
            )
        graph = self.graph
        nodes = self.dag.nodes
        # Estimate each node's pool by its cheapest back-neighbor degree
        # (an upper bound on the closure-complete intersection — a
        # popcount the CSR offsets hand over for free); the sum drives
        # the hybrid decision.  Unrolled: no genexp frames on the hot path.
        estimate = 0
        for node_id in by_node:
            back = nodes[node_id].back_edges
            if back:
                degree = graph.degree(words[back[0][0]])
                for earlier, _ in back[1:]:
                    vertex_degree = graph.degree(words[earlier])
                    if vertex_degree < degree:
                        degree = vertex_degree
                estimate += degree
            else:
                assert not words, "back-edge-less DAG node reached mid-plan"
                estimate += self.bundle.root_pools[node_id].bit_count()
        if strategy == "rows" or (
            strategy is None and prefers_row_iteration(estimate)
        ):
            # Sparse path: accepted members per ascending survivor word.
            num_candidates, word_members = self._row_members(words, by_node)
            if not terminal:
                self._remember(words, word_members.items())
                return num_candidates, tuple(word_members), False
            packed: dict[int, int] = {}
            for word, accepted in word_members.items():
                bit = 1 << word
                for p in accepted:
                    packed[p] = packed.get(p, 0) | bit
            return num_candidates, sorted(packed.items()), True
        # Dense path: one survivor bitmask per member.
        num_candidates, masks = self._masked_masks(words, by_node)
        if terminal:
            return num_candidates, masks, True
        union = 0
        for _, mask in masks:
            union |= mask
        survivors = from_bitset(union)
        if len(masks) == 1:
            # One accepting member: its children share one entry.
            entry = self._entry(len(words) + 1, (masks[0][0],))
            self._cache_with_room().update(
                dict.fromkeys((words + (w,) for w in survivors), entry)
            )
        else:
            accepted = ([p for p, mask in masks if mask >> w & 1] for w in survivors)
            self._remember(words, zip(survivors, accepted))
        return num_candidates, survivors, False

    def _remember(self, words: tuple[int, ...], children) -> None:
        """Cache the ``(word, accepted members)`` children of ``words``."""
        entry = self._entry
        depth = len(words) + 1
        self._cache_with_room().update(
            (words + (word,), entry(depth, accepted)) for word, accepted in children
        )

    def _row_members(self, words: tuple[int, ...], by_node: dict[int, list[int]]):
        """The hybrid's sparse path: per-candidate probes over the merged
        row pool, with the per-word node/member grouping hoisted out."""
        depth = len(words)
        dag = self.dag
        graph = self.graph
        plans = dag.plans
        pool = _pool_for_nodes(dag, graph, words, by_node)
        grouped = [(dag.nodes[n], members) for n, members in by_node.items()]
        word_members: dict[int, list[int]] = {}
        for word in pool:
            accepted: list[int] = []
            for node, members in grouped:
                if not structural_ok(node, graph, words, word):
                    continue
                for p in members:
                    if residual_ok(plans[p], depth, graph, words, word):
                        accepted.append(p)
            if accepted:
                accepted.sort()
                word_members[word] = accepted
        return len(pool), word_members

    def _masked_masks(self, words: tuple[int, ...], by_node: dict[int, list[int]]):
        """The dense path: one structural ``&`` chain per live node over
        the bundle's masks, one residual chain per member, nothing
        decoded.  The node pool is the closure-complete back-row
        intersection (see :func:`_pool_for_nodes`), so the shared
        back-edge ``&``s price into the pool instead of inflating the
        counted candidate stream."""
        depth = len(words)
        graph = self.graph
        plans = self.dag.plans
        nodes = self.dag.nodes
        bundle = self.bundle
        neighbor_bits = graph.neighbor_bits
        exclude = ~to_bitset(words)
        merged_pool = 0
        masks: list[tuple[int, int]] = []
        for node_id, members in by_node.items():
            node = nodes[node_id]
            back = node.back_edges
            if not back:
                pool_bits = bundle.root_pools[node_id]
                struct = pool_bits & bundle.label_masks[node_id]
            else:
                pool_bits = neighbor_bits(words[back[0][0]])
                for earlier, _ in back[1:]:
                    pool_bits &= neighbor_bits(words[earlier])
                if node.allowed is not None:
                    pool_bits &= node.allowed
                verdict = bundle.edge_label_ok[node_id]
                if verdict is False:
                    struct = 0
                else:
                    struct = pool_bits & bundle.label_masks[node_id] & exclude
                    if struct and verdict is None:
                        struct = to_bitset(
                            confirm_edge_labels(graph, words, back, struct)
                        )
            merged_pool |= pool_bits
            if not struct:
                continue
            for p in members:
                plan = plans[p]
                mask = residual_mask(
                    plan.steps[depth], plan.induced, struct, words, neighbor_bits
                )
                if mask:
                    masks.append((p, mask))
        masks.sort()
        return merged_pool.bit_count(), masks

    def zero_pool(self) -> tuple[int, ...]:
        """The DAG's step-0 candidate pool: its distinct root pools OR-ed
        together and decoded ascending, so every worker partitions the
        identical sorted tuple and shared roots are scanned once instead
        of once per pattern."""
        merged = 0
        for node_id in {path[0] for path in self.dag.paths}:
            merged |= self.bundle.root_pools[node_id]
        return from_bitset(merged)

    # ``candidates`` + ``check`` are the per-candidate formulation of
    # ``step``: the reference the equivalence tests replay, what step 0
    # calls, and what ``accept`` folds over an ODAG successor pool.
    def candidates(self, words: tuple[int, ...]) -> Sequence[int]:
        """Candidate pool for extending ``words`` by one step, batch-wide:
        one closure-complete pool per distinct trie node the surviving
        members occupy next (:func:`_pool_for_nodes`), merged
        sorted-unique — a candidate proposed by several sibling patterns
        is generated (and counted) once."""
        return _pool_for_nodes(self.dag, self.graph, words, self._grouped(words)[0])

    def check(
        self, graph: LabeledGraph, parent_words: tuple[int, ...], word: int
    ) -> bool:
        """Whether ``parent_words + (word,)`` advances at least one member.

        The DAG counterpart of the single plan's per-step check: a
        candidate is kept (and the extended embedding stored once) iff
        some member surviving the parent prefix accepts it at the next
        step.  Like the single-plan check it is anti-monotone — survivors
        only shrink — so ODAG extraction can apply it prefix by prefix.
        (``graph`` is the extension-checker call signature; a stepper
        only ever answers for the graph it was built on.)
        """
        return next(self._members_accepting(parent_words, word), None) is not None

    def accept(self, words: tuple[int, ...], pool: int) -> int:
        """The members of ``pool`` that :meth:`check` accepts after ``words``."""
        return filter_bitset(pool, partial(self.check, self.graph, words))

    def accepting(self, words: tuple[int, ...]) -> list[int]:
        """Memoized-walk :func:`accepting_patterns` (emission hook); the
        list is the entry's own — read it, never mutate it."""
        return self._grouped(words)[1]

    def extendable(self, words: tuple[int, ...]) -> bool:
        """Memoized-walk :func:`dag_extendable` (termination hook)."""
        return bool(self._grouped(words)[0])
