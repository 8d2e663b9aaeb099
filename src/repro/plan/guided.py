"""Guided extension generation — the plan's runtime half.

The exhaustive engine pairs :func:`repro.core.extension.extensions`
("every neighbor of every member") with the Algorithm 2 canonicality
check.  The guided path replaces both:

* candidates come from the adjacency list of a single *anchor* — the
  lowest-degree already-matched back-neighbor of the next plan step — so
  the candidate pool shrinks from the embedding's whole frontier to one
  neighborhood;
* the plan check validates a candidate against the next plan step — the
  per-candidate constraint battery, defined once as two halves: :func:`structural_ok` (label, injectivity, back-edges with edge
  labels — what a multi-query trie node shares) and :func:`residual_ok`
  (whitelist, back-non-edges under induced semantics, symmetry-breaking
  order restrictions — what stays per plan).  The restrictions make the
  check a *uniqueness* guarantee: every occurrence of the query is
  generated through exactly one word sequence, which is why the guided
  path needs no embedding canonicality check;
* :func:`guided_survivors` fuses both into the form the runtime's step
  tasks execute: the whole constraint battery collapses into one chain
  of big-int ``&`` ops over the graph's bitsets, decoded to sorted
  vertex order once per embedding (``tests/reference.py`` keeps the
  per-candidate pool and check it is tested against);
* :class:`PlanStepper` puts one plan behind the stepper shape the runtime
  drives (``zero_pool`` / ``accept`` / ``advance`` — see
  :mod:`repro.plan.stepper`).

All of it is pure in ``(plan, graph, words)``, so the runtime's step
tasks can call it from any backend.  The kernel, intersected with a
successor pool (``accept``), is also ODAG extraction's spurious-path
filter: a path through the overapproximated ODAG is a genuine partial
match iff every prefix extension passes the plan check, mirroring how the
exhaustive path re-applies canonicality plus the user filter (engine
section 5.2).

Completeness note: every valid extension of a valid partial match is
adjacent to *all* of the next step's back-neighbors, in particular to the
anchor — so drawing the pool from the anchor's adjacency list never
misses a match.
"""

from __future__ import annotations

from ..graph import LabeledGraph
from ..graph.bitset import from_bitset, to_bitset
from .planner import MatchingPlan

#: Candidate-pool size below which the fused bitset kernels fall back to
#: iterating the anchor's CSR row with per-candidate checks.  Big-int
#: mask algebra has a fixed per-``&`` cost proportional to the *vertex
#: universe* width (every mask spans ``num_vertices`` bits), so on a
#: tiny pool — a low-degree anchor on a sparse graph — a handful of
#: direct probes beats building the whole chain.  The estimate is the
#: anchor's degree (== the popcount of its adjacency bitset, read off
#: the CSR offsets for free), so choosing a path costs one comparison.
#: 16 sits comfortably inside the measured crossover band (row wins up
#: to a few dozen candidates on the bundled sparse graphs; masks win
#: from roughly pool ~ universe/100 upward).
SMALL_POOL_DEGREE = 16


def prefers_row_iteration(pool_estimate: int) -> bool:
    """The single-plan kernel's path decision (``_survivor_kernel`` calls
    it for every step past the first).

    ``True`` selects the row-iteration path (decode/iterate the anchor's
    CSR row, check candidates one by one), ``False`` the pool-level mask
    path.  ``pool_estimate`` is a cheap popcount-equivalent upper bound
    on the candidate pool: the anchor's degree.  Both paths produce
    identical ``(num_candidates, survivors)`` streams — the choice is
    wall-clock only (regression-pinned by the kernel-equivalence tests).
    The DAG kernel (:class:`repro.plan.dag.DagStepper`) has no row path.
    """
    return pool_estimate <= SMALL_POOL_DEGREE


def root_pool_bits(step, graph: LabeledGraph) -> int:
    """The pool of a step with no back-neighbor — a plan's first step or a
    DAG root node — as a bitset: its whitelist when one is set (guided FSM
    pushing parent domains down), else the label index of its required
    label.  Decodes ascending, so every worker partitions the identical
    sequence."""
    if step.allowed is not None:
        return step.allowed
    return graph.label_bits(step.vertex_label)


def structural_ok(
    step, graph: LabeledGraph, parent_words: tuple[int, ...], word: int
) -> bool:
    """The shareable half of one step check: required label, injectivity,
    back-edge adjacency with edge labels.  ``step`` is a
    :class:`~repro.plan.planner.PlanStep` or a multi-query
    :class:`~repro.plan.dag.DagNode` — both carry ``vertex_label`` and
    ``back_edges``, and a node holds exactly what every member routed
    through it agrees on, so the DAG stepper runs this once per node."""
    if graph.vertex_label(word) != step.vertex_label:
        return False
    if word in parent_words:
        return False
    if step.back_edges:
        word_bits = graph.neighbor_bits(word)
        uniform = graph.uniform_edge_label
        for earlier, edge_label in step.back_edges:
            matched = parent_words[earlier]
            if not (word_bits >> matched) & 1:
                return False
            # On a uniformly-labeled graph adjacency already implies the
            # edge label, so the edge-id lookup is skipped entirely.
            if uniform is not None:
                if edge_label != uniform:
                    return False
            elif graph.edge_label(graph.edge_between(word, matched)) != edge_label:
                return False
    return True


def residual_ok(
    plan: MatchingPlan,
    depth: int,
    graph: LabeledGraph,
    parent_words: tuple[int, ...],
    word: int,
) -> bool:
    """The per-plan half: whitelist, induced non-edges, restrictions."""
    step = plan.steps[depth]
    allowed = step.allowed
    if allowed is not None and not (allowed >> word) & 1:
        return False
    if plan.induced and step.back_non_edges:
        word_bits = graph.neighbor_bits(word)
        for earlier in step.back_non_edges:
            if (word_bits >> parent_words[earlier]) & 1:
                return False
    for earlier in step.must_exceed:
        if parent_words[earlier] >= word:
            return False
    for earlier in step.must_precede:
        if parent_words[earlier] <= word:
            return False
    return True


def residual_mask(step, induced: bool, bits: int, words, neighbor_bits) -> int:
    """The per-plan half of one step check as mask algebra: ``bits``
    narrowed by the step's whitelist, symmetry-breaking order
    restrictions and (``induced``) back-non-edges.  Shared by the
    single-plan kernel below and the DAG kernel's per-member masks."""
    if step.allowed is not None:
        bits &= step.allowed
    # Order bounds first: they truncate the magnitude of every later ``&``.
    if step.must_precede:
        bits &= (1 << min([words[earlier] for earlier in step.must_precede])) - 1
    if step.must_exceed:
        bits &= -1 << (max([words[earlier] for earlier in step.must_exceed]) + 1)
    if induced:
        for earlier in step.back_non_edges:
            bits &= ~neighbor_bits(words[earlier])
    return bits


def confirm_edge_labels(graph, words, back_edges, bits: int) -> tuple[int, ...]:
    """Mixed edge labels: adjacency alone does not imply the required
    labels, so the words of ``bits`` are confirmed one by one (ascending)."""
    return tuple(
        word
        for word in from_bitset(bits)
        if all(
            graph.edge_label(graph.edge_between(word, words[earlier])) == label
            for earlier, label in back_edges
        )
    )


def guided_survivors(
    plan: MatchingPlan,
    graph: LabeledGraph,
    words: tuple[int, ...],
    strategy: str | None = None,
) -> tuple[int, tuple[int, ...]]:
    """Candidate pool size + surviving extensions, fused into bitset algebra.

    Equivalent to filtering the anchor's row through the plan check
    (:func:`structural_ok` and :func:`residual_ok`) word by word, but the
    whole per-step constraint battery — whitelist, vertex label,
    back-edge adjacency, induced back-non-edges, injectivity,
    symmetry-breaking order restrictions — collapses into one chain of big-int ``&`` ops over the
    graph's precomputed bitsets, decoded to sorted vertex order once at
    the end.  Only per-edge *label* confirmation still walks individual
    candidates, and only on graphs with mixed edge labels
    (:attr:`~repro.graph.LabeledGraph.uniform_edge_label` short-circuits
    the uniform case to pure bit math).

    The kernel is **degree-adaptive**: every mask in the chain spans the
    whole vertex universe, so when the anchor's degree says the pool is
    tiny (:func:`prefers_row_iteration`) the kernel iterates the anchor's
    CSR row and checks the few candidates directly instead — same
    ``(num_candidates, survivors)``, chosen by one comparison.
    ``strategy`` pins a path explicitly (``"rows"`` / ``"masks"``) for
    tests and benchmarks; ``None`` selects adaptively.

    Returns ``(num_candidates, survivors)``: the size of the candidate
    pool (the anchor's row, whitelisted; the engine's
    machine-independent exploration metric) and the words whose extension
    passes the plan check, ascending — so emission order, and with it
    result byte-identity across backends, is untouched.
    """
    num_candidates, bits, rows = _survivor_kernel(plan, graph, words, strategy)
    return num_candidates, from_bitset(bits) if rows is None else rows


def _survivor_kernel(
    plan: MatchingPlan, graph: LabeledGraph, words: tuple[int, ...], strategy
) -> tuple[int, int, tuple[int, ...] | None]:
    """``(num_candidates, bits, rows)``: the survivors as a bitmask (mask
    path; ``rows`` is ``None``) or already decoded ascending (row path,
    mixed edge labels)."""
    position = len(words)
    if position >= len(plan.steps):
        return 0, 0, ()
    step = plan.steps[position]
    if not step.back_edges:
        # Step 0: the pool is the whitelist or the label index; only the
        # label constraint can reject (no earlier positions exist yet).
        bits = graph.label_bits(step.vertex_label)
        if step.allowed is None:
            return bits.bit_count(), bits, None
        return step.allowed.bit_count(), step.allowed & bits, None
    # Anchor = lowest-(degree, id) matched back-neighbor, unrolled: a
    # one-back-edge step (most steps on sparse plans) resolves without
    # a genexp/min frame, and the degree doubles as the pool estimate.
    back = step.back_edges
    anchor = words[back[0][0]]
    estimate = graph.degree(anchor)
    for earlier, _ in back[1:]:
        vertex = words[earlier]
        vertex_degree = graph.degree(vertex)
        if vertex_degree < estimate or (
            vertex_degree == estimate and vertex < anchor
        ):
            anchor, estimate = vertex, vertex_degree
    if strategy == "rows" or (
        strategy is None and prefers_row_iteration(estimate)
    ):
        return _row_survivors(plan, step, graph, words, anchor)
    neighbor_bits = graph.neighbor_bits
    bits = neighbor_bits(anchor)
    if step.allowed is not None:
        bits &= step.allowed
    num_candidates = bits.bit_count()
    if not bits:
        return 0, 0, None
    bits = residual_mask(step, plan.induced, bits, words, neighbor_bits)
    bits &= graph.label_bits(step.vertex_label)
    for earlier, _ in back:
        bits &= neighbor_bits(words[earlier])
    if bits:
        bits &= ~to_bitset(words)
    if not bits:
        return num_candidates, 0, None
    uniform = graph.uniform_edge_label
    if uniform is not None:
        for _, edge_label in back:
            if edge_label != uniform:
                return num_candidates, 0, None
        return num_candidates, bits, None
    return num_candidates, 0, confirm_edge_labels(graph, words, back, bits)


def _row_survivors(
    plan: MatchingPlan,
    step,
    graph: LabeledGraph,
    words: tuple[int, ...],
    anchor: int,
) -> tuple[int, int, tuple[int, ...]]:
    """The hybrid's sparse path: iterate the anchor row, probe per word.

    Semantically identical to the mask chain — the per-step constraint
    battery of the plan check with its loop invariants
    hoisted (matched back-neighbors resolved, order restrictions turned
    into two id bounds) — but the cost scales with the anchor's *degree*
    instead of the vertex-universe width.  The pool (and with it
    ``num_candidates``) is exactly the mask path's: the anchor's CSR row,
    filtered by the step whitelist when one is set.
    """
    allowed = step.allowed
    if allowed is None:
        pool = graph.neighbors(anchor)
    else:
        pool = [
            word for word in graph.neighbors(anchor) if (allowed >> word) & 1
        ]
    num_candidates = len(pool)
    if not num_candidates:
        return 0, 0, ()
    uniform = graph.uniform_edge_label
    # Pool membership already proves adjacency to the anchor, so the
    # anchor's own back-edge needs no probe (only — on mixed-label
    # graphs — an edge-label confirm); the remaining back-neighbors
    # need one bit probe each.  Plain loops, no genexp frames: this
    # setup runs once per embedding against pools of a handful of
    # words, so per-call constant cost is the whole game.
    adjacency = []
    edge_labels = [] if uniform is None else None
    for earlier, edge_label in step.back_edges:
        if uniform is not None:
            if edge_label != uniform:
                # Required edge label absent from a uniformly-labeled
                # graph: the mask path zeroes the survivor set too.
                return num_candidates, 0, ()
        else:
            edge_labels.append((words[earlier], edge_label))
        matched = words[earlier]
        if matched != anchor:
            adjacency.append(matched)
    # A single-label graph decides the label constraint wholesale: the
    # pool either all carries the wanted label or none of it does.
    want_label = step.vertex_label
    if graph.num_vertex_labels == 1:
        if not graph.label_bits(want_label):
            return num_candidates, 0, ()
        want_label = None
    non_edges = step.back_non_edges if plan.induced else ()
    # Order restrictions become two bounds on the candidate id, exactly
    # the magnitude masks of the bitset path.
    lower = -1
    for earlier in step.must_exceed:
        matched = words[earlier]
        if matched > lower:
            lower = matched
    upper = graph.num_vertices
    for earlier in step.must_precede:
        matched = words[earlier]
        if matched < upper:
            upper = matched
    neighbor_bits = graph.neighbor_bits
    probe = bool(adjacency or non_edges)
    survivors = []
    for word in pool:
        if not lower < word < upper:
            continue
        if want_label is not None and graph.vertex_label(word) != want_label:
            continue
        if word in words:
            continue
        ok = True
        if probe:
            word_bits = neighbor_bits(word)
            for matched in adjacency:
                if not (word_bits >> matched) & 1:
                    ok = False
                    break
            if ok:
                for earlier in non_edges:
                    if (word_bits >> words[earlier]) & 1:
                        ok = False
                        break
        if ok and edge_labels:
            for matched, edge_label in edge_labels:
                if (
                    graph.edge_label(graph.edge_between(word, matched))
                    != edge_label
                ):
                    ok = False
                    break
        if ok:
            survivors.append(word)
    return num_candidates, 0, tuple(survivors)


class PlanStepper:
    """One compiled plan behind the stepper shape the runtime drives.

    The single-plan twin of :class:`repro.plan.dag.DagStepper`, around the
    same :func:`_survivor_kernel` that :func:`guided_survivors` decodes.
    Stateless beyond ``(plan, graph)``: a plan is its own only member, so
    there is no survivor walk to memoize.
    """

    __slots__ = ("plan", "graph")

    def __init__(self, plan: MatchingPlan, graph: LabeledGraph) -> None:
        self.plan = plan
        self.graph = graph

    def zero_pool(self) -> tuple[int, ...]:
        """The plan's step-0 candidate pool, sorted ascending."""
        return from_bitset(root_pool_bits(self.plan.steps[0], self.graph))

    def accept(self, words: tuple[int, ...], pool: int) -> int:
        """The members of ``pool`` that the plan check accepts after
        ``words``: every such word lies in the kernel's
        candidate pool, so this is ``pool`` & the kernel's survivors."""
        _, bits, rows = _survivor_kernel(self.plan, self.graph, words, None)
        return pool & (bits if rows is None else to_bitset(rows))

    def advance(self, words: tuple[int, ...], batch: bool):
        """``(num_candidates, num_accepted, found, terminal)`` — on the
        plan's last level (when ``batch``) the survivors stay one undecoded
        ``(0, bitmask)`` member mask for ``Computation.process_terminal``
        and ``terminal`` counts them, else they are words."""
        plan = self.plan
        num_candidates, bits, rows = _survivor_kernel(plan, self.graph, words, None)
        if batch and len(words) == len(plan.steps) - 1:
            if rows is not None:
                bits = to_bitset(rows)
            survivors = bits.bit_count()
            return num_candidates, survivors, [(0, bits)] if bits else [], survivors
        found = from_bitset(bits) if rows is None else rows
        return num_candidates, len(found), found, None


def match_mapping(plan: MatchingPlan, words: tuple[int, ...]) -> tuple[int, ...]:
    """Translate a full guided embedding into the match mapping.

    Position ``i`` of the result holds the graph vertex matched to
    pattern vertex ``i`` (undoing the plan's matching order).
    """
    if len(words) != plan.num_steps:
        raise ValueError(
            f"expected a full match of {plan.num_steps} words, got {len(words)}"
        )
    mapping = [0] * plan.num_steps
    for position, vertex in enumerate(plan.order):
        mapping[vertex] = words[position]
    return tuple(mapping)
