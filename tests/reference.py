"""Reference semantics the suite checks the runtime against, and the views
of a graph or a run record only the suite reads.

The runtime executes each rule as a fused bitset kernel (Algorithm 2's
extension mask, ``guided_survivors``, ``DagStepper``'s node masks, the
interned quick-pattern table).  These are the same rules written one
candidate at a time, straight from their definitions; no stepper calls
them.  ``structural_ok`` and ``residual_ok`` stay in ``repro.plan.guided``,
because production runs them too.
"""

from repro.core.canonical import (
    is_canonical_edge_extension,
    is_canonical_vertex_extension,
)
from repro.core.embedding import EDGE_EXPLORATION, VERTEX_EXPLORATION
from repro.core.extension import extension_mask, word_row
from repro.core.pattern import Pattern
from repro.graph.bitset import from_bitset, to_bitset
from repro.plan.guided import residual_ok, root_pool_bits, structural_ok


def extension_checker(mode):
    """The incremental canonicality check (Algorithm 2) for an exploration mode."""
    if mode == VERTEX_EXPLORATION:
        return is_canonical_vertex_extension
    if mode == EDGE_EXPLORATION:
        return is_canonical_edge_extension
    raise ValueError(f"unknown exploration mode {mode!r}")


def extensions(graph, mode, words):
    """Distinct incident words not already in ``words``, ascending: the
    extension mask of Algorithm 1's expansion step, decoded."""
    return list(from_bitset(extension_mask(word_row(graph, mode), words)))


def canonicalize_edge_set(graph, edge_ids):
    """The unique canonical word order of a connected edge set.

    Start from the smallest edge id, then repeatedly append the smallest
    unvisited edge sharing an endpoint with the visited prefix.
    """
    members = set(edge_ids)
    if not members:
        return ()
    words = [min(members)]
    visited = {words[0]}
    # Track the vertex span of the prefix for O(deg) adjacency tests.
    span = set(graph.edge_endpoints(words[0]))
    while len(words) < len(members):
        best = None
        for eid in members:
            if eid in visited:
                continue
            u, v = graph.edge_endpoints(eid)
            if (u in span or v in span) and (best is None or eid < best):
                best = eid
        if best is None:
            raise ValueError("edge set is not connected")
        words.append(best)
        visited.add(best)
        span.update(graph.edge_endpoints(best))
    return tuple(words)


def pattern_from_scratch(embedding):
    """The quick pattern of a vertex-induced embedding built directly,
    without the interned table ``VertexInducedEmbedding.pattern`` reads."""
    graph, words = embedding.graph, embedding.words
    edges = sorted(
        (i, j, graph.edge_label(graph.edge_between(words[i], v)))
        for j, v in enumerate(words)
        for i in range(j)
        if graph.adjacent(words[i], v)
    )
    return Pattern(tuple(map(graph.vertex_label, words)), tuple(edges))


def is_connected_vertex_set(graph, vertex_ids):
    """Whether ``vertex_ids`` (non-empty) induces a connected subgraph."""
    members = to_bitset(vertex_ids)
    seen = members & -members
    stack = list(from_bitset(seen))
    while stack:
        fresh = graph.neighbor_bits(stack.pop()) & members & ~seen
        seen |= fresh
        stack.extend(from_bitset(fresh))
    return bool(members) and seen == members


def phase_totals(run):
    """W/R/G/C/P seconds summed over a run's steps (Figure 12)."""
    totals = {}
    for step in run.steps:
        for phase, seconds in step.phase_seconds.items():
            totals[phase] = totals.get(phase, 0.0) + seconds
    return totals


# -- one plan ---------------------------------------------------------------
def guided_candidates(plan, graph, words):
    """Candidate pool for extending a partial match by one plan step: the
    anchor's (the lowest-degree matched back-neighbor's) adjacency row, or
    for a domain-restricted step its intersection with the step whitelist,
    in ascending vertex order."""
    position = len(words)
    if position >= plan.num_steps:
        return ()
    step = plan.steps[position]
    if not step.back_edges:
        # Only the first step of a connected plan has no back-neighbor.
        return from_bitset(root_pool_bits(step, graph))
    anchor = min(
        (words[earlier] for earlier, _ in step.back_edges),
        key=lambda vertex: (graph.degree(vertex), vertex),
    )
    if step.allowed is None:
        return graph.neighbors(anchor)
    return from_bitset(graph.neighbor_bits(anchor) & step.allowed)


def guided_extension_check(plan, graph, parent_words, word):
    """Whether ``parent_words + (word,)`` is a valid partial match, given
    that ``parent_words`` satisfies the plan's first steps."""
    position = len(parent_words)
    return (
        position < len(plan.steps)
        and structural_ok(plan.steps[position], graph, parent_words, word)
        and residual_ok(plan, position, graph, parent_words, word)
    )


def satisfies_restrictions(mapping, restrictions):
    """Whether a full ``pattern vertex -> graph vertex`` mapping passes the
    symmetry-breaking order restrictions."""
    return all(mapping[u] < mapping[v] for u, v in restrictions)


# -- a plan DAG ---------------------------------------------------------------
def dag_survivors(dag, graph, words):
    """Member patterns (by index) whose plan accepts ``words`` as a prefix:
    each member's own guided check, applied batch-wide."""
    survivors = list(range(len(dag.plans)))
    for depth in range(len(words)):
        if not survivors:
            break
        prefix, word = words[:depth], words[depth]
        survivors = [
            p
            for p in survivors
            if dag.plans[p].num_steps > depth
            and guided_extension_check(dag.plans[p], graph, prefix, word)
        ]
    return survivors


def pool_for_nodes(dag, graph, words, live_nodes):
    """The DAG kernel's candidate pool at ``words``, ascending: the union,
    over the given trie nodes, of each node's pool.  A node's pool holds
    the vertices adjacent to *every* shared back-edge anchor (the node's
    whole anchored prefix), inside its union whitelist; a root node's is
    its whitelist, or the label index of its label."""
    pool = set()
    for node_id in live_nodes:
        node = dag.nodes[node_id]
        if not node.back_edges:
            # Connected-prefix orders keep roots out of positions >= 1.
            assert not words, "back-edge-less DAG node reached mid-plan"
            pool.update(from_bitset(root_pool_bits(node, graph)))
            continue
        candidates = set(graph.neighbors(words[node.back_edges[0][0]]))
        for earlier, _ in node.back_edges[1:]:
            candidates &= set(graph.neighbors(words[earlier]))
        if node.allowed is not None:
            candidates &= set(from_bitset(node.allowed))
        pool |= candidates
    return sorted(pool)


def accepting_patterns(dag, graph, words):
    """Member indices whose plan accepts ``words`` as a full match: one per
    accepting leaf (several under monomorphic semantics)."""
    return tuple(
        p for p in dag_survivors(dag, graph, words)
        if dag.plans[p].num_steps == len(words)
    )


def dag_extendable(dag, graph, words):
    """Whether any surviving member still has plan steps beyond ``words``:
    the DAG computations' termination filter, negated."""
    return any(
        dag.plans[p].num_steps > len(words)
        for p in dag_survivors(dag, graph, words)
    )
