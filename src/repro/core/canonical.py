"""Embedding canonicality — Arabesque's coordination-free dedup (section 5.1).

Multiple workers can reach automorphic copies of the same embedding through
different exploration paths; since all user functions are automorphism
invariant, only one copy — the *canonical* one — must survive.  The check
runs on a single embedding with no coordination, in linear time
(Algorithm 2), and satisfies (proofs in the paper's appendix):

* **uniqueness** — exactly one canonical embedding per automorphism class;
* **extendibility** — the canonical automorphism of any one-word extension
  of a canonical embedding is itself an extension of a canonical embedding.

Definition 1 (vertex mode): ``<v1..vn>`` is canonical iff

* P1: ``v1`` is the smallest id in the embedding,
* P2: every later vertex neighbors an earlier one (connectivity),
* P3: after a vertex's first neighbor position, no earlier-placed vertex
  has a larger id than it.

The incremental check assumes the parent is canonical and verifies only the
new word.  One deliberate deviation from the paper's Algorithm 2: when the
extension has *no* neighbor in the parent we return False (enforcing P2)
instead of True — Algorithm 2 assumes candidates are incident by
construction, but ODAG extraction feeds this check arbitrary overapproximated
paths, so connectivity must be enforced here.

The edge-based case is analogous with "neighbor" meaning "shares an
endpoint" and words being edge ids.
"""

from __future__ import annotations

from ..graph import LabeledGraph
from .embedding import EDGE_EXPLORATION, VERTEX_EXPLORATION


# ----------------------------------------------------------------------
# Vertex-based exploration
# ----------------------------------------------------------------------
def is_canonical_vertex_extension(
    graph: LabeledGraph, parent_words: tuple[int, ...], v: int
) -> bool:
    """Algorithm 2: is ``parent_words + (v,)`` canonical?

    ``parent_words`` must already be canonical (the engine guarantees this
    by never extending non-canonical embeddings).
    """
    if not parent_words:
        return True
    if parent_words[0] > v:
        return False
    neighbor_bits = graph.neighbor_bits(v)
    found_neighbor = False
    for vi in parent_words:
        if not found_neighbor:
            if (neighbor_bits >> vi) & 1:
                found_neighbor = True
        elif vi > v:
            return False
    return found_neighbor


def is_canonical_vertex_words(graph: LabeledGraph, words: tuple[int, ...]) -> bool:
    """From-scratch check: every prefix extension must pass Algorithm 2."""
    for size in range(1, len(words)):
        if not is_canonical_vertex_extension(graph, words[:size], words[size]):
            return False
    return True


def canonicalize_vertex_set(
    graph: LabeledGraph, vertex_ids
) -> tuple[int, ...]:
    """The unique canonical word order of a connected vertex set.

    Constructive form of the paper's Theorem 3: start from the smallest id,
    then repeatedly append the smallest-id unvisited vertex adjacent to the
    visited prefix.  Raises ValueError on a disconnected set, for which no
    canonical embedding exists.
    """
    members = set(vertex_ids)
    if not members:
        return ()
    words = [min(members)]
    visited = {words[0]}
    while len(words) < len(members):
        best: int | None = None
        for v in words:
            for u in graph.neighbors(v):
                if u in members and u not in visited and (best is None or u < best):
                    best = u
        if best is None:
            raise ValueError("vertex set is not connected")
        words.append(best)
        visited.add(best)
    return tuple(words)


# ----------------------------------------------------------------------
# Edge-based exploration
# ----------------------------------------------------------------------
def _edges_share_endpoint(graph: LabeledGraph, e1: int, e2: int) -> bool:
    u1, v1 = graph.edge_endpoints(e1)
    u2, v2 = graph.edge_endpoints(e2)
    return u1 == u2 or u1 == v2 or v1 == u2 or v1 == v2


def is_canonical_edge_extension(
    graph: LabeledGraph, parent_words: tuple[int, ...], eid: int
) -> bool:
    """The edge-based analogue of Algorithm 2 over edge ids."""
    if not parent_words:
        return True
    if parent_words[0] > eid:
        return False
    u, v = graph.edge_endpoints(eid)
    found_neighbor = False
    for ei in parent_words:
        if not found_neighbor:
            a, b = graph.edge_endpoints(ei)
            if a == u or a == v or b == u or b == v:
                found_neighbor = True
        elif ei > eid:
            return False
    return found_neighbor


def is_canonical_edge_words(graph: LabeledGraph, words: tuple[int, ...]) -> bool:
    """From-scratch edge-mode check via prefix extensions."""
    for size in range(1, len(words)):
        if not is_canonical_edge_extension(graph, words[:size], words[size]):
            return False
    return True


def canonicalize_edge_set(graph: LabeledGraph, edge_ids) -> tuple[int, ...]:
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
    span: set[int] = set(graph.edge_endpoints(words[0]))
    while len(words) < len(members):
        best: int | None = None
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


# ----------------------------------------------------------------------
# Algorithm 2 over a whole candidate pool (both exploration modes)
# ----------------------------------------------------------------------
def canonical_extension_mask(row, parent_words: tuple[int, ...], pool: int) -> int:
    """The members ``w`` of the bitset ``pool`` for which
    ``parent_words + (w,)`` is canonical — Algorithm 2 for every candidate
    of one parent at once, in ``len(parent_words)`` shifts and ``&``s.

    ``row(word)`` is the bitset of words adjacent to ``word``
    (:func:`repro.core.extension.word_row`: ``neighbor_bits`` in vertex
    mode, the two endpoints' ``incident_bits`` in edge mode).  Algorithm 2
    rejects ``w`` iff ``w < w1``, or ``w`` has no neighbor in the parent,
    or some ``wj > w`` sits after ``w``'s first neighbor — and ``wj`` sits
    after the first neighbor exactly when ``w`` is in
    ``seen_j = row(w1) | .. | row(wj-1)``.  So one walk keeping ``seen``
    collects the rejected set ``U_j seen_j & {ids below wj}``; the
    survivors are ``pool & seen & ~rejected`` from ``w1`` upward.  Equal to
    filtering ``pool`` through ``is_canonical_*_extension`` for *any* pool
    (not just the extension pool), which the differential tests replay.
    """
    if not parent_words:
        return pool
    seen = 0
    rejected = 0
    for word in parent_words:
        rejected |= seen & ((1 << word) - 1)
        seen |= row(word)
    return pool & seen & ~rejected & (-1 << parent_words[0])


# ----------------------------------------------------------------------
# Mode dispatch used by the engine and storages
# ----------------------------------------------------------------------
def extension_checker(mode: str):
    """The incremental canonicality check for an exploration mode."""
    if mode == VERTEX_EXPLORATION:
        return is_canonical_vertex_extension
    if mode == EDGE_EXPLORATION:
        return is_canonical_edge_extension
    raise ValueError(f"unknown exploration mode {mode!r}")


def full_checker(mode: str):
    """The from-scratch canonicality check for an exploration mode."""
    if mode == VERTEX_EXPLORATION:
        return is_canonical_vertex_words
    if mode == EDGE_EXPLORATION:
        return is_canonical_edge_words
    raise ValueError(f"unknown exploration mode {mode!r}")


def canonicalizer(mode: str):
    """The word-set canonicalizer for an exploration mode."""
    if mode == VERTEX_EXPLORATION:
        return canonicalize_vertex_set
    if mode == EDGE_EXPLORATION:
        return canonicalize_edge_set
    raise ValueError(f"unknown exploration mode {mode!r}")
