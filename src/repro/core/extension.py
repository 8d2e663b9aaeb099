"""Candidate extension generation (Algorithm 1's expansion step).

"The system computes candidates by adding one incident edge or vertex to e,
depending on whether it runs in edge-based or vertex-based exploration mode"
(paper, section 3.1).  In the first exploration step the candidate set is
every vertex (or edge) of the input graph.

Candidates are deduplicated within one parent (a vertex adjacent to several
members is generated once); deduplication *across* parents is the job of the
canonicality check, not of this module.
"""

from __future__ import annotations

from ..graph import LabeledGraph
from ..graph.bitset import from_bitset
from .embedding import EDGE_EXPLORATION, VERTEX_EXPLORATION


def word_row(graph: LabeledGraph, mode: str):
    """``row(word)``: the bitset of words adjacent to ``word`` — a vertex's
    neighbors (vertex mode), or the edges sharing an endpoint with an edge
    (edge mode; the edge's own bit is set too).  The one place the mask
    kernels (:func:`extension_mask`,
    :func:`repro.core.canonical.canonical_extension_mask`) learn the mode."""
    if mode == VERTEX_EXPLORATION:
        return graph.neighbor_bits
    if mode == EDGE_EXPLORATION:
        endpoints = graph.edge_endpoints
        incident_bits = graph.incident_bits

        def edge_row(eid: int) -> int:
            u, v = endpoints(eid)
            return incident_bits(u) | incident_bits(v)

        return edge_row
    raise ValueError(f"unknown exploration mode {mode!r}")


def extension_mask(row, words: tuple[int, ...]) -> int:
    """The extension pool of ``words`` as a bitset: every word adjacent to
    a member, minus the members — one ``|`` per member, one subtraction."""
    pool = 0
    members = 0
    for word in words:
        pool |= row(word)
        members |= 1 << word
    return pool & ~members


def extensions(graph: LabeledGraph, mode: str, words: tuple[int, ...]) -> list[int]:
    """Distinct incident words not already in the embedding, ascending.

    Bitsets decode in id order, so exploration stays deterministic across
    runs and worker counts, which the tests rely on for cross-validation.
    """
    return list(from_bitset(extension_mask(word_row(graph, mode), words)))


def vertex_extensions(graph: LabeledGraph, words: tuple[int, ...]) -> list[int]:
    """Distinct neighboring vertices of the embedding, sorted ascending."""
    return extensions(graph, VERTEX_EXPLORATION, words)


def edge_extensions(graph: LabeledGraph, words: tuple[int, ...]) -> list[int]:
    """Distinct incident edges not already in the embedding, sorted."""
    return extensions(graph, EDGE_EXPLORATION, words)


def initial_candidates(graph: LabeledGraph, mode: str) -> range:
    """Expansion of the "undefined" embedding: all vertices or all edges."""
    if mode == VERTEX_EXPLORATION:
        return graph.vertices()
    if mode == EDGE_EXPLORATION:
        return graph.edges()
    raise ValueError(f"unknown exploration mode {mode!r}")
