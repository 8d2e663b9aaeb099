"""Maximal clique mining — the paper's section 2 generalization.

"The clique problem can also be generalized to maximal cliques, i.e., those
not contained in any other clique."  Exploration is
:class:`~repro.apps.cliques.CliqueFinding`'s; the only change is the output
condition: a clique of at least ``min_size`` vertices is emitted iff no
input-graph vertex is adjacent to all of its members.  This stays
automorphism-invariant (maximality depends only on the vertex set) and keeps
φ anti-monotone (non-maximal cliques must still be *explored* — one of their
extensions may be maximal — just not output).
"""

from __future__ import annotations

from ..core.embedding import Embedding, VertexInducedEmbedding
from ..graph.bitset import to_bitset
from .cliques import CliqueFinding


def is_maximal_clique(embedding: VertexInducedEmbedding) -> bool:
    """No vertex outside the embedding neighbors every member."""
    graph = embedding.graph
    words = embedding.words
    # Intersect neighbor bitsets starting from the smallest to fail fast.
    smallest = min(words, key=graph.degree)
    common = graph.neighbor_bits(smallest)
    outside = ~to_bitset(words)
    for v in words:
        if v != smallest:
            common &= graph.neighbor_bits(v)
        if not common & outside:
            return True
    return not common & outside


class MaximalCliqueFinding(CliqueFinding):
    """Enumerate maximal cliques of at least ``min_size`` vertices
    (optionally capped at ``max_size``).  Only ``process`` differs from
    :class:`~repro.apps.cliques.CliqueFinding`, so the runtime declines
    the inherited ``process_terminal``.

    With a ``max_size`` cap, cliques of exactly ``max_size`` are reported
    when maximal in the *full* graph — matching Mace's semantics, which
    the paper uses as the centralized baseline.
    """

    def process(self, embedding: Embedding) -> None:
        assert isinstance(embedding, VertexInducedEmbedding)
        if embedding.num_vertices >= self.min_size and is_maximal_clique(embedding):
            self.output(tuple(sorted(embedding.words)))
