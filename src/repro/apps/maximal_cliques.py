"""Maximal clique mining — the paper's section 2 generalization.

"The clique problem can also be generalized to maximal cliques, i.e., those
not contained in any other clique."  Exploration is identical to
:class:`~repro.apps.cliques.CliqueFinding`; the only change is the output
condition: a clique is emitted iff no input-graph vertex is adjacent to all
of its members.  This stays automorphism-invariant (maximality depends only
on the vertex set) and keeps φ anti-monotone (non-maximal cliques must still
be *explored* — one of their extensions may be maximal — just not output).
"""

from __future__ import annotations

from ..core.computation import Computation
from ..core.embedding import Embedding, VERTEX_EXPLORATION, VertexInducedEmbedding
from ..graph.bitset import to_bitset
from .cliques import clique_extensions


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


class MaximalCliqueFinding(Computation):
    """Enumerate maximal cliques (optionally capped at ``max_size``).

    With a ``max_size`` cap, cliques of exactly ``max_size`` are reported
    when maximal in the *full* graph — matching Mace's semantics, which the
    paper uses as the centralized baseline.
    """

    exploration_mode = VERTEX_EXPLORATION

    def __init__(self, max_size: int | None = None):
        super().__init__()
        if max_size is not None and max_size < 1:
            raise ValueError("max_size must be >= 1 when given")
        self.max_size = max_size

    def filter(self, embedding: Embedding) -> bool:
        assert isinstance(embedding, VertexInducedEmbedding)
        if self.max_size is not None and embedding.num_vertices > self.max_size:
            return False
        return embedding.is_clique()

    def filter_extensions(self, words: tuple[int, ...], mask: int) -> int:
        return clique_extensions(self.graph, self.max_size, words, mask)

    def process(self, embedding: Embedding) -> None:
        assert isinstance(embedding, VertexInducedEmbedding)
        if is_maximal_clique(embedding):
            self.output(tuple(sorted(embedding.words)))

    def termination_filter(self, embedding: Embedding) -> bool:
        return self.max_size is not None and embedding.num_vertices >= self.max_size
