"""Clique finding — Figure 4c of the paper.

Dense-subgraph mining with purely local pruning: an embedding that is not a
clique can never extend into one, so ``filter`` is the incremental
``isClique`` check ("the isClique function checks that the newly added
vertex is connected with all previous vertices in the embedding", section
4.2) and ``process`` outputs every embedding it receives — all of which are
cliques by construction.
"""

from __future__ import annotations

from ..core.computation import Computation
from ..core.embedding import Embedding, VERTEX_EXPLORATION, VertexInducedEmbedding
from ..core.results import RunResult
from ..graph import LabeledGraph


class CliqueFinding(Computation):
    """Enumerate all cliques with up to ``max_size`` vertices.

    ``min_size`` controls which cliques are *output* (the paper's MS=4 runs
    output cliques of every explored size; benchmarks often care only about
    the largest).  ``max_size=None`` enumerates every clique in the graph —
    use with care, the count is exponential in the largest clique.
    """

    exploration_mode = VERTEX_EXPLORATION

    def __init__(self, max_size: int | None = None, min_size: int = 1):
        super().__init__()
        if max_size is not None and max_size < 1:
            raise ValueError("max_size must be >= 1 when given")
        if min_size < 1:
            raise ValueError("min_size must be >= 1")
        self.max_size = max_size
        self.min_size = min_size

    def filter(self, embedding: Embedding) -> bool:
        assert isinstance(embedding, VertexInducedEmbedding)
        if self.max_size is not None and embedding.num_vertices > self.max_size:
            return False
        return embedding.is_clique()

    def filter_extensions(self, words: tuple[int, ...], mask: int) -> int:
        return clique_extensions(self.graph, self.max_size, words, mask)

    def process(self, embedding: Embedding) -> None:
        if embedding.num_vertices >= self.min_size:
            self.output(tuple(sorted(embedding.words)))

    def termination_filter(self, embedding: Embedding) -> bool:
        return self.max_size is not None and embedding.num_vertices >= self.max_size

    @property
    def terminal_size(self) -> int | None:
        return self.max_size

    def process_terminal(self, words: tuple[int, ...], mask: int) -> None:
        if len(words) + 1 >= self.min_size:
            self.output_batch(words, mask)


def clique_extensions(
    graph: LabeledGraph, max_size: int | None, words: tuple[int, ...], mask: int
) -> int:
    """The clique φ over a whole pool: the size cap, then the candidates
    adjacent to every member — ``isClique`` for each child at once."""
    if max_size is not None and len(words) >= max_size:
        return 0
    neighbor_bits = graph.neighbor_bits
    for word in words:
        mask &= neighbor_bits(word)
    return mask


def cliques_by_size(result: RunResult) -> dict[int, list[tuple[int, ...]]]:
    """Post-process a run: clique size -> sorted list of vertex tuples."""
    by_size: dict[int, list[tuple[int, ...]]] = {}
    for clique in result.outputs:
        by_size.setdefault(len(clique), []).append(clique)
    for cliques in by_size.values():
        cliques.sort()
    return by_size
