"""Embeddings — the unit of exploration in the "think like an embedding" model.

An *embedding* is a connected subgraph of the input graph, an instance of a
more general *pattern* (paper, Figure 2).  Arabesque represents an embedding
as "the list of its vertices sorted by the order in which they have been
visited" (section 5.1) — for vertex-induced embeddings the vertex list
uniquely identifies the subgraph; for edge-induced embeddings the analogous
list of edge ids does.

We call that list the embedding's **words** (the original codebase uses the
same term).  Words are plain int tuples: the engine's hot loops operate on
them directly, and the :class:`Embedding` objects handed to user code are
thin views over ``(graph, words)``.

Two concrete classes mirror the two exploration modes of section 3.1:

* :class:`VertexInducedEmbedding` — words are vertex ids; the edge set is
  *induced* (every input-graph edge between member vertices belongs to the
  embedding);
* :class:`EdgeInducedEmbedding` — words are edge ids; the vertex set is the
  endpoints, and only the listed edges belong to the embedding.
"""

from __future__ import annotations

from functools import lru_cache

from ..graph import LabeledGraph
from .pattern import _TABLE_BOUND, Pattern

#: Exploration-mode constants (paper: "edge-based or vertex-based
#: exploration mode", section 3.1).
VERTEX_EXPLORATION = "vertex"
EDGE_EXPLORATION = "edge"


class Embedding:
    """Common interface of both embedding kinds.

    Instances are immutable and hashable on their words, which — per the
    canonicality machinery — uniquely identify the subgraph within one
    exploration mode.
    """

    __slots__ = ("graph", "words")

    mode: str = ""

    def __init__(self, graph: LabeledGraph, words: tuple[int, ...] = ()) -> None:
        self.graph = graph
        self.words = tuple(words)

    # -- structure ------------------------------------------------------
    @property
    def vertices(self) -> tuple[int, ...]:
        """Member vertex ids in visit order."""
        raise NotImplementedError

    @property
    def edges(self) -> tuple[int, ...]:
        """Member edge ids (sorted for vertex-induced, visit order for
        edge-induced)."""
        raise NotImplementedError

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def size(self) -> int:
        """Number of words — the exploration depth that produced this."""
        return len(self.words)

    def extend(self, word: int) -> "Embedding":
        """New embedding with ``word`` appended (same graph, same mode)."""
        return type(self)(self.graph, self.words + (word,))

    def pattern(self) -> Pattern:
        """The *quick pattern* of this embedding (paper, section 5.4).

        Obtained in linear time by relabeling member vertices with their
        visit positions; NOT canonical — automorphic embeddings visited in
        different orders may produce different quick patterns (that is the
        point: canonicalization is deferred to two-level aggregation).
        """
        raise NotImplementedError

    # -- dunder ---------------------------------------------------------
    def __len__(self) -> int:
        return len(self.words)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Embedding):
            return NotImplemented
        return self.mode == other.mode and self.words == other.words

    def __hash__(self) -> int:
        return hash((self.mode, self.words))

    def __repr__(self) -> str:
        return f"{type(self).__name__}{self.words!r}"

    def __reduce__(self):
        return type(self), (self.graph, self.words)


@lru_cache(maxsize=_TABLE_BOUND)
def _quick_pattern(
    vertex_labels: tuple[int, ...],
    adjacency: int,
    edge_labels: int | tuple[int, ...],
) -> Pattern:
    """The interned quick pattern of a structural key (paper, section 5.4).

    Bit ``n`` of ``adjacency`` marks the ``n``-th position pair as an edge,
    pairs counted ``(0, 1), (0, 2), (1, 2), (0, 3), ...``; ``edge_labels``
    is the one label all edges carry, or one label per edge in pair order.
    Equal keys return the same object, whose memoized hash then serves
    every canonicalizer and aggregation dict it keys.
    """
    pairs = [(i, j) for j in range(len(vertex_labels)) for i in range(j)]
    present = [pair for n, pair in enumerate(pairs) if adjacency >> n & 1]
    if isinstance(edge_labels, int):
        edge_labels = (edge_labels,) * len(present)
    return Pattern(
        vertex_labels,
        tuple(sorted((i, j, label) for (i, j), label in zip(present, edge_labels))),
    )


class VertexInducedEmbedding(Embedding):
    """Embedding defined by a vertex set; edges are induced (section 2).

    Its quick pattern is a pure function of a structural key — the labels
    row, which position pairs are adjacent, and their edge labels — so
    ``pattern()`` builds that key and looks it up in one interned table
    (:func:`_quick_pattern`): embeddings with equal keys share one
    ``Pattern`` object, and its memoized hash."""

    __slots__ = ()

    mode = VERTEX_EXPLORATION

    @property
    def vertices(self) -> tuple[int, ...]:
        return self.words

    @property
    def num_vertices(self) -> int:
        return len(self.words)

    @property
    def edges(self) -> tuple[int, ...]:
        # The graph's bitset pass returns induced edge ids sorted already.
        return tuple(self.graph.induced_edge_ids(self.words))

    def pattern(self) -> Pattern:
        # The key :func:`_quick_pattern` reads.  On a uniform-label graph
        # the bit tests alone decide: no edge lookup.
        graph = self.graph
        words = self.words
        uniform = graph.uniform_edge_label
        edge_labels = []
        adjacency = 0
        bit = 1
        for j in range(1, len(words)):
            v = words[j]
            row = graph.neighbor_bits(v)
            for u in words[:j]:
                if (row >> u) & 1:
                    adjacency |= bit
                    if uniform is None:
                        edge_labels.append(graph.edge_label(graph.edge_between(u, v)))
                bit <<= 1
        return _quick_pattern(
            tuple(map(graph.vertex_label, words)),
            adjacency,
            uniform if uniform is not None else tuple(edge_labels),
        )

    def is_clique(self) -> bool:
        """Whether the newest vertex connects to all previous ones.

        This is the incremental clique check the paper's clique application
        uses (section 4.2): for embeddings built by extension, checking the
        last vertex suffices — the prefix was already verified.
        """
        if len(self.words) <= 1:
            return True
        newest = self.words[-1]
        neighbor_bits = self.graph.neighbor_bits(newest)
        return all((neighbor_bits >> v) & 1 for v in self.words[:-1])


class EdgeInducedEmbedding(Embedding):
    """Embedding defined by an edge set; vertices are the endpoints."""

    __slots__ = ()

    mode = EDGE_EXPLORATION

    @property
    def vertices(self) -> tuple[int, ...]:
        graph = self.graph
        seen: dict[int, None] = {}
        for eid in self.words:
            u, v = graph.edge_endpoints(eid)
            if u not in seen:
                seen[u] = None
            if v not in seen:
                seen[v] = None
        return tuple(seen)

    @property
    def edges(self) -> tuple[int, ...]:
        return self.words

    def pattern(self) -> Pattern:
        graph = self.graph
        position: dict[int, int] = {}
        vertex_labels: list[int] = []
        pattern_edges: list[tuple[int, int, int]] = []
        for eid in self.words:
            u, v = graph.edge_endpoints(eid)
            for w in (u, v):
                if w not in position:
                    position[w] = len(vertex_labels)
                    vertex_labels.append(graph.vertex_label(w))
            i, j = position[u], position[v]
            if i > j:
                i, j = j, i
            pattern_edges.append((i, j, graph.edge_label(eid)))
        pattern_edges.sort()
        return Pattern(tuple(vertex_labels), tuple(pattern_edges))


def make_embedding(
    graph: LabeledGraph, mode: str, words: tuple[int, ...] = ()
) -> Embedding:
    """Factory dispatching on exploration mode."""
    if mode == VERTEX_EXPLORATION:
        return VertexInducedEmbedding(graph, words)
    if mode == EDGE_EXPLORATION:
        return EdgeInducedEmbedding(graph, words)
    raise ValueError(f"unknown exploration mode {mode!r}")
