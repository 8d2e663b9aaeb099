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

from ..graph import LabeledGraph
from .pattern import Pattern

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

    def vertex_set(self) -> frozenset[int]:
        """Member vertices as a frozenset."""
        return frozenset(self.vertices)

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
        # Identity only: a subclass's derived-state slots (the quick-pattern
        # caches below) never cross a process boundary.
        return type(self), (self.graph, self.words)


class VertexInducedEmbedding(Embedding):
    """Embedding defined by a vertex set; edges are induced (section 2).

    ``extend`` children remember their parent, so ``pattern()`` derives a
    child's quick pattern from the parent's plus the newest vertex — the
    extended report's incremental construction — instead of re-deriving
    all O(k²) position pairs.  The three cache slots are derived state:
    they take no part in equality, hashing, ``repr`` or pickling."""

    __slots__ = ("_parent", "_quick", "_child_quicks")

    mode = VERTEX_EXPLORATION

    def __init__(self, graph: LabeledGraph, words: tuple[int, ...] = ()) -> None:
        self.graph = graph
        self.words = tuple(words)
        #: The embedding ``extend`` built this one from (``None``: a root,
        #: or decoded from a store).
        self._parent: VertexInducedEmbedding | None = None
        #: This embedding's quick pattern, once asked for.
        self._quick: Pattern | None = None
        #: Quick patterns of this embedding's children by what the newest
        #: vertex adds — siblings that add the same share one ``Pattern``.
        self._child_quicks: dict[tuple, Pattern] | None = None

    @property
    def vertices(self) -> tuple[int, ...]:
        return self.words

    @property
    def num_vertices(self) -> int:
        return len(self.words)

    def extend(self, word: int) -> "VertexInducedEmbedding":
        child = type(self)(self.graph, self.words + (word,))
        child._parent = self
        return child

    @property
    def edges(self) -> tuple[int, ...]:
        # The graph's bitset pass returns induced edge ids sorted already.
        return tuple(self.graph.induced_edge_ids(self.words))

    def pattern(self) -> Pattern:
        quick = self._quick
        if quick is None:
            parent = self._parent
            if parent is None:
                quick = self._pattern_from_scratch()
            else:
                quick = parent._child_pattern(self.words[-1])
            self._quick = quick
        return quick

    def _pattern_from_scratch(self) -> Pattern:
        graph = self.graph
        words = self.words
        vertex_labels = tuple(graph.vertex_label(v) for v in words)
        pattern_edges: list[tuple[int, int, int]] = []
        for j, v in enumerate(words):
            neighbor_bits = graph.neighbor_bits(v)
            for i in range(j):
                u = words[i]
                if (neighbor_bits >> u) & 1:
                    pattern_edges.append(
                        (i, j, graph.edge_label(graph.edge_between(u, v)))
                    )
        pattern_edges.sort()
        return Pattern(vertex_labels, tuple(pattern_edges))

    def _child_pattern(self, v: int) -> Pattern:
        """Quick pattern of the child ``self.words + (v,)``: this
        embedding's, plus ``v``'s label and one edge per adjacent position.
        What ``v`` adds — label, adjacency-to-positions bits, and the edge
        labels where the graph's are not uniform — keys the sibling memo."""
        graph = self.graph
        words = self.words
        neighbor_bits = graph.neighbor_bits(v)
        positions = [i for i, u in enumerate(words) if (neighbor_bits >> u) & 1]
        edge_label = graph.uniform_edge_label
        if edge_label is None:
            edge_labels = [
                graph.edge_label(graph.edge_between(words[i], v)) for i in positions
            ]
        else:
            edge_labels = [edge_label] * len(positions)
        label = graph.vertex_label(v)
        key = (label, *positions, *edge_labels)
        memo = self._child_quicks
        if memo is None:
            memo = self._child_quicks = {}
        quick = memo.get(key)
        if quick is None:
            base = self.pattern()
            newest = len(words)
            added = [(i, newest, l) for i, l in zip(positions, edge_labels)]
            quick = memo[key] = Pattern(
                base.vertex_labels + (label,), tuple(sorted([*base.edges, *added]))
            )
        return quick

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
