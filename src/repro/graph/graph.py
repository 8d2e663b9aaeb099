"""Immutable labeled graph: the input-graph substrate of Arabesque.

Arabesque workers each hold "a local read-only copy of the graph" whose
"vertices and edges consist of incremental numeric ids" (paper, section 4.3).
:class:`LabeledGraph` is that copy: an undirected graph with dense integer
vertex ids ``0..n-1``, dense integer edge ids ``0..m-1``, and integer labels
on both vertices and edges (label ``0`` plays the role of the paper's "null"
label for unlabeled graphs).

The representation is a CSR (compressed sparse row) core over stdlib
``array('l')`` buffers plus a big-int bitset layer (:mod:`.bitset`):

* ``_offsets[v] .. _offsets[v+1]`` delimits vertex ``v``'s row in the
  neighbor array (``_csr_neighbors``, sorted by neighbor id; the parallel
  ``_csr_nbr_edge`` holds each entry's edge id) — ``neighbors(v)`` is a
  zero-copy ``memoryview`` slice;
* incident edges are held only as bitsets over edge ids
  (``incident_bits(v)``);
* ``adjacent(u, v)`` is a single shift on ``neighbor_bits(u)``, and
  ``edge_between(u, v)`` is a bisect into the smaller endpoint's CSR row;
* the label index is built **eagerly** at construction, so instances are
  truly immutable after ``__init__`` — no first-read mutation dirtying
  copy-on-write pages under the fork-based process backend.

Build graphs with :class:`repro.graph.GraphBuilder`.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left
from typing import Iterable, Iterator, Mapping, Sequence

from .bitset import from_bitset, to_bitset


class GraphError(ValueError):
    """Raised for malformed graph construction or out-of-range queries."""


class LabeledGraph:
    """An immutable undirected graph with labeled vertices and edges.

    Parameters
    ----------
    vertex_labels:
        Sequence of integer labels; vertex ``v`` has label
        ``vertex_labels[v]``.  The length defines the vertex count.
    edges:
        Sequence of ``(u, v)`` pairs with ``u != v``.  Edge ids are assigned
        in the order given.  Parallel edges and self-loops are rejected
        (the paper assumes simple graphs without self-loops).
    edge_labels:
        Optional sequence of integer labels, one per edge; defaults to all
        zeros (the "null" label).
    name:
        Optional human-readable dataset name used in reports.
    """

    __slots__ = (
        "_vertex_labels",
        "_edge_u",
        "_edge_v",
        "_edge_labels",
        "_offsets",
        "_csr_neighbors",
        "_csr_nbr_edge",
        "_nbr_views",
        "_nbr_all",
        "_nbr_edge_all",
        "_nbr_bits",
        "_inc_bits",
        "_label_bits",
        "_uniform_edge_label",
        "_name",
    )

    def __init__(
        self,
        vertex_labels: Sequence[int],
        edges: Sequence[tuple[int, int]],
        edge_labels: Sequence[int] | None = None,
        name: str = "graph",
    ) -> None:
        n = len(vertex_labels)
        self._vertex_labels = array("l", (int(label) for label in vertex_labels))
        if edge_labels is None:
            edge_labels = [0] * len(edges)
        if len(edge_labels) != len(edges):
            raise GraphError(
                f"{len(edges)} edges but {len(edge_labels)} edge labels"
            )

        adjacency: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        edge_u = array("l")
        edge_v = array("l")
        nbr_bits = [0] * n
        inc_bits = [0] * n
        seen: set[tuple[int, int]] = set()
        for eid, (u, v) in enumerate(edges):
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) references a missing vertex")
            if u == v:
                raise GraphError(f"self-loop on vertex {u} is not allowed")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise GraphError(f"parallel edge ({u}, {v})")
            seen.add(key)
            edge_u.append(key[0])
            edge_v.append(key[1])
            adjacency[u].append((v, eid))
            adjacency[v].append((u, eid))
            nbr_bits[u] |= 1 << v
            nbr_bits[v] |= 1 << u
            eid_bit = 1 << eid
            inc_bits[u] |= eid_bit
            inc_bits[v] |= eid_bit

        self._edge_u = edge_u
        self._edge_v = edge_v
        self._edge_labels = array("l", (int(label) for label in edge_labels))

        offsets = array("l", [0])
        csr_neighbors = array("l")
        csr_nbr_edge = array("l")
        for v in range(n):
            row = adjacency[v]
            row.sort()
            for neighbor, eid in row:
                csr_neighbors.append(neighbor)
                csr_nbr_edge.append(eid)
            offsets.append(len(csr_neighbors))
        self._offsets = offsets
        self._csr_neighbors = csr_neighbors
        self._csr_nbr_edge = csr_nbr_edge

        nbr_all = memoryview(csr_neighbors)
        self._nbr_all = nbr_all
        self._nbr_edge_all = memoryview(csr_nbr_edge)
        self._nbr_views = tuple(
            nbr_all[offsets[v] : offsets[v + 1]] for v in range(n)
        )
        self._nbr_bits = tuple(nbr_bits)
        self._inc_bits = tuple(inc_bits)

        #: Eager label -> vertex-id bitset.  Built at construction so no
        #: read path ever mutates the instance.
        index: dict[int, list[int]] = {}
        for vertex, vertex_label in enumerate(self._vertex_labels):
            index.setdefault(vertex_label, []).append(vertex)
        self._label_bits = {
            vertex_label: to_bitset(ids) for vertex_label, ids in index.items()
        }

        distinct_edge_labels = set(self._edge_labels)
        self._uniform_edge_label = (
            distinct_edge_labels.pop() if len(distinct_edge_labels) == 1 else
            0 if not distinct_edge_labels else None
        )
        self._name = name

    # ------------------------------------------------------------------
    # Size and identity
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """Dataset name used in benchmark reports."""
        return self._name

    @property
    def num_vertices(self) -> int:
        """Number of vertices (ids are ``0..num_vertices - 1``)."""
        return len(self._vertex_labels)

    @property
    def num_edges(self) -> int:
        """Number of edges (ids are ``0..num_edges - 1``)."""
        return len(self._edge_labels)

    @property
    def num_vertex_labels(self) -> int:
        """Number of distinct vertex labels present in the graph."""
        return len(self._label_bits)

    def average_degree(self) -> float:
        """Average vertex degree, ``2m / n`` (0.0 for the empty graph)."""
        if not self._vertex_labels:
            return 0.0
        return 2.0 * self.num_edges / self.num_vertices

    def memory_nbytes(self) -> int:
        """Approximate bytes held by the CSR buffers and bitset layer.

        The number the benchmarks report as "peak graph bytes": the array
        buffers plus the big-int bitsets (per-vertex adjacency/incidence
        and the label index), excluding fixed per-object overhead.
        """
        total = sum(
            buf.itemsize * len(buf)
            for buf in (
                self._vertex_labels,
                self._edge_u,
                self._edge_v,
                self._edge_labels,
                self._offsets,
                self._csr_neighbors,
                self._csr_nbr_edge,
            )
        )
        total += sum(sys.getsizeof(bits) for bits in self._nbr_bits)
        total += sum(sys.getsizeof(bits) for bits in self._inc_bits)
        total += sum(sys.getsizeof(bits) for bits in self._label_bits.values())
        return total

    # ------------------------------------------------------------------
    # Vertices
    # ------------------------------------------------------------------
    def vertices(self) -> range:
        """All vertex ids, in increasing order."""
        return range(self.num_vertices)

    def vertex_label(self, v: int) -> int:
        """Label of vertex ``v``."""
        return self._vertex_labels[v]

    @property
    def vertex_labels(self) -> tuple[int, ...]:
        """Tuple of all vertex labels indexed by vertex id."""
        return tuple(self._vertex_labels)

    def label_bits(self, label: int) -> int:
        """All vertices carrying ``label``, as a bitset (``0`` for absent).

        The label index every real mining system keeps: guided plans use
        it as the step-0 candidate pool instead of scanning all vertices.
        Built eagerly at construction (graphs are immutable).
        """
        return self._label_bits.get(label, 0)

    def degree(self, v: int) -> int:
        """Degree of vertex ``v``."""
        return len(self._nbr_views[v])

    def neighbors(self, v: int) -> Sequence[int]:
        """Neighbors of ``v``, sorted ascending (zero-copy CSR row)."""
        return self._nbr_views[v]

    def neighbor_bits(self, v: int) -> int:
        """Neighbors of ``v`` as a big-int bitset (O(1) membership/``&``)."""
        return self._nbr_bits[v]

    def adjacent(self, u: int, v: int) -> bool:
        """Whether an edge ``(u, v)`` exists."""
        return bool((self._nbr_bits[u] >> v) & 1)

    # ------------------------------------------------------------------
    # Edges
    # ------------------------------------------------------------------
    def edges(self) -> range:
        """All edge ids, in increasing order."""
        return range(self.num_edges)

    def edge_endpoints(self, eid: int) -> tuple[int, int]:
        """Endpoints ``(u, v)`` of edge ``eid`` with ``u < v``."""
        return (self._edge_u[eid], self._edge_v[eid])

    def edge_label(self, eid: int) -> int:
        """Label of edge ``eid``."""
        return self._edge_labels[eid]

    @property
    def edge_labels(self) -> tuple[int, ...]:
        """Tuple of all edge labels indexed by edge id."""
        return tuple(self._edge_labels)

    @property
    def uniform_edge_label(self) -> int | None:
        """The single edge label shared by every edge, or ``None`` if mixed.

        ``0`` (the null label) for edge-less graphs.  Hot back-edge checks
        use this to skip the edge-id lookup entirely on unlabeled graphs:
        adjacency alone decides, because every present edge carries the
        one label.
        """
        return self._uniform_edge_label

    def edge_between(self, u: int, v: int) -> int | None:
        """Edge id of the edge between ``u`` and ``v``, or ``None``.

        A bisect into the smaller endpoint's sorted CSR neighbor row;
        endpoints must be valid vertex ids.
        """
        offsets = self._offsets
        if offsets[u + 1] - offsets[u] > offsets[v + 1] - offsets[v]:
            u, v = v, u
        lo = offsets[u]
        hi = offsets[u + 1]
        i = bisect_left(self._nbr_all, v, lo, hi)
        if i < hi and self._nbr_all[i] == v:
            return self._nbr_edge_all[i]
        return None

    def edge_id(self, u: int, v: int) -> int:
        """Edge id of the edge between ``u`` and ``v``.

        Raises :class:`GraphError` if no such edge exists; use
        :meth:`adjacent` (or :meth:`edge_between`) first when absence is
        expected.
        """
        try:
            eid = self.edge_between(u, v)
        except IndexError:
            raise GraphError(f"no edge between {u} and {v}") from None
        if eid is None:
            raise GraphError(f"no edge between {u} and {v}")
        return eid

    def incident_bits(self, v: int) -> int:
        """Incident edge ids of ``v`` as a big-int bitset over edge ids."""
        return self._inc_bits[v]

    # ------------------------------------------------------------------
    # Label statistics (used by dataset reports and generators)
    # ------------------------------------------------------------------
    def vertex_label_histogram(self) -> dict[int, int]:
        """Mapping ``label -> number of vertices`` carrying it."""
        return {label: bits.bit_count() for label, bits in self._label_bits.items()}

    # ------------------------------------------------------------------
    # Structure helpers
    # ------------------------------------------------------------------
    def induced_edge_ids(self, vertex_set: Iterable[int]) -> list[int]:
        """Edge ids of the subgraph induced by ``vertex_set``, sorted.

        Pure bitset arithmetic: an edge is induced iff it appears in the
        incident-edge bitsets of two members, so one pass accumulating
        "seen once" / "seen twice" masks finds them all; decoding the
        twice-mask yields edge ids ascending.
        """
        inc_bits = self._inc_bits
        once = 0
        both = 0
        for v in set(vertex_set):
            bits = inc_bits[v]
            both |= once & bits
            once |= bits
        return list(from_bitset(both))

    # ------------------------------------------------------------------
    # Dunder protocol
    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return (
            f"LabeledGraph(name={self._name!r}, vertices={self.num_vertices}, "
            f"edges={self.num_edges}, labels={self.num_vertex_labels})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LabeledGraph):
            return NotImplemented
        return (
            self._vertex_labels == other._vertex_labels
            and self._edge_u == other._edge_u
            and self._edge_v == other._edge_v
            and self._edge_labels == other._edge_labels
        )

    def __hash__(self) -> int:
        return hash(
            (
                self._vertex_labels.tobytes(),
                self._edge_u.tobytes(),
                self._edge_v.tobytes(),
                self._edge_labels.tobytes(),
            )
        )

    def __reduce__(self):
        # memoryview slots are not picklable; rebuild from the defining
        # data instead (the spawn-mode process backend pickles the graph
        # inside StepContext — fork inherits it copy-on-write).
        return (
            LabeledGraph,
            (
                self._vertex_labels.tolist(),
                list(zip(self._edge_u, self._edge_v)),
                self._edge_labels.tolist(),
                self._name,
            ),
        )

    def relabel(
        self, vertex_labels: Mapping[int, int] | Sequence[int]
    ) -> "LabeledGraph":
        """A copy of this graph with different vertex labels.

        Accepts either a full sequence of labels or a mapping of
        ``vertex -> new label`` (unmapped vertices keep their label).
        """
        if isinstance(vertex_labels, Mapping):
            labels = list(self._vertex_labels)
            for v, label in vertex_labels.items():
                labels[v] = label
        else:
            labels = list(vertex_labels)
            if len(labels) != self.num_vertices:
                raise GraphError("label sequence length must match vertex count")
        return LabeledGraph(
            labels,
            list(zip(self._edge_u, self._edge_v)),
            self._edge_labels,
            name=self._name,
        )

    def edge_iter(self) -> Iterator[tuple[int, int, int]]:
        """Iterate ``(eid, u, v)`` triples in edge-id order."""
        return zip(range(self.num_edges), self._edge_u, self._edge_v)
