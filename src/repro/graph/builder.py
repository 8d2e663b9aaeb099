"""Mutable builder producing immutable :class:`~repro.graph.LabeledGraph`.

The builder tolerates arbitrary (non-dense, non-integer) vertex names and
compacts them to the dense incremental ids Arabesque requires (paper,
section 4.3).  Duplicate edges are merged silently, which makes the builder
safe to feed from noisy edge lists (the public datasets the paper uses are
plain crawled edge lists with duplicates).
"""

from __future__ import annotations

from typing import Hashable

from .graph import GraphError, LabeledGraph


class GraphBuilder:
    """Accumulates vertices and edges, then freezes into a LabeledGraph.

    Example
    -------
    >>> b = GraphBuilder()
    >>> b.add_vertex("a", label=1)
    0
    >>> b.add_vertex("b", label=2)
    1
    >>> b.add_edge("a", "b", label=7)
    0
    >>> g = b.build(name="tiny")
    >>> (g.num_vertices, g.num_edges)
    (2, 1)
    """

    def __init__(self) -> None:
        self._ids: dict[Hashable, int] = {}
        self._labels: list[int] = []
        self._edges: list[tuple[int, int]] = []
        self._edge_labels: list[int] = []
        self._edge_keys: dict[tuple[int, int], int] = {}

    def __len__(self) -> int:
        return len(self._labels)

    @property
    def num_edges(self) -> int:
        """Number of distinct edges added so far."""
        return len(self._edges)

    def add_vertex(self, key: Hashable, label: int = 0) -> int:
        """Register vertex ``key`` with ``label``; returns its dense id.

        Re-adding an existing key returns the existing id and updates the
        label (last writer wins), so callers can add edges first and attach
        labels in a second pass.
        """
        vid = self._ids.get(key)
        if vid is None:
            vid = len(self._labels)
            self._ids[key] = vid
            self._labels.append(int(label))
        else:
            self._labels[vid] = int(label)
        return vid

    def add_edge(self, u: Hashable, v: Hashable, label: int = 0) -> int:
        """Add an undirected edge, creating endpoints (label 0) on demand.

        Duplicate edges are merged; the first label wins.  Self-loops are
        rejected.  Returns the edge id.
        """
        uid = self._ids.get(u)
        if uid is None:
            uid = self.add_vertex(u)
        vid = self._ids.get(v)
        if vid is None:
            vid = self.add_vertex(v)
        if uid == vid:
            raise GraphError(f"self-loop on {u!r}")
        key = (uid, vid) if uid < vid else (vid, uid)
        eid = self._edge_keys.get(key)
        if eid is None:
            eid = len(self._edges)
            self._edge_keys[key] = eid
            self._edges.append(key)
            self._edge_labels.append(int(label))
        return eid

    def build(self, name: str = "graph") -> LabeledGraph:
        """Freeze into an immutable :class:`LabeledGraph`."""
        return LabeledGraph(self._labels, self._edges, self._edge_labels, name=name)
