"""The edge-list text format: one ``u v [edge_label]`` pair per line,
optionally preceded by ``v <vertex> <label>`` vertex-label lines.  Comment
lines start with ``#``.  This covers the crawled datasets the paper uses
(Youtube, Patents).
"""

from __future__ import annotations

from pathlib import Path
from typing import TextIO

from .builder import GraphBuilder
from .graph import GraphError, LabeledGraph


def _open_for_read(source: str | Path | TextIO) -> tuple[TextIO, bool]:
    if isinstance(source, (str, Path)):
        return open(source, "r", encoding="utf-8"), True
    return source, False


def _open_for_write(target: str | Path | TextIO) -> tuple[TextIO, bool]:
    if isinstance(target, (str, Path)):
        return open(target, "w", encoding="utf-8"), True
    return target, False


def read_edge_list(source: str | Path | TextIO, name: str = "graph") -> LabeledGraph:
    """Parse an edge-list file into a :class:`LabeledGraph`.

    Lines:

    * ``# ...`` — comment, ignored.
    * ``v <vertex> <label>`` — declare a vertex with a label.
    * ``<u> <v>`` or ``<u> <v> <edge label>`` — an undirected edge.

    Vertices referenced only by edges get label 0.  Vertex names may be any
    whitespace-free token; dense ids are assigned in first-seen order.
    """
    handle, owned = _open_for_read(source)
    builder = GraphBuilder()
    try:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if parts[0] == "v":
                if len(parts) != 3:
                    raise GraphError(f"line {lineno}: expected 'v <vertex> <label>'")
                builder.add_vertex(parts[1], label=int(parts[2]))
            elif len(parts) == 2:
                builder.add_edge(parts[0], parts[1])
            elif len(parts) == 3:
                builder.add_edge(parts[0], parts[1], label=int(parts[2]))
            else:
                raise GraphError(f"line {lineno}: malformed edge line {line!r}")
    finally:
        if owned:
            handle.close()
    return builder.build(name=name)


def write_edge_list(graph: LabeledGraph, target: str | Path | TextIO) -> None:
    """Write ``graph`` in the edge-list format accepted by read_edge_list."""
    handle, owned = _open_for_write(target)
    try:
        handle.write(f"# {graph.name}\n")
        for v in graph.vertices():
            handle.write(f"v {v} {graph.vertex_label(v)}\n")
        for eid, u, v in graph.edge_iter():
            handle.write(f"{u} {v} {graph.edge_label(eid)}\n")
    finally:
        if owned:
            handle.close()
