"""Graph substrate: immutable labeled graphs, builders, generators, I/O."""

from .bitset import from_bitset, iter_bitset, to_bitset
from .builder import GraphBuilder
from .generators import (
    assign_labels,
    complete_graph,
    cycle_graph,
    gnm_random_graph,
    graph_from_edges,
    grid_graph,
    path_graph,
    powerlaw_graph,
    random_regularish_graph,
    star_graph,
    strip_labels,
)
from .graph import GraphError, LabeledGraph
from .io import read_edge_list, write_edge_list

__all__ = [
    "GraphBuilder",
    "GraphError",
    "LabeledGraph",
    "assign_labels",
    "complete_graph",
    "cycle_graph",
    "from_bitset",
    "gnm_random_graph",
    "graph_from_edges",
    "grid_graph",
    "iter_bitset",
    "path_graph",
    "powerlaw_graph",
    "random_regularish_graph",
    "read_edge_list",
    "star_graph",
    "strip_labels",
    "to_bitset",
    "write_edge_list",
]
