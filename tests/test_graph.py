"""Unit tests for the LabeledGraph substrate."""

import pytest

import pickle

from repro.graph import (
    GraphError,
    LabeledGraph,
    complete_graph,
    cycle_graph,
    from_bitset,
    graph_from_edges,
    grid_graph,
    path_graph,
    star_graph,
)

from reference import is_connected_vertex_set


@pytest.fixture
def triangle_with_tail():
    # 0-1-2 triangle, 2-3 tail; labels 5,6,7,8; edge labels 10..13.
    return LabeledGraph(
        vertex_labels=[5, 6, 7, 8],
        edges=[(0, 1), (1, 2), (0, 2), (2, 3)],
        edge_labels=[10, 11, 12, 13],
        name="tri-tail",
    )


class TestConstruction:
    def test_counts(self, triangle_with_tail):
        assert triangle_with_tail.num_vertices == 4
        assert triangle_with_tail.num_edges == 4

    def test_name(self, triangle_with_tail):
        assert triangle_with_tail.name == "tri-tail"

    def test_num_vertex_labels(self, triangle_with_tail):
        assert triangle_with_tail.num_vertex_labels == 4

    def test_average_degree(self, triangle_with_tail):
        assert triangle_with_tail.average_degree() == pytest.approx(2.0)

    def test_empty_graph(self):
        g = LabeledGraph([], [])
        assert g.num_vertices == 0
        assert g.num_edges == 0
        assert g.average_degree() == 0.0
        assert g.num_vertex_labels == 0

    def test_rejects_self_loop(self):
        with pytest.raises(GraphError):
            LabeledGraph([0, 0], [(1, 1)])

    def test_rejects_parallel_edge(self):
        with pytest.raises(GraphError):
            LabeledGraph([0, 0], [(0, 1), (1, 0)])

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(GraphError):
            LabeledGraph([0, 0], [(0, 5)])

    def test_rejects_edge_label_mismatch(self):
        with pytest.raises(GraphError):
            LabeledGraph([0, 0], [(0, 1)], edge_labels=[1, 2])

    def test_default_edge_labels_are_zero(self):
        g = LabeledGraph([0, 0], [(0, 1)])
        assert g.edge_label(0) == 0


class TestAccessors:
    def test_vertex_labels(self, triangle_with_tail):
        assert triangle_with_tail.vertex_label(0) == 5
        assert triangle_with_tail.vertex_labels == (5, 6, 7, 8)

    def test_neighbors_sorted(self, triangle_with_tail):
        assert tuple(triangle_with_tail.neighbors(2)) == (0, 1, 3)

    def test_neighbor_bits(self, triangle_with_tail):
        assert from_bitset(triangle_with_tail.neighbor_bits(0)) == (1, 2)

    def test_label_bits_match_index(self, triangle_with_tail):
        for label in (5, 6, 7, 8):
            assert from_bitset(triangle_with_tail.label_bits(label)) == tuple(
                v for v in triangle_with_tail.vertices()
                if triangle_with_tail.vertex_label(v) == label
            )
        assert triangle_with_tail.label_bits(99) == 0

    def test_degree(self, triangle_with_tail):
        assert triangle_with_tail.degree(2) == 3
        assert triangle_with_tail.degree(3) == 1

    def test_adjacent(self, triangle_with_tail):
        assert triangle_with_tail.adjacent(0, 1)
        assert triangle_with_tail.adjacent(1, 0)
        assert not triangle_with_tail.adjacent(0, 3)

    def test_edge_endpoints_normalized(self, triangle_with_tail):
        assert triangle_with_tail.edge_endpoints(3) == (2, 3)

    def test_edge_id_symmetric(self, triangle_with_tail):
        assert triangle_with_tail.edge_id(1, 2) == 1
        assert triangle_with_tail.edge_id(2, 1) == 1

    def test_edge_id_missing_raises(self, triangle_with_tail):
        with pytest.raises(GraphError):
            triangle_with_tail.edge_id(0, 3)

    def test_edge_label(self, triangle_with_tail):
        assert triangle_with_tail.edge_label(2) == 12
        assert triangle_with_tail.edge_labels == (10, 11, 12, 13)

    def test_incident_bits(self, triangle_with_tail):
        assert from_bitset(triangle_with_tail.incident_bits(2)) == (1, 2, 3)

    def test_edge_between(self, triangle_with_tail):
        assert triangle_with_tail.edge_between(1, 2) == 1
        assert triangle_with_tail.edge_between(2, 1) == 1
        assert triangle_with_tail.edge_between(0, 3) is None

    def test_uniform_edge_label(self, triangle_with_tail):
        assert triangle_with_tail.uniform_edge_label is None
        unlabeled = LabeledGraph([0, 0], [(0, 1)])
        assert unlabeled.uniform_edge_label == 0
        assert LabeledGraph([0], []).uniform_edge_label == 0

    def test_memory_nbytes_positive(self, triangle_with_tail):
        assert triangle_with_tail.memory_nbytes() > 0

    def test_edge_iter(self, triangle_with_tail):
        triples = list(triangle_with_tail.edge_iter())
        assert triples[0] == (0, 0, 1)
        assert len(triples) == 4


class TestStructureHelpers:
    def test_vertex_label_histogram(self):
        g = LabeledGraph([1, 1, 2], [(0, 1), (1, 2)])
        assert g.vertex_label_histogram() == {1: 2, 2: 1}

    def test_induced_edge_ids(self, triangle_with_tail):
        assert triangle_with_tail.induced_edge_ids([0, 1, 2]) == [0, 1, 2]
        assert triangle_with_tail.induced_edge_ids([0, 3]) == []

    def test_is_connected_vertex_set(self, triangle_with_tail):
        assert is_connected_vertex_set(triangle_with_tail, [0, 1, 2, 3])
        assert not is_connected_vertex_set(triangle_with_tail, [0, 3])
        assert not is_connected_vertex_set(triangle_with_tail, [])

    def test_equality_and_hash(self):
        g1 = LabeledGraph([1, 2], [(0, 1)], [3])
        g2 = LabeledGraph([1, 2], [(0, 1)], [3], name="other")
        g3 = LabeledGraph([1, 2], [(0, 1)], [4])
        assert g1 == g2  # name excluded from identity
        assert hash(g1) == hash(g2)
        assert g1 != g3

    def test_relabel_with_sequence(self, triangle_with_tail):
        g = triangle_with_tail.relabel([0, 0, 0, 0])
        assert g.vertex_labels == (0, 0, 0, 0)
        assert g.num_edges == triangle_with_tail.num_edges

    def test_relabel_with_mapping(self, triangle_with_tail):
        g = triangle_with_tail.relabel({0: 99})
        assert g.vertex_label(0) == 99
        assert g.vertex_label(1) == 6

    def test_relabel_rejects_bad_length(self, triangle_with_tail):
        with pytest.raises(GraphError):
            triangle_with_tail.relabel([0, 0])

    def test_pickle_round_trip(self, triangle_with_tail):
        clone = pickle.loads(pickle.dumps(triangle_with_tail))
        assert clone == triangle_with_tail
        assert clone.name == triangle_with_tail.name
        assert tuple(clone.neighbors(2)) == (0, 1, 3)
        assert clone.edge_label(2) == 12


#: ``(build, vertices, edges, sorted degree sequence)`` per named shape.
SHAPES = {
    "complete-1": (lambda: complete_graph(1), 1, 0, [0]),
    "complete-2": (lambda: complete_graph(2), 2, 1, [1, 1]),
    "complete-5": (lambda: complete_graph(5), 5, 10, [4] * 5),
    "path-0": (lambda: path_graph(0), 0, 0, []),
    "path-1": (lambda: path_graph(1), 1, 0, [0]),
    "path-4": (lambda: path_graph(4), 4, 3, [1, 1, 2, 2]),
    "cycle-3": (lambda: cycle_graph(3), 3, 3, [2] * 3),
    "cycle-5": (lambda: cycle_graph(5), 5, 5, [2] * 5),
    "star-0": (lambda: star_graph(0), 1, 0, [0]),
    "star-6": (lambda: star_graph(6), 7, 6, [1] * 6 + [6]),
    "grid-1x1": (lambda: grid_graph(1, 1), 1, 0, [0]),
    "grid-1x4": (lambda: grid_graph(1, 4), 4, 3, [1, 1, 2, 2]),
    "grid-3x4": (lambda: grid_graph(3, 4), 12, 17, [2] * 4 + [3] * 6 + [4] * 2),
}

#: ``(shape, vertex, its sorted neighbors)``: where each shape puts its edges.
NEIGHBORS = [
    ("path-4", 1, [0, 2]),
    ("cycle-5", 0, [1, 4]),
    ("cycle-5", 2, [1, 3]),
    ("star-6", 0, [1, 2, 3, 4, 5, 6]),
    ("star-6", 3, [0]),
    ("grid-3x4", 5, [1, 4, 6, 9]),  # row-major: row 1, column 1
    ("grid-3x4", 0, [1, 4]),
]


class TestNamedShapes:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_size_and_degrees(self, shape):
        build, vertices, edges, degrees = SHAPES[shape]
        g = build()
        assert (g.num_vertices, g.num_edges) == (vertices, edges)
        assert sorted(g.degree(v) for v in g.vertices()) == degrees

    @pytest.mark.parametrize("shape", SHAPES)
    def test_unlabeled_and_deterministic(self, shape):
        build = SHAPES[shape][0]
        g = build()
        assert set(g.vertex_labels) <= {0} and set(g.edge_labels) <= {0}
        assert build() == g

    @pytest.mark.parametrize("shape, vertex, neighbors", NEIGHBORS)
    def test_neighbors(self, shape, vertex, neighbors):
        assert sorted(SHAPES[shape][0]().neighbors(vertex)) == neighbors

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_cycle_rejects_small(self, n):
        with pytest.raises(GraphError, match="at least 3"):
            cycle_graph(n)

    @pytest.mark.parametrize("edges, vertices", [
        ([(0, 3), (1, 2)], 4), ([(0, 3), (1, 3)], 4), ([], 0),
    ])
    def test_graph_from_edges_infers_size(self, edges, vertices):
        g = graph_from_edges(edges)
        assert (g.num_vertices, g.num_edges) == (vertices, len(edges))

    def test_graph_from_edges_keeps_labels(self):
        g = graph_from_edges([(0, 1), (1, 2)], vertex_labels=[5, 6, 7, 8],
                             edge_labels=[1, 2])
        assert g.num_vertices == 4  # the labels may name extra, isolated vertices
        assert g.vertex_labels == (5, 6, 7, 8)
        assert g.edge_label(g.edge_id(1, 2)) == 2

    def test_graph_from_edges_rejects_short_labels(self):
        with pytest.raises(GraphError, match="shorter"):
            graph_from_edges([(0, 3)], vertex_labels=[0])
