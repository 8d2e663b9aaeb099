"""Tests for graph text I/O (the edge-list format)."""

import io

import pytest

from repro.graph import (
    GraphError,
    gnm_random_graph,
    assign_labels,
    read_edge_list,
    write_edge_list,
)


class TestEdgeList:
    def test_parse_basic(self):
        g = read_edge_list(io.StringIO(
            """
            # a comment
            v a 1
            v b 2
            a b 9
            b c
            """
        ))
        assert g.num_vertices == 3
        assert g.num_edges == 2
        assert g.vertex_label(0) == 1
        assert g.vertex_label(2) == 0  # implicit vertex
        assert g.edge_label(0) == 9
        assert g.edge_label(1) == 0

    def test_parse_rejects_malformed_vertex(self):
        with pytest.raises(GraphError):
            read_edge_list(io.StringIO("v a\n"))

    def test_parse_rejects_malformed_edge(self):
        with pytest.raises(GraphError):
            read_edge_list(io.StringIO("a b c d\n"))

    def test_roundtrip(self):
        g = assign_labels(gnm_random_graph(40, 90, seed=3), 5, seed=1)
        buffer = io.StringIO()
        write_edge_list(g, buffer)
        parsed = read_edge_list(io.StringIO(buffer.getvalue()))
        assert parsed == g

    def test_file_roundtrip(self, tmp_path):
        g = assign_labels(gnm_random_graph(20, 30, seed=4), 3, seed=2)
        path = tmp_path / "g.edges"
        write_edge_list(g, path)
        assert read_edge_list(path) == g

    def test_duplicate_edges_merged(self):
        g = read_edge_list(io.StringIO("a b\nb a\na b\n"))
        assert g.num_edges == 1

    def test_rejects_self_loop(self):
        with pytest.raises(GraphError, match="self-loop"):
            read_edge_list(io.StringIO("a b\nc c\n"))

    def test_error_names_the_line(self):
        with pytest.raises(GraphError, match="line 3"):
            read_edge_list(io.StringIO("# head\na b\nv a\n"))

    def test_duplicate_edge_keeps_first_label(self):
        g = read_edge_list(io.StringIO("a b 4\nb a 7\n"))
        assert [g.edge_label(e) for e in g.edges()] == [4]

    def test_ids_follow_first_sighting(self):
        g = read_edge_list(io.StringIO("x y\nv z 3\ny z\n"))
        assert [g.vertex_label(v) for v in g.vertices()] == [0, 0, 3]
        assert g.adjacent(0, 1) and g.adjacent(1, 2) and not g.adjacent(0, 2)

    def test_label_line_after_edges_relabels(self):
        g = read_edge_list(io.StringIO("a b\nv b 5\nv b 6\n"))
        assert [g.vertex_label(v) for v in g.vertices()] == [0, 6]

    def test_isolated_vertices_roundtrip(self):
        g = read_edge_list(io.StringIO("v a 1\nv b 2\nv c 3\n"))
        assert (g.num_vertices, g.num_edges) == (3, 0)
        buffer = io.StringIO()
        write_edge_list(g, buffer)
        assert read_edge_list(io.StringIO(buffer.getvalue())) == g

    def test_written_text(self):
        g = read_edge_list(io.StringIO("v a 2\na b 3\n"), name="tiny")
        buffer = io.StringIO()
        write_edge_list(g, buffer)
        assert buffer.getvalue() == "# tiny\nv 0 2\nv 1 0\n0 1 3\n"

    def test_str_path_and_name(self, tmp_path):
        g = assign_labels(gnm_random_graph(8, 10, seed=5), 2, seed=5)
        path = str(tmp_path / "g.edges")
        write_edge_list(g, path)
        parsed = read_edge_list(path, name="from-disk")
        assert parsed == g and parsed.name == "from-disk"
