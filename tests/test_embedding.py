"""Tests for embeddings (vertex- and edge-induced) and quick patterns."""

import pickle

import pytest

from repro.apps import MotifCounting
from repro.core import (
    EDGE_EXPLORATION,
    VERTEX_EXPLORATION,
    ArabesqueConfig,
    Computation,
    EdgeInducedEmbedding,
    VertexInducedEmbedding,
    make_embedding,
    run_computation,
)
from repro.datasets import (
    citeseer_like,
    instagram_like,
    mico_like,
    patents_like,
    sn_like,
    youtube_like,
)
from repro.graph import (
    assign_labels,
    gnm_random_graph,
    graph_from_edges,
    strip_labels,
)


@pytest.fixture
def labeled_square():
    # 0-1-2-3-0 cycle plus chord 0-2; labels 1,2,1,2; edge labels 10..14.
    return graph_from_edges(
        [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)],
        vertex_labels=[1, 2, 1, 2],
        edge_labels=[10, 11, 12, 13, 14],
    )


class TestVertexInduced:
    def test_vertices_are_words(self, labeled_square):
        e = VertexInducedEmbedding(labeled_square, (0, 1, 2))
        assert e.vertices == (0, 1, 2)
        assert e.num_vertices == 3

    def test_edges_are_induced(self, labeled_square):
        e = VertexInducedEmbedding(labeled_square, (0, 1, 2))
        # Edges among {0,1,2}: (0,1)=0, (1,2)=1, (0,2)=4.
        assert e.edges == (0, 1, 4)
        assert e.num_edges == 3

    def test_extend(self, labeled_square):
        e = VertexInducedEmbedding(labeled_square, (0, 1))
        child = e.extend(2)
        assert isinstance(child, VertexInducedEmbedding)
        assert child.words == (0, 1, 2)
        assert e.words == (0, 1)  # parent unchanged

    def test_vertex_set(self, labeled_square):
        e = VertexInducedEmbedding(labeled_square, (2, 0))
        assert e.vertex_set() == frozenset({0, 2})

    def test_quick_pattern_structure(self, labeled_square):
        e = VertexInducedEmbedding(labeled_square, (0, 1, 2))
        p = e.pattern()
        assert p.vertex_labels == (1, 2, 1)
        assert p.edges == ((0, 1, 10), (0, 2, 14), (1, 2, 11))

    def test_quick_pattern_depends_on_visit_order(self, labeled_square):
        # Automorphic embeddings in different orders -> different quick
        # patterns (this is what two-level aggregation reconciles).
        path_a = VertexInducedEmbedding(labeled_square, (1, 2, 3))
        path_b = VertexInducedEmbedding(labeled_square, (3, 2, 1))
        assert path_a.pattern().canonical() == path_b.pattern().canonical()

    def test_is_clique_incremental(self, labeled_square):
        assert VertexInducedEmbedding(labeled_square, (0, 1, 2)).is_clique()
        assert not VertexInducedEmbedding(labeled_square, (0, 1, 3)).is_clique()
        assert VertexInducedEmbedding(labeled_square, (0,)).is_clique()
        assert VertexInducedEmbedding(labeled_square, (0, 1)).is_clique()

    def test_equality_and_hash(self, labeled_square):
        a = VertexInducedEmbedding(labeled_square, (0, 1))
        b = VertexInducedEmbedding(labeled_square, (0, 1))
        c = VertexInducedEmbedding(labeled_square, (1, 0))
        assert a == b
        assert hash(a) == hash(b)
        assert a != c

    def test_vertex_and_edge_embeddings_never_equal(self, labeled_square):
        v = VertexInducedEmbedding(labeled_square, (0, 1))
        e = EdgeInducedEmbedding(labeled_square, (0, 1))
        assert v != e


def from_scratch(embedding):
    """The twin ``extend`` never saw: same words, no parent to derive from."""
    return VertexInducedEmbedding(embedding.graph, embedding.words)


class TestIncrementalQuickPattern:
    """``extend`` children derive ``pattern()`` from the parent's; the
    result must be the from-scratch quick pattern, object for object."""

    def chains(self, graph, depth):
        """Every ``extend`` chain of ``depth`` words over adjacent or
        non-adjacent picks (quick patterns need no canonical order)."""
        grown = [VertexInducedEmbedding(graph, (v,)) for v in graph.vertices()]
        for _ in range(depth - 1):
            grown = [
                e.extend(w)
                for e in grown
                for w in graph.vertices()
                if w not in e.words
            ][:400]
        return grown

    def test_multi_edge_label_graph(self, labeled_square):
        assert labeled_square.uniform_edge_label is None
        for depth in (2, 3, 4):
            for child in self.chains(labeled_square, depth):
                assert child.pattern() == from_scratch(child).pattern()

    @pytest.mark.parametrize("labeled", [True, False], ids=["labeled", "unlabeled"])
    def test_deep_chains_on_a_random_graph(self, labeled):
        graph = assign_labels(gnm_random_graph(9, 20, seed=2), 3, seed=1)
        if not labeled:
            graph = strip_labels(graph)
        deep = self.chains(graph, 5)
        assert deep and all(len(e) == 5 for e in deep)
        for child in deep:
            assert child.pattern() == from_scratch(child).pattern()

    def test_asking_the_child_before_the_parent(self, labeled_square):
        # pattern() on a depth-4 child whose ancestors were never asked.
        child = VertexInducedEmbedding(labeled_square, (3,))
        for w in (0, 2, 1):
            child = child.extend(w)
        assert child.pattern() == from_scratch(child).pattern()
        assert child.pattern() is child.pattern()

    def test_siblings_adding_the_same_share_one_pattern(self):
        star = graph_from_edges([(0, 1), (0, 2), (0, 3), (1, 2)])
        parent = VertexInducedEmbedding(star, (0, 1))
        two, three = parent.extend(2), parent.extend(3)
        assert two.pattern() != three.pattern()  # triangle vs wedge
        assert parent.extend(2).pattern() is two.pattern()
        path = graph_from_edges([(0, 1), (0, 2), (0, 3)])
        hub = VertexInducedEmbedding(path, (0, 1))
        assert hub.extend(2).pattern() is hub.extend(3).pattern()

    def test_edge_labels_split_siblings(self, labeled_square):
        # 1 and 3 both attach to (0, 2) twice with label-2 vertices, but
        # through differently labeled edges: two quick patterns.
        parent = VertexInducedEmbedding(labeled_square, (0, 2))
        assert parent.extend(1).pattern() != parent.extend(3).pattern()

    @pytest.mark.parametrize("storage", ["odag", "list"])
    def test_store_extracted_embeddings_are_parentless(self, storage):
        # What the expansion pass reads back has no parent: from-scratch
        # there, incremental for its children — same run either way.
        graph = assign_labels(gnm_random_graph(14, 30, seed=5), 2, seed=0)
        config = ArabesqueConfig(storage=storage, num_workers=2)
        incremental = run_computation(graph, MotifCounting(4), config)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                VertexInducedEmbedding,
                "pattern",
                VertexInducedEmbedding._pattern_from_scratch,
            )
            scratch = run_computation(graph, MotifCounting(4), config)
        assert incremental.canonical_signature() == scratch.canonical_signature()
        assert incremental.steps == scratch.steps

    @pytest.mark.parametrize(
        "make_graph",
        [
            lambda: citeseer_like(scale=0.05),
            lambda: mico_like(scale=0.001),
            lambda: patents_like(scale=0.00004),
            lambda: youtube_like(scale=0.00002),
            lambda: sn_like(scale=0.00002),
            lambda: instagram_like(scale=0.0000008),
        ],
        ids=["citeseer", "mico", "patents", "youtube", "sn", "instagram"],
    )
    def test_table4_rows_unchanged_on_bundled_datasets(self, make_graph):
        # Paper Table 4: pattern requests, distinct quick patterns and the
        # canonical patterns they collapse to.
        graph = make_graph()

        def table4():
            run = run_computation(graph, MotifCounting(3), ArabesqueConfig())
            return run.pattern_requests, run.quick_patterns, run.canonical_patterns

        incremental = table4()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                VertexInducedEmbedding,
                "pattern",
                VertexInducedEmbedding._pattern_from_scratch,
            )
            assert table4() == incremental
        assert incremental[0] > incremental[1] >= incremental[2] > 0


class TestCacheSlotsAreNotIdentity:
    def test_eq_hash_repr_ignore_the_caches(self, labeled_square):
        child = VertexInducedEmbedding(labeled_square, (0, 1)).extend(2)
        child.pattern()
        twin = from_scratch(child)
        assert child == twin and hash(child) == hash(twin)
        assert repr(child) == repr(twin) == "VertexInducedEmbedding(0, 1, 2)"

    def test_pickle_ships_graph_and_words_only(self, labeled_square):
        child = VertexInducedEmbedding(labeled_square, (0,))
        for w in (1, 2, 3):
            sibling = child.extend(w)
            sibling.pattern()  # fill the parent's sibling memo too
            child = sibling
        twin = from_scratch(child)
        assert len(pickle.dumps(child)) == len(pickle.dumps(twin))
        restored = pickle.loads(pickle.dumps(child))
        assert restored == child and restored.graph == labeled_square
        assert restored._parent is None and restored._child_quicks is None
        assert restored.pattern() == child.pattern()

    def test_process_backend_outputs_embeddings(self):
        # A computation that output()s the embeddings themselves: what
        # crosses the pipe must not drag parents or memos along.
        graph = gnm_random_graph(12, 24, seed=4)
        config = ArabesqueConfig(backend="process", num_workers=2)
        run = run_computation(graph, EmbeddingEmitter(), config)
        assert run.outputs
        for embedding in run.outputs:
            assert embedding._parent is None and embedding._quick is None
        serial = run_computation(graph, EmbeddingEmitter(), ArabesqueConfig(num_workers=2))
        assert run.outputs == serial.outputs


class EmbeddingEmitter(Computation):
    def filter(self, embedding):
        return embedding.num_vertices <= 3

    def process(self, embedding):
        embedding.pattern()
        self.output(embedding)


class TestEdgeInduced:
    def test_edges_are_words(self, labeled_square):
        e = EdgeInducedEmbedding(labeled_square, (0, 1))
        assert e.edges == (0, 1)
        assert e.num_edges == 2

    def test_vertices_first_seen_order(self, labeled_square):
        # edge 1 = (1,2), edge 0 = (0,1): vertices 1,2 then 0.
        e = EdgeInducedEmbedding(labeled_square, (1, 0))
        assert e.vertices == (1, 2, 0)
        assert e.num_vertices == 3

    def test_non_induced_semantics(self, labeled_square):
        # Edges (0,1) and (1,2) only: chord (0,2) is NOT part of the
        # embedding even though it exists in the graph.
        e = EdgeInducedEmbedding(labeled_square, (0, 1))
        p = e.pattern()
        assert p.num_edges == 2

    def test_quick_pattern_labels(self, labeled_square):
        e = EdgeInducedEmbedding(labeled_square, (0, 1))
        p = e.pattern()
        assert p.vertex_labels == (1, 2, 1)
        assert ((0, 1, 10) in p.edges) and ((1, 2, 11) in p.edges)

    def test_size_is_word_count(self, labeled_square):
        e = EdgeInducedEmbedding(labeled_square, (0, 1, 2))
        assert e.size == 3
        assert len(e) == 3


class TestFactory:
    def test_vertex_mode(self, labeled_square):
        e = make_embedding(labeled_square, VERTEX_EXPLORATION, (0,))
        assert isinstance(e, VertexInducedEmbedding)

    def test_edge_mode(self, labeled_square):
        e = make_embedding(labeled_square, EDGE_EXPLORATION, (0,))
        assert isinstance(e, EdgeInducedEmbedding)

    def test_unknown_mode(self, labeled_square):
        with pytest.raises(ValueError):
            make_embedding(labeled_square, "bogus", (0,))
