"""Differential test (hypothesis) for the quick patterns two-level pattern
aggregation (paper section 5.4, Table 4) rests on:
``VertexInducedEmbedding.pattern()`` looks a structural key up in one
interned table; it must equal the quick pattern built directly
(``_pattern_from_scratch``), and equal patterns must be one object.
"""

import itertools

from hypothesis import given, settings, strategies as st

from repro.core import VertexInducedEmbedding
from repro.graph import LabeledGraph

from reference import pattern_from_scratch


@st.composite
def graphs(draw, uniform_edges: bool) -> LabeledGraph:
    n = draw(st.integers(2, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    labels = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    if uniform_edges:
        edge_labels = [draw(st.integers(0, 3))] * len(edges)
    else:
        edge_labels = draw(
            st.lists(st.integers(0, 2), min_size=len(edges), max_size=len(edges))
        )
    return LabeledGraph(labels, edges, edge_labels)


@st.composite
def connected_words(draw, graph: LabeledGraph) -> tuple[int, ...]:
    """Up to 5 vertices, each adjacent to an earlier one (any visit order,
    canonical or not: quick patterns need none)."""
    words = [draw(st.sampled_from(range(graph.num_vertices)))]
    for _ in range(draw(st.integers(0, 4))):
        frontier = sorted(
            {u for v in words for u in graph.neighbors(v)} - set(words)
        )
        if not frontier:
            break
        words.append(draw(st.sampled_from(frontier)))
    return tuple(words)


@given(data=st.data(), uniform_edges=st.booleans())
@settings(max_examples=150, deadline=None)
def test_keyed_pattern_equals_the_reference(data, uniform_edges):
    graph = data.draw(graphs(uniform_edges))
    embeddings = [
        VertexInducedEmbedding(graph, data.draw(connected_words(graph)))
        for _ in range(6)
    ]
    for embedding in embeddings:
        assert embedding.pattern() == pattern_from_scratch(embedding)
    for a, b in itertools.combinations(embeddings, 2):
        if a.pattern() == b.pattern():
            assert a.pattern() is b.pattern()
