"""Property tests for the CSR + bitset graph core.

The refactored :class:`~repro.graph.LabeledGraph` stores adjacency in CSR
``array('l')`` buffers and big-int bitsets.  These tests pit every accessor
against a naive dict-of-sets reference built independently from the same
edge list, on hypothesis-generated random graphs — plus round-trip
invariants for the bitset helpers themselves.
"""

import random

import pytest

from hypothesis import given, settings, strategies as st

from repro.graph import (
    GraphError,
    LabeledGraph,
    bitset_count,
    from_bitset,
    iter_bitset,
    to_bitset,
)


def random_graph_data(seed: int, max_n: int = 12):
    """Random labels + simple edge list (the constructor's raw inputs)."""
    rng = random.Random(seed)
    n = rng.randint(1, max_n)
    labels = [rng.randint(0, 3) for _ in range(n)]
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    edges = pairs[: rng.randint(0, len(pairs))]
    edge_labels = [rng.randint(0, 2) for _ in edges]
    return labels, edges, edge_labels


class DictOfSetsReference:
    """The naive graph representation the CSR core must agree with."""

    def __init__(self, labels, edges, edge_labels):
        n = len(labels)
        self.labels = list(labels)
        self.adjacency = {v: set() for v in range(n)}
        self.incident = {v: set() for v in range(n)}
        self.edge_index = {}
        self.edge_labels = list(edge_labels)
        for eid, (u, v) in enumerate(edges):
            self.adjacency[u].add(v)
            self.adjacency[v].add(u)
            self.incident[u].add(eid)
            self.incident[v].add(eid)
            self.edge_index[(u, v) if u < v else (v, u)] = eid
        self.label_index = {}
        for vertex, label in enumerate(labels):
            self.label_index.setdefault(label, []).append(vertex)


@given(seed=st.integers(0, 5000))
@settings(max_examples=80, deadline=None)
def test_csr_core_agrees_with_dict_of_sets_reference(seed):
    labels, edges, edge_labels = random_graph_data(seed)
    graph = LabeledGraph(labels, edges, edge_labels)
    ref = DictOfSetsReference(labels, edges, edge_labels)
    n = len(labels)

    for v in range(n):
        expected = sorted(ref.adjacency[v])
        assert list(graph.neighbors(v)) == expected
        assert from_bitset(graph.neighbor_bits(v)) == tuple(expected)
        assert graph.degree(v) == len(expected)
        assert list(graph.incident_edges(v)) == sorted(ref.incident[v])
        assert from_bitset(graph.incident_bits(v)) == tuple(
            sorted(ref.incident[v])
        )
        assert graph.vertex_label(v) == ref.labels[v]

    for u in range(n):
        for v in range(n):
            key = (u, v) if u < v else (v, u)
            assert graph.adjacent(u, v) == (v in ref.adjacency[u])
            if key in ref.edge_index:
                assert graph.edge_id(u, v) == ref.edge_index[key]
                assert graph.edge_between(u, v) == ref.edge_index[key]
            elif u != v:
                assert graph.edge_between(u, v) is None

    for label, vertices in ref.label_index.items():
        assert graph.vertices_with_label(label) == tuple(vertices)
        assert from_bitset(graph.label_bits(label)) == tuple(vertices)
    assert graph.vertices_with_label(99) == ()

    for eid, label in enumerate(ref.edge_labels):
        assert graph.edge_label(eid) == label


@given(seed=st.integers(0, 5000))
@settings(max_examples=60, deadline=None)
def test_induced_and_connectivity_agree_with_reference(seed):
    labels, edges, edge_labels = random_graph_data(seed)
    graph = LabeledGraph(labels, edges, edge_labels)
    ref = DictOfSetsReference(labels, edges, edge_labels)
    n = len(labels)

    rng = random.Random(seed + 1)
    subset = [v for v in range(n) if rng.random() < 0.5]
    members = set(subset)
    expected_edges = sorted(
        eid
        for (u, v), eid in ref.edge_index.items()
        if u in members and v in members
    )
    assert graph.induced_edge_ids(subset) == expected_edges

    def naive_connected(vertex_ids):
        if not vertex_ids:
            return False
        todo = [vertex_ids[0]]
        seen = {vertex_ids[0]}
        while todo:
            v = todo.pop()
            for u in ref.adjacency[v] & set(vertex_ids):
                if u not in seen:
                    seen.add(u)
                    todo.append(u)
        return len(seen) == len(set(vertex_ids))

    assert graph.is_connected_vertex_set(subset) == naive_connected(subset)


@given(ids=st.sets(st.integers(0, 300), max_size=40))
@settings(max_examples=100, deadline=None)
def test_bitset_round_trip(ids):
    bits = to_bitset(ids)
    decoded = from_bitset(bits)
    assert decoded == tuple(sorted(ids))
    assert list(iter_bitset(bits)) == list(decoded)
    assert bitset_count(bits) == len(ids)
    # Idempotence: re-encoding the decoded tuple is the same bitset.
    assert to_bitset(decoded) == bits


@given(universe=st.integers(1, 6000), population=st.integers(0, 80), data=st.data())
@settings(max_examples=150, deadline=None)
def test_from_bitset_picks_its_path_from_the_mask_and_decodes_alike(
    universe, population, data
):
    """``from_bitset`` peels low bits off few-and-far-apart masks and walks
    the byte table otherwise; both must be the ascending decode."""
    size = min(population, universe)
    ids = data.draw(st.sets(st.integers(0, universe - 1), min_size=size, max_size=size))
    bits = to_bitset(ids)
    assert from_bitset(bits) == tuple(iter_bitset(bits)) == tuple(sorted(ids))


@pytest.mark.parametrize("members", [1, 2, 8, 31, 32, 33])
def test_from_bitset_at_the_sparse_threshold(members):
    # The top member sits just below / at / above ``members * 24`` bits.
    for top in range(members * 24 - 3, members * 24 + 3):
        ids = sorted({*range(members - 1), top})
        assert from_bitset(to_bitset(ids)) == tuple(ids)


@given(
    a=st.sets(st.integers(0, 200), max_size=30),
    b=st.sets(st.integers(0, 200), max_size=30),
)
@settings(max_examples=100, deadline=None)
def test_bitset_algebra_matches_set_algebra(a, b):
    bits_a, bits_b = to_bitset(a), to_bitset(b)
    assert from_bitset(bits_a & bits_b) == tuple(sorted(a & b))
    assert from_bitset(bits_a | bits_b) == tuple(sorted(a | b))
    assert from_bitset(bits_a & ~bits_b) == tuple(sorted(a - b))


def test_step_zero_pool_is_always_a_tuple():
    """Satellite: the old all-one-label fallback returned a ``range``;
    pools are now one sequence type (tuple) regardless of label layout."""
    from repro.core import Pattern
    from repro.plan import build_plan_dag, compile_plan, make_stepper
    from repro.plan.planner import restrict_plan

    def zero_pool(plan):
        return make_stepper(plan, graph, "vertex").zero_pool()

    # Single-label graph: the label index IS the whole vertex range —
    # exactly the case that used to fall back to range().
    graph = LabeledGraph([0] * 5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    triangle = Pattern((0, 0, 0), ((0, 1, 0), (1, 2, 0), (0, 2, 0)))
    plan = compile_plan(triangle, induced=False)
    pool = zero_pool(plan)
    assert isinstance(pool, tuple)
    assert pool == (0, 1, 2, 3, 4)

    dag = build_plan_dag([triangle], induced=False)
    dag_pool = zero_pool(dag)
    assert isinstance(dag_pool, tuple)
    assert dag_pool == (0, 1, 2, 3, 4)

    whitelisted = restrict_plan(plan, {plan.order[0]: frozenset({3, 1})})
    wpool = zero_pool(whitelisted)
    assert isinstance(wpool, tuple)
    assert wpool == (1, 3)


def test_constructor_rejections_unchanged():
    """CSR construction keeps the legacy validation surface."""
    import pytest

    with pytest.raises(GraphError):
        LabeledGraph([0, 0], [(0, 0)])
    with pytest.raises(GraphError):
        LabeledGraph([0, 0], [(0, 1), (1, 0)])
    with pytest.raises(GraphError):
        LabeledGraph([0, 0], [(0, 7)])
