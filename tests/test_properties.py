"""Cross-cutting property-based tests (hypothesis) for the core invariants
docs/architecture.md ("Invariants to keep") commits to.  The first of them,
identical results across backends, worker counts and storage modes, is
tests/test_equivalence_matrix.py."""

import itertools
import random

import networkx as nx
from hypothesis import given, settings, strategies as st

from repro.apps import MotifCounting, motif_counts
from repro.baselines import count_motifs, exact_mni_support, extend_pattern, graph_label_triples
from repro.core import (
    ArabesqueConfig,
    Odag,
    OdagStore,
    Pattern,
    PatternCanonicalizer,
    run_computation,
)
from repro.core.canonical import canonicalize_vertex_set
from repro.core.embedding import VERTEX_EXPLORATION, make_embedding
from repro.graph import LabeledGraph, assign_labels, gnm_random_graph
from repro.isomorphism import canonical_form

from reference import is_connected_vertex_set


def random_labeled_graph(seed: int, max_n: int = 8, labels: int = 2) -> LabeledGraph:
    rng = random.Random(seed)
    n = rng.randint(2, max_n)
    max_edges = n * (n - 1) // 2
    m = rng.randint(1, max_edges)
    graph = gnm_random_graph(n, m, seed=seed)
    return assign_labels(graph, labels, seed=seed + 1)


def to_networkx(graph: LabeledGraph) -> nx.Graph:
    nxg = nx.Graph()
    for v in graph.vertices():
        nxg.add_node(v, label=graph.vertex_label(v))
    for eid, u, v in graph.edge_iter():
        nxg.add_edge(u, v, label=graph.edge_label(eid))
    return nxg


@given(seed_a=st.integers(0, 3000), seed_b=st.integers(0, 3000))
@settings(max_examples=60, deadline=None)
def test_certificates_agree_with_networkx_isomorphism(seed_a, seed_b):
    """Certificate equality <=> labeled isomorphism (networkx as oracle)."""
    ga = random_labeled_graph(seed_a, max_n=6)
    gb = random_labeled_graph(seed_b, max_n=6)
    cert_a, _ = canonical_form(
        ga.num_vertices,
        ga.vertex_labels,
        {ga.edge_endpoints(e): ga.edge_label(e) for e in ga.edges()},
    )
    cert_b, _ = canonical_form(
        gb.num_vertices,
        gb.vertex_labels,
        {gb.edge_endpoints(e): gb.edge_label(e) for e in gb.edges()},
    )
    oracle = nx.is_isomorphic(
        to_networkx(ga),
        to_networkx(gb),
        node_match=lambda a, b: a["label"] == b["label"],
        edge_match=lambda a, b: a["label"] == b["label"],
    )
    assert (cert_a == cert_b) == oracle


@given(seed=st.integers(0, 3000))
@settings(max_examples=25, deadline=None)
def test_engine_motif_census_matches_esu(seed):
    """Completeness (Theorem 4): engine == independent ESU enumeration."""
    graph = random_labeled_graph(seed, max_n=10, labels=2)
    engine_counts = {
        p: c
        for p, c in motif_counts(run_computation(graph, MotifCounting(3))).items()
        if p.num_vertices == 3
    }
    assert engine_counts == count_motifs(graph, 3)


@given(seed=st.integers(0, 3000), workers=st.integers(1, 5))
@settings(max_examples=25, deadline=None)
def test_worker_count_never_changes_results(seed, workers):
    """Determinism: the partitioning is invisible to application output."""
    graph = random_labeled_graph(seed, max_n=10)
    reference = motif_counts(run_computation(graph, MotifCounting(3)))
    config = ArabesqueConfig(num_workers=workers)
    result = motif_counts(run_computation(graph, MotifCounting(3), config))
    assert result == reference


@given(seed=st.integers(0, 3000))
@settings(max_examples=30, deadline=None)
def test_mni_support_is_anti_monotone(seed):
    """sup(extension) <= sup(pattern) for every single-edge extension."""
    graph = random_labeled_graph(seed, max_n=8, labels=2)
    triples = graph_label_triples(graph)
    if not triples:
        return
    lu, le, lv = sorted(triples)[0]
    base = Pattern((lu, lv), ((0, 1, le),)).canonical()
    base_support = exact_mni_support(graph, base)
    for extension in extend_pattern(base, triples)[:6]:
        assert exact_mni_support(graph, extension) <= base_support


@given(seed=st.integers(0, 3000))
@settings(max_examples=30, deadline=None)
def test_odag_store_roundtrip(seed):
    """Store -> extract over any worker count recovers exactly the stored
    canonical embeddings (with the engine's membership checks)."""
    rng = random.Random(seed)
    graph = gnm_random_graph(10, rng.randint(9, 30), seed=seed)
    size = rng.randint(2, 4)
    stored: dict[tuple, Pattern] = {}
    canonicalizer = PatternCanonicalizer()
    store = OdagStore()
    for combo in itertools.combinations(range(10), size):
        if not is_connected_vertex_set(graph, combo):
            continue
        words = canonicalize_vertex_set(graph, combo)
        embedding = make_embedding(graph, VERTEX_EXPLORATION, words)
        pattern, _ = canonicalizer.canonicalize(embedding.pattern())
        store.add(pattern, words)
        stored[words] = pattern

    from repro.core.canonical import canonical_extension_mask

    def canonical_children(prefix, pool):
        return canonical_extension_mask(graph.neighbor_bits, prefix, pool)

    workers = rng.randint(1, 4)
    extracted = {}
    for worker_id in range(workers):
        for pattern, words in store.extract_partition(
            worker_id, workers, canonical_children
        ):
            embedding = make_embedding(graph, VERTEX_EXPLORATION, words)
            actual_pattern, _ = canonicalizer.canonicalize(embedding.pattern())
            if actual_pattern != pattern:
                continue  # spurious cross-pattern path
            assert words not in extracted, "duplicate extraction"
            extracted[words] = actual_pattern
    assert extracted == stored


@given(seed=st.integers(0, 3000))
@settings(max_examples=30, deadline=None)
def test_quick_patterns_collapse_consistently(seed):
    """All canonical word orders of automorphic embeddings produce quick
    patterns with one shared canonical form."""
    graph = random_labeled_graph(seed, max_n=7)
    rng = random.Random(seed)
    combos = [
        combo
        for combo in itertools.combinations(graph.vertices(), 3)
        if is_connected_vertex_set(graph, combo)
    ]
    if not combos:
        return
    combo = combos[rng.randrange(len(combos))]
    canonicals = set()
    for order in itertools.permutations(combo):
        embedding = make_embedding(graph, VERTEX_EXPLORATION, order)
        canonicals.add(embedding.pattern().canonical())
    assert len(canonicals) == 1


@given(seed=st.integers(0, 3000))
@settings(max_examples=40, deadline=None)
def test_odag_wire_size_is_additive_under_merge_bound(seed):
    """Merging never yields a larger ODAG than the sum of its parts."""
    rng = random.Random(seed)
    size = rng.randint(1, 4)
    left = Odag(size)
    right = Odag(size)
    for _ in range(rng.randint(1, 12)):
        left.add(tuple(rng.sample(range(12), size)))
    for _ in range(rng.randint(1, 12)):
        right.add(tuple(rng.sample(range(12), size)))
    combined_bound = left.wire_size() + right.wire_size()
    left.merge(right)
    assert left.wire_size() <= combined_bound
