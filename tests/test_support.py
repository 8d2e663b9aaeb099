"""Tests for MNI domains and support, cross-validated against VF2."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import Domain
from repro.core import EdgeInducedEmbedding, Pattern, VertexInducedEmbedding
from repro.graph import assign_labels, gnm_random_graph, graph_from_edges, graph_from_string
from repro.graph.bitset import from_bitset
from repro.isomorphism import find_isomorphisms


class TestDomainBasics:
    def test_from_vertex_embedding(self):
        g = graph_from_edges([(0, 1), (1, 2)], vertex_labels=[1, 2, 1])
        d = Domain.from_embedding(VertexInducedEmbedding(g, (1, 0)))
        assert d.arity == 2
        assert d.position_images(0) == frozenset({1})
        assert d.position_images(1) == frozenset({0})

    def test_from_edge_embedding_first_seen_order(self):
        g = graph_from_edges([(0, 1), (1, 2)])
        d = Domain.from_embedding(EdgeInducedEmbedding(g, (1, 0)))
        # Edge 1=(1,2) first: vertices 1,2 then 0.
        assert d.position_images(0) == frozenset({1})
        assert d.position_images(1) == frozenset({2})
        assert d.position_images(2) == frozenset({0})

    def test_merge_all_unions(self):
        a = Domain([frozenset({1}), frozenset({2})])
        b = Domain([frozenset({3}), frozenset({2})])
        merged = Domain.merge_all([a, b])
        assert merged.position_images(0) == frozenset({1, 3})
        assert merged.position_images(1) == frozenset({2})

    def test_merge_all_rejects_empty(self):
        with pytest.raises(ValueError):
            Domain.merge_all([])

    def test_merge_all_rejects_arity_mismatch(self):
        a = Domain([frozenset({1})])
        b = Domain([frozenset({1}), frozenset({2})])
        with pytest.raises(ValueError):
            Domain.merge_all([a, b])

    def test_remap_positions(self):
        d = Domain([frozenset({10}), frozenset({20}), frozenset({30})])
        remapped = d.remap_positions((2, 0, 1))
        assert remapped.position_images(2) == frozenset({10})
        assert remapped.position_images(0) == frozenset({20})
        assert remapped.position_images(1) == frozenset({30})

    def test_remap_rejects_bad_arity(self):
        d = Domain([frozenset({1})])
        with pytest.raises(ValueError):
            d.remap_positions((0, 1))

    def test_support_without_orbits(self):
        d = Domain([frozenset({1, 2, 3}), frozenset({4})])
        assert d.support() == 1

    def test_support_empty(self):
        assert Domain([]).support() == 0

    def test_equality_and_wire_size(self):
        a = Domain([frozenset({1, 2})])
        b = Domain([frozenset({2, 1})])
        assert a == b
        assert a.wire_size() == 4 + 4 + 8


class TestOrbitFolding:
    def test_paper_figure2_example(self):
        """Figure 2: pattern blue-yellow-blue on the 5-vertex graph; the top
        blue vertex maps to 1 in one embedding and 3 in the other, so with
        orbit folding both blue positions see {1, 3}."""
        # Graph of Figure 2: vertices 1..5 -> labels blue=1 (1,3,4?), per
        # paper: 1 blue, 2 yellow, 3 blue, 4 yellow, 5 blue (colors from the
        # figure); edges (1,2),(2,3),(3,4),(1,3).  We keep just what the
        # example needs: embeddings {(1,2),(2,3)} for pattern B-Y-B.
        g = graph_from_string(
            """
            v 1 1
            v 2 2
            v 3 1
            1 2
            2 3
            """
        )
        # vertex names map to dense ids 0,1,2 in declaration order.
        e = EdgeInducedEmbedding(g, (0, 1))  # edges (1,2),(2,3)
        d1 = Domain.from_embedding(e)
        # Reversed traversal of the automorphic embedding.
        d2 = d1.remap_positions((2, 1, 0))
        merged = Domain.merge_all([d1, d2])
        orbits = (0, 1, 0)  # ends share an orbit
        # Without orbits the min is 1 per end; with folding ends see both.
        assert merged.support() == 1
        assert merged.support(orbits) == 1  # yellow middle has domain {2}... size 1
        folded_end = merged.position_images(0) | merged.position_images(2)
        assert folded_end == frozenset({0, 2})

    def test_support_matches_vf2_bruteforce(self):
        """MNI via domains == MNI via enumerating all VF2 isomorphisms."""
        g = assign_labels(gnm_random_graph(30, 60, seed=11), 2, seed=3)
        pattern = Pattern((0, 1), ((0, 1, 0),))
        mappings = find_isomorphisms(
            pattern.vertex_labels, pattern.edge_dict(), g
        )
        if not mappings:
            pytest.skip("no single-edge 0-1 pattern in this graph")
        brute_domains = [set(), set()]
        for mapping in mappings:
            brute_domains[0].add(mapping[0])
            brute_domains[1].add(mapping[1])
        brute_support = min(len(s) for s in brute_domains)
        # Domain built from distinct embeddings with canonical orientation +
        # orbit folding must agree.
        domains = []
        seen = set()
        for mapping in mappings:
            key = frozenset(mapping)
            if key in seen:
                continue
            seen.add(key)
            domains.append(Domain([frozenset({mapping[0]}), frozenset({mapping[1]})]))
        merged = Domain.merge_all(domains)
        orbits = pattern.orbits()
        assert merged.support(orbits) == brute_support

    def test_symmetric_pattern_needs_orbit_folding(self):
        """Unlabeled single-edge pattern: one arbitrary orientation per
        embedding under-counts; orbit folding recovers the VF2 answer."""
        g = gnm_random_graph(25, 50, seed=4)
        pattern = Pattern((0, 0), ((0, 1, 0),))
        mappings = find_isomorphisms(pattern.vertex_labels, pattern.edge_dict(), g)
        brute = [set(), set()]
        for mapping in mappings:
            brute[0].add(mapping[0])
            brute[1].add(mapping[1])
        brute_support = min(len(s) for s in brute)
        domains = []
        seen = set()
        for mapping in mappings:
            key = frozenset(mapping)
            if key in seen:
                continue
            seen.add(key)
            domains.append(
                Domain([frozenset({mapping[0]}), frozenset({mapping[1]})])
            )
        merged = Domain.merge_all(domains)
        assert merged.support(pattern.orbits()) == brute_support


class SetDomain:
    """The frozenset ``Domain`` the bitset one replaced — kept here, and
    only here, as the differential reference."""

    def __init__(self, sets):
        self.sets = tuple(map(frozenset, sets))

    @classmethod
    def merge_all(cls, domains):
        domains = list(domains)
        if not domains or len({len(d.sets) for d in domains}) != 1:
            raise ValueError("cannot merge zero domains or different arities")
        return cls(frozenset().union(*column) for column in zip(*(d.sets for d in domains)))

    def remap_positions(self, mapping):
        if len(mapping) != len(self.sets):
            raise ValueError("mapping arity does not match domain arity")
        reordered = [frozenset()] * len(self.sets)
        for old_position, new_position in enumerate(mapping):
            reordered[new_position] = self.sets[old_position]
        return SetDomain(reordered)

    def orbit_folded(self, orbits):
        if len(orbits) != len(self.sets):
            raise ValueError("orbit arity does not match domain arity")
        folded = {}
        for position, orbit in enumerate(orbits):
            folded.setdefault(orbit, set()).update(self.sets[position])
        return tuple(frozenset(folded[orbit]) for orbit in orbits)

    def support(self, orbits=None):
        if not self.sets:
            return 0
        return min(map(len, self.sets if orbits is None else self.orbit_folded(orbits)))

    def wire_size(self):
        return 4 + sum(4 + 4 * len(s) for s in self.sets)


#: Vertex ids well past one machine word, so masks are real big ints.
VERTICES = st.integers(0, 300)
COMPLETE = graph_from_edges([(u, v) for u in range(8) for v in range(u + 1, 8)])


def both(call):
    """``call`` on each side: equal results, or ValueError on both."""
    outcomes = []
    for side in (0, 1):
        try:
            outcomes.append(call(side))
        except ValueError:
            outcomes.append(ValueError)
    assert (outcomes[0] is ValueError) == (outcomes[1] is ValueError)
    return None if outcomes[0] is ValueError else outcomes


class TestMaskDomainAgainstFrozensetReference:
    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_op_sequences_agree(self, data):
        draw = data.draw
        pool = []  # (Domain, SetDomain) pairs that must stay equal

        def admit(pair):
            mask_domain, set_domain = pair
            assert mask_domain.arity == len(set_domain.sets)
            for position, images in enumerate(set_domain.sets):
                assert mask_domain.position_images(position) == images
            assert mask_domain.wire_size() == set_domain.wire_size()
            assert mask_domain.support() == set_domain.support()
            pool.append(pair)

        def pick():
            return pool[draw(st.integers(0, len(pool) - 1))]

        for _ in range(draw(st.integers(1, 10))):
            op = draw(st.sampled_from(
                ("sets", "embedding", "mapping", "merge", "remap", "fold")
                if pool else ("sets", "embedding", "mapping")
            ))
            if op == "sets":
                sets = draw(st.lists(st.frozensets(VERTICES, max_size=6), max_size=4))
                # Ids and pre-packed masks are both accepted, position by position.
                packed = [
                    sum(1 << v for v in s) if draw(st.booleans()) else s for s in sets
                ]
                admit((Domain(packed), SetDomain(sets)))
            elif op == "embedding":
                words = tuple(draw(st.permutations(range(8)))[: draw(st.integers(1, 4))])
                embedding = VertexInducedEmbedding(COMPLETE, words)
                admit((
                    Domain.from_embedding(embedding),
                    SetDomain({v} for v in embedding.vertices),
                ))
            elif op == "mapping":
                mapping = draw(st.lists(VERTICES, min_size=1, max_size=4))
                admit((Domain.from_mapping(mapping), SetDomain({v} for v in mapping)))
            elif op == "merge":
                chosen = [pick() for _ in range(draw(st.integers(0, 4)))]
                merged = both(lambda side: (Domain, SetDomain)[side].merge_all(
                    pair[side] for pair in chosen))
                if merged:
                    admit(tuple(merged))
            elif op == "remap":
                pair = pick()
                arity = pair[0].arity + draw(st.sampled_from((0, 0, 0, 1)))
                mapping = tuple(draw(st.permutations(range(arity))))
                remapped = both(lambda side: pair[side].remap_positions(mapping))
                if remapped:
                    admit(tuple(remapped))
            else:
                pair = pick()
                arity = pair[0].arity + draw(st.sampled_from((0, 0, 0, 1)))
                orbits = tuple(draw(st.lists(
                    st.integers(0, 2), min_size=arity, max_size=arity)))
                folded = both(lambda side: pair[side].orbit_folded(orbits))
                if folded:
                    masks, sets = folded
                    assert [frozenset(from_bitset(m)) for m in masks] == list(sets)
                supports = both(lambda side: pair[side].support(orbits))
                assert supports is None or supports[0] == supports[1]
        for mask_domain, set_domain in pool:
            for other, other_sets in pool:
                same = set_domain.sets == other_sets.sets
                assert (mask_domain == other) == same
                assert not same or hash(mask_domain) == hash(other)
