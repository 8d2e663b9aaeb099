"""Tests for patterns, quick patterns, and two-level canonicalization."""

import pytest

from repro.core import (
    Pattern,
    PatternCanonicalizer,
    VertexInducedEmbedding,
    canonicalize_pattern,
    pattern_orbits,
)
from repro.graph import graph_from_edges

PATH_BYB = Pattern((1, 2, 1), ((0, 1, 0), (1, 2, 0)))
PATH_BYB_REVERSED = Pattern((1, 2, 1), ((0, 1, 0), (1, 2, 0)))
PATH_YBY = Pattern((2, 1, 2), ((0, 1, 0), (1, 2, 0)))


class TestPatternBasics:
    def test_counts(self):
        assert PATH_BYB.num_vertices == 3
        assert PATH_BYB.num_edges == 2

    def test_edge_dict(self):
        assert PATH_BYB.edge_dict() == {(0, 1): 0, (1, 2): 0}

    def test_structural_equality(self):
        assert PATH_BYB == PATH_BYB_REVERSED
        assert PATH_BYB != PATH_YBY

    def test_wire_size(self):
        assert PATH_BYB.wire_size() == 4 + 12 + 24

    def test_hashable(self):
        assert len({PATH_BYB, PATH_BYB_REVERSED, PATH_YBY}) == 2

    def test_hash_is_memoized_and_never_pickled(self):
        """The dataclass hash, computed once per object; equality, pickled
        bytes and copies see the two fields only."""
        import copy
        import pickle

        fresh = Pattern((1, 2, 1), ((0, 1, 0), (1, 2, 0)))
        before = pickle.dumps(fresh)
        assert "_hash" not in vars(fresh)
        assert hash(fresh) == hash(((1, 2, 1), ((0, 1, 0), (1, 2, 0))))
        assert vars(fresh)["_hash"] == hash(fresh) == hash(PATH_BYB)
        assert pickle.dumps(fresh) == before
        assert b"_hash" not in before
        for clone in (pickle.loads(before), copy.copy(fresh), copy.deepcopy(fresh)):
            assert "_hash" not in vars(clone)
            assert clone == fresh and hash(clone) == hash(fresh)
        assert fresh == PATH_BYB and fresh != PATH_YBY
        assert repr(fresh) == repr(PATH_BYB)


class TestCanonicalization:
    def test_blue_yellow_edge_example(self):
        """The paper's section 5.4 example: (blue,yellow) and (yellow,blue)
        single-edge quick patterns must share a canonical pattern."""
        blue_yellow = Pattern((1, 2), ((0, 1, 0),))
        yellow_blue = Pattern((2, 1), ((0, 1, 0),))
        assert blue_yellow.canonical() == yellow_blue.canonical()

    def test_visit_order_variants_collapse(self):
        # Same B-Y-B path built center-out vs end-to-end.
        end_to_end = Pattern((1, 2, 1), ((0, 1, 0), (1, 2, 0)))
        center_out = Pattern((2, 1, 1), ((0, 1, 0), (0, 2, 0)))
        assert end_to_end.canonical() == center_out.canonical()

    def test_canonical_is_idempotent(self):
        canonical = PATH_BYB.canonical()
        assert canonical.canonical() == canonical
        assert canonical.is_canonical()

    def test_mapping_is_valid_permutation(self):
        _, mapping = PATH_BYB.canonical_mapping()
        assert sorted(mapping) == [0, 1, 2]

    def test_mapping_transports_structure(self):
        canonical, mapping = PATH_YBY.canonical_mapping()
        # Applying the mapping to the quick pattern's edges must produce
        # canonical edges.
        for i, j, label in PATH_YBY.edges:
            a, b = mapping[i], mapping[j]
            if a > b:
                a, b = b, a
            assert (a, b, label) in canonical.edges
        # And labels must follow vertices.
        for i, label in enumerate(PATH_YBY.vertex_labels):
            assert canonical.vertex_labels[mapping[i]] == label

    def test_distinct_classes_stay_distinct(self):
        assert PATH_BYB.canonical() != PATH_YBY.canonical()

    def test_module_cache_consistency(self):
        a = canonicalize_pattern(PATH_BYB)
        b = canonicalize_pattern(Pattern((1, 2, 1), ((0, 1, 0), (1, 2, 0))))
        assert a == b


class TestOrbits:
    def test_symmetric_path_ends_share_orbit(self):
        orbits = pattern_orbits(PATH_BYB)
        assert orbits[0] == orbits[2]
        assert orbits[1] != orbits[0]

    def test_triangle_unlabeled_single_orbit(self):
        triangle = Pattern((0, 0, 0), ((0, 1, 0), (0, 2, 0), (1, 2, 0)))
        assert len(set(pattern_orbits(triangle))) == 1

    def test_labels_break_orbits(self):
        labeled = Pattern((5, 6, 7), ((0, 1, 0), (1, 2, 0)))
        assert len(set(pattern_orbits(labeled))) == 3


class TestPatternCanonicalizer:
    def _quick_patterns(self):
        g = graph_from_edges(
            [(0, 1), (1, 2), (2, 3)], vertex_labels=[1, 2, 1, 2]
        )
        # Three automorphically-related paths with different quick patterns.
        e1 = VertexInducedEmbedding(g, (0, 1, 2)).pattern()  # B-Y-B
        e2 = VertexInducedEmbedding(g, (2, 1, 0)).pattern()  # B-Y-B again
        e3 = VertexInducedEmbedding(g, (1, 2, 3)).pattern()  # Y-B-Y
        return e1, e2, e3

    def test_two_level_counts_quick_patterns(self):
        canonicalizer = PatternCanonicalizer(two_level=True)
        e1, e2, e3 = self._quick_patterns()
        for quick in (e1, e2, e3, e1, e1):
            canonicalizer.canonicalize(quick)
        assert canonicalizer.requests == 5
        assert canonicalizer.quick_patterns_seen == 2  # BYB and YBY
        # One isomorphism run per distinct quick pattern.
        assert canonicalizer.isomorphism_runs == 2

    def test_without_two_level_every_request_runs_isomorphism(self):
        canonicalizer = PatternCanonicalizer(two_level=False)
        e1, e2, e3 = self._quick_patterns()
        for quick in (e1, e2, e3, e1, e1):
            canonicalizer.canonicalize(quick)
        assert canonicalizer.isomorphism_runs == 5

    def test_both_modes_agree(self):
        with_cache = PatternCanonicalizer(two_level=True)
        without = PatternCanonicalizer(two_level=False)
        for quick in self._quick_patterns():
            assert with_cache.canonicalize(quick) == without.canonicalize(quick)

    def test_canonical_patterns_seen(self):
        canonicalizer = PatternCanonicalizer(two_level=True)
        e1, e2, e3 = self._quick_patterns()
        for quick in (e1, e2, e3):
            canonicalizer.canonicalize(quick)
        assert canonicalizer.canonical_patterns_seen() == 2
