"""Symmetry breaking for pattern matching plans.

A pattern with a non-trivial automorphism group is matched |Aut(P)| times
per occurrence when mappings are enumerated naively — the reason the
exhaustive engine needs its per-candidate canonicality check.  The guided
planner removes the redundancy *statically* instead: following Grochow &
Kellis (and the same construction used by Peregrine's pattern-aware plans),
it derives a set of **ordering restrictions** ``m(u) < m(v)`` on the graph
vertex ids assigned to pattern vertices ``u`` and ``v`` such that, of the
|Aut(P)| automorphic images of any one match, exactly one satisfies every
restriction.

The construction fixes one vertex of a non-trivial orbit per round and
recurses into its stabilizer:

1. pick the smallest pattern vertex ``v`` moved by the current group ``A``;
2. emit ``m(v) < m(u)`` for every other vertex ``u`` in ``v``'s orbit
   under ``A`` (forcing ``v``'s image to be the minimum over the orbit);
3. continue with the stabilizer ``A_v = {sigma in A : sigma(v) = v}``.

Soundness: for a fixed match ``m`` and its class ``{m ∘ sigma}``, round 1
keeps exactly the coset of the stabilizer that maps ``v`` onto the
minimum image (injectivity of ``m`` makes the minimum unique), and by
induction the recursion keeps exactly one element of that coset.  Hence

    (#matches satisfying the restrictions) * |Aut(P)| = #unrestricted matches

— the invariant ``tests/test_plan.py`` checks property-style on random
patterns, and the reason the guided engine can skip canonicality checks.

Automorphisms come from the individualization-refinement substrate
(:func:`repro.isomorphism.find_automorphisms`), the same machinery that
backs pattern canonicalization.
"""

from __future__ import annotations

from ..core.pattern import Pattern
from ..isomorphism import find_automorphisms


def pattern_automorphisms(pattern: Pattern) -> list[tuple[int, ...]]:
    """The automorphism group of a pattern as vertex permutations."""
    return find_automorphisms(
        pattern.num_vertices, pattern.vertex_labels, pattern.edge_dict()
    )


def symmetry_breaking_restrictions(
    pattern: Pattern,
) -> tuple[tuple[tuple[int, int], ...], int]:
    """Ordering restrictions pinning one mapping per automorphism class.

    Returns ``(restrictions, num_automorphisms)`` where each restriction
    ``(u, v)`` requires the graph vertex matched to pattern vertex ``u``
    to have a smaller id than the one matched to ``v``.  For rigid
    patterns (|Aut| = 1) the restriction set is empty.
    """
    group = pattern_automorphisms(pattern)
    num_automorphisms = len(group)
    restrictions: list[tuple[int, int]] = []
    current = group
    while len(current) > 1:
        moved = min(
            v
            for v in range(pattern.num_vertices)
            if any(sigma[v] != v for sigma in current)
        )
        orbit = sorted({sigma[moved] for sigma in current})
        for other in orbit:
            if other != moved:
                restrictions.append((moved, other))
        current = [sigma for sigma in current if sigma[moved] == moved]
    return tuple(restrictions), num_automorphisms
