"""Minimum image-based support (MNI) — the FSM frequency metric.

The paper uses the metric of Bringmann and Nijssen [7]: "the frequency of a
pattern [is] the minimum number of distinct mappings for any vertex in the
pattern, over all embeddings of the pattern" (section 2).  The *domain* of a
pattern vertex is the set of distinct input-graph vertices it maps to across
all embeddings (and all automorphisms of each embedding — Figure 2's blue
vertex has domain {1, 3}).

MNI is **anti-monotone**: a pattern extension can only shrink domains, so a
pattern whose support drops below the threshold can never become frequent
again — the property that lets α prune whole exploration subtrees.

:class:`Domain` is the aggregation value: ``process`` maps one embedding's
single-vertex-per-position domains, ``reduce`` unions them.  A position's
domain is held as one big-int bitset over vertex ids
(:mod:`repro.graph.bitset`), like every other hot set in the codebase:
a singleton is ``1 << v``, union is ``|``, a size is a popcount, and the
orbit-folded masks go straight into the next FSM level's plan whitelists
(``&``) without ever becoming a Python set.  Position bookkeeping has two
stages (mirroring two-level aggregation):

* positions initially follow the *quick pattern* (embedding visit order);
* :meth:`Domain.remap_positions` translates to canonical-pattern positions
  when the quick pattern folds into its canonical form;
* automorphisms of the canonical pattern are folded at *read* time:
  :meth:`Domain.support` unions domains across each automorphism orbit,
  which is exactly the "any automorphism of e" clause of the definition
  (every isomorphism is the canonical mapping composed with an
  automorphism).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..core.embedding import Embedding
from ..graph.bitset import from_bitset, to_bitset


class Domain:
    """Per-pattern-position bitsets of matched input-graph vertices: bit
    ``v`` of mask ``i`` is set iff vertex ``v`` is an image of position
    ``i``.  :meth:`position_images` is the only place one is decoded."""

    __slots__ = ("_masks",)

    def __init__(self, sets: Sequence[Iterable[int] | int]) -> None:
        # Same convention as ``restrict_plan``: a position is an iterable
        # of vertex ids or an already-packed bitset.
        self._masks = tuple(s if isinstance(s, int) else to_bitset(s) for s in sets)

    @classmethod
    def from_embedding(cls, embedding: Embedding) -> "Domain":
        """The singleton domain of one embedding: position i holds the
        vertex visited i-th (matching the quick pattern's positions)."""
        return cls([1 << v for v in embedding.vertices])

    @classmethod
    def from_mapping(cls, mapping: Sequence[int]) -> "Domain":
        """The singleton domain of one match mapping: position i holds
        the graph vertex matched to pattern vertex i.

        The guided FSM path builds these from plan-ordered words via
        :func:`repro.plan.guided.match_mapping`, so positions already
        follow the (canonical) candidate pattern — no quick-pattern
        remapping is pending, unlike :meth:`from_embedding`.
        """
        return cls([1 << v for v in mapping])

    @classmethod
    def merge_all(cls, domains: Iterable["Domain"]) -> "Domain":
        """Positionwise union — the FSM ``reduce`` function."""
        iterator = iter(domains)
        try:
            merged = next(iterator)._masks
        except StopIteration:
            raise ValueError("cannot merge zero domains") from None
        for domain in iterator:
            if len(domain._masks) != len(merged):
                raise ValueError("cannot merge domains of different arity")
            merged = [a | b for a, b in zip(merged, domain._masks)]
        return cls(merged)

    def remap_positions(self, mapping: tuple[int, ...]) -> "Domain":
        """Reorder positions: new position ``mapping[i]`` gets old mask i."""
        if len(mapping) != len(self._masks):
            raise ValueError("mapping arity does not match domain arity")
        reordered = [0] * len(self._masks)
        for old_position, new_position in enumerate(mapping):
            reordered[new_position] = self._masks[old_position]
        return Domain(reordered)

    # ------------------------------------------------------------------
    @property
    def arity(self) -> int:
        """Number of pattern positions."""
        return len(self._masks)

    def position_images(self, position: int) -> frozenset[int]:
        """Distinct vertices mapped to ``position`` (pre orbit folding) —
        the one decode of a domain."""
        return frozenset(from_bitset(self._masks[position]))

    def orbit_folded(self, orbits: Sequence[int]) -> tuple[int, ...]:
        """Per-position image masks with automorphism orbits folded in.

        Position ``i``'s result is the union of the raw masks over ``i``'s
        orbit — the *full* image set of that pattern vertex even when the
        raw masks hold only symmetry-unique representatives (every
        isomorphism is a representative composed with an automorphism,
        and automorphisms permute positions within orbits).  This is the
        one home of the orbit fold: :meth:`support` reads off it, and
        guided FSM pushes these masks down into extension plans.
        """
        if len(orbits) != len(self._masks):
            raise ValueError("orbit arity does not match domain arity")
        folded: dict[int, int] = {}
        for orbit, mask in zip(orbits, self._masks):
            folded[orbit] = folded.get(orbit, 0) | mask
        return tuple(folded[orbit] for orbit in orbits)

    def support(self, orbits: Sequence[int] | None = None) -> int:
        """The MNI support: min over positions of the domain size.

        With ``orbits`` (the canonical pattern's automorphism orbits), each
        position's effective domain is the union over its orbit — required
        for correctness whenever the pattern has non-trivial symmetry.
        """
        if not self._masks:
            return 0
        # Positions in one orbit share their folded mask, so the min over
        # positions equals the min over orbits.
        masks = self._masks if orbits is None else self.orbit_folded(orbits)
        return min(mask.bit_count() for mask in masks)

    def wire_size(self) -> int:
        """Header plus per-position headers and 4 bytes per member vertex."""
        return 4 + sum(4 + 4 * mask.bit_count() for mask in self._masks)

    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Domain):
            return NotImplemented
        return self._masks == other._masks

    def __hash__(self) -> int:
        return hash(self._masks)

    def __repr__(self) -> str:
        rendered = ", ".join(
            "{" + ",".join(map(str, sorted(self.position_images(i)))) + "}"
            for i in range(len(self._masks))
        )
        return f"Domain([{rendered}])"
