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
single-vertex-per-position domains, ``reduce`` unions them.  Position
bookkeeping has two stages (mirroring two-level aggregation):

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


class Domain:
    """Per-pattern-position sets of matched input-graph vertices."""

    __slots__ = ("_sets",)

    def __init__(self, sets: Sequence[frozenset[int]]) -> None:
        # frozenset(s) is s itself for an exact frozenset: no re-freeze.
        self._sets = tuple(map(frozenset, sets))

    @classmethod
    def from_embedding(cls, embedding: Embedding) -> "Domain":
        """The singleton domain of one embedding: position i holds the
        vertex visited i-th (matching the quick pattern's positions)."""
        return cls([frozenset((v,)) for v in embedding.vertices])

    @classmethod
    def from_mapping(cls, mapping: Sequence[int]) -> "Domain":
        """The singleton domain of one match mapping: position i holds
        the graph vertex matched to pattern vertex i.

        The guided FSM path builds these from plan-ordered words via
        :func:`repro.plan.guided.match_mapping`, so positions already
        follow the (canonical) candidate pattern — no quick-pattern
        remapping is pending, unlike :meth:`from_embedding`.
        """
        return cls([frozenset((v,)) for v in mapping])

    @classmethod
    def merge_all(cls, domains: Iterable["Domain"]) -> "Domain":
        """Positionwise union — the FSM ``reduce`` function."""
        iterator = iter(domains)
        try:
            first = next(iterator)
        except StopIteration:
            raise ValueError("cannot merge zero domains") from None
        merged = [set(s) for s in first._sets]
        for domain in iterator:
            if len(domain._sets) != len(merged):
                raise ValueError("cannot merge domains of different arity")
            for position, members in enumerate(domain._sets):
                merged[position] |= members
        return cls([frozenset(s) for s in merged])

    def remap_positions(self, mapping: tuple[int, ...]) -> "Domain":
        """Reorder positions: new position ``mapping[i]`` gets old set i."""
        if len(mapping) != len(self._sets):
            raise ValueError("mapping arity does not match domain arity")
        reordered: list[frozenset[int]] = [frozenset()] * len(self._sets)
        for old_position, new_position in enumerate(mapping):
            reordered[new_position] = self._sets[old_position]
        return Domain(reordered)

    # ------------------------------------------------------------------
    @property
    def arity(self) -> int:
        """Number of pattern positions."""
        return len(self._sets)

    def position_images(self, position: int) -> frozenset[int]:
        """Distinct vertices mapped to ``position`` (pre orbit folding)."""
        return self._sets[position]

    def orbit_folded(self, orbits: Sequence[int]) -> tuple[frozenset[int], ...]:
        """Per-position image sets with automorphism orbits folded in.

        Position ``i``'s result is the union of the raw sets over ``i``'s
        orbit — the *full* image set of that pattern vertex even when the
        raw sets hold only symmetry-unique representatives (every
        isomorphism is a representative composed with an automorphism,
        and automorphisms permute positions within orbits).  This is the
        one home of the orbit fold: :meth:`support` reads off it, and
        guided FSM pushes these sets down into extension plans.
        """
        if len(orbits) != len(self._sets):
            raise ValueError("orbit arity does not match domain arity")
        folded: dict[int, set[int]] = {}
        for position, orbit in enumerate(orbits):
            folded.setdefault(orbit, set()).update(self._sets[position])
        return tuple(frozenset(folded[orbit]) for orbit in orbits)

    def support(self, orbits: Sequence[int] | None = None) -> int:
        """The MNI support: min over positions of the domain size.

        With ``orbits`` (the canonical pattern's automorphism orbits), each
        position's effective domain is the union over its orbit — required
        for correctness whenever the pattern has non-trivial symmetry.
        """
        if not self._sets:
            return 0
        if orbits is None:
            return min(len(s) for s in self._sets)
        # Positions in one orbit share their folded set, so the min over
        # positions equals the min over orbits.
        return min(len(s) for s in self.orbit_folded(orbits))

    def wire_size(self) -> int:
        """Header plus per-position headers and 4 bytes per member vertex."""
        return 4 + sum(4 + 4 * len(s) for s in self._sets)

    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Domain):
            return NotImplemented
        return self._sets == other._sets

    def __hash__(self) -> int:
        return hash(self._sets)

    def __repr__(self) -> str:
        rendered = ", ".join(
            "{" + ",".join(map(str, sorted(s))) + "}" for s in self._sets
        )
        return f"Domain([{rendered}])"
