"""Patterns, quick patterns, and canonical patterns (paper sections 2, 5.4).

A *pattern* is a template graph; embeddings with isomorphic patterns must be
aggregated together.  Mapping a pattern to a canonical representative
"entails solving the graph isomorphism problem" (section 5.4), which
Arabesque does with bliss; here the substitute is
:mod:`repro.isomorphism.canonical_label`.

The classes below distinguish the two roles a pattern plays:

* **quick pattern** — built in linear time from an embedding's visit order
  (:meth:`repro.core.embedding.Embedding.pattern`); different visit orders
  of automorphic embeddings give different quick patterns;
* **canonical pattern** — the unique representative of the isomorphism
  class, computed once per distinct quick pattern and cached
  (:func:`canonicalize_pattern`).  This caching IS the second level of
  two-level pattern aggregation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from ..isomorphism import canonical_form, vertex_orbits


@dataclass(frozen=True)
class Pattern:
    """A small labeled template graph with dense vertex ids ``0..k-1``.

    ``edges`` holds ``(i, j, edge_label)`` triples with ``i < j``, sorted.
    Equality and hashing are structural (NOT up to isomorphism) — use
    :meth:`canonical` to compare isomorphism classes.
    """

    vertex_labels: tuple[int, ...]
    edges: tuple[tuple[int, int, int], ...]

    @property
    def num_vertices(self) -> int:
        return len(self.vertex_labels)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def edge_dict(self) -> dict[tuple[int, int], int]:
        """Edges as the ``(i, j) -> label`` dict the isomorphism layer uses."""
        return {(i, j): label for i, j, label in self.edges}

    def canonical(self) -> "Pattern":
        """The canonical representative of this pattern's isomorphism class."""
        return canonicalize_pattern(self)[0]

    def canonical_mapping(self) -> tuple["Pattern", tuple[int, ...]]:
        """Canonical pattern plus the position map.

        Returns ``(canonical, mapping)`` where ``mapping[i]`` is the
        canonical position of this pattern's vertex ``i`` — needed to
        translate position-indexed aggregation values (e.g. FSM domains)
        when folding quick patterns into canonical reducers.
        """
        return canonicalize_pattern(self)

    def is_canonical(self) -> bool:
        """Whether this pattern already is its canonical representative."""
        return self.canonical() == self

    def orbits(self) -> tuple[int, ...]:
        """Automorphism orbit id per vertex (see
        :func:`repro.isomorphism.vertex_orbits`)."""
        return pattern_orbits(self)

    def is_connected(self) -> bool:
        """Whether the pattern graph is connected (empty patterns are not).

        Connected-exploration engines (both the exhaustive filter-process
        path and the guided planner) can only discover occurrences of
        connected patterns, so query validation starts here.
        """
        if self.num_vertices == 0:
            return False
        adjacency: dict[int, list[int]] = {v: [] for v in range(self.num_vertices)}
        for i, j, _ in self.edges:
            adjacency[i].append(j)
            adjacency[j].append(i)
        seen = {0}
        stack = [0]
        while stack:
            for neighbor in adjacency[stack.pop()]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    stack.append(neighbor)
        return len(seen) == self.num_vertices

    def wire_size(self) -> int:
        """Wire size: labels row + one triple per edge (4 bytes per int)."""
        return 4 + 4 * len(self.vertex_labels) + 12 * len(self.edges)

    def __hash__(self) -> int:
        # The dataclass hash, computed once: patterns key the canonicalizer
        # and aggregation dicts, which re-hashed both tuples on every lookup.
        try:
            return self._hash
        except AttributeError:
            value = hash((self.vertex_labels, self.edges))
            object.__setattr__(self, "_hash", value)
            return value

    def __getstate__(self) -> dict:
        # Fields only: the memoized hash never reaches a pickle.
        return {"vertex_labels": self.vertex_labels, "edges": self.edges}

    def __repr__(self) -> str:
        return f"Pattern(labels={self.vertex_labels}, edges={self.edges})"


@lru_cache(maxsize=65536)
def canonicalize_pattern(pattern: Pattern) -> tuple[Pattern, tuple[int, ...]]:
    """Canonical pattern and position mapping for ``pattern`` (cached).

    The cache makes repeated canonicalization of the same quick pattern
    O(1); the engine-level :class:`PatternCanonicalizer` wraps this with
    statistics for the Table 4 / Figure 11 experiments.
    """
    certificate, ordering = canonical_form(
        pattern.num_vertices, pattern.vertex_labels, pattern.edge_dict()
    )
    num, labels_row, edge_rows = certificate
    canonical = Pattern(tuple(labels_row), tuple(edge_rows))
    mapping = [0] * pattern.num_vertices
    for position, vertex in enumerate(ordering):
        mapping[vertex] = position
    return canonical, tuple(mapping)


@lru_cache(maxsize=65536)
def pattern_orbits(pattern: Pattern) -> tuple[int, ...]:
    """Cached automorphism orbits of ``pattern``."""
    return tuple(
        vertex_orbits(pattern.num_vertices, pattern.vertex_labels, pattern.edge_dict())
    )


class PatternCanonicalizer:
    """Statistics-carrying wrapper around pattern canonicalization.

    One instance per engine run.  Counts how many embeddings requested a
    pattern, how many *distinct quick patterns* were seen, and how many
    *canonical* patterns they collapse to — the three rows of the paper's
    Table 4.  With ``two_level=False`` it bypasses the quick-pattern cache
    and runs a fresh graph-isomorphism canonicalization per request, which
    is the ablation of Figure 11.

    The execution runtime gives each worker task its own canonicalizer
    *seeded* with the engine's master cache snapshot (``seed_cache``, held
    by reference and never written — all workers of a step share one
    snapshot with zero copying); the entries a worker discovers on top of
    the seed land in its own overlay dict and travel back in its
    :class:`~repro.core.results.WorkerDelta` (:meth:`new_entries`), to be
    folded into the master at the step barrier (:meth:`absorb`).
    """

    def __init__(
        self,
        two_level: bool = True,
        seed_cache: dict[Pattern, tuple[Pattern, tuple[int, ...]]] | None = None,
    ) -> None:
        self.two_level = two_level
        self.requests = 0
        self.isomorphism_runs = 0
        #: Read-only seed shared with the engine (empty for the master).
        self._seed: dict[Pattern, tuple[Pattern, tuple[int, ...]]] = (
            seed_cache if seed_cache is not None else {}
        )
        #: Entries discovered by THIS instance (the write overlay).
        self._cache: dict[Pattern, tuple[Pattern, tuple[int, ...]]] = {}

    def canonicalize(self, quick: Pattern) -> tuple[Pattern, tuple[int, ...]]:
        """Canonical pattern + position map for a quick pattern."""
        self.requests += 1
        if self.two_level:
            cached = self._cache.get(quick)
            if cached is None:
                cached = self._seed.get(quick)
            if cached is not None:
                return cached
            self.isomorphism_runs += 1
            result = _uncached_canonicalize(quick)
            self._cache[quick] = result
            return result
        self.isomorphism_runs += 1
        return _uncached_canonicalize(quick)

    @property
    def quick_patterns_seen(self) -> int:
        """Distinct quick patterns this run encountered."""
        return len(self._cache) + len(self._seed)

    def canonical_patterns_seen(self) -> int:
        """Distinct canonical patterns the quick patterns collapse to."""
        return len(
            {canonical for canonical, _ in self._cache.values()}
            | {canonical for canonical, _ in self._seed.values()}
        )

    # -- worker-task protocol (see repro.runtime) ----------------------
    def cache_snapshot(self) -> dict[Pattern, tuple[Pattern, tuple[int, ...]]]:
        """Copy of the quick -> canonical cache, for seeding worker tasks.

        One copy per step (made by the engine), shared by reference with
        every worker task of that step.
        """
        if not self._seed:
            return dict(self._cache)
        return {**self._seed, **self._cache}

    def new_entries(self) -> dict[Pattern, tuple[Pattern, tuple[int, ...]]]:
        """Entries discovered by this instance beyond its seed (no copy)."""
        return self._cache

    def absorb(
        self,
        new_entries: dict[Pattern, tuple[Pattern, tuple[int, ...]]],
        requests: int,
        isomorphism_runs: int,
    ) -> None:
        """Fold one worker task's canonicalization delta into this master.

        ``isomorphism_runs`` counts computations actually performed: when
        several workers of one step independently meet the same new quick
        pattern, each really runs the isomorphism (exactly as distributed
        workers would), so for ``num_workers > 1`` the run total can exceed
        the distinct-quick-pattern count.  With one worker the numbers
        match the shared-cache engine of old.  ``quick_patterns_seen`` /
        ``canonical_patterns_seen`` stay worker-count-invariant.
        """
        self._cache.update(new_entries)
        self.requests += requests
        self.isomorphism_runs += isomorphism_runs


def _uncached_canonicalize(pattern: Pattern) -> tuple[Pattern, tuple[int, ...]]:
    """Run the full isomorphism-based canonicalization, bypassing caches."""
    certificate, ordering = canonical_form(
        pattern.num_vertices, pattern.vertex_labels, pattern.edge_dict()
    )
    num, labels_row, edge_rows = certificate
    canonical = Pattern(tuple(labels_row), tuple(edge_rows))
    mapping = [0] * pattern.num_vertices
    for position, vertex in enumerate(ordering):
        mapping[vertex] = position
    return canonical, tuple(mapping)
