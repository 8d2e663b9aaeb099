"""Graph matching as a filter-process application.

Section 2 of the paper: "Also related to graph mining is the problem of
graph matching, where a query pattern q is fixed, and one has to retrieve
all its matches in the input graph G. ... graph mining encompasses the
matching problem."  This application demonstrates that subsumption: the
filter keeps exactly the embeddings whose pattern is a (connected) subgraph
of the query, which is anti-monotone — once an embedding stops being
embeddable in the query, no extension can recover — and the process
function outputs the embeddings that match the whole query.

Matching a candidate's pattern against the query is a pattern-to-pattern
subgraph isomorphism; with two-level-style caching per quick pattern the
check runs once per distinct shape rather than once per embedding.

Two execution strategies share this module:

* :class:`GraphMatching` — the exhaustive filter-process oracle described
  above: extend every canonical embedding everywhere, keep the ones still
  embeddable in the query.  Exploration-agnostic but trivially correct.
* :class:`GuidedMatching` — the planner fast path (what
  ``Miner(graph).match(query)`` runs unless told ``.exhaustive()``): the
  query is compiled into a :class:`~repro.plan.MatchingPlan`
  (matching order, per-step constraints, symmetry-breaking restrictions)
  and the runtime only proposes candidates satisfying the next plan step.
  Produces the identical match multiset with a fraction of the candidates;
  the exhaustive mode stays the correctness oracle.
"""

from __future__ import annotations

from ..core.computation import Computation
from ..core.embedding import (
    EDGE_EXPLORATION,
    Embedding,
    VERTEX_EXPLORATION,
)
from ..core.pattern import Pattern
from ..core.results import RunResult
from ..graph import LabeledGraph
from ..isomorphism import SubgraphMatcher
from ..plan.planner import MatchingPlan


def _pattern_as_graph(pattern: Pattern) -> LabeledGraph:
    edges = [(i, j) for i, j, _ in pattern.edges]
    edge_labels = [label for _, _, label in pattern.edges]
    return LabeledGraph(pattern.vertex_labels, edges, edge_labels)


def pattern_embeds_in(needle: Pattern, haystack: Pattern, induced: bool) -> bool:
    """Whether ``needle`` occurs as a subgraph of ``haystack``.

    ``induced=True`` requires an induced occurrence (vertex-based mode),
    ``False`` a monomorphism (edge-based mode).  Both patterns are tiny, so
    VF2 on the pattern graphs is instant.
    """
    if needle.num_vertices > haystack.num_vertices:
        return False
    if needle.num_edges > haystack.num_edges:
        return False
    matcher = SubgraphMatcher(
        needle.vertex_labels,
        needle.edge_dict(),
        _pattern_as_graph(haystack),
        induced=induced,
    )
    return matcher.exists()


class GraphMatching(Computation):
    """Retrieve every embedding of a fixed query pattern.

    Parameters
    ----------
    query:
        The pattern to search for (connected; vertex ids ``0..k-1``).
    induced:
        Vertex-induced semantics (matches must not have extra edges among
        their vertices) when True; edge-based monomorphism otherwise.
    """

    def __init__(self, query: Pattern, induced: bool = True):
        super().__init__()
        if query.num_vertices == 0:
            raise ValueError("query pattern must not be empty")
        if not query.is_connected():
            # Connected exploration can never assemble a disconnected
            # occurrence — fail loudly instead of reporting zero matches.
            raise ValueError("query pattern must be connected")
        self.query = query.canonical()
        self.induced = induced
        self.exploration_mode = (
            VERTEX_EXPLORATION if induced else EDGE_EXPLORATION
        )
        self._embeddable_cache: dict[Pattern, bool] = {}
        self._match_cache: dict[Pattern, bool] = {}

    def _embeddable(self, pattern: Pattern) -> bool:
        cached = self._embeddable_cache.get(pattern)
        if cached is None:
            cached = pattern_embeds_in(pattern, self.query, self.induced)
            self._embeddable_cache[pattern] = cached
        return cached

    def _is_full_match(self, pattern: Pattern) -> bool:
        cached = self._match_cache.get(pattern)
        if cached is None:
            cached = pattern.canonical() == self.query
            self._match_cache[pattern] = cached
        return cached

    def filter(self, embedding: Embedding) -> bool:
        if self.induced:
            if embedding.num_vertices > self.query.num_vertices:
                return False
        elif embedding.num_edges > self.query.num_edges:
            return False
        return self._embeddable(embedding.pattern())

    def process(self, embedding: Embedding) -> None:
        pattern = embedding.pattern()
        if self._is_full_match(pattern):
            self.output(tuple(sorted(embedding.vertices)))

    def termination_filter(self, embedding: Embedding) -> bool:
        # A full-size embedding cannot grow into another match.
        if self.induced:
            return embedding.num_vertices >= self.query.num_vertices
        return embedding.num_edges >= self.query.num_edges


class GuidedMatching(Computation):
    """Plan-guided matching: the runtime does the filtering.

    The plan it is built with guides the run (the session facade's
    ``match`` query compiles it): every embedding reaching the user
    functions is a valid partial match by construction — the plan's
    per-step constraints
    subsume φ, and its symmetry restrictions subsume the canonicality
    check — so the computation only has to emit full-size matches.

    Outputs are ``tuple(sorted(vertices))`` like :class:`GraphMatching`,
    and the emitted multiset is identical to the exhaustive one: induced
    mode yields one mapping per matching vertex set, monomorphic mode one
    mapping per matching edge image (both are the orbit count the symmetry
    restrictions collapse to exactly one representative).
    """

    exploration_mode = VERTEX_EXPLORATION

    def __init__(self, plan: MatchingPlan):
        super().__init__()
        self.plan = plan
        self._size = plan.num_steps

    def process(self, embedding: Embedding) -> None:
        if len(embedding.words) == self._size:
            self.output(tuple(sorted(embedding.words)))

    def process_terminal(self, words, member_masks) -> None:
        ((_, mask),) = member_masks  # a single plan is its only member
        self.output_batch(words, mask)

    def termination_filter(self, embedding: Embedding) -> bool:
        return len(embedding.words) >= self._size


def match_vertex_sets(result: RunResult) -> list[tuple[int, ...]]:
    """A run's matches as a sorted list of sorted vertex tuples.

    Order-insensitive view for comparing guided and exhaustive runs
    (the two modes emit the same multiset in different orders).
    """
    return sorted(result.outputs)
