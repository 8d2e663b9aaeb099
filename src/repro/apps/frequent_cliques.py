"""Frequent clique mining — the paper's section 2 generalization.

"The clique problem can also be generalized to ... frequent cliques, if we
impose a minimum frequency threshold in addition to the completeness
constraint."  The composition is a textbook use of the full API surface:
the *local* prune (φ = isClique) combines with the *aggregate* prune
(α = pattern support), and the exploration inherits anti-monotonicity from
both — a subgraph of a clique is a clique, and MNI support never grows
under extension.

On an unlabeled graph every k-clique shares one pattern, so "frequent"
degenerates into "at least θ distinct member vertices per position"; the
interesting case is a labeled graph, where the output is the frequent
*colored* clique shapes plus their instances.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.computation import Computation
from ..core.embedding import Embedding, VERTEX_EXPLORATION, VertexInducedEmbedding
from ..core.pattern import Pattern
from ..core.results import RunResult
from .cliques import clique_extensions
from .support import Domain


@dataclass(frozen=True)
class FrequentClique:
    """One output row: a clique whose labeled shape is frequent."""

    pattern: Pattern
    vertices: tuple[int, ...]
    support: int


class FrequentCliqueMining(Computation):
    """Mine cliques whose labeled pattern has MNI support >= threshold."""

    exploration_mode = VERTEX_EXPLORATION

    def __init__(self, support_threshold: int, max_size: int | None = None):
        super().__init__()
        if support_threshold < 1:
            raise ValueError("support_threshold must be >= 1")
        if max_size is not None and max_size < 1:
            raise ValueError("max_size must be >= 1 when given")
        self.support_threshold = support_threshold
        self.max_size = max_size

    # -- φ and π ---------------------------------------------------------
    def filter(self, embedding: Embedding) -> bool:
        assert isinstance(embedding, VertexInducedEmbedding)
        if self.max_size is not None and embedding.num_vertices > self.max_size:
            return False
        return embedding.is_clique()

    def filter_extensions(self, words: tuple[int, ...], mask: int) -> int:
        return clique_extensions(self.graph, self.max_size, words, mask)

    def process(self, embedding: Embedding) -> None:
        self.map(self.pattern(embedding), Domain.from_embedding(embedding))

    # -- aggregation -------------------------------------------------------
    def reduce(self, key, domains: list[Domain]) -> Domain:
        return Domain.merge_all(domains)

    def _support(self, embedding: Embedding) -> int | None:
        quick = self.pattern(embedding)
        domain = self.read_aggregate(quick)
        if domain is None:
            return None
        return domain.support(quick.canonical().orbits())

    def aggregation_filter(self, embedding: Embedding) -> bool:
        support = self._support(embedding)
        return support is not None and support >= self.support_threshold

    def aggregation_process(self, embedding: Embedding) -> None:
        support = self._support(embedding)
        if support is None:  # pragma: no cover - guarded by α
            return
        self.output(
            FrequentClique(
                pattern=self.pattern(embedding).canonical(),
                vertices=tuple(sorted(embedding.words)),
                support=support,
            )
        )

    def termination_filter(self, embedding: Embedding) -> bool:
        return self.max_size is not None and embedding.num_vertices >= self.max_size


def frequent_clique_patterns(
    result: RunResult, support_threshold: int
) -> dict[Pattern, int]:
    """Post-process: canonical clique pattern -> support, frequent only."""
    frequent: dict[Pattern, int] = {}
    for pattern, domain in result.final_aggregates.items():
        if not isinstance(pattern, Pattern) or not isinstance(domain, Domain):
            continue
        support = domain.support(pattern.orbits())
        if support >= support_threshold:
            frequent[pattern] = support
    return frequent
