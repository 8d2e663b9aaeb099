"""The paper's applications, built on the public Computation API."""

from .cliques import CliqueFinding, cliques_by_size
from .fsm import (
    DagPatternDomains,
    FrequentEmbedding,
    FrequentSubgraphMining,
    GuidedFSMLevel,
    GuidedFSMResult,
    frequent_patterns,
    run_guided_fsm,
)
from .matching import (
    GraphMatching,
    GuidedMatching,
    match_vertex_sets,
    pattern_embeds_in,
)
from .maximal_cliques import MaximalCliqueFinding, is_maximal_clique
from .motifs import (
    DagMotifCounting,
    GuidedMotifsRun,
    MotifCounting,
    enumerate_motif_patterns,
    motif_counts,
    motif_counts_by_size,
    run_guided_motifs,
)
from .support import Domain

__all__ = [
    "CliqueFinding",
    "DagMotifCounting",
    "DagPatternDomains",
    "Domain",
    "FrequentEmbedding",
    "FrequentSubgraphMining",
    "GraphMatching",
    "GuidedFSMLevel",
    "GuidedFSMResult",
    "GuidedMatching",
    "GuidedMotifsRun",
    "MaximalCliqueFinding",
    "MotifCounting",
    "cliques_by_size",
    "enumerate_motif_patterns",
    "frequent_patterns",
    "is_maximal_clique",
    "match_vertex_sets",
    "motif_counts",
    "motif_counts_by_size",
    "pattern_embeds_in",
    "run_guided_fsm",
    "run_guided_motifs",
]
