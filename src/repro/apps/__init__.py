"""The paper's applications, built on the public Computation API."""

from .cliques import CliqueFinding, cliques_by_size
from .frequent_cliques import (
    FrequentClique,
    FrequentCliqueMining,
    frequent_clique_patterns,
)
from .fsm import (
    DagPatternDomains,
    FrequentEmbedding,
    FrequentSubgraphMining,
    GuidedFSMLevel,
    GuidedFSMResult,
    frequent_patterns,
    run_guided_fsm,
)
from .inexact import InexactMatching, min_completion_cost, unit_label_cost
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
from .transactional_fsm import (
    GraphCollection,
    TidSet,
    TransactionalFSM,
    transactional_frequent_patterns,
)

__all__ = [
    "CliqueFinding",
    "DagMotifCounting",
    "DagPatternDomains",
    "Domain",
    "FrequentClique",
    "FrequentCliqueMining",
    "FrequentEmbedding",
    "FrequentSubgraphMining",
    "GraphCollection",
    "GraphMatching",
    "GuidedFSMLevel",
    "GuidedFSMResult",
    "GuidedMatching",
    "GuidedMotifsRun",
    "InexactMatching",
    "MaximalCliqueFinding",
    "MotifCounting",
    "TidSet",
    "TransactionalFSM",
    "cliques_by_size",
    "enumerate_motif_patterns",
    "frequent_clique_patterns",
    "frequent_patterns",
    "is_maximal_clique",
    "match_vertex_sets",
    "min_completion_cost",
    "motif_counts",
    "motif_counts_by_size",
    "pattern_embeds_in",
    "run_guided_fsm",
    "run_guided_motifs",
    "transactional_frequent_patterns",
    "unit_label_cost",
]
