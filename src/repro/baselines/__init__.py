"""Baselines: the paradigms and centralized systems the paper compares to."""

from .bron_kerbosch import (
    count_cliques_by_size,
    degeneracy_order,
    enumerate_cliques,
    enumerate_maximal_cliques,
)
from .esu import count_motifs, count_motifs_up_to, enumerate_connected_subgraphs
from .grami import (
    GramiResult,
    PatternEvaluation,
    exact_mni_support,
    extend_pattern,
    find_frequent_embeddings,
    graph_label_triples,
    mni_support_lazy,
    run_grami,
    single_edge_patterns,
)
from .tlp import TlpResult, run_tlp_fsm
from .tlv import TlvResult, run_tlv_fsm

__all__ = [
    "GramiResult",
    "PatternEvaluation",
    "TlpResult",
    "TlvResult",
    "count_cliques_by_size",
    "count_motifs",
    "count_motifs_up_to",
    "degeneracy_order",
    "enumerate_cliques",
    "enumerate_connected_subgraphs",
    "enumerate_maximal_cliques",
    "exact_mni_support",
    "extend_pattern",
    "find_frequent_embeddings",
    "graph_label_triples",
    "mni_support_lazy",
    "run_grami",
    "run_tlp_fsm",
    "run_tlv_fsm",
    "single_edge_patterns",
]
