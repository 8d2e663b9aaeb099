"""Arabesque core: the filter-process model and its execution techniques."""

from .aggregation import AggregationChannel, LocalAggregation, merge_partials
from .budget import (
    BudgetExceeded,
    CancelFlag,
    DEADLINE_BUDGET,
    EMBEDDING_BUDGET,
    RunCancelled,
)
from .canonical import (
    canonicalize_vertex_set,
    is_canonical_edge_extension,
    is_canonical_edge_words,
    is_canonical_vertex_extension,
    is_canonical_vertex_words,
)
from .computation import Computation, ComputationContext
from .config import (
    ArabesqueConfig,
    BACKENDS,
    PROCESS_BACKEND,
    SERIAL_BACKEND,
    THREAD_BACKEND,
)
from .embedding import (
    EDGE_EXPLORATION,
    VERTEX_EXPLORATION,
    EdgeInducedEmbedding,
    Embedding,
    VertexInducedEmbedding,
    make_embedding,
)
from .engine import ArabesqueEngine, ExplorationError, run_computation
from .extension import initial_candidates
from .odag import Odag
from .partition import PartitionReport, measure_partition
from .pattern import Pattern, PatternCanonicalizer, canonicalize_pattern, pattern_orbits
from .results import RunResult, StepStats, WorkerDelta
from .storage import (
    ADAPTIVE_STORAGE,
    DEFAULT_SPILL_BUDGET_NBYTES,
    LIST_STORAGE,
    ODAG_STORAGE,
    SPILL_STORAGE,
    STORAGE_MODES,
    EmbeddingStore,
    ListStore,
    OdagStore,
)

__all__ = [
    "ADAPTIVE_STORAGE",
    "AggregationChannel",
    "ArabesqueConfig",
    "ArabesqueEngine",
    "BACKENDS",
    "BudgetExceeded",
    "CancelFlag",
    "Computation",
    "ComputationContext",
    "DEADLINE_BUDGET",
    "DEFAULT_SPILL_BUDGET_NBYTES",
    "EDGE_EXPLORATION",
    "EMBEDDING_BUDGET",
    "EdgeInducedEmbedding",
    "Embedding",
    "EmbeddingStore",
    "ExplorationError",
    "LIST_STORAGE",
    "ListStore",
    "LocalAggregation",
    "ODAG_STORAGE",
    "Odag",
    "OdagStore",
    "PROCESS_BACKEND",
    "PartitionReport",
    "Pattern",
    "PatternCanonicalizer",
    "RunCancelled",
    "RunResult",
    "SERIAL_BACKEND",
    "SPILL_STORAGE",
    "STORAGE_MODES",
    "StepStats",
    "THREAD_BACKEND",
    "VERTEX_EXPLORATION",
    "VertexInducedEmbedding",
    "WorkerDelta",
    "canonicalize_pattern",
    "canonicalize_vertex_set",
    "initial_candidates",
    "is_canonical_edge_extension",
    "is_canonical_edge_words",
    "is_canonical_vertex_extension",
    "is_canonical_vertex_words",
    "make_embedding",
    "measure_partition",
    "merge_partials",
    "pattern_orbits",
    "run_computation",
]
