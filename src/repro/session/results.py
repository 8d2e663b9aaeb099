"""Typed per-workload result views over :class:`~repro.core.results.RunResult`.

Every facade query returns one of these instead of the raw engine record:
the raw result stays reachable as ``.raw`` (with its full metrics surface),
while the view adds the accessors that workload's consumers actually want —
``MotifResult.counts()``, ``MatchResult.vertex_sets()``,
``FSMResult.patterns()``, ``CliqueResult.by_size()`` — so callers stop
re-importing the right post-processing helper for each application.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..core.pattern import Pattern
from ..core.results import RunResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..apps.fsm import GuidedFSMResult
    from ..plan.dag import PlanDAG
    from ..plan.planner import MatchingPlan


@dataclass(frozen=True)
class MiningResult:
    """Base view: one finished facade run wrapping the engine's record."""

    #: The untouched engine result — metrics, per-step stats, aggregates.
    raw: RunResult

    # -- pass-through conveniences ------------------------------------
    @property
    def num_steps(self) -> int:
        return self.raw.num_steps

    @property
    def num_outputs(self) -> int:
        return self.raw.num_outputs

    @property
    def outputs(self) -> list:
        return self.raw.outputs

    @property
    def total_candidates(self) -> int:
        return self.raw.total_candidates

    @property
    def total_processed(self) -> int:
        return self.raw.total_processed

    def makespan(self) -> float:
        return self.raw.makespan()

    def signature(self, ignore_output_order: bool = False) -> bytes:
        """The run's :meth:`~repro.core.results.RunResult.canonical_signature`
        — the byte-identity the facade is validated against."""
        return self.raw.canonical_signature(ignore_output_order)

    def summary(self) -> str:
        """One-line run summary (the CLI's footer)."""
        raw = self.raw
        return (
            f"# steps={raw.num_steps} processed={raw.total_processed:,} "
            f"batched={raw.total_batched:,} "
            f"makespan={raw.makespan():.4f}s "
            f"messages={raw.metrics.total_messages:,}"
        )


@dataclass(frozen=True)
class MotifResult(MiningResult):
    """Motif-distribution view: canonical pattern -> embedding count.

    Both strategies land here with the identical ``output_aggregates``
    surface: the exhaustive single-run oracle wraps its engine record
    directly, the DAG-guided path wraps its one multi-query engine run
    (the compiled DAG rides along as ``.dag`` for observability).
    """

    #: Whether the multi-query DAG path ran (False = exhaustive oracle).
    guided: bool = True
    #: The compiled plan DAG the guided run executed (None on the
    #: exhaustive path, and when no motif candidate of the requested
    #: size range exists in the graph).
    dag: "PlanDAG | None" = None

    def counts(self) -> dict[Pattern, int]:
        """Canonical motif pattern -> number of vertex-induced embeddings."""
        from ..apps.motifs import motif_counts

        return motif_counts(self.raw)

    def by_size(self) -> dict[int, dict[Pattern, int]]:
        """Motif counts grouped by motif order (Figure 1's series)."""
        from ..apps.motifs import motif_counts_by_size

        return motif_counts_by_size(self.raw)


@dataclass(frozen=True)
class MatchResult(MiningResult):
    """Pattern-matching view: the query, the strategy, and the matches."""

    #: The (canonical) query pattern this run matched.
    query: Pattern = None  # type: ignore[assignment]
    #: Vertex-induced (True) or monomorphic (False) semantics.
    induced: bool = True
    #: Whether the plan-guided fast path ran (False = exhaustive oracle).
    guided: bool = True
    #: The compiled plan the run executed (None on the exhaustive path).
    plan: "MatchingPlan | None" = None

    @property
    def num_matches(self) -> int:
        return self.raw.num_outputs

    def vertex_sets(self) -> list[tuple[int, ...]]:
        """Matches as a sorted list of sorted vertex tuples — the
        order-insensitive view guided and exhaustive runs agree on."""
        from ..apps.matching import match_vertex_sets

        return match_vertex_sets(self.raw)


@dataclass(frozen=True)
class FSMResult(MiningResult):
    """Frequent-subgraph view: canonical pattern -> MNI support.

    Both strategies land here: the exhaustive single-run path wraps its
    engine record directly, the plan-guided path wraps the combined
    record of its per-candidate runs (same ``final_aggregates`` surface:
    canonical pattern -> merged :class:`~repro.apps.support.Domain`), so
    ``patterns()`` and ``.raw`` metrics work identically for both.
    """

    #: The θ threshold the query mined with.
    support_threshold: int = 1
    #: Whether the plan-guided per-candidate path ran (False = the
    #: exhaustive edge-exploration oracle).
    guided: bool = True
    #: Level-by-level accounting of the guided run (None on the
    #: exhaustive path): candidates, prunes, per-level candidate counts.
    guided_details: "GuidedFSMResult | None" = None

    def patterns(self, support_threshold: int | None = None) -> dict[Pattern, int]:
        """Frequent canonical patterns with their MNI support.

        ``support_threshold`` defaults to the query's own θ; pass a
        *higher* value to post-filter without re-mining.  Lower values
        are rejected: the run's aggregates only cover patterns that
        survived mining at θ, so filtering below it would silently drop
        every pattern whose ancestors were pruned as infrequent.
        """
        from ..apps.fsm import frequent_patterns

        threshold = (
            self.support_threshold
            if support_threshold is None
            else support_threshold
        )
        if threshold < self.support_threshold:
            raise ValueError(
                f"this run mined with support >= {self.support_threshold}; "
                f"patterns(support_threshold={threshold}) would be "
                "incomplete — re-mine with the lower threshold instead"
            )
        return frequent_patterns(self.raw, threshold)


@dataclass(frozen=True)
class CliqueResult(MiningResult):
    """Clique-enumeration view: cliques grouped by size."""

    #: Whether only maximal cliques were emitted.
    maximal: bool = False

    def by_size(self) -> dict[int, list[tuple[int, ...]]]:
        """Clique size -> sorted list of member-vertex tuples."""
        from ..apps.cliques import cliques_by_size

        return cliques_by_size(self.raw)
