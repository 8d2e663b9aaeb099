"""Typed per-workload result views over :class:`~repro.core.results.RunResult`.

Every facade query returns one of these instead of the raw engine record:
the raw result stays reachable as ``.raw`` (with its per-step records),
while the view adds the accessors that workload's consumers actually want —
``MotifResult.counts()``, ``MatchResult.vertex_sets()``,
``FSMResult.patterns()``, ``CliqueResult.by_size()`` — so callers stop
re-importing the right post-processing helper for each application.

The views also own the **one presentation** every surface shares:
``rows()`` (the workload's natural items in their one order — what
``Query.stream()`` iterates), ``payload()`` (the JSON-able body the query
service caches and ships) and ``lines()`` (the CLI's body lines, printed
identically by the mining subcommands and ``repro resume``).
:func:`view_for` maps a finished computation to its view.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from ..core.pattern import Pattern
from ..core.results import RunResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..apps.fsm import GuidedFSMResult
    from ..plan.dag import PlanDAG
    from ..plan.planner import MatchingPlan


def encode_pattern(pattern: Pattern) -> dict[str, Any]:
    """JSON-able canonical pattern encoding."""
    return {
        "vertex_labels": list(pattern.vertex_labels),
        "edges": [[u, v, label] for u, v, label in pattern.edges],
    }


def _edge_text(pattern: Pattern) -> str:
    return ",".join(f"{i}-{j}" for i, j, _ in pattern.edges)


def _label_text(pattern: Pattern) -> str:
    return "/".join(map(str, pattern.vertex_labels))


@dataclass(frozen=True)
class MiningResult:
    """Base view: one finished facade run wrapping the engine's record."""

    #: The untouched engine result — per-step records, aggregates.
    raw: RunResult

    #: Workload name the payload reports.
    workload = "compute"

    # -- the one presentation -------------------------------------------
    def rows(self) -> list:
        """The workload's natural output items, in presentation order."""
        return self.raw.outputs

    def lines(self, verbose: bool = False) -> list[str]:
        """The CLI's body lines for this result (between the request
        echo and the :meth:`summary` footer)."""
        return []

    def payload(self) -> dict[str, Any]:
        """The JSON-able response body for this run.

        Everything in here is deterministic for the query's signatures —
        wall-clock and similar per-run noise live in the server's
        response envelope, never in the payload.
        """
        return {
            "workload": self.workload,
            "stats": {
                "steps": self.num_steps,
                "processed_embeddings": self.total_processed,
                "candidates_generated": self.total_candidates,
            },
            **self._body(),
        }

    def _body(self) -> dict[str, Any]:
        return {}

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
            f"wall={raw.wall_seconds:.4f}s "
            f"messages={raw.total_messages:,}"
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

    workload = "motifs"

    def rows(self) -> list[tuple[Pattern, int]]:
        """``(pattern, count)`` by motif order, most frequent first.  The
        ``repr`` tiebreak makes the order independent of the strategy's
        table insertion order (guided vs exhaustive)."""
        return sorted(
            self.counts().items(),
            key=lambda kv: (kv[0].num_vertices, -kv[1], repr(kv[0])),
        )

    def lines(self, verbose: bool = False) -> list[str]:
        rows = self.rows()
        # Labels are printed only when they tell rows apart (a run that
        # kept the graph's labels); structure-only tables stay compact.
        labeled = any(any(pattern.vertex_labels) for pattern, _ in rows)
        return [
            f"motif v={pattern.num_vertices} "
            + (f"labels=[{_label_text(pattern)}] " if labeled else "")
            + f"edges=[{_edge_text(pattern)}] count={count:,}"
            for pattern, count in rows
        ]

    def _body(self) -> dict[str, Any]:
        rows = self.rows()
        return {
            "counts": [
                {"pattern": encode_pattern(p), "count": c} for p, c in rows
            ],
            "num_motifs": len(rows),
        }

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

    workload = "match"

    @property
    def num_matches(self) -> int:
        return self.raw.num_outputs

    def vertex_sets(self) -> list[tuple[int, ...]]:
        """Matches as a sorted list of sorted vertex tuples — the
        order-insensitive view guided and exhaustive runs agree on."""
        from ..apps.matching import match_vertex_sets

        return match_vertex_sets(self.raw)

    rows = vertex_sets

    def lines(self, verbose: bool = False) -> list[str]:
        return [f"  {match}" for match in self.rows()[:20]] if verbose else []

    def _body(self) -> dict[str, Any]:
        return {
            "query": encode_pattern(self.query),
            "num_matches": self.num_matches,
            "matches": [list(match) for match in self.rows()],
        }


@dataclass(frozen=True)
class FSMResult(MiningResult):
    """Frequent-subgraph view: canonical pattern -> MNI support.

    Both strategies land here: the exhaustive single-run path wraps its
    engine record directly, the plan-guided path wraps the combined
    record of its per-candidate runs (same ``final_aggregates`` surface:
    canonical pattern -> merged :class:`~repro.apps.support.Domain`), so
    ``patterns()`` and ``.raw`` records work identically for both.
    """

    #: The θ threshold the query mined with.
    support_threshold: int = 1
    #: Whether the plan-guided per-candidate path ran (False = the
    #: exhaustive edge-exploration oracle).
    guided: bool = True
    #: Level-by-level accounting of the guided run (None on the
    #: exhaustive path): candidates, prunes, per-level candidate counts.
    guided_details: "GuidedFSMResult | None" = None

    workload = "fsm"

    def rows(self) -> list[tuple[Pattern, int]]:
        """``(pattern, support)`` by edge count, best supported first,
        with the strategy-independent ``repr`` tiebreak."""
        return sorted(
            self.patterns().items(),
            key=lambda kv: (kv[0].num_edges, -kv[1], repr(kv[0])),
        )

    def lines(self, verbose: bool = False) -> list[str]:
        rows = self.rows()
        mode = "guided" if self.guided else "exhaustive"
        return [
            f"fsm ({mode}): support >= {self.support_threshold}, "
            f"{len(rows)} frequent patterns"
        ] + [
            f"pattern labels=[{_label_text(pattern)}] "
            f"edges=[{_edge_text(pattern)}] support={support}"
            for pattern, support in rows
        ]

    def _body(self) -> dict[str, Any]:
        rows = self.rows()
        return {
            "support_threshold": self.support_threshold,
            "patterns": [
                {"pattern": encode_pattern(p), "support": s} for p, s in rows
            ],
            "num_patterns": len(rows),
        }

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

    workload = "cliques"

    def by_size(self) -> dict[int, list[tuple[int, ...]]]:
        """Clique size -> sorted list of member-vertex tuples."""
        from ..apps.cliques import cliques_by_size

        return cliques_by_size(self.raw)

    def lines(self, verbose: bool = False) -> list[str]:
        kind = "maximal cliques" if self.maximal else "cliques"
        out = []
        for size, cliques in sorted(self.by_size().items()):
            out.append(f"size {size}: {len(cliques):,} {kind}")
            if verbose:
                out.extend(f"  {clique}" for clique in cliques[:10])
        return out

    def _body(self) -> dict[str, Any]:
        return {
            "maximal": self.maximal,
            "num_cliques": self.num_outputs,
            "cliques_by_size": {
                str(size): [list(clique) for clique in cliques]
                for size, cliques in sorted(self.by_size().items())
            },
        }


def view_for(computation, raw: RunResult) -> MiningResult:
    """Wrap a single engine run of ``computation`` in its workload's
    view.  The one computation -> view mapping: queries wrap their
    exhaustive and guided-match runs with it, and ``repro resume`` —
    whose snapshot stores the computation, not the spec — prints the
    original command's body through it."""
    from ..apps.cliques import CliqueFinding
    from ..apps.fsm import FrequentSubgraphMining
    from ..apps.matching import GraphMatching, GuidedMatching
    from ..apps.maximal_cliques import MaximalCliqueFinding
    from ..apps.motifs import DagMotifCounting, MotifCounting

    if isinstance(computation, MaximalCliqueFinding):
        return CliqueResult(raw, maximal=True)
    if isinstance(computation, CliqueFinding):
        return CliqueResult(raw)
    if isinstance(computation, DagMotifCounting):
        # Both motif strategies expose the identical aggregate surface.
        return MotifResult(raw, guided=True)
    if isinstance(computation, MotifCounting):
        return MotifResult(raw, guided=False)
    if isinstance(computation, FrequentSubgraphMining):
        return FSMResult(
            raw, support_threshold=computation.support_threshold, guided=False
        )
    if isinstance(computation, GuidedMatching):
        plan = computation.plan
        return MatchResult(
            raw, query=plan.pattern, induced=plan.induced, guided=True, plan=plan
        )
    if isinstance(computation, GraphMatching):
        return MatchResult(
            raw,
            query=computation.query,
            induced=computation.induced,
            guided=False,
        )
    return MiningResult(raw)
