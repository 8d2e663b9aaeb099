"""The :class:`Miner` session facade — one front door to the whole system.

The paper's pitch is a *single* API that covers wildly different mining
workloads (Figure 3); this module is that API for the reproduction.  A
``Miner`` wraps one loaded graph and hands out chainable
:class:`~repro.session.query.Query` objects::

    from repro.session import Miner

    miner = Miner(graph)
    motifs  = miner.motifs(max_size=4).unlabeled().run()
    squares = miner.match("square").workers(8).backend("process").run()
    rules   = miner.fsm(support=100, max_edges=3).collect(False).run()
    dense   = miner.maximal_cliques(max_size=5).limit(1000).run()

Besides the fluent surface, the session caches everything that is
per-graph rather than per-query, so repeated queries skip re-setup:

* the **label-stripped graph variant**, built once for the first
  ``.unlabeled()`` query;
* the **statistics catalog** per graph variant, the cost-based planner's
  input;
* **compiled matching plans**, keyed by ``(canonical pattern, induced)``
  so re-matching a pattern never recompiles it;
* **compiled multi-query plan DAGs**, keyed by ``(canonical pattern
  batch, induced)`` — guided motifs compile one DAG per (graph variant,
  size range) and guided FSM one per level batch, so repeated
  ``.motifs()``/``.fsm()`` runs recompile nothing (FSM's per-run domain
  whitelists are overlaid on the cached structure without recompiling
  orders or symmetry).

:meth:`Miner.cache_info` exposes hit/build counters; the test suite
asserts that a reused session demonstrably skips plan and DAG
recompilation.  Step-0 pools and DAG mask bundles are not cached: each
worker task builds its own from its stepper.

The session is **thread-safe**: every cache's check-and-set (and every
counter bump) happens under one session lock, so concurrent queries
against a shared ``Miner`` — the query service runs many per registry
entry — never compile the same plan twice or tear the counters.
Compilation itself runs under the lock too; that serializes concurrent
*first* compilations but keeps the "at most one build per key" guarantee
exact (asserted by a threaded stress test).  Engine runs happen outside
the lock, so queries still overlap.
"""

from __future__ import annotations

import dataclasses
import threading
from dataclasses import dataclass

from ..core.computation import Computation
from ..core.config import ArabesqueConfig
from ..core.engine import run_computation
from ..core.pattern import Pattern
from ..core.results import RunResult
from ..graph import LabeledGraph
from ..graph.generators import strip_labels
from ..plan.dag import PlanDAG, build_plan_dag
from ..plan.planner import MatchingPlan, compile_plan
from ..plan.shapes import resolve_query
from ..plan.stats import GraphCatalog, build_catalog

from .query import (
    CliqueQuery,
    ComputeQuery,
    FSMQuery,
    MatchQuery,
    MotifQuery,
    Query,
)
from .spec import AGGREGATE_WORKLOADS, QuerySpec, SessionError

#: Workload name -> the query class that runs it (see :meth:`Miner.query`).
_QUERY_TYPES = {
    "motifs": MotifQuery,
    "match": MatchQuery,
    "fsm": FSMQuery,
    "cliques": CliqueQuery,
}


@dataclass
class SessionCacheInfo:
    """Counters for the session's per-graph caches (observability +
    the reuse assertions in the test suite)."""

    #: Engine runs executed through this session.
    runs: int = 0
    #: Always 0: step-0 pools are built by each worker task, not cached.
    #: Kept only because the benchmark spine reads it by name.
    universe_hits: int = 0
    #: Matching plans compiled (one per distinct (pattern, semantics)).
    plan_compilations: int = 0
    #: Plan lookups served from the session cache.
    plan_hits: int = 0
    #: Multi-query plan DAGs compiled (one per distinct canonical
    #: pattern batch + semantics: a motif size range, an FSM level).
    dag_compilations: int = 0
    #: DAG lookups served from the session cache.
    dag_hits: int = 0
    #: Label-stripped graph variants built (0 or 1).
    strip_builds: int = 0
    #: Statistics catalogs built (at most one per graph variant) — the
    #: cost-based planner's per-graph input.
    catalog_builds: int = 0
    #: Catalog lookups served from the session cache.
    catalog_hits: int = 0


class Miner:
    """A mining session over one loaded graph.

    Each workload method returns a chainable query; nothing executes
    until ``.run()`` / ``.count()`` / ``.stream()``.  The session owns
    the caches described in the module docstring, so issuing many
    queries against one ``Miner`` is cheaper than calling the engine
    helpers repeatedly.
    """

    def __init__(self, graph: LabeledGraph) -> None:
        if not isinstance(graph, LabeledGraph):
            raise SessionError(
                f"Miner needs a LabeledGraph (got {type(graph).__name__}); "
                "load one via repro.graph.read_edge_list or repro.datasets"
            )
        self.graph = graph
        self._unlabeled: LabeledGraph | None = None
        #: Plan/DAG caches key on the graph variant too (the ``labeled``
        #: flag): the cost-based order choice reads the variant's
        #: statistics catalog, so the same pattern may compile to
        #: different (equally correct) orders per variant.
        self._plans: dict[tuple[Pattern, bool, bool], MatchingPlan] = {}
        self._dags: dict[tuple[tuple[Pattern, ...], bool, bool], PlanDAG] = {}
        self._catalogs: dict[bool, GraphCatalog] = {}
        self._info = SessionCacheInfo()
        #: Guards every cache's check-and-set and every counter bump, so
        #: concurrent queries on one session (the query service) never
        #: duplicate a compilation or tear ``cache_info()``.  RLock: a
        #: guided-FSM dag_provider callback re-enters via _dag_for.
        self._lock = threading.RLock()

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"Miner({self.graph!r})"

    # ------------------------------------------------------------------
    # Workload front doors
    # ------------------------------------------------------------------
    def query(self, spec: QuerySpec) -> Query:
        """The query a validated :class:`QuerySpec` describes — the one
        entry the spec-driven surfaces (CLI, query service) run through,
        and the one place a workload name picks its query class.

        Those surfaces answer aggregate workloads (motifs, FSM) with the
        aggregate table, so individual embeddings are not collected
        unless the spec asks for them (``collect``/``limit``).
        """
        if not isinstance(spec, QuerySpec):
            raise SessionError(
                f"query() needs a QuerySpec (got {type(spec).__name__})"
            )
        query_type = _QUERY_TYPES.get(spec.workload)
        if query_type is None:
            raise SessionError(
                f"{spec.workload} queries carry an in-process object a "
                "spec cannot describe — build them with Miner.compute()"
            )
        if (
            spec.workload in AGGREGATE_WORKLOADS
            and spec.collect is None
            and spec.limit is None
        ):
            spec = dataclasses.replace(spec, collect=False)
        return query_type(self, spec)

    def motifs(self, max_size: int = 3, *, min_size: int = 3) -> MotifQuery:
        """Motif frequency distribution up to ``max_size`` vertices.

        DAG-guided execution is the default: every canonical motif
        candidate of the size range is compiled into one prefix-sharing
        multi-query plan DAG (cached on this session) and the whole
        distribution is answered in one guided engine run.  Chain
        ``.exhaustive()`` for the exploration-agnostic oracle, and
        ``.unlabeled()`` for classic (structure-only) motifs on a
        labeled graph.
        """
        return MotifQuery(
            self, QuerySpec("motifs", max_size=max_size, min_size=min_size)
        )

    def match(
        self, query: "Pattern | str", *, induced: bool = True
    ) -> MatchQuery:
        """Retrieve every occurrence of ``query`` — a :class:`Pattern`,
        a named shape (``"triangle"``, ``"square"``, ...), or a pattern
        edge-list file path.

        Plan-guided execution is the default; chain ``.exhaustive()``
        for the filter-process oracle.  ``induced=False`` switches from
        vertex-induced occurrences to monomorphisms.
        """
        if isinstance(query, str):
            query = resolve_query(query)
        return MatchQuery(
            self, QuerySpec("match", pattern=query, induced=induced)
        )

    def explain(
        self,
        query: "Pattern | str",
        *,
        induced: bool = True,
        labeled: bool = True,
    ) -> str:
        """A human-readable plan report for ``query`` without running it.

        Shows the graph's statistics catalog summary, the matching
        order the cost-based planner chose, its per-step cardinality
        estimates, and how it compares to the degree heuristic's order
        (including *why* one won).  The same report backs the CLI's
        ``match --explain``.
        """
        from ..plan.cost import choose_order

        if isinstance(query, str):
            query = resolve_query(query)
        pattern = query.canonical()
        catalog = self._catalog_for(labeled)
        choice = choose_order(pattern, catalog)
        plan = self._plan_for(pattern, induced, labeled)
        lines = [
            f"graph: {catalog.describe()}",
            f"plan: {plan.describe()}",
            f"terminal level: step {plan.num_steps - 1} is aggregated from "
            "survivor masks (run summaries report it as batched=N)",
            choice.describe(),
        ]
        return "\n".join(lines)

    def fsm(self, support: int, *, max_edges: int | None = None) -> FSMQuery:
        """Frequent subgraph mining with MNI support threshold ``support``.

        Plan-guided execution is the default: each level's surviving
        candidates are batched into one multi-query plan DAG (cached on
        this session by canonical batch) and evaluated in a single
        guided engine run per level, with MNI domains demuxed per leaf;
        chain ``.exhaustive()`` for the single-run edge-exploration
        oracle.
        """
        return FSMQuery(
            self, QuerySpec("fsm", support=support, max_edges=max_edges)
        )

    def cliques(
        self, max_size: int | None = None, *, min_size: int = 1
    ) -> CliqueQuery:
        """Enumerate all cliques up to ``max_size`` vertices."""
        return CliqueQuery(
            self, QuerySpec("cliques", max_size=max_size, min_size=min_size)
        )

    def maximal_cliques(self, max_size: int | None = None) -> CliqueQuery:
        """Enumerate maximal cliques (optionally capped at ``max_size``)."""
        return CliqueQuery(
            self, QuerySpec("cliques", max_size=max_size, maximal=True)
        )

    def compute(self, computation: Computation) -> ComputeQuery:
        """Run an arbitrary :class:`~repro.core.Computation` with the
        session's cached graph state and the fluent option surface."""
        return ComputeQuery(self, computation)

    def resume(
        self, run_dir: str, config: ArabesqueConfig | None = None
    ) -> RunResult:
        """Resume a crashed checkpointed run from ``run_dir`` on this
        session's graph.

        Queries chained with ``.checkpoint(run_dir)`` snapshot at every
        BSP barrier; after a crash, ``miner.resume(run_dir)`` restarts
        from the last barrier and returns the completed
        :class:`~repro.core.results.RunResult`, byte-identical in
        ``canonical_signature`` to the uninterrupted run.  The snapshot
        remembers whether it ran on the labeled graph or the stripped
        variant (``.unlabeled()``); both are tried, so the caller only
        needs the same :class:`Miner` dataset.  An unrelated graph — or
        a ``config`` that changes run semantics — raises the loud
        mismatch errors from :mod:`repro.checkpoint`.  ``config``, when
        given, may override execution knobs only (backend, workers,
        deadline, spill budget, checkpoint cadence).
        """
        from ..checkpoint import CheckpointGraphMismatch, resume_run

        try:
            return resume_run(str(run_dir), self.graph, config=config)
        except CheckpointGraphMismatch:
            stripped = self._graph_variant(False)
            return resume_run(str(run_dir), stripped, config=config)

    # ------------------------------------------------------------------
    # Session caches
    # ------------------------------------------------------------------
    def cache_info(self) -> SessionCacheInfo:
        """A snapshot of the session's cache counters."""
        with self._lock:
            return SessionCacheInfo(**vars(self._info))

    def _graph_variant(self, labeled: bool) -> LabeledGraph:
        if labeled:
            return self.graph
        with self._lock:
            if self._unlabeled is None:
                self._unlabeled = strip_labels(self.graph)
                self._info.strip_builds += 1
            return self._unlabeled

    def _catalog_for(self, labeled: bool = True) -> GraphCatalog:
        """Build (or fetch) the graph variant's statistics catalog —
        the cost-based planner's input."""
        graph = self._graph_variant(labeled)
        with self._lock:
            catalog = self._catalogs.get(labeled)
            if catalog is None:
                catalog = build_catalog(graph)
                self._catalogs[labeled] = catalog
                self._info.catalog_builds += 1
            else:
                self._info.catalog_hits += 1
            return catalog

    def _plan_for(
        self, pattern: Pattern, induced: bool, labeled: bool = True
    ) -> MatchingPlan:
        """Compile (or fetch) the plan for a canonical pattern.

        Compilation is cost-based: the graph variant's cached catalog
        prices candidate matching orders and the cheapest wins (the
        degree heuristic keeps every tie) — order choice affects only
        candidate counts, never results.
        """
        key = (pattern, induced, labeled)
        with self._lock:
            plan = self._plans.get(key)
            if plan is None:
                plan = compile_plan(
                    pattern,
                    induced=induced,
                    catalog=self._catalog_for(labeled),
                )
                self._plans[key] = plan
                self._info.plan_compilations += 1
            else:
                self._info.plan_hits += 1
            return plan

    def _dag_for(
        self, patterns: tuple[Pattern, ...], induced: bool, labeled: bool = True
    ) -> PlanDAG:
        """Compile (or fetch) the multi-query DAG for a canonical batch.

        Keys on the exact batch tuple + semantics + graph variant:
        guided motifs reuse one DAG per (graph variant, size range)
        across repeated runs, and guided FSM one per level batch —
        per-run domain whitelists are overlaid by the caller
        (:func:`repro.plan.dag.restrict_dag`) without touching the
        cached structure.  Compilation reads the variant's catalog, so
        labeled batches get the jointly-costed harmonized order search.
        """
        key = (tuple(patterns), induced, labeled)
        with self._lock:
            dag = self._dags.get(key)
            if dag is None:
                dag = build_plan_dag(
                    key[0],
                    induced=induced,
                    catalog=self._catalog_for(labeled),
                )
                self._dags[key] = dag
                self._info.dag_compilations += 1
            else:
                self._info.dag_hits += 1
            return dag

    def _run(
        self,
        graph: LabeledGraph,
        computation: Computation,
        config: ArabesqueConfig,
    ) -> RunResult:
        """Execute one engine run and count it.  The run itself happens
        outside the session lock so concurrent queries overlap; only the
        counter serializes."""
        with self._lock:
            self._info.runs += 1
        return run_computation(graph, computation, config)

    def _run_guided(
        self, driver, graph: LabeledGraph, *args, induced: bool, **options
    ):
        """Run a guided driver (``run_guided_motifs``/``run_guided_fsm``)
        with the session's caches wired in: the DAG cache serves (and
        counts) every batch compilation, and the run counter meters each
        engine run."""
        labeled = graph is self.graph
        result = driver(
            graph,
            *args,
            dag_provider=lambda patterns: self._dag_for(
                patterns, induced, labeled
            ),
            **options,
        )
        with self._lock:
            self._info.runs += result.engine_runs
        return result


__all__ = [
    "Miner",
    "Query",
    "SessionCacheInfo",
    "SessionError",
]
