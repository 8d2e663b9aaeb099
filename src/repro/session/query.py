"""Chainable query objects built by :class:`~repro.session.Miner`.

A query is a declarative description of one mining run: the workload
(fixed by the :class:`Miner` method that created it) plus execution
options chained fluently::

    Miner(graph).motifs(max_size=4).unlabeled().workers(8).backend("process").run()
    Miner(graph).match("square").exhaustive().limit(1000).run()

Every option validates its argument **at call time** — unknown backend or
storage strings, conflicting strategy choices (``.exhaustive()`` plus a
precompiled ``.plan()``), or nonsensical values raise a loud
:class:`SessionError` before anything runs.  The rules themselves live
in :class:`~repro.session.spec.QuerySpec`: a query holds one spec and
each chained option replaces it, so the fluent facade, the CLI and the
query service reject the same values with the same message.  ``.run()``
returns the workload's typed result view (:mod:`repro.session.results`);
``.count()`` returns just the exact output count (collection disabled);
``.stream()`` returns an iterator over the view's ``rows()``.

Plan-capable queries default to **guided** execution with
``.exhaustive()`` as the opt-out into the filter-process oracle:
:meth:`Miner.match` compiles its query into one
:class:`~repro.plan.MatchingPlan` (cached on the session),
:meth:`Miner.motifs` compiles the whole motif batch into one multi-query
:class:`~repro.plan.PlanDAG` answering the distribution in a single run
(:func:`repro.apps.motifs.run_guided_motifs`), and :meth:`Miner.fsm`
batches each level's candidates into one DAG run through the same
session DAG cache, accumulating MNI domains demuxed per leaf
(:func:`repro.apps.fsm.run_guided_fsm`).  Guided queries also default to
list embedding storage — the plan's symmetry restrictions already make
every stored path unique, so ODAG's spurious-path re-validation is pure
overhead there (the spine's ``core.store_extract_ns_per_row.list`` vs
``.odag``: about 52 ns against 3.8-4.8 µs a row); an explicit
``.storage()`` or ``.config()`` always wins.
"""

from __future__ import annotations

import copy
import dataclasses
import os
from typing import TYPE_CHECKING, Any, Iterator

from ..core.budget import CancelFlag
from ..core.computation import Computation
from ..core.config import ArabesqueConfig
from ..core.storage import LIST_STORAGE
from ..plan.planner import MatchingPlan

from .results import FSMResult, MiningResult, MotifResult, view_for
from .spec import (
    AGGREGATE_WORKLOADS,
    PLAN_CAPABLE_WORKLOADS,
    QuerySpec,
    SessionError,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .miner import Miner


class Query:
    """Base chainable query: shared execution options + run/count/stream.

    A query holds one validated :class:`~repro.session.spec.QuerySpec`;
    every chained option replaces it, so the spec's rules reject a bad
    value at call time.  What cannot live in a declarative spec — a base
    :class:`ArabesqueConfig`, a :class:`CancelFlag`, a precompiled plan —
    rides on the query itself.  Subclasses fix the workload: which
    computation runs and, for plan-capable workloads, the guided driver.
    """

    def __init__(self, miner: "Miner", spec: QuerySpec) -> None:
        self._miner = miner
        self._spec = spec
        self._base_config: ArabesqueConfig | None = None
        self._cancel: CancelFlag | None = None

    @property
    def spec(self) -> QuerySpec:
        """The validated spec this query currently describes."""
        return self._spec

    @property
    def workload(self) -> str:
        """Human name used in error messages."""
        return self._spec.workload

    def _set(self, **changes: Any) -> "Query":
        self._spec = dataclasses.replace(self._spec, **changes)
        return self

    # ------------------------------------------------------------------
    # Chainable execution options (validated eagerly, by the spec)
    # ------------------------------------------------------------------
    def backend(self, name: str) -> "Query":
        """Execution runtime for the worker step tasks."""
        return self._set(backend=name)

    def workers(self, count: int) -> "Query":
        """Logical workers the exploration is partitioned over."""
        return self._set(workers=count)

    def storage(self, mode: str) -> "Query":
        """Embedding storage strategy (one of ``STORAGE_MODES``)."""
        return self._set(storage=mode)

    def limit(self, count: int) -> "Query":
        """Cap on collected outputs (exact counts are never truncated)."""
        return self._set(limit=count)

    def collect(self, flag: bool = True) -> "Query":
        """Keep (or drop) individual outputs; counts stay exact either way."""
        return self._set(collect=flag)

    def unlabeled(self) -> "Query":
        """Run on the session's label-stripped graph variant (cached)."""
        return self._set(labeled=False)

    def deadline(self, seconds: float) -> "Query":
        """Cooperative wall-clock budget for the run: exceeding it raises
        a loud :class:`~repro.core.budget.BudgetExceeded` at the next
        BSP barrier (or mid-step probe) instead of running forever.  The
        query service arms this on every admitted request."""
        return self._set(deadline_seconds=seconds)

    def max_embeddings(self, count: int) -> "Query":
        """Cooperative cap on processed embeddings (checked at every BSP
        barrier, deterministic across backends); exceeding it raises a
        loud :class:`~repro.core.budget.BudgetExceeded`."""
        return self._set(max_embeddings=count)

    def checkpoint(self, run_dir: "str | os.PathLike") -> "Query":
        """Snapshot the run into ``run_dir`` at every BSP barrier, so a
        crash can be resumed from the last barrier via
        :meth:`Miner.resume` (or ``repro.checkpoint.resume_run``).  See
        docs/checkpoint.md for the format and resume semantics."""
        if isinstance(run_dir, os.PathLike):
            run_dir = os.fspath(run_dir)
        return self._set(checkpoint_dir=run_dir)

    def cancellation(self, flag: CancelFlag) -> "Query":
        """Arm a :class:`~repro.core.budget.CancelFlag`: setting it from
        another thread makes the run raise a loud
        :class:`~repro.core.budget.RunCancelled` at the next mid-step
        probe or BSP barrier.  The query service arms one per request to
        abort runs whose client disconnected."""
        if not isinstance(flag, CancelFlag):
            raise SessionError(
                "cancellation() needs a repro.core.CancelFlag "
                f"(got {type(flag).__name__})"
            )
        self._cancel = flag
        return self

    def config(self, config: ArabesqueConfig) -> "Query":
        """Use ``config`` as the base configuration; chained options
        override individual fields on top of it."""
        if not isinstance(config, ArabesqueConfig):
            raise SessionError(
                "config() needs an ArabesqueConfig "
                f"(got {type(config).__name__})"
            )
        self._base_config = config
        return self

    # Pattern-strategy options exist on every query so misuse fails with
    # a message instead of an AttributeError.
    def guided(self) -> "Query":
        """Run the plan-guided path (the default)."""
        if self.workload not in PLAN_CAPABLE_WORKLOADS:
            raise SessionError(
                f"{self.workload} queries have no guided/exhaustive choice "
                "— only plan-capable queries (Miner.match, Miner.fsm, "
                "Miner.motifs) compile exploration plans"
            )
        return self._set(exhaustive=False)

    def exhaustive(self) -> "Query":
        """Opt out of guided execution into the exploration-agnostic
        oracle covering the whole workload in one run."""
        return self._set(exhaustive=True)

    def plan(self, plan: MatchingPlan) -> "Query":
        raise SessionError(
            f"{self.workload} queries cannot take a precompiled plan — "
            "only pattern queries (Miner.match) accept one (guided FSM "
            "and guided motifs compile their own multi-query plan DAGs)"
        )

    @property
    def is_guided(self) -> bool:
        return (
            self.workload in PLAN_CAPABLE_WORKLOADS
            and not self._spec.exhaustive
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self) -> MiningResult:
        """Execute the query and return its typed result view."""
        graph = self._miner._graph_variant(self._spec.labeled)
        self._validate(graph)
        return self._execute(graph, self._build_config())

    def count(self) -> int:
        """Execute without collecting outputs; return the exact count.

        The collection default (and any ``limit()``, which only caps
        *collected* outputs — counts are never truncated) is overridden
        only for this call, on a copy of the query: a later ``.run()``
        on the same query still collects with its cap, unless the query
        itself chained ``.collect(False)``.
        """
        query = self
        if self._spec.collect is None:
            query = copy.copy(self)._set(collect=False, limit=None)
        return query.run().raw.num_outputs

    def stream(self) -> Iterator[Any]:
        """Execute and iterate the workload's natural output items
        (the result view's ``rows()``)."""
        # Aggregate workloads stream their table; everything else
        # iterates the run's collected outputs.
        if (
            self.workload not in AGGREGATE_WORKLOADS
            and not self._effective_collect()
        ):
            raise SessionError(
                f"stream() iterates the run's outputs, but this "
                f"{self.workload} query has collect_outputs disabled — "
                "drop collect(False) to stream"
            )
        return iter(self.run().rows())

    # ------------------------------------------------------------------
    # Internals / subclass hooks
    # ------------------------------------------------------------------
    def _effective_collect(self) -> bool:
        if self._spec.collect is not None:
            return self._spec.collect
        if self._base_config is not None:
            return self._base_config.collect_outputs
        return ArabesqueConfig.collect_outputs

    def _build_config(self) -> ArabesqueConfig:
        base = self._base_config or ArabesqueConfig()
        if base.plan is not None and self.workload != "match":
            raise SessionError(
                f"the base config carries a plan, but {self.workload} "
                "queries never take one — only Miner.match accepts a "
                "precompiled MatchingPlan (guided FSM and guided motifs "
                "compile their own multi-query plan DAGs)"
            )
        overrides = self._spec.config_overrides()
        if (
            self.is_guided
            and "storage" not in overrides
            and self._base_config is None
        ):
            # Guided runs store only plan-accepted, symmetry-unique
            # paths, so ODAG's spurious-path re-validation buys nothing
            # (benchmarks/spine: core.store_extract_ns_per_row.list vs
            # .odag, ~52 ns vs 3.8-4.8 µs a row).
            overrides["storage"] = LIST_STORAGE
        if self._cancel is not None:
            overrides["cancel"] = self._cancel
        if self._spec.limit is not None and not self._effective_collect():
            raise SessionError(
                "limit() caps collected outputs, but the base config has "
                "collect_outputs=False — enable collect() or drop limit()"
            )
        return dataclasses.replace(base, **overrides) if overrides else base

    def _validate(self, graph) -> None:
        """Cross-option validation hook; runs right before execution."""

    def _execute(self, graph, config: ArabesqueConfig) -> MiningResult:
        computation = self._computation()
        return view_for(computation, self._miner._run(graph, computation, config))

    def _computation(self) -> Computation:
        raise NotImplementedError


class _GuidedAggregateQuery(Query):
    """Shared control flow of the aggregate plan-capable workloads.

    FSM and motifs both answer with an *aggregate* (a pattern table, a
    distribution) rather than per-embedding outputs, and both default to
    guided execution over session-cached plan DAGs.  The spec already
    rejects ``collect(True)``/``limit()`` under guided execution; this
    base adds the two rejections a spec cannot see (``count()`` and a
    ``config(output_limit=...)`` base) and dispatches guided runs to the
    workload's driver (``_run_guided``).
    """

    def count(self) -> int:
        if self.is_guided:
            raise SessionError(
                f"guided {self.workload} does not materialize "
                "per-embedding outputs to count — read the table from "
                ".run(), or chain .exhaustive() for the raw output count"
            )
        return super().count()

    def _execute(self, graph, config: ArabesqueConfig) -> MiningResult:
        if not self.is_guided:
            return super()._execute(graph, config)
        if config.output_limit is not None:
            # Mirror the limit() rejection for the config() spelling —
            # a capped output collection only makes sense exhaustively.
            # (A bare collect_outputs=True cannot be rejected the same
            # way: it is the dataclass default, so intent is invisible;
            # the guided drivers run with collection off regardless.)
            raise SessionError(
                "the base config caps collected outputs (output_limit), "
                f"but guided {self.workload} (the default) answers with "
                "its aggregate table, not per-embedding outputs — chain "
                ".exhaustive() to collect outputs"
            )
        return self._run_guided(graph, config)

    def _run_guided(self, graph, config: ArabesqueConfig) -> MiningResult:
        """Execute the workload's guided driver with the built config."""
        raise NotImplementedError


class MotifQuery(_GuidedAggregateQuery):
    """Motif frequency distribution up to ``max_size`` vertices.

    DAG-guided execution is the default, mirroring :class:`MatchQuery`
    and :class:`FSMQuery`: every canonical motif candidate of the size
    range is compiled into ONE multi-query plan DAG (cached on the
    session) and the whole distribution is answered in a single guided
    engine run.  ``.exhaustive()`` opts out into the
    exploration-agnostic oracle.  Neither strategy materializes
    per-embedding outputs — the distribution is an aggregate — so
    ``.collect(True)``/``.limit()``/``.count()`` require ``.exhaustive()``
    (where they keep their engine-level meaning), exactly like guided
    FSM.
    """

    def _run_guided(self, graph, config: ArabesqueConfig) -> MotifResult:
        from ..apps.motifs import run_guided_motifs

        guided = self._miner._run_guided(
            run_guided_motifs,
            graph,
            self._spec.max_size,
            min_size=self._spec.min_size,
            config=config,
            induced=True,
        )
        return MotifResult(guided.run, guided=True, dag=guided.dag)

    def _computation(self) -> Computation:
        from ..apps.motifs import MotifCounting

        return MotifCounting(self._spec.max_size, min_size=self._spec.min_size)


class CliqueQuery(Query):
    """Clique (or maximal-clique) enumeration."""

    def _computation(self) -> Computation:
        from ..apps.cliques import CliqueFinding
        from ..apps.maximal_cliques import MaximalCliqueFinding

        spec = self._spec
        if spec.maximal:
            return MaximalCliqueFinding(max_size=spec.max_size)
        return CliqueFinding(max_size=spec.max_size, min_size=spec.min_size)


class FSMQuery(_GuidedAggregateQuery):
    """Frequent subgraph mining with MNI support.

    Plan-guided execution is the default, mirroring :class:`MatchQuery`:
    candidate patterns are grown level-wise, each level's batch is
    compiled into one multi-query plan DAG (session-cached), and MNI
    domains are accumulated straight from the guided matches, demuxed
    per accepting leaf.  ``.exhaustive()`` opts out into the single-run
    edge-exploration oracle — the only mode that materializes
    per-embedding outputs, so ``.collect(True)``/``.limit()``/
    ``.count()`` require it.
    """

    def _run_guided(self, graph, config: ArabesqueConfig) -> FSMResult:
        from ..apps.fsm import run_guided_fsm

        guided = self._miner._run_guided(
            run_guided_fsm,
            graph,
            self._spec.support,
            max_edges=self._spec.max_edges,
            config=config,
            induced=False,
            catalog=self._miner._catalog_for(self._spec.labeled),
        )
        return FSMResult(
            guided.combined,
            support_threshold=self._spec.support,
            guided=True,
            guided_details=guided,
        )

    def _computation(self) -> Computation:
        from ..apps.fsm import FrequentSubgraphMining

        return FrequentSubgraphMining(
            self._spec.support, max_edges=self._spec.max_edges
        )


class MatchQuery(Query):
    """Retrieve every occurrence of a fixed query pattern.

    Guided execution (plan compiled and cached on the session) is the
    default; ``.exhaustive()`` opts out into the filter-process oracle.
    """

    #: Precompiled (``.plan()``) or session-compiled plan, once resolved.
    _plan: MatchingPlan | None = None

    # -- strategy options ---------------------------------------------
    def exhaustive(self) -> "MatchQuery":
        """Opt out of guided execution: run the filter-process oracle."""
        if self._plan is not None:
            raise SessionError(
                "exhaustive() conflicts with the precompiled plan() already "
                "set on this query — plans only drive guided matching"
            )
        return super().exhaustive()

    def plan(self, plan: MatchingPlan) -> "MatchQuery":
        """Reuse a precompiled plan instead of compiling (implies guided)."""
        if not isinstance(plan, MatchingPlan):
            raise SessionError(
                f"plan() needs a repro.plan.MatchingPlan "
                f"(got {type(plan).__name__})"
            )
        if self._spec.exhaustive:
            raise SessionError(
                "plan() conflicts with exhaustive() already set on this "
                "query — plans only drive guided matching"
            )
        if plan.induced != self._spec.induced:
            raise SessionError(
                f"precompiled plan has induced={plan.induced}, "
                f"but induced={self._spec.induced} was requested"
            )
        if plan.pattern != self._spec.pattern:
            raise SessionError(
                "precompiled plan was built from a different query pattern"
            )
        self._plan = plan
        return self

    # -- execution ------------------------------------------------------
    def _validate(self, graph) -> None:
        pattern = self._spec.pattern
        if not self._spec.labeled and (
            any(pattern.vertex_labels)
            or any(label for _, _, label in pattern.edges)
        ):
            raise SessionError(
                "query pattern carries labels but the graph's labels are "
                "stripped — it would silently match nothing; match on the "
                "labeled graph instead (drop unlabeled(); from the CLI, "
                "pass --labeled)"
            )

    def _resolved_plan(self) -> MatchingPlan:
        if self._plan is None:
            spec = self._spec
            self._plan = self._miner._plan_for(
                spec.pattern, spec.induced, spec.labeled
            )
        return self._plan

    def _build_config(self) -> ArabesqueConfig:
        config = super()._build_config()
        plan = self._resolved_plan() if self.is_guided else None
        if config.plan is not plan:
            config = dataclasses.replace(config, plan=plan)
        return config

    def _computation(self) -> Computation:
        from ..apps.matching import GraphMatching, GuidedMatching

        if self.is_guided:
            return GuidedMatching(self._resolved_plan())
        return GraphMatching(self._spec.pattern, induced=self._spec.induced)


class ComputeQuery(Query):
    """Escape hatch: run an arbitrary user :class:`Computation` with the
    session's cached graph state and the fluent option surface."""

    def __init__(self, miner: "Miner", computation: Computation) -> None:
        super().__init__(miner, QuerySpec("compute"))
        if not isinstance(computation, Computation):
            raise SessionError(
                "compute() needs a repro.core.Computation instance "
                f"(got {type(computation).__name__})"
            )
        self._user_computation = computation

    def _computation(self) -> Computation:
        return self._user_computation
