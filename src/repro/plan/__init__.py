"""Pattern-aware exploration planning: compile queries into guided plans.

The planner subsystem turns a query :class:`~repro.core.pattern.Pattern`
into a :class:`MatchingPlan` — a vertex matching order with per-step
label/adjacency constraints plus symmetry-breaking order restrictions —
and the guided generator executes it inside the runtime's step tasks,
proposing only candidates that satisfy the next plan step.  See
:mod:`repro.plan.planner` (compilation), :mod:`repro.plan.symmetry`
(automorphism restrictions), :mod:`repro.plan.guided` (execution),
:mod:`repro.plan.dag` (multi-query plan DAGs: one shared-prefix
exploration for a whole pattern batch), :mod:`repro.plan.stepper` (the
one ``zero_pool``/``check``/``advance`` shape the runtime drives —
exhaustive, single plan and DAG alike), and :mod:`repro.plan.fsm_guide`
(per-candidate plans + MNI domain math for plan-guided FSM).  The
statistics-driven half lives in :mod:`repro.plan.stats` (the per-graph
:class:`GraphCatalog`) and :mod:`repro.plan.cost` (selectivity-chain
order costing + the exhaustive/beam order search).
"""

from .cost import (
    OrderChoice,
    OrderEstimate,
    StepEstimate,
    choose_order,
    estimate_order,
)
from .dag import (
    DagMaskBundle,
    DagNode,
    DagStepper,
    PlanDAG,
    build_plan_dag,
    mask_bundle,
    restrict_dag,
)
from .fsm_guide import (
    compile_candidate_dag,
    domain_sets_from_matches,
    label_triples,
    mni_support_from_domains,
    one_edge_extensions,
    single_edge_candidates,
)
from .guided import (
    PlanStepper,
    guided_survivors,
    match_mapping,
)
from .planner import MatchingPlan, PlanError, PlanStep, compile_plan
from .shapes import NAMED_SHAPES, read_pattern_file, resolve_query
from .stats import GraphCatalog, build_catalog
from .stepper import ExhaustiveStepper, make_stepper
from .symmetry import (
    pattern_automorphisms,
    symmetry_breaking_restrictions,
)

__all__ = [
    "DagMaskBundle",
    "DagNode",
    "DagStepper",
    "ExhaustiveStepper",
    "GraphCatalog",
    "MatchingPlan",
    "NAMED_SHAPES",
    "OrderChoice",
    "OrderEstimate",
    "PlanDAG",
    "PlanError",
    "PlanStep",
    "PlanStepper",
    "StepEstimate",
    "build_catalog",
    "build_plan_dag",
    "choose_order",
    "estimate_order",
    "compile_candidate_dag",
    "compile_plan",
    "restrict_dag",
    "domain_sets_from_matches",
    "guided_survivors",
    "label_triples",
    "make_stepper",
    "mask_bundle",
    "match_mapping",
    "mni_support_from_domains",
    "one_edge_extensions",
    "pattern_automorphisms",
    "read_pattern_file",
    "resolve_query",
    "single_edge_candidates",
    "symmetry_breaking_restrictions",
]
