"""TLP — "think like a pattern": GRAMI distributed by pattern (section 3.2).

The paper derives its TLP baseline from GRAMI with "few relatively
straightforward changes ... patterns are partitioned across a set of
distributed workers".  This module does the same on top of
:mod:`repro.baselines.grami`: each level's candidate patterns are dealt to
workers round-robin, every worker evaluates its share, the frequent set is
broadcast, and the next level's candidates are generated.

What the experiment shows (Figure 7): TLP cannot scale beyond the number of
frequent patterns — "irrespective of the size of the cluster, only a few
workers (equal to the number of these frequent patterns) will be used" —
and skewed per-pattern costs overload whichever worker owns the popular
pattern.  Both effects fall straight out of the per-worker work metering
here: a level's critical path is the busiest worker's VF2 work.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.pattern import Pattern
from ..core.results import RunMetrics
from ..graph import LabeledGraph
from .grami import (
    extend_pattern,
    graph_label_triples,
    mni_support_lazy,
    single_edge_patterns,
)


@dataclass
class TlpResult:
    """Frequent patterns plus the distribution metrics of the run."""

    frequent: dict[Pattern, int] = field(default_factory=dict)
    metrics: RunMetrics | None = None
    levels: int = 0
    #: Patterns evaluated per level (the parallelism ceiling).
    candidates_per_level: list[int] = field(default_factory=list)


def run_tlp_fsm(
    graph: LabeledGraph,
    threshold: int,
    max_edges: int | None = None,
    num_workers: int = 1,
) -> TlpResult:
    """Distributed pattern-centric FSM with per-worker work metering."""
    if threshold < 1:
        raise ValueError("threshold must be >= 1")
    if num_workers < 1:
        raise ValueError("num_workers must be >= 1")

    result = TlpResult(metrics=RunMetrics(num_workers=num_workers))
    triples = graph_label_triples(graph)
    candidates = single_edge_patterns(graph)
    level = 1
    while candidates and (max_edges is None or level <= max_edges):
        step = result.metrics.new_superstep()
        result.candidates_per_level.append(len(candidates))
        frequent_now: list[Pattern] = []
        for index, pattern in enumerate(candidates):
            worker_id = index % num_workers
            evaluation = mni_support_lazy(graph, pattern, threshold)
            step.add_work(worker_id, evaluation.work)
            if evaluation.frequent:
                result.frequent[pattern] = evaluation.support
                frequent_now.append(pattern)
                # The frequent pattern is broadcast to all workers so every
                # one of them can extend it next level.
                step.broadcast_messages += 1
                step.broadcast_bytes += pattern.wire_size()
        result.levels = level
        if not frequent_now:
            break
        next_candidates: set[Pattern] = set()
        for pattern in frequent_now:
            next_candidates.update(extend_pattern(pattern, triples))
        candidates = sorted(next_candidates, key=lambda p: (p.vertex_labels, p.edges))
        level += 1
    return result

