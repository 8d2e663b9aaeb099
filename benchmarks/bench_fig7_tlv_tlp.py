"""Figure 7: scalability analysis of the alternative paradigms (TLV, TLP).

The paper runs FSM on CiteSeer (S=300) with both paradigms on 1..10 servers
and finds that neither scales: TLV drowns in messages and hotspots ("two
orders of magnitude slower" than Arabesque; "120 million messages versus
137 thousand"), TLP is capped by the number of candidate patterns and their
skew ("irrespective of the size of the cluster, only a few workers will be
used").

Reproduced here on the full-scale CiteSeer-like graph:

* both paradigms fall well short of ideal speedup;
* TLP gains nothing once workers outnumber candidate patterns (the
  parallelism ceiling measured exactly);
* TLV exchanges many times more messages than the TLE engine and is an
  order of magnitude slower in wall-clock for the same job.

Our synthetic labels are assigned without homophily, which softens the
per-pattern cost skew relative to the real CiteSeer; the TLP curve is
therefore above the paper's near-flat line but still clearly sub-linear
(docs/architecture.md, substitution 2).
"""

import time

from repro.apps import MotifCounting
from repro.baselines import run_tlp_fsm, run_tlv_fsm
from repro.bsp import CostModel, speedup_curve
from repro.core import ArabesqueConfig, run_computation
from repro.datasets import citeseer_like

from _harness import report

WORKER_COUNTS = (1, 2, 5, 10)
THRESHOLD = 300


def test_fig7_tlv_tlp_scalability(benchmark):
    graph = citeseer_like()
    model = CostModel()
    data = {}

    def run_all():
        tlv_times = {}
        tlp_times = {}
        for workers in WORKER_COUNTS:
            tlv = run_tlv_fsm(graph, THRESHOLD, max_size=3, num_workers=workers)
            tlv_times[workers] = model.makespan(tlv.metrics)
            tlp = run_tlp_fsm(graph, THRESHOLD, max_edges=3, num_workers=workers)
            tlp_times[workers] = model.makespan(tlp.metrics)
        data["tlv"] = tlv_times
        data["tlp"] = tlp_times
        # TLP's parallelism ceiling: more workers than candidate patterns.
        ceiling_small = run_tlp_fsm(graph, THRESHOLD, max_edges=3, num_workers=21)
        ceiling_large = run_tlp_fsm(graph, THRESHOLD, max_edges=3, num_workers=64)
        data["tlp_at_21"] = model.makespan(ceiling_small.metrics)
        data["tlp_at_64"] = model.makespan(ceiling_large.metrics)
        data["tlp_candidates"] = max(ceiling_large.candidates_per_level)

        # Wall-clock and message comparison against the TLE engine on a
        # *matched* job: both enumerate every vertex-induced embedding of
        # up to 3 vertices (TLV with threshold 1; TLE as motif counting).
        started = time.perf_counter()
        tlv = run_tlv_fsm(graph, 1, max_size=3, num_workers=5)
        data["tlv_wall"] = time.perf_counter() - started
        data["tlv_messages"] = tlv.metrics.total_messages
        data["tlv_embeddings"] = tlv.embeddings_processed
        started = time.perf_counter()
        tle = run_computation(
            graph,
            MotifCounting(3),
            ArabesqueConfig(num_workers=5, collect_outputs=False),
        )
        data["tle_wall"] = time.perf_counter() - started
        data["tle_messages"] = tle.total_messages
        data["tle_embeddings"] = tle.total_processed
        return data

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    tlv_speedup = speedup_curve(data["tlv"], baseline_workers=1)
    tlp_speedup = speedup_curve(data["tlp"], baseline_workers=1)
    lines = [f"{'workers':>7} {'ideal':>6} {'TLV':>6} {'TLP':>6}"]
    for workers in WORKER_COUNTS:
        lines.append(
            f"{workers:>7} {workers:>6.1f} {tlv_speedup[workers]:>6.2f} "
            f"{tlp_speedup[workers]:>6.2f}"
        )
    ceiling_gain = data["tlp_at_21"] / data["tlp_at_64"]
    lines += [
        "",
        f"TLP ceiling: {data['tlp_candidates']} candidate patterns; "
        f"64 workers vs 21 workers gains x{ceiling_gain:.2f} (ideal x3.0)",
        f"matched exploration job ({data['tlv_embeddings']:,} embeddings both): "
        f"TLV wall {data['tlv_wall']:.2f}s vs Arabesque/TLE {data['tle_wall']:.2f}s "
        f"(paper: >300s vs 7s)",
        f"messages: TLV={data['tlv_messages']:,} vs TLE={data['tle_messages']:,} "
        f"(paper: 120M vs 137K)",
        "paper (Fig 7): both curves flatten far below ideal by 5-10 nodes.",
    ]
    report("fig7", "Figure 7: TLV / TLP speedup, FSM on CiteSeer-like (S=300)", lines)

    # Shape assertions.
    assert tlv_speedup[10] < 0.6 * 10  # far from ideal
    assert tlp_speedup[10] < 0.8 * 10
    # No TLP speedup beyond the candidate-pattern count.
    assert ceiling_gain < 1.15
    # Both paradigms explored the same embeddings; TLV paid far more.
    assert data["tlv_embeddings"] == data["tle_embeddings"]
    assert data["tlv_wall"] > 3 * data["tle_wall"]
    assert data["tlv_messages"] > 3 * data["tle_messages"]
