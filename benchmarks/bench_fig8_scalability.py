"""Table 3 + Figure 8: scalability of Arabesque on five workloads.

The paper runs each workload on 1/5/10/15/20 servers and plots speedup
relative to the 5-server configuration.  The reproduced shape: all five
workloads scale, but "applications generating more intermediate state and
more patterns scale less" — FSM (many patterns, many ODAGs, large
broadcasts) flattens earlier than Cliques (single pattern per step), with
Motifs in between.

Each configuration here is a real exploration run at that worker count;
the simulated cost model reads the run's metered supersteps and prices
them into makespans.  Every number printed is a deterministic function of
those meters, so the output file is byte-identical run to run — CI runs
this script (``python bench_fig8_scalability.py``) to keep the engine's
meters and their one reader wired together.
"""

from repro.apps import CliqueFinding, FrequentSubgraphMining, MotifCounting
from repro.bsp import CostModel, speedup_curve
from repro.core import ArabesqueConfig, run_computation
from repro.datasets import citeseer_like, mico_like, patents_like, youtube_like
from repro.graph import strip_labels

from _harness import report

SERVER_COUNTS = (1, 5, 10, 15, 20)

WORKLOADS = [
    (
        "Motifs-MiCo",
        lambda: strip_labels(mico_like(scale=0.008)),
        lambda: MotifCounting(3),
    ),
    (
        "FSM-CiteSeer",
        lambda: citeseer_like(),
        lambda: FrequentSubgraphMining(150, max_edges=4),
    ),
    (
        "Cliques-MiCo",
        lambda: strip_labels(mico_like(scale=0.008)),
        lambda: CliqueFinding(max_size=4),
    ),
    (
        "Motifs-Youtube",
        lambda: strip_labels(youtube_like(scale=0.0002)),
        lambda: MotifCounting(3),
    ),
    (
        "FSM-Patents",
        lambda: patents_like(scale=0.0008),
        lambda: FrequentSubgraphMining(18, max_edges=3),
    ),
]


def run_fig8():
    model = CostModel()
    makespans: dict[str, dict[int, float]] = {}
    for name, make_graph, make_app in WORKLOADS:
        graph = make_graph()
        times = {}
        for servers in SERVER_COUNTS:
            config = ArabesqueConfig(num_workers=servers, collect_outputs=False)
            result = run_computation(graph, make_app(), config)
            times[servers] = model.makespan(result)
        makespans[name] = times

    lines = [
        f"{'workload':<16} "
        + " ".join(f"{s:>8}" for s in SERVER_COUNTS)
        + "   (simulated seconds)"
    ]
    for name, times in makespans.items():
        lines.append(
            f"{name:<16} " + " ".join(f"{times[s]:>8.3f}" for s in SERVER_COUNTS)
        )
    lines.append("")
    lines.append(
        f"{'speedup vs 5':<16} " + " ".join(f"{s:>8}" for s in SERVER_COUNTS)
    )
    curves = {}
    for name, times in makespans.items():
        curve = speedup_curve(times, baseline_workers=5)
        curves[name] = curve
        lines.append(
            f"{name:<16} " + " ".join(f"{curve[s]:>8.2f}" for s in SERVER_COUNTS)
        )
    lines += [
        "",
        "paper (Fig 8, speedup at 20 servers vs 5): Motifs-MiCo ~3.0,",
        "  FSM-CiteSeer ~2.6, Cliques-MiCo ~3.9, Motifs-Youtube ~3.1,",
        "  FSM-Patents ~2.1 (ideal: 4.0).",
    ]
    report("fig8", "Table 3 / Figure 8: Arabesque scalability", lines)

    for name, curve in curves.items():
        # Everything scales: 20 servers beat 5.
        assert curve[20] > 1.5, name
        # Nothing is super-linear.
        assert curve[20] <= 4.2, name
    # The pattern-rich FSM workloads scale worse than Cliques (single
    # unlabeled-shape pattern per step) — the ODAG-broadcast/deserialize
    # ceiling of section 6.3.
    assert curves["FSM-CiteSeer"][20] < curves["Cliques-MiCo"][20]


def test_fig8_arabesque_scalability(benchmark):
    benchmark.pedantic(run_fig8, rounds=1, iterations=1)


if __name__ == "__main__":  # pragma: no cover
    run_fig8()
