"""Figure 10: slowdown factor when ODAGs are disabled.

The paper reruns the five Table 3 workloads with plain embedding lists and
reports 1.16x - 4.18x longer execution: compact ODAGs cost CPU to build and
extract but save far more in serialization, transfer, and GC.

In this reproduction the communication savings appear in the simulated
makespan (list mode ships every embedding as a message; ODAG mode ships
array entries plus one broadcast), which is the number the paper's cluster
measured.  In-process wall-clock is also reported for transparency: at this
scale it mostly reflects Python object overheads, where lists are cheaper —
exactly the "first exploration steps of very large and sparse graphs"
regime the paper says favors embedding lists (section 6.3 / Table 5).
"""

from repro.apps import CliqueFinding, FrequentSubgraphMining, MotifCounting
from repro.bsp import CostModel
from repro.core import ArabesqueConfig, run_computation
from repro.core.storage import LIST_STORAGE, ODAG_STORAGE
from repro.datasets import citeseer_like, mico_like, youtube_like
from repro.graph import strip_labels

from _harness import report

WORKLOADS = [
    (
        "Motifs-MiCo",
        lambda: strip_labels(mico_like(scale=0.006)),
        lambda: MotifCounting(3),
    ),
    (
        "FSM-CiteSeer",
        lambda: citeseer_like(),
        lambda: FrequentSubgraphMining(100, max_edges=4),
    ),
    (
        "Cliques-MiCo",
        lambda: strip_labels(mico_like(scale=0.006)),
        lambda: CliqueFinding(max_size=4),
    ),
    (
        "Motifs-Youtube",
        lambda: strip_labels(youtube_like(scale=0.00015)),
        lambda: MotifCounting(3),
    ),
]

SERVERS = 20


def test_fig10_no_odag_slowdown(benchmark):
    model = CostModel()
    rows = {}

    def run_all():
        for name, make_graph, make_app in WORKLOADS:
            graph = make_graph()
            measured = {}
            for storage in (ODAG_STORAGE, LIST_STORAGE):
                config = ArabesqueConfig(
                    num_workers=SERVERS, storage=storage, collect_outputs=False
                )
                result = run_computation(graph, make_app(), config)
                measured[storage] = {
                    "makespan": model.makespan(result),
                    "wall": result.wall_seconds,
                    "bytes": result.total_bytes + result.total_broadcast_bytes,
                }
            rows[name] = measured
        return rows

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    lines = [
        f"{'workload':<16} {'slowdown (sim)':>14} {'wall ratio':>10} "
        f"{'bytes ratio':>11}"
    ]
    slowdowns = {}
    for name, measured in rows.items():
        slowdown = (
            measured[LIST_STORAGE]["makespan"] / measured[ODAG_STORAGE]["makespan"]
        )
        wall_ratio = measured[LIST_STORAGE]["wall"] / measured[ODAG_STORAGE]["wall"]
        bytes_ratio = measured[LIST_STORAGE]["bytes"] / max(
            measured[ODAG_STORAGE]["bytes"], 1
        )
        slowdowns[name] = slowdown
        lines.append(
            f"{name:<16} {slowdown:>14.2f} {wall_ratio:>10.2f} {bytes_ratio:>11.2f}"
        )
    lines += [
        "",
        "paper (Fig 10, 20 servers): Motifs-MiCo 1.16x, FSM-CiteSeer 4.18x,",
        "  Cliques-MiCo 1.77x, Motifs-Youtube 1.19x, FSM-Patents 1.30x.",
    ]
    report("fig10", "Figure 10: slowdown without ODAGs (list storage)", lines)

    # Disabling ODAGs never speeds up the simulated cluster, and the
    # storage-heavy workloads land in the paper's 1.2x-4.2x band.  (The
    # paper's worst case, FSM at depth 7, stores billions of embeddings;
    # our FSM depth is capped at 4, so its penalty is small — the
    # exhaustive motif workloads take the storage-heavy role here.)
    for name, slowdown in slowdowns.items():
        assert slowdown >= 0.95, name
    assert max(slowdowns.values()) > 1.4
    assert max(slowdowns.values()) < 4.5
