"""Figure 12: CPU utilization breakdown during the penultimate superstep.

The paper instruments one superstep and attributes CPU to five phases:
W (writing embeddings: ODAG creation/serialization/transfer), R (reading:
ODAG extraction), G (generating candidates), C (embedding canonicality),
P (pattern aggregation).  Findings: storing/sharing/extracting embeddings
dominates (W ~25-50%), user functions are negligible, and Cliques skips P.

With ``profile_phases`` the engine wall-clock-stamps the same five phases.
G and C are each one bitset kernel call per *parent* on the exhaustive
path (extension mask, then Algorithm 2 over the whole pool), not one
Python call per candidate, so their shares sit well below the paper's
11-18% C — and below this bench's own 43% C for Cliques before the mask
kernel; the time that remains is storage (W, R) and pattern aggregation
(P).  ``R`` is mask algebra too: ODAG extraction filters each path
prefix's whole successor set through the same two kernels (canonicality,
then the pool-level φ) instead of checking paths one by one, so R no
longer leads on Cliques (full mode 62 % -> 24 %; quick mode 54 % -> 16 %)
and the freed share lands on the phases that did not change — G, P, W.

``BENCH_QUICK=1`` shrinks the graphs so CI can smoke-run the bench; the
share assertions are loose enough to hold there too.
"""

import os

from repro.apps import CliqueFinding, FrequentSubgraphMining, MotifCounting
from repro.core import ArabesqueConfig, run_computation
from repro.datasets import citeseer_like, mico_like
from repro.graph import strip_labels

from _harness import report

QUICK = os.environ.get("BENCH_QUICK", "") not in ("", "0", "false", "no")
CITESEER_SCALE, FSM_SUPPORT, MICO_SCALE = (
    (0.3, 45, 0.002) if QUICK else (1.0, 150, 0.006)
)

WORKLOADS = [
    (
        "FSM-CiteSeer",
        lambda: citeseer_like(scale=CITESEER_SCALE),
        lambda: FrequentSubgraphMining(FSM_SUPPORT, max_edges=4),
    ),
    (
        "Motifs-MiCo",
        lambda: strip_labels(mico_like(scale=MICO_SCALE)),
        lambda: MotifCounting(4),
    ),
    (
        "Cliques-MiCo",
        lambda: strip_labels(mico_like(scale=MICO_SCALE)),
        lambda: CliqueFinding(max_size=5),
    ),
]

PHASES = ("W", "R", "G", "C", "P")


def run_fig12():
    rows = {}
    for name, make_graph, make_app in WORKLOADS:
        config = ArabesqueConfig(profile_phases=True, collect_outputs=False)
        result = run_computation(make_graph(), make_app(), config)
        # Penultimate superstep, like the paper.
        steps = result.steps
        step = steps[-2] if len(steps) >= 2 else steps[-1]
        rows[name] = dict(step.phase_seconds)

    lines = [f"{'workload':<14} " + " ".join(f"{p:>6}" for p in PHASES)]
    shares = {}
    for name, phases in rows.items():
        total = sum(phases.values()) or 1.0
        share = {p: 100.0 * phases.get(p, 0.0) / total for p in PHASES}
        shares[name] = share
        lines.append(
            f"{name:<14} " + " ".join(f"{share[p]:>5.1f}%" for p in PHASES)
        )
    lines += [
        "",
        "paper (Fig 12): W dominates (48-50%; 25% for Cliques); R is small",
        "  (1-5%); C is 11-18%; P is 15-26% where pattern aggregation is",
        "  used; user-defined functions are negligible.",
    ]
    report("fig12", "Figure 12: CPU phase breakdown (penultimate superstep)", lines)

    for name, share in shares.items():
        # Storing/sharing/extracting embeddings (W+R), canonicality and
        # pattern aggregation are the bulk of the work everywhere.  The
        # bar predates the mask kernels and still holds with margin: they
        # shrank G (the excluded phase) along with C, so the sum rose
        # (88 / 95 / 85 %, from 83 / 91 / 57 % per candidate).  Reading
        # ODAGs by mask then shrank R itself — Cliques' R 62 % -> 24 %,
        # so G's share doubled there and the sum is 90 / 95 / 67 %; quick
        # mode's smallest is 72 %.  Still well clear of the bar.
        assert share["W"] + share["R"] + share["C"] + share["P"] > 40.0, name
    # Pattern aggregation is a real cost for FSM but idle for Cliques'
    # single-shape exploration is still charged pattern lookups, so just
    # check FSM spends more there proportionally.
    assert shares["FSM-CiteSeer"]["P"] >= shares["Cliques-MiCo"]["P"] - 5.0


def test_fig12_cpu_breakdown(benchmark):
    benchmark.pedantic(run_fig12, rounds=1, iterations=1)


if __name__ == "__main__":  # pragma: no cover
    run_fig12()
