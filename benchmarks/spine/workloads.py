"""Declarative workload specs: which input, which queries, which oracle.

A batch workload is a list of facade queries run as one *pass* on a warm
``Miner``; the first query is the workload's **primary** operation (also
the one the CLI measurement runs), the second its **secondary** operation.
``service-mix`` has request classes instead of queries (see
:mod:`service_mix`): primary = ``hit``, secondary = ``miss``.

Why these four (details in README.md):

* ``dense-guided`` — degree > SMALL_POOL_DEGREE, so the mask kernels
  (``DagStepper.step``, ``guided_survivors``) do almost all the work.
* ``sparse-fsm`` — the same guided engine on tiny pools: row fallback,
  many patterns, DAG compile, MNI domains, aggregation, isomorphism.
* ``exhaustive-bsp`` — the paper's own path with the planner bypassed:
  canonicality, ODAG, process backend, barrier merge, snapshots.
* ``service-mix`` — the only workload where the service and session caches
  carry the latency; server in its own process.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import inputs
import oracles

#: FSM support threshold, frozen with PA_SPARSE so 31 patterns are
#: frequent (calibration: θ=45 → 46 patterns / 2.1 s, θ=70 → 16 / 0.7 s).
THETA = 55
QUICK_THETA = 20
MAX_EDGES = 3
CLIQUE_SIZE = 4


class Truth:
    """Expected answers for one input file, from :mod:`oracles` (lazy).

    ``corrupt`` (the ``--self-test`` switch) adds one to the expected
    square and 4-clique counts so the run must report failures.
    """

    def __init__(self, path: str, theta: int, corrupt: bool = False) -> None:
        self.labels, self.adjacency = oracles.load_adjacency(path)
        self.theta = theta
        self.corrupt = corrupt
        #: The program's own loaded graph (the worker sets it): GraMi's input.
        self.graph = None
        self._memo: dict[str, Any] = {}

    def _once(self, key: str, compute: Callable[[], Any]) -> Any:
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def motif3(self, labeled: bool) -> dict[tuple, int]:
        return self._once(f"motif3-{labeled}", lambda: oracles.motif3_counts(
            self.labels, self.adjacency, labeled))

    def squares(self) -> int:
        return self._once("squares", lambda: oracles.induced_square_count(
            self.adjacency)) + self.corrupt

    def cliques(self) -> dict[int, int]:
        counts = dict(self._once("cliques", lambda: oracles.clique_counts(
            self.adjacency, CLIQUE_SIZE)))
        counts[CLIQUE_SIZE] += self.corrupt
        return counts

    def frequent_edges(self) -> dict[tuple[int, int], int]:
        supports = self._once("edges", lambda: oracles.single_edge_supports(
            self.labels, self.adjacency))
        return {pair: s for pair, s in supports.items() if s >= self.theta}

    def grami(self) -> dict:
        """GraMi's frequent table (supports clamped at θ: it stops counting
        as soon as frequency is certain)."""
        from repro.baselines import run_grami

        return self._once("grami", lambda: dict(run_grami(
            self.graph, self.theta, max_edges=MAX_EDGES).frequent))


def _differs(what: str, got: Any, expected: Any) -> list[str]:
    return [] if got == expected else [f"{what}: got {got!r}, expected {expected!r}"]


def _motif_table(result) -> dict[tuple, int]:
    return {
        oracles.pattern_key(p.vertex_labels, p.edges): count
        for p, count in result.counts().items()
    }


def check_motifs(labeled: bool):
    def check(result, truth: Truth) -> list[str]:
        return _differs("motif counts", _motif_table(result), truth.motif3(labeled))
    return check


def check_squares(result, truth: Truth) -> list[str]:
    return _differs("square count", result.num_matches, truth.squares())


def check_label0_triangles(result, truth: Truth) -> list[str]:
    expected = truth.motif3(True).get(("triangle", (0, 0, 0)), 0)
    return _differs("label-0 triangle count", result.num_matches, expected)


def check_cliques(result, truth: Truth) -> list[str]:
    got = {size: len(found) for size, found in result.by_size().items()}
    return _differs("clique counts by size", got, truth.cliques())


def check_fsm(result, truth: Truth) -> list[str]:
    """One-edge supports against the benchmark's own MNI counter; the
    whole table against GraMi."""
    patterns = result.patterns()
    got_edges = {
        tuple(sorted(p.vertex_labels)): support
        for p, support in patterns.items() if p.num_edges == 1
    }
    return _differs(
        "one-edge MNI supports", got_edges, truth.frequent_edges()
    ) + _differs(
        "frequent pattern table vs GraMi",
        {p: min(truth.theta, s) for p, s in patterns.items()}, truth.grami(),
    )


@dataclass(frozen=True)
class Query:
    name: str
    #: ``(miner, scratch dir, theta) -> facade query`` (nothing runs yet).
    build: Callable[[Any, Path, int], Any]
    #: The typed accessor a user reads the answer through.
    view: Callable[[Any], Any]
    check: Callable[[Any, Truth], list[str]]


@dataclass(frozen=True)
class Workload:
    name: str
    graph: inputs.GraphSpec
    quick_graph: inputs.GraphSpec
    queries: tuple[Query, ...]
    #: ``(graph file, scratch dir, theta) -> argv`` after ``python -m repro``
    #: for the primary query, and the line its output must contain.
    cli: Callable[[str, Path, int], list[str]]
    cli_expect: Callable[[Truth], str]


def _count(result) -> int:
    return result.num_matches


DENSE_GUIDED = Workload(
    "dense-guided", inputs.PA_DENSE, inputs.QUICK_DENSE,
    (
        Query("motifs3-unlabeled",
              lambda m, tmp, theta: m.motifs(3).unlabeled(),
              lambda r: r.counts(), check_motifs(False)),
        Query("square-unlabeled",
              lambda m, tmp, theta: m.match("square").unlabeled(),
              _count, check_squares),
        Query("triangle-labeled",
              lambda m, tmp, theta: m.match("triangle"),
              _count, check_label0_triangles),
    ),
    lambda path, tmp, theta: ["motifs", path, "--max-size", "3"],
    lambda truth:
        f"count={truth.motif3(False)[('wedge', 0, (0, 0))]:,}",
)

SPARSE_FSM = Workload(
    "sparse-fsm", inputs.PA_SPARSE, inputs.QUICK_SPARSE,
    (
        Query("fsm",
              lambda m, tmp, theta: m.fsm(support=theta, max_edges=MAX_EDGES),
              lambda r: r.patterns(), check_fsm),
        Query("motifs3-labeled",
              lambda m, tmp, theta: m.motifs(3),
              lambda r: r.counts(), check_motifs(True)),
    ),
    lambda path, tmp, theta: ["fsm", path, "--support", str(theta),
                              "--max-edges", str(MAX_EDGES)],
    lambda truth: f"fsm (guided): support >= {truth.theta}, "
                  f"{len(truth.grami())} frequent patterns",
)

EXHAUSTIVE_BSP = Workload(
    "exhaustive-bsp", inputs.PA_DENSE, inputs.QUICK_DENSE,
    (
        Query("cliques4-process-checkpoint",
              lambda m, tmp, theta: m.cliques(CLIQUE_SIZE).storage("odag")
              .workers(2).backend("process").checkpoint(tmp / "ckpt"),
              lambda r: r.by_size(), check_cliques),
        Query("motifs3-exhaustive",
              lambda m, tmp, theta: m.motifs(3).unlabeled().exhaustive()
              .storage("odag"),
              lambda r: r.counts(), check_motifs(False)),
    ),
    lambda path, tmp, theta: [
        "cliques", path, "--max-size", str(CLIQUE_SIZE), "--min-size", "1",
        "--storage", "odag", "--workers", "2", "--backend", "process",
        "--checkpoint-dir", str(tmp / "ckpt-cli")],
    lambda truth:
        f"size {CLIQUE_SIZE}: {truth.cliques()[CLIQUE_SIZE]:,} cliques",
)

#: ``service-mix`` has no facade queries; :mod:`service_mix` owns its plan.
SERVICE_MIX = Workload(
    "service-mix", inputs.PA_SPARSE, inputs.QUICK_SPARSE, (),
    lambda path, tmp, theta: [], lambda truth: "",
)

WORKLOADS = {w.name: w for w in
             (DENSE_GUIDED, SPARSE_FSM, EXHAUSTIVE_BSP, SERVICE_MIX)}
