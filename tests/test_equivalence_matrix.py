"""One declared equivalence matrix: what a run observes does not depend on
how it is partitioned, executed or stored (docs/architecture.md, the first
"Invariant to keep").  ``WORKLOADS`` rows ``(id, graph, run, oracle)``,
and a hook-stripped twin of each hooked row, run in the ``SWEEPS`` cells,
each distinct run once; every cell's record must equal its reference's,
and each row's reference cell its oracle: ESU, VF2, Bron–Kerbosch or GraMi.
"""

import dataclasses
import functools
import multiprocessing
from collections import Counter
from contextlib import nullcontext
from tempfile import TemporaryDirectory
from typing import Callable, NamedTuple
from unittest import mock

import pytest

from repro.apps import (
    CliqueFinding, DagMotifCounting, DagPatternDomains, FrequentCliqueMining,
    FrequentSubgraphMining, GraphCollection, GraphMatching, GuidedMatching,
    InexactMatching, MaximalCliqueFinding, MotifCounting, TransactionalFSM,
    enumerate_motif_patterns, fsm as fsm_app, frequent_clique_patterns,
    frequent_patterns, motif_counts,
)
from repro.apps.fsm import run_guided_fsm
from repro.apps.transactional_fsm import transactional_frequent_patterns
from repro.baselines import (count_motifs_up_to, enumerate_cliques,
                              enumerate_maximal_cliques, run_grami)
from repro.baselines.esu import enumerate_connected_subgraphs
from repro.core import ArabesqueConfig, Pattern, StepStats, run_computation
from repro.datasets import citeseer_like, mico_like, skewed_label_graph
from repro.graph import assign_labels, gnm_random_graph, strip_labels
from repro.isomorphism import SubgraphMatcher, distinct_embeddings
from repro.plan import NAMED_SHAPES, build_catalog, build_plan_dag, compile_plan
from repro.plan.fsm_guide import compile_candidate_dag
from repro.runtime import ProcessBackend
from repro.runtime.tasks import _extension_filter

from test_edge_mode import CollectEdgeSubgraphs, connected_edge_sets
from test_runtime import CollectSets
from test_terminal_level import PerChildDagDomains


def labeled(vertices, edges, seed, labels, label_seed=None):
    graph = gnm_random_graph(vertices, edges, seed=seed)
    return assign_labels(graph, labels, seed=seed if label_seed is None else label_seed)


#: The member graphs of the transactional-FSM collection.
TRANSACTIONS = [(5, 7, seed, 2, seed + 50) for seed in (1, 2, 3)]
COLLECTION = GraphCollection([labeled(*member) for member in TRANSACTIONS])

GRAPHS = {
    "g40": lambda: labeled(40, 110, 3, 2),
    "g40u": lambda: strip_labels(labeled(40, 110, 3, 2)),
    "g35u": lambda: strip_labels(gnm_random_graph(35, 90, seed=23)),
    "g30u": lambda: strip_labels(gnm_random_graph(30, 70, seed=29)),
    "g30u-80": lambda: strip_labels(gnm_random_graph(30, 80, seed=31)),
    "g24-5u": lambda: strip_labels(labeled(24, 60, 5, 3)),
    "g24-6": lambda: labeled(24, 60, 6, 3),
    "g24-8": lambda: labeled(24, 60, 8, 3),
    "g24-10": lambda: labeled(24, 60, 10, 3),
    "g20u": lambda: strip_labels(gnm_random_graph(20, 70, seed=3)),
    "g14": lambda: gnm_random_graph(14, 35, seed=2),
    "g12": lambda: gnm_random_graph(12, 26, seed=7),
    "g10": lambda: labeled(10, 22, 11, 2, label_seed=12),
    "g10e": lambda: gnm_random_graph(10, 18, seed=3),
    "collection": lambda: COLLECTION.union_graph,
    "skewed": skewed_label_graph,
    "citeseer": lambda: citeseer_like(scale=0.3),
    "mico": lambda: mico_like(scale=0.004),
    "mico-u": lambda: strip_labels(mico_like(scale=0.004)),
}
graph = functools.cache(lambda name: GRAPHS[name]())


# -- runs: ``run(graph, config, backend, strip)``, ``strip`` the hook a twin
# takes away (the engine reads hooks off the computation instance) ---------
def _run(graph, computation, config, backend, strip):
    if strip:  # a stripped terminal hook shows as total_batched == 0
        setattr(computation, strip, None)
        assert strip != "filter_extensions" or _extension_filter(computation) is None
    return run_computation(graph, computation, config, backend=backend)


def explore(cls, *args, **kwargs):
    """``cls(*args, **kwargs)`` on the extend-everywhere path."""
    return lambda graph, *knobs: _run(graph, cls(*args, **kwargs), *knobs)


def guided(cls, compile_guide):
    """``cls(guide)`` run with ``guide = compile_guide(graph)`` as its plan."""
    compile_guide = functools.cache(compile_guide)
    def run(graph, config, backend, strip):
        guide = compile_guide(graph)
        config = dataclasses.replace(config, plan=guide)
        return _run(graph, cls(guide), config, backend, strip)
    return run


def guided_fsm(support, max_edges, costed=False):
    """The combined record; its twin swaps the stripped class in by name."""
    def run(graph, config, backend, strip):
        assert backend is None, "guided FSM builds its own backend"
        catalog = build_catalog(graph) if costed else None
        provide = functools.partial(compile_candidate_dag, catalog=catalog)
        cls = PerChildDagDomains if strip else DagPatternDomains
        with mock.patch.object(fsm_app, "DagPatternDomains", cls):
            return run_guided_fsm(graph, support, max_edges, config=config,
                                  dag_provider=provide, catalog=catalog).combined
    return run


SQUARE, TRIANGLE, DIAMOND = (
    NAMED_SHAPES[name].canonical() for name in ("square", "triangle", "diamond")
)
#: The 1-0-1 wedge the cost-based planner anchors at its rare leaves.
WEDGE_101 = Pattern((1, 0, 1), ((0, 1, 0), (1, 2, 0))).canonical()
PATH_010 = Pattern((0, 1, 0), ((0, 1, 0), (1, 2, 0)))


def plan_for(pattern, induced=True):
    return lambda graph: compile_plan(pattern, induced=induced)


def motif_dag(costed=False):
    """Every 3-vertex motif in one DAG.  ``costed`` (also ``guided_fsm``'s) compiles
    with the graph's catalog as the ``Miner`` facade does: harmonized orders."""
    return lambda graph: build_plan_dag(enumerate_motif_patterns(graph, 3), induced=True,
                                        catalog=build_catalog(graph) if costed else None)


# -- oracles: ``(baseline, view)``, ``view(run) == baseline(graph)`` --------
def outputs(run):
    return sorted(run.outputs)


def esu(max_size, min_size=3):
    return lambda g: count_motifs_up_to(g, max_size, min_size), motif_counts


def vf2(pattern, induced=True):
    return lambda g: sorted(tuple(sorted(members)) for members in distinct_embeddings(
        pattern.vertex_labels, pattern.edge_dict(), g, induced=induced)), outputs


def bron_kerbosch(max_size, min_size=1):
    return lambda g: [c for c in enumerate_cliques(g, max_size)
                      if len(c) >= min_size], outputs


def bron_kerbosch_maximal(max_size):
    return lambda g: sorted(tuple(sorted(c)) for c in enumerate_maximal_cliques(g)
                            if len(c) <= max_size), outputs


def grami(support, max_edges):
    return (lambda g: set(run_grami(g, support, max_edges).frequent),
            lambda run: set(frequent_patterns(run, support)))


def grami_cliques(support, max_size):
    """GraMi's frequent patterns that are cliques, plus the frequent labels."""
    def cliques(graph):
        mined = run_grami(graph, support, max_edges=max_size * (max_size - 1) // 2)
        return {p for p in mined.frequent if p.num_vertices <= max_size
                and 2 * p.num_edges == p.num_vertices * (p.num_vertices - 1)} | {
            Pattern((label,), ()).canonical()
            for label, n in graph.vertex_label_histogram().items() if n >= support}
    return cliques, lambda run: set(frequent_clique_patterns(run, support))


def grami_per_transaction(support, max_edges):
    """A pattern's support: how many members GraMi finds it in at threshold 1."""
    def frequent(graph):
        held = Counter(p for member in TRANSACTIONS
                       for p in run_grami(labeled(*member), 1, max_edges).frequent)
        return {p: n for p, n in held.items() if n >= support}
    return frequent, lambda run: transactional_frequent_patterns(run, support)


def vf2_label_cost(pattern, budget):
    """VF2 on the label-free shape; a vertex set costs its cheapest mapping."""
    def matches(graph):
        shape = (0,) * pattern.num_vertices, dict.fromkeys(pattern.edge_dict(), 0)
        cheapest, unlabeled = {}, strip_labels(graph)
        for mapping in SubgraphMatcher(*shape, unlabeled, induced=True).match_iter():
            cost = float(sum(label != graph.vertex_label(v)
                             for label, v in zip(pattern.vertex_labels, mapping)))
            members = tuple(sorted(mapping))
            cheapest[members] = min(cost, cheapest.get(members, cost))
        return sorted(item for item in cheapest.items() if item[1] <= budget)
    return matches, outputs


ESU_VERTEX_SETS = (
    lambda g: sorted(m for k in (1, 2, 3) for m in enumerate_connected_subgraphs(g, k)),
    lambda run: sorted(tuple(sorted(s)) for s in run.outputs),
)
#: Connected edge sets of up to three edges, each emitted once.
BRUTE_FORCE_EDGE_SETS = (
    lambda g: (connected_edge_sets(g, 3), len(connected_edge_sets(g, 3))),
    lambda run: (set(run.outputs), run.num_outputs),
)


# -- the table ---------------------------------------------------------------
class Workload(NamedTuple):
    id: str
    graph: str
    run: Callable
    oracle: tuple
    #: The hooks each of which gets a hook-stripped twin row.
    twins: tuple = ()


TERMINAL, POOL = ("process_terminal",), ("filter_extensions",)
MOTIFS, MOTIFS_FROM_1 = explore(MotifCounting, 3), explore(MotifCounting, 3, min_size=1)
CLIQUES_3 = explore(CliqueFinding, 3, min_size=2)
GUIDED_MOTIFS = guided(DagMotifCounting, motif_dag())
GUIDED_SQUARE = guided(GuidedMatching, plan_for(SQUARE))

WORKLOADS = [
    Workload("motifs", "g40", MOTIFS, esu(3), TERMINAL),
    Workload("motifs-from-1", "g40", MOTIFS_FROM_1, esu(3, 1), TERMINAL),
    Workload("cliques-3", "g40", CLIQUES_3, bron_kerbosch(3, 2), TERMINAL),
    Workload("motifs", "g20u", MOTIFS, esu(3), TERMINAL + POOL),
    Workload("motifs-from-1", "g20u", MOTIFS_FROM_1, esu(3, 1), TERMINAL),
    Workload("cliques-3", "g20u", CLIQUES_3, bron_kerbosch(3, 2), TERMINAL),
    Workload("cliques-4", "g20u", explore(CliqueFinding, 4), bron_kerbosch(4), POOL),
    Workload("maximal-cliques-4", "g20u", explore(MaximalCliqueFinding, 4),
             bron_kerbosch_maximal(4), POOL),
    Workload("motifs", "g24-5u", MOTIFS, esu(3), TERMINAL),
    Workload("motifs", "g14", MOTIFS, esu(3), TERMINAL),
    # One oracle cell each; the census's hooks are swept on the graphs above.
    Workload("motifs", "mico-u", MOTIFS, esu(3)),
    Workload("motifs", "mico", MOTIFS, esu(3)),
    Workload("motifs", "g10", MOTIFS, esu(3), TERMINAL),
    Workload("cliques-3", "g10", CLIQUES_3, bron_kerbosch(3, 2), TERMINAL),
    Workload("maximal-cliques-3", "g10", explore(MaximalCliqueFinding, 3),
             bron_kerbosch_maximal(3), POOL),
    Workload("frequent-cliques", "g10", explore(FrequentCliqueMining, 2, max_size=3),
             grami_cliques(2, 3), POOL),
    Workload("vertex-sets", "g12", explore(CollectSets, 3), ESU_VERTEX_SETS),
    Workload("fsm", "g10", explore(FrequentSubgraphMining, 2, max_edges=2), grami(2, 2)),
    Workload("fsm", "citeseer", explore(FrequentSubgraphMining, 40, max_edges=2),
             grami(40, 2)),
    Workload("transactional-fsm", "collection",
             explore(TransactionalFSM, COLLECTION, support_threshold=2, max_edges=2),
             grami_per_transaction(2, 2)),
    Workload("edge-sets", "g10e", explore(CollectEdgeSubgraphs, 3), BRUTE_FORCE_EDGE_SETS),
    Workload("match-path", "g10", explore(GraphMatching, PATH_010), vf2(PATH_010)),
    Workload("inexact-match", "g10", explore(InexactMatching, PATH_010, budget=1.0),
             vf2_label_cost(PATH_010, 1.0)),
    Workload("match-triangle", "g24-5u", explore(GraphMatching, TRIANGLE), vf2(TRIANGLE)),
    Workload("match-wedge-101", "skewed", explore(GraphMatching, WEDGE_101),
             vf2(WEDGE_101)),
    Workload("guided-motifs", "g40", GUIDED_MOTIFS, esu(3), TERMINAL),
    Workload("costed-motifs", "g24-10", guided(DagMotifCounting, motif_dag(costed=True)),
             esu(3), TERMINAL),
    Workload("guided-square", "g40u", GUIDED_SQUARE, vf2(SQUARE), TERMINAL),
    Workload("guided-square", "g35u", GUIDED_SQUARE, vf2(SQUARE), TERMINAL),
    Workload("guided-square", "g24-5u", GUIDED_SQUARE, vf2(SQUARE), TERMINAL),
    Workload("guided-triangle", "g30u", guided(GuidedMatching, plan_for(TRIANGLE)),
             vf2(TRIANGLE), TERMINAL),
    Workload("guided-diamond-mono", "g30u-80",
             guided(GuidedMatching, plan_for(DIAMOND, induced=False)),
             vf2(DIAMOND, induced=False), TERMINAL),
    Workload("guided-wedge-101", "skewed", guided(GuidedMatching, lambda g: compile_plan(
        WEDGE_101, catalog=build_catalog(g))), vf2(WEDGE_101), TERMINAL),
    Workload("guided-fsm", "g40", guided_fsm(2, 3), grami(2, 3), TERMINAL),
    Workload("costed-fsm", "g24-6", guided_fsm(3, 3, costed=True), grami(3, 3), TERMINAL),
    Workload("costed-fsm", "g24-8", guided_fsm(3, 2, costed=True), grami(3, 2), TERMINAL),
    Workload("costed-fsm", "g24-10", guided_fsm(3, 2, costed=True), grami(3, 2), TERMINAL),
]
ROWS = {f"{w.id}@{w.graph}": w for w in WORKLOADS}
assert len(ROWS) == len(WORKLOADS), "one row per (id, graph)"


# -- the cells ---------------------------------------------------------------
class Cell(NamedTuple):
    #: ``serial``, ``thread``, ``process``, or ``spawn``: a ProcessBackend
    #: on the spawn start method, handed to the engine as ``backend=``.
    backend: str = "serial"
    workers: int = 1
    storage: str = "odag"
    two_level: bool = True
    checkpoint: bool = False

    def __str__(self):
        return "-".join([self.backend, f"{self.workers}w", self.storage]
                        + ["one-level"] * (not self.two_level)
                        + ["checkpoint"] * self.checkpoint)


def grid(backends=("serial",), workers=(1,), storages=("odag",), two_level=(True,)):
    """The product, less the parallel backends' one-worker cells: those
    hand the step to the serial loop, so their run is the serial cell's."""
    return [Cell(b, w, s, t) for b in backends for w in workers
            for s in storages for t in two_level if w > 1 or b == "serial"]


BACKENDS, SPOOLED = ("serial", "thread", "process"), ("list", "odag", "spill")

#: ``(rows, cells)``: a row runs in the union of the cells it is listed with.
SWEEPS = [
    # Exhaustive last level from masks; two-level aggregation off, like a
    # twin, is swept serially (this holds the storage × workers ×
    # two-level axes once swept on mico).
    (["motifs@g40", "motifs-from-1@g40", "cliques-3@g40", "motifs@g20u",
      "motifs-from-1@g20u", "cliques-3@g20u"],
     grid(BACKENDS, (1, 2, 3), SPOOLED) + grid(workers=(1, 2, 3), storages=SPOOLED,
                                               two_level=(False,))),
    # The pool-level φ.
    (["cliques-4@g20u", "maximal-cliques-4@g20u", "motifs@g20u"],
     grid(BACKENDS, (1, 2, 3), SPOOLED)),
    # Guided last level from masks.
    (["guided-motifs@g40", "guided-square@g40u", "guided-fsm@g40"],
      grid(BACKENDS, (1, 2, 3), SPOOLED)),
    # Checkpointing, and the spawn start method.
    (["motifs@g40"], [Cell(checkpoint=True), Cell("spawn", 2),
                      Cell("process", 3, "spill", checkpoint=True)]),
    (["guided-motifs@g40"], [Cell("spawn", 2, "list")]),
    (["guided-motifs@g40", "guided-square@g40u"],
     [Cell(storage="list", checkpoint=True), Cell("thread", 2, checkpoint=True)]),
    (["cliques-3@g10"], [Cell(checkpoint=True)]),
    # The census on mico, and FSM on citeseer.
    (["motifs@mico-u", "motifs@mico"], [Cell()]),
    (["fsm@citeseer"], grid(storages=("odag", "list"))),
    # Every bundled application on every backend.
    (["motifs@g10", "cliques-3@g10", "maximal-cliques-3@g10", "frequent-cliques@g10",
      "fsm@g10", "transactional-fsm@collection", "match-path@g10", "inexact-match@g10"],
     grid(BACKENDS, (1, 2, 4))),
    (["vertex-sets@g12"], grid(BACKENDS, (1, 3))  # + the one-worker hand-off
     + [Cell("thread"), Cell("process")]),
    (["motifs@g24-5u", "match-triangle@g24-5u"], grid(BACKENDS, (2,))),
    (["guided-square@g24-5u"], grid(BACKENDS, (2,), ("list",))),
    # Guided match, motifs and FSM.
    (["guided-square@g35u"], grid(("serial", "thread"), (1, 2, 5))),
    (["guided-triangle@g30u"], grid(("serial", "process"), (2,))),
    (["guided-diamond-mono@g30u-80"], grid(storages=("odag", "list", "adaptive"))),
    # The facade's cost-based compiles: rare-label anchors, harmonized DAGs.
    (["guided-wedge-101@skewed", "costed-motifs@g24-10"],
     grid(BACKENDS, (1, 3), ("list",)) + grid(storages=("odag", "adaptive", "spill"))),
    (["match-wedge-101@skewed"], grid(BACKENDS, (1, 3))),
    (["costed-fsm@g24-6"], grid(BACKENDS, (3,), ("list",))),
    (["costed-fsm@g24-8"], grid(workers=(1, 2, 5), storages=("list",))),
    (["costed-fsm@g24-10"], grid(storages=("odag", "list", "adaptive"))),
    # Adaptive storage on the extend-everywhere path.
    (["motifs@g14", "edge-sets@g10e"], grid(storages=("odag", "list", "adaptive"))),
]
CELLS = {}
for rows, cells in SWEEPS:
    for row in rows:
        CELLS.setdefault(row, set()).update(cells)
CELLS = {row: sorted(cells) for row, cells in CELLS.items()}
assert CELLS.keys() == ROWS.keys(), "every row is swept, every sweep names rows"
#: Serial, uncheckpointed, two-level, fewest workers, odag first.
REFERENCE = {row: min(cells, key=lambda c: (c.backend != "serial", c.checkpoint,
                                            not c.two_level, c.workers,
                                            c.storage != "odag", c.storage))
             for row, cells in CELLS.items()}


#: The most runs a row makes, hooked and stripped.  Rows share no run and
#: the cases run row by row, so the cache drops the earlier rows' runs.
RUNS_PER_ROW = max((1 + len(ROWS[row].twins)) * len(cells) for row, cells in CELLS.items())


@functools.lru_cache(maxsize=RUNS_PER_ROW)
def run_cell(row, cell, strip):
    workload = ROWS[row]
    backend = None
    if cell.backend == "spawn":
        backend = ProcessBackend()
        backend._mp = multiprocessing.get_context("spawn")
    snapshots = TemporaryDirectory() if cell.checkpoint else nullcontext()
    with snapshots as checkpoint_dir:
        config = ArabesqueConfig(
            backend="process" if cell.backend == "spawn" else cell.backend,
            num_workers=cell.workers, storage=cell.storage,
            two_level_aggregation=cell.two_level, checkpoint_dir=checkpoint_dir,
        )
        return workload.run(graph(workload.graph), config, backend, strip)


# -- the record and the one equality -----------------------------------------
#: Every compared StepStats field but ``batched_embeddings``.
STEP_FIELDS = [f.name for f in dataclasses.fields(StepStats)
               if f.compare and f.name != "batched_embeddings"]
ORDER = {"signature", "outputs"}
WIRE = {"messages_sent", "bytes_sent", "broadcast_messages", "broadcast_bytes"}
#: What an axis may change; backend and checkpointing change nothing.
MOVED_BY = {
    "workers": ORDER | WIRE | {"num_workers", "work_units", "table4"},
    "storage": WIRE | {"storage_bytes", "shipped_format", "spurious_discarded",
                       "work_units", "table4"},
    "two_level": {"table4"},
}


def record(run, cell, reference):
    """The observed record, less what the axes the cells differ on may move."""
    moved = set().union(*(fields for axis, fields in MOVED_BY.items()
                          if getattr(cell, axis) != getattr(reference, axis)))
    if cell.storage != reference.storage and cell.workers > 1:
        moved |= ORDER  # one worker emits in one order under any storage
    observed = {
        "signature": run.canonical_signature(),
        "signature, any order": run.canonical_signature(ignore_output_order=True),
        "outputs": run.outputs,
        "steps": len(run.steps),
        "table4": (run.pattern_requests, run.quick_patterns, run.canonical_patterns),
        **{name: [getattr(step, name) for step in run.steps] for name in STEP_FIELDS},
    }
    return {name: value for name, value in observed.items() if name not in moved}


# The matrix factors: twins and one-level aggregation change what a step
# task does and are swept on the serial cells; a backend only moves that
# task, so each parallel cell is checked against its serial cell.
@pytest.mark.parametrize("row,strip,cell", [
    pytest.param(row, strip, cell, id=f"{row}{'~no-' + strip if strip else ''}-{cell}")
    for row, workload in ROWS.items() for strip in (None,) + workload.twins
    for cell in CELLS[row] if not strip or (cell.two_level and cell.backend == "serial")
])
def test_cell_equals_its_reference(row, strip, cell):
    observed = run_cell(row, cell, strip)
    if strip:
        reference = cell  # the hooked row
        if strip == "process_terminal":
            hooked = run_cell(row, cell, None)
            assert observed.total_batched == 0
            assert hooked.total_batched > 0, "the hook never engaged"
            assert all(s.batched_embeddings <= s.processed_embeddings for s in hooked.steps)
    elif cell.backend != "serial" or cell.checkpoint:
        reference = cell._replace(backend="serial", checkpoint=False)
    elif cell == REFERENCE[row]:
        baseline, view = ROWS[row].oracle
        assert view(observed) == baseline(graph(ROWS[row].graph))
        return
    else:
        reference = REFERENCE[row]
    if "process_terminal" in ROWS[row].twins and not cell.two_level:
        assert observed.total_batched == 0  # one canonicalization per embedding
    expected = run_cell(row, reference, None)
    assert record(observed, cell, reference) == record(expected, cell, reference)
