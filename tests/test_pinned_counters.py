"""The exact, machine-independent counters a kernel change must hold.

Wall-clock is judged in one place, ``benchmarks/spine/``.  This module is
the one place for the paper's other kind of number: exploration counts
that need no clock (Table 4; section 5 of the extended report) —
candidates, canonical embeddings, spurious ODAG paths, stored embeddings,
trie sizes.  Every row of ``pinned_counters.json`` is recomputed here and
compared for equality.

A change that moves a counter on purpose edits the table in the same
diff, so the drift is what the reviewer reads:
``PYTHONPATH=src python tests/test_pinned_counters.py`` prints a fresh
table.  There is no update mode.

The ``meters`` rows hold the other exact numbers: what the engine meters
for the simulated cluster (wire totals, what each step shipped as, each
step's per-worker work units) — the inputs of Figures 7, 8 and 10.

Graphs: ``tiny`` is G(40, 100) seed 7 unlabeled, ``tiny3`` the same edges
under 3 labels, ``dense2`` G(40, 200) under 2 labels — dense enough that
the ODAG read really discards spurious paths.
"""

import hashlib
import json
from functools import partial
from pathlib import Path

import pytest

from repro.apps import enumerate_motif_patterns
from repro.core import Pattern
from repro.datasets import citeseer_like, skewed_label_graph
from repro.graph import assign_labels, gnm_random_graph, strip_labels
from repro.plan import (
    NAMED_SHAPES,
    build_catalog,
    build_plan_dag,
    compile_plan,
    guided_survivors,
)
from repro.plan.dag import DagStepper
from repro.plan.planner import restrict_plan
from repro.session import Miner

PINNED = json.loads(
    Path(__file__).with_name("pinned_counters.json").read_text(encoding="utf-8")
)

#: The per-step fields every kernel PR has been diffing by hand.
STEP_COUNTERS = (
    "candidates_generated",
    "canonical_candidates",
    "processed_embeddings",
    "spurious_discarded",
    "stored_embeddings",
)

#: The skewed dataset's adversarial queries: the frequent crowd label (0)
#: sits on the highest-degree pattern vertex, so the degree heuristic
#: anchors there while the catalog anchors at the rare label.
SKEWED_QUERIES = {
    "wedge-101": Pattern((1, 0, 1), ((0, 1, 0), (1, 2, 0))),
    "triangle-001": Pattern((0, 0, 1), ((0, 1, 0), (0, 2, 0), (1, 2, 0))),
}


def with_total(rows, *fields):
    """``rows`` plus one row summing ``fields`` over them."""
    rows["total"] = {f: sum(row[f] for row in rows.values()) for f in fields}
    return rows


def match_rows(graph):
    """Guided vs exhaustive matching, per query shape."""
    miner = Miner(graph)
    rows = {}
    for shape, induced in (("triangle", True), ("square", True), ("diamond", False)):
        query = partial(miner.match, NAMED_SHAPES[shape], induced=induced)
        guided, exhaustive = query().run().raw, query().exhaustive().run().raw
        rows[f"{shape} {'induced' if induced else 'monomorphic'}"] = {
            "matches": guided.num_outputs,
            "candidates_exhaustive": exhaustive.total_candidates,
            "candidates_guided": guided.total_candidates,
        }
    return with_total(rows, "candidates_exhaustive", "candidates_guided")


def cost_rows(graph):
    """Catalog-priced vs degree-heuristic matching orders."""
    miner = Miner(graph)
    catalog = build_catalog(graph)
    rows = {}
    for name, query in SKEWED_QUERIES.items():
        pattern = query.canonical()
        plans = compile_plan(pattern, catalog=catalog), compile_plan(pattern)
        priced, heuristic = (
            miner.match(pattern).plan(plan).run().raw for plan in plans
        )
        rows[name] = {
            "matches": priced.num_outputs,
            "candidates_cost": priced.total_candidates,
            "candidates_heuristic": heuristic.total_candidates,
        }
    return with_total(rows, "candidates_cost", "candidates_heuristic")


def replay(step, extendable):
    """Walk a whole guided exploration tree through one stepping kernel."""
    states = pools = survivors = 0
    stack = [()]
    while stack:
        words = stack.pop()
        states += 1
        num_candidates, found = step(words)
        pools += num_candidates
        survivors += len(found)
        stack.extend(
            words + (word,) for word in found if extendable(words + (word,))
        )
    return {"states": states, "candidates": pools, "survivors": survivors}


def replay_rows(unlabeled, labeled):
    def plan_replay(plan):
        return replay(
            partial(guided_survivors, plan, unlabeled),
            lambda words: len(words) < plan.num_steps,
        )

    triangle = compile_plan(NAMED_SHAPES["triangle"].canonical())
    square = compile_plan(NAMED_SHAPES["square"].canonical())
    # The FSM-shaped case: a degree >= 2 whitelist on every plan step.
    domain = frozenset(v for v in unlabeled.vertices() if unlabeled.degree(v) >= 2)
    batch = enumerate_motif_patterns(labeled, 3, min_size=2)
    stepper = DagStepper(build_plan_dag(batch, induced=True), labeled)
    return {
        "tiny triangle": plan_replay(triangle),
        "tiny square degree>=2": plan_replay(
            restrict_plan(square, {pv: domain for pv in square.order})
        ),
        "tiny3 motifs<=3 dag": {
            "members": len(batch), **replay(stepper.step, stepper.extendable)
        },
    }


def sharing_rows(tiny, labeled):
    """What a plan DAG shares: trie sizes, and one batched run against
    one guided run per member."""
    rows = {}
    for name, graph in labeled.items():
        batch = enumerate_motif_patterns(graph, 3, min_size=2)
        for suffix, catalog in (("", None), (" catalog", build_catalog(graph))):
            dag = build_plan_dag(batch, induced=True, catalog=catalog)
            rows[f"{name} motifs<=3{suffix}"] = {
                "members": len(batch),
                "num_nodes": dag.num_nodes,
                "shared_steps": dag.shared_steps,
            }
    miner = Miner(tiny)
    batched = miner.motifs(4).run()
    rows["tiny motifs(4) vs per-pattern"] = {
        "candidates_dag": batched.total_candidates,
        "candidates_per_pattern": sum(
            miner.match(pattern).collect(False).run().raw.total_candidates
            for pattern in batched.dag.patterns
        ),
    }
    return rows


def fsm_rows(graph):
    # Depth is where guided FSM pays: the exhaustive store (and the pool
    # it extends) grows level over level while the parent-domain
    # whitelists tighten, so this row mines to 4 edges.
    miner = Miner(graph)
    guided = miner.fsm(6, max_edges=4).run()
    exhaustive = miner.fsm(6, max_edges=4).exhaustive().collect(False).run()
    return {
        "citeseer-0.05 support=6 max_edges=4": {
            "frequent": len(guided.patterns()),
            "candidates_exhaustive": exhaustive.raw.total_candidates,
            "candidates_guided": guided.raw.total_candidates,
        }
    }


def run_rows(graph):
    """Whole engine runs: the paper's own path on both stores, and guided."""
    miner = Miner(graph)
    queries = {
        "motifs(3) exhaustive odag w2":
            miner.motifs(3).exhaustive().storage("odag").workers(2),
        "motifs(3) exhaustive list": miner.motifs(3).exhaustive().storage("list"),
        "cliques(4) odag w2": miner.cliques(4).storage("odag").workers(2),
        "cliques(4) list": miner.cliques(4).storage("list"),
        "motifs(3) guided": miner.motifs(3),
        "fsm(3, max_edges=2) guided": miner.fsm(3, max_edges=2),
        "fsm(3, max_edges=2) exhaustive": miner.fsm(3, max_edges=2).exhaustive(),
    }
    rows = {}
    for name, query in queries.items():
        view = query.run()
        run = view.raw
        rows[name] = {f: [getattr(s, f) for s in run.steps] for f in STEP_COUNTERS}
        rows[name]["num_outputs"] = run.num_outputs
        rows[name]["signature"] = hashlib.sha256(
            run.canonical_signature()
        ).hexdigest()
        if name.startswith("fsm"):
            # What the application observes, apart from how a domain is
            # held: ``signature`` serialises ``Domain``'s slot, this does not.
            table = sorted((repr(p), s) for p, s in view.patterns().items())
            rows[name]["supports"] = hashlib.sha256(
                repr(table).encode("utf-8")
            ).hexdigest()
    return rows


def meter_rows(graph):
    """The simulated cluster's inputs, per store and worker count.  Work
    units are pinned as each step's sorted values: the split's shape, not
    which worker id drew which rank block."""
    miner = Miner(graph)
    queries = {
        "cliques(4)": lambda: miner.cliques(4),
        "motifs(3) exhaustive": lambda: miner.motifs(3).exhaustive(),
        "fsm(3, max_edges=2) exhaustive":
            lambda: miner.fsm(3, max_edges=2).exhaustive(),
    }
    runs = {
        f"{name} {storage} w{workers}": query().storage(storage).workers(workers)
        for name, query in queries.items()
        for storage in ("odag", "list", "adaptive")
        for workers in (1, 3)
    }
    # The level runs folded into one record (``apps.fsm._fold_run``).
    runs["fsm(3, max_edges=2) guided combined w3"] = (
        miner.fsm(3, max_edges=2).workers(3)
    )
    return {name: meter_row(query.run().raw) for name, query in runs.items()}


def meter_row(run):
    return {
        "total_messages": run.total_messages,
        "total_bytes": run.total_bytes,
        "total_broadcast_bytes": run.total_broadcast_bytes,
        "shipped_format": [step.shipped_format for step in run.steps],
        "work_units": [sorted(step.work_units.values()) for step in run.steps],
    }


def compute_table():
    edges = gnm_random_graph(40, 100, seed=7)
    tiny = strip_labels(edges)
    tiny3 = assign_labels(edges, 3, seed=7)
    dense2 = assign_labels(gnm_random_graph(40, 200, seed=7), 2, seed=7)
    sections = {
        "match tiny": match_rows(tiny),
        "replay": replay_rows(tiny, tiny3),
        "cost skewed-0.35": cost_rows(skewed_label_graph(scale=0.35)),
        "dag": sharing_rows(tiny, {"tiny3": tiny3, "dense2": dense2}),
        "fsm": fsm_rows(citeseer_like(scale=0.05)),
        "run tiny3": run_rows(tiny3),
        "run dense2": run_rows(dense2),
        "meters tiny3": meter_rows(tiny3),
        "meters dense2": meter_rows(dense2),
    }
    return {
        f"{section} {name}": row
        for section, rows in sections.items()
        for name, row in rows.items()
    }


@pytest.fixture(scope="module")
def fresh():
    return compute_table()


def test_table_and_module_name_the_same_rows(fresh):
    assert list(fresh) == list(PINNED)


@pytest.mark.parametrize("row", PINNED)
def test_row_equals_its_pin(fresh, row):
    assert fresh[row] == PINNED[row]


if __name__ == "__main__":  # pragma: no cover
    # One row per line, so a drifted counter is a one-line diff.
    print("{\n" + ",\n".join(
        f"  {json.dumps(name)}: {json.dumps(row)}"
        for name, row in compute_table().items()
    ) + "\n}")
