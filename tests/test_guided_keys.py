"""Guided rows are keyed by their plan level (docs/architecture.md).

A guided run (its computation carries a ``plan``) already knows what each
row is — the plan accepted it — so it stores every row under the one
:data:`~repro.core.storage.PLAN_LEVEL` key and never asks for a quick or
canonical pattern: its Table 4 counters read 0 on every store and worker
count, and each stored step holds one pattern.  A guided ODAG is read back
by membership: a path the extraction filter accepts is a valid plan
prefix, and it is a stored row iff the termination filter is false for it.
"""

import dataclasses

import pytest

from repro.core import StepStats
from repro.graph import assign_labels, gnm_random_graph
from repro.plan import NAMED_SHAPES
from repro.session import Miner


@pytest.fixture(scope="module")
def miner():
    return Miner(assign_labels(gnm_random_graph(40, 100, seed=7), 3, seed=7))


QUERIES = {
    "match": lambda miner: miner.match(NAMED_SHAPES["triangle"]),
    "motifs": lambda miner: miner.motifs(3),
    "fsm": lambda miner: miner.fsm(3, max_edges=2),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("storage", ["list", "odag"])
@pytest.mark.parametrize("workload", list(QUERIES))
def test_a_guided_run_asks_for_no_pattern(miner, workload, storage, workers):
    run = QUERIES[workload](miner).storage(storage).workers(workers).run().raw
    assert run.total_processed > 0
    assert (
        run.pattern_requests, run.quick_patterns,
        run.canonical_patterns, run.isomorphism_runs,
    ) == (0, 0, 0, 0)
    stored = [step.num_patterns for step in run.steps if step.stored_embeddings]
    assert stored and set(stored) == {1}


def test_an_exhaustive_run_still_keys_rows_by_canonical_pattern(miner):
    run = miner.motifs(3).exhaustive().storage("odag").run().raw
    assert run.pattern_requests > 0 < run.isomorphism_runs
    assert max(step.num_patterns for step in run.steps) > 1


#: What the equivalence matrix compares across stores: every StepStats
#: field but the ones storage may move (tests/test_equivalence_matrix.py).
STORE_INVARIANT = [
    f.name for f in dataclasses.fields(StepStats)
    if f.compare and f.name not in {
        "batched_embeddings", "storage_bytes", "shipped_format",
        "spurious_discarded", "work_units", "messages_sent", "bytes_sent",
        "broadcast_messages", "broadcast_bytes",
    }
]


@pytest.mark.parametrize("workers", [1, 2])
def test_a_guided_odag_path_that_was_never_stored_is_discarded(workers):
    """FSM's 3-edge DAG holds a labeled triangle beside 4-vertex
    candidates.  The triangle completes at its third vertex, so no
    triangle is stored; the 3-vertex prefixes of the others are.  Their
    ODAG still spells out a few (1, 1, 0) triangles that pass the plan's
    check on every prefix: only the termination filter tells them apart,
    and each must count as spurious, never be expanded."""
    miner = Miner(assign_labels(gnm_random_graph(12, 30, seed=1), 3, seed=1))
    runs = {
        storage: miner.fsm(2, max_edges=3).storage(storage).workers(workers).run()
        for storage in ("list", "odag")
    }
    exact, odag = (runs[storage].raw for storage in ("list", "odag"))
    assert odag.canonical_signature() == exact.canonical_signature()
    assert runs["odag"].patterns() == runs["list"].patterns()
    for name in STORE_INVARIANT:
        assert [getattr(s, name) for s in odag.steps] == [
            getattr(s, name) for s in exact.steps
        ], name
    assert sum(step.spurious_discarded for step in odag.steps) > 0
