"""Crash-resume: rebuild an engine from a run directory's latest snapshot.

``resume_run(run_dir, graph)`` validates the snapshot against the offered
inputs *loudly* — a different graph raises
:class:`~repro.checkpoint.snapshot.CheckpointGraphMismatch`, a config that
disagrees on any semantic field (storage mode first among them) raises
:class:`~repro.checkpoint.snapshot.CheckpointConfigMismatch` naming every
mismatched field — then restarts the BSP loop at the snapshotted step + 1.
The resumed run's :meth:`~repro.core.results.RunResult.canonical_signature`
is byte-identical to an uninterrupted run: everything a later step reads
was captured at the barrier, and the caller is free to change *execution*
knobs (backend, worker count, deadline, spill budget, phase profiling)
across the crash because results are invariant to them by construction.

By default the resumed run keeps checkpointing into the same directory
(``fresh=False`` — the snapshot sequence extends instead of resetting), so
a run that crashes repeatedly still only ever re-executes from its last
barrier.
"""

from __future__ import annotations

import dataclasses
from typing import Any

from ..core.config import ArabesqueConfig
from ..core.engine import ArabesqueEngine
from ..core.results import RunResult
from ..graph import LabeledGraph
from .snapshot import (
    CheckpointConfigMismatch,
    CheckpointGraphMismatch,
    CheckpointWriter,
    SEMANTIC_CONFIG_FIELDS,
    graph_fingerprint,
    load_latest,
    payload_resume_state,
)

#: Config fields a resume caller may override without touching semantics:
#: every field but the semantic ones.
EXECUTION_CONFIG_FIELDS = tuple(
    field.name
    for field in dataclasses.fields(ArabesqueConfig)
    if field.name not in SEMANTIC_CONFIG_FIELDS
)


def validate_payload(
    payload: dict[str, Any],
    graph: LabeledGraph,
    config: ArabesqueConfig | None = None,
) -> None:
    """Fingerprint checks: the offered graph/config must match the run."""
    offered = graph_fingerprint(graph)
    if offered != payload["graph_fingerprint"]:
        raise CheckpointGraphMismatch(
            "the offered graph is not the graph this run was snapshotted "
            f"on (fingerprint {offered[:12]}… vs snapshot "
            f"{payload['graph_fingerprint'][:12]}…) — resume with the "
            "original dataset (and the same labeled/unlabeled variant)"
        )
    if config is None:
        return
    snapshot_config: ArabesqueConfig = payload["config"]
    mismatched = [
        name
        for name in SEMANTIC_CONFIG_FIELDS
        if getattr(config, name) != getattr(snapshot_config, name)
    ]
    if mismatched:
        details = ", ".join(
            f"{name}: snapshot={getattr(snapshot_config, name)!r} "
            f"offered={getattr(config, name)!r}"
            for name in mismatched
        )
        raise CheckpointConfigMismatch(
            "the offered config changes what this run computes — resume "
            "must keep the snapshot's semantics ("
            + details
            + "); only execution knobs (" + ", ".join(EXECUTION_CONFIG_FIELDS)
            + ") may differ"
        )


def build_resume_config(
    payload: dict[str, Any],
    run_dir: str,
    config: ArabesqueConfig | None,
) -> ArabesqueConfig:
    """The config the resumed run executes under.

    Semantics always come from the snapshot (a guided run's plan with its
    pickled computation); execution knobs come from the caller's config
    when one is given.  The resumed run checkpoints back into ``run_dir``
    unless the caller pointed ``checkpoint_dir`` elsewhere.
    """
    base: ArabesqueConfig = payload["config"]
    if config is None:
        return dataclasses.replace(base, checkpoint_dir=str(run_dir))
    overrides = {
        name: getattr(config, name) for name in EXECUTION_CONFIG_FIELDS
    }
    if overrides.get("checkpoint_dir") is None:
        overrides["checkpoint_dir"] = str(run_dir)
    return dataclasses.replace(base, **overrides)


def resume_run(
    run_dir: str,
    graph: LabeledGraph,
    *,
    config: ArabesqueConfig | None = None,
) -> RunResult:
    """Resume the run checkpointed in ``run_dir`` on ``graph``.

    Loads and validates the latest snapshot (corruption, truncation, and
    fingerprint mismatches all raise
    :class:`~repro.checkpoint.snapshot.CheckpointError` subclasses), then
    runs the remaining exploration steps and returns the completed
    :class:`~repro.core.results.RunResult` — byte-identical in
    ``canonical_signature`` to the uninterrupted run.
    """
    payload = load_latest(run_dir)
    validate_payload(payload, graph, config)
    run_config = build_resume_config(payload, run_dir, config)
    state = payload_resume_state(payload)
    checkpointer = CheckpointWriter(run_config.checkpoint_dir, fresh=False)
    engine = ArabesqueEngine(
        graph,
        payload["computation"],
        run_config,
        checkpointer=checkpointer,
    )
    return engine.run(resume_state=state)


__all__ = [
    "EXECUTION_CONFIG_FIELDS",
    "build_resume_config",
    "resume_run",
    "validate_payload",
]
