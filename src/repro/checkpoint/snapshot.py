"""Barrier snapshots: the on-disk format and the atomic writer.

Arabesque's step-synchronous BSP loop makes the inter-step barrier a
natural snapshot point: after the store merge, *everything* a later step
reads is in a handful of engine-owned objects — the merged
:class:`~repro.core.storage.EmbeddingStore`, the aggregation channels'
barrier state, the master pattern-canonicalizer cache, and the run's
accumulated counters/outputs.  A snapshot pickles exactly that state (plus
graph/config fingerprints so a resume against the wrong inputs fails
loudly) into one self-validating file:

``MAGIC (8 bytes) | version (4 bytes, big-endian) | pickled payload |
sha256 of everything before it (32 bytes)``

Writes are atomic (write to ``<name>.tmp``, flush + fsync, then
``os.replace``) so a crash mid-write never leaves a half snapshot under
the real name; after each successful write, only the newest
``keep`` snapshots are retained.  Reads re-verify the checksum and the
magic/version before unpickling — a truncated, corrupted, or foreign file
raises :class:`CheckpointError` instead of silently resuming from garbage.

This module deliberately does not import the engine (the engine imports
*it*, lazily, inside :meth:`~repro.core.engine.ArabesqueEngine.run`);
the resume path that rebuilds an engine lives in
:mod:`repro.checkpoint.resume`.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import os
import pickle
import struct
from dataclasses import dataclass
from typing import Any

from ..core.aggregation import AggregationChannel
from ..core.computation import Computation
from ..core.config import ArabesqueConfig
from ..core.pattern import PatternCanonicalizer
from ..core.results import RunResult
from ..core.storage import EmbeddingStore, ListStore, SpillListStore
from ..graph import LabeledGraph

MAGIC = b"ARBKCKPT"
#: 2: a pickled ODAG holds its arrays and successor sets as big-int bitsets
#: (version 1 pickled Python sets under different slot names).
#: 3: an FSM ``Domain`` aggregate pickles one bitset per pattern position
#: (``_masks``; version 2 pickled frozensets as ``_sets``).
#: 4: the pickled ``RunResult`` holds one per-superstep list, ``steps``,
#: whose records carry the work units and wire counters (version 3 kept
#: them in a second list on a ``bsp.metrics.RunMetrics``).
FORMAT_VERSION = 4
_CHECKSUM_NBYTES = 32

#: Snapshot payloads produced by spill-mode runs store the rows themselves
#: (segment files do not outlive the run), tagged with this marker.
_SPILL_ROWS = "spill-rows"


class CheckpointError(RuntimeError):
    """A snapshot could not be written, read, or validated."""


class CheckpointGraphMismatch(CheckpointError):
    """The graph offered at resume is not the graph that was snapshotted."""


class CheckpointConfigMismatch(CheckpointError):
    """The config offered at resume disagrees with the snapshot on fields
    that change what a run computes (storage mode first among them)."""


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------
def graph_fingerprint(graph: LabeledGraph) -> str:
    """Content hash of the graph's defining data (labels + labeled edges).

    Structural only — the dataset ``name`` is excluded so a renamed copy
    of the same graph still resumes.
    """
    digest = hashlib.sha256()
    digest.update(repr(graph.num_vertices).encode())
    digest.update(repr(tuple(graph.vertex_labels)).encode())
    edge_labels = tuple(graph.edge_labels)
    for eid in graph.edges():
        u, v = graph.edge_endpoints(eid)
        digest.update(struct.pack(">lll", u, v, edge_labels[eid]))
    return digest.hexdigest()


#: Config fields that change *what a run computes* — a resumed run must
#: agree with the snapshot on all of them.  Execution knobs (backend,
#: num_workers, backend_processes, deadline, spill budget, checkpoint
#: cadence...) are free to differ: results are invariant across them by
#: construction.
SEMANTIC_CONFIG_FIELDS = (
    "storage",
    "two_level_aggregation",
    "incremental_canonicality",
    "collect_outputs",
    "output_limit",
    "max_exploration_steps",
    "max_embeddings",
)


def config_fingerprint(config: ArabesqueConfig) -> str:
    """Hash of the semantic config fields (plus plan presence)."""
    fields = tuple(
        getattr(config, name) for name in SEMANTIC_CONFIG_FIELDS
    ) + (config.plan is not None,)
    return hashlib.sha256(repr(fields).encode()).hexdigest()


# ----------------------------------------------------------------------
# Payload construction / restoration
# ----------------------------------------------------------------------
def _strip_computation(computation: Computation) -> Computation:
    """A shallow copy safe to pickle into a snapshot: the graph reference
    (installed by ``init``) and any bound task context are dropped; resume
    re-runs ``init(graph, config)``, which is deterministic."""
    stripped = copy.copy(computation)
    for attr in ("graph", "_context"):
        if hasattr(stripped, attr):
            try:
                setattr(stripped, attr, None)
            except AttributeError:  # read-only slot/property
                pass
    return stripped


def _portable_store(store: EmbeddingStore) -> Any:
    """The store as snapshot content.  ODAG/list stores pickle directly
    (the process backend already proves them picklable); a spill store's
    segment files die with the run, so its rows are materialized into the
    payload in global sorted order (the one memory-heavy moment of spill
    checkpointing — documented in docs/checkpoint.md)."""
    if isinstance(store, SpillListStore):
        return (_SPILL_ROWS, list(store._iter_all()))
    return store


def restore_store(stored: Any) -> EmbeddingStore:
    """Rebuild the engine-facing store from snapshot content.

    Spill rows come back as a sorted :class:`ListStore` — extraction
    semantics (global sorted order, contiguous per-pattern rank ranges)
    are identical, and the resumed run's *new* stores spill as usual.
    """
    if isinstance(stored, tuple) and len(stored) == 2 and stored[0] == _SPILL_ROWS:
        rebuilt = ListStore()
        for pattern, words in stored[1]:
            rebuilt.add(pattern, words)
        rebuilt.sort()
        return rebuilt
    return stored


def build_payload(
    *,
    graph: LabeledGraph,
    config: ArabesqueConfig,
    mode: str,
    step: int,
    processed_total: int,
    result: RunResult,
    store: EmbeddingStore,
    canonicalizer: PatternCanonicalizer,
    agg_channel: AggregationChannel,
    out_channel: AggregationChannel,
    computation: Computation,
    wall_seconds: float,
) -> dict[str, Any]:
    """Assemble one barrier's snapshot payload (see module docstring)."""
    return {
        "format_version": FORMAT_VERSION,
        "step": step,
        "mode": mode,
        "processed_total": processed_total,
        "result": result,
        "store": _portable_store(store),
        "canonicalizer": canonicalizer,
        "agg_published": agg_channel.published(),
        "agg_latest": agg_channel.latest(),
        "out_accumulated": out_channel.finalize(),
        "computation": _strip_computation(computation),
        # The live CancelFlag (a threading.Event) must not land in the
        # snapshot; a resumed run arms its own.
        "config": dataclasses.replace(config, cancel=None),
        "wall_seconds": wall_seconds,
        "graph_fingerprint": graph_fingerprint(graph),
        "config_fingerprint": config_fingerprint(config),
    }


@dataclass
class ResumeState:
    """What :meth:`ArabesqueEngine.run` needs to restart at step + 1."""

    step: int
    processed_total: int
    result: RunResult
    store: EmbeddingStore
    canonicalizer: PatternCanonicalizer
    agg_published: dict
    agg_latest: dict
    out_accumulated: dict
    wall_seconds: float


def payload_resume_state(payload: dict[str, Any]) -> ResumeState:
    """Extract the engine-facing resume state from a validated payload."""
    return ResumeState(
        step=payload["step"],
        processed_total=payload["processed_total"],
        result=payload["result"],
        store=restore_store(payload["store"]),
        canonicalizer=payload["canonicalizer"],
        agg_published=payload["agg_published"],
        agg_latest=payload["agg_latest"],
        out_accumulated=payload["out_accumulated"],
        wall_seconds=payload["wall_seconds"],
    )


# ----------------------------------------------------------------------
# File format
# ----------------------------------------------------------------------
def _snapshot_name(step: int) -> str:
    return f"step-{step:06d}.ckpt"


def _snapshot_step(name: str) -> int | None:
    if not (name.startswith("step-") and name.endswith(".ckpt")):
        return None
    try:
        return int(name[len("step-") : -len(".ckpt")])
    except ValueError:
        return None


def write_snapshot(run_dir: str, step: int, payload: dict[str, Any]) -> str:
    """Atomically write one snapshot file; return its path."""
    os.makedirs(run_dir, exist_ok=True)
    blob = (
        MAGIC
        + struct.pack(">I", FORMAT_VERSION)
        + pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    )
    digest = hashlib.sha256(blob).digest()
    path = os.path.join(run_dir, _snapshot_name(step))
    tmp_path = path + ".tmp"
    with open(tmp_path, "wb") as handle:
        handle.write(blob)
        handle.write(digest)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp_path, path)
    return path


def read_snapshot(path: str) -> dict[str, Any]:
    """Read and fully validate one snapshot file.

    Every failure mode is loud: missing file, truncation, bad magic,
    unsupported version, and checksum mismatch each raise
    :class:`CheckpointError` with a message naming the problem — a
    damaged snapshot must never silently resume as an older/garbled run.
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read snapshot {path!r}: {exc}") from exc
    header_nbytes = len(MAGIC) + 4
    if len(data) < header_nbytes + _CHECKSUM_NBYTES:
        raise CheckpointError(
            f"snapshot {path!r} is truncated "
            f"({len(data)} bytes; header + checksum alone need "
            f"{header_nbytes + _CHECKSUM_NBYTES})"
        )
    blob, stored_digest = data[:-_CHECKSUM_NBYTES], data[-_CHECKSUM_NBYTES:]
    if hashlib.sha256(blob).digest() != stored_digest:
        raise CheckpointError(
            f"snapshot {path!r} failed its checksum — the file is "
            "corrupted or was truncated mid-write"
        )
    if blob[: len(MAGIC)] != MAGIC:
        raise CheckpointError(
            f"{path!r} is not an Arabesque checkpoint (bad magic)"
        )
    (version,) = struct.unpack(
        ">I", blob[len(MAGIC) : header_nbytes]
    )
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"snapshot {path!r} has format version {version}; this build "
            f"reads version {FORMAT_VERSION}"
        )
    try:
        payload = pickle.loads(blob[header_nbytes:])
    except Exception as exc:  # checksum passed but unpickling still failed
        raise CheckpointError(
            f"snapshot {path!r} payload failed to deserialize: {exc}"
        ) from exc
    if not isinstance(payload, dict) or "step" not in payload:
        raise CheckpointError(
            f"snapshot {path!r} payload is not a checkpoint payload"
        )
    return payload


def list_snapshots(run_dir: str) -> list[tuple[int, str]]:
    """``(step, path)`` of every snapshot in the directory, oldest first."""
    try:
        names = os.listdir(run_dir)
    except OSError:
        return []
    found = []
    for name in names:
        step = _snapshot_step(name)
        if step is not None:
            found.append((step, os.path.join(run_dir, name)))
    found.sort()
    return found


def latest_snapshot_path(run_dir: str) -> str:
    """Path of the newest snapshot (CheckpointError if there is none)."""
    snapshots = list_snapshots(run_dir)
    if not snapshots:
        raise CheckpointError(
            f"no checkpoint snapshots found in {run_dir!r} "
            "(expected step-*.ckpt files)"
        )
    return snapshots[-1][1]


def load_latest(run_dir: str) -> dict[str, Any]:
    """Read and validate the newest snapshot in ``run_dir``."""
    return read_snapshot(latest_snapshot_path(run_dir))


class CheckpointWriter:
    """Writes barrier snapshots into one run directory, with retention.

    ``fresh=True`` (a new run) clears any stale ``step-*.ckpt`` files left
    by a previous run of the same directory — lazily, on the first write,
    so a run that finishes without ever snapshotting (e.g. it ends at the
    step-0 barrier) does not destroy the previous run's snapshots without
    replacing them.  Resume paths construct the writer with ``fresh=False``
    so the continued run extends the existing sequence.
    """

    def __init__(self, run_dir: str, keep: int = 2, fresh: bool = True) -> None:
        if keep < 1:
            raise ValueError("checkpoint keep must be >= 1")
        self.run_dir = str(run_dir)
        self.keep = keep
        self._cleared = not fresh
        os.makedirs(self.run_dir, exist_ok=True)

    def write(self, step: int, payload: dict[str, Any]) -> str:
        if not self._cleared:
            for _, path in list_snapshots(self.run_dir):
                try:
                    os.unlink(path)
                except OSError:
                    pass
            self._cleared = True
        path = write_snapshot(self.run_dir, step, payload)
        self._retain()
        return path

    def _retain(self) -> None:
        snapshots = list_snapshots(self.run_dir)
        for _, path in snapshots[: -self.keep]:
            try:
                os.unlink(path)
            except OSError:
                pass


__all__ = [
    "CheckpointConfigMismatch",
    "CheckpointError",
    "CheckpointGraphMismatch",
    "CheckpointWriter",
    "FORMAT_VERSION",
    "MAGIC",
    "ResumeState",
    "SEMANTIC_CONFIG_FIELDS",
    "build_payload",
    "config_fingerprint",
    "graph_fingerprint",
    "latest_snapshot_path",
    "list_snapshots",
    "load_latest",
    "payload_resume_state",
    "read_snapshot",
    "restore_store",
    "write_snapshot",
]
