"""Barrier snapshots: the on-disk format and the atomic writer.

Arabesque's step-synchronous BSP loop makes the inter-step barrier a
natural snapshot point: after the store merge, *everything* a later step
reads is in a handful of engine-owned objects — the merged
:class:`~repro.core.storage.EmbeddingStore`, the aggregation channels'
barrier state, the master pattern-canonicalizer cache, and the run's
accumulated counters/outputs.  A snapshot pickles exactly that state (plus
the graph's fingerprint and the run's config, so a resume against the
wrong inputs fails loudly) into one self-validating file:

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
from ..core.storage import EmbeddingStore, ListStore
from ..graph import LabeledGraph

MAGIC = b"ARBKCKPT"
#: 2: a pickled ODAG holds its arrays and successor sets as big-int bitsets
#: (version 1 pickled Python sets under different slot names).
#: 3: an FSM ``Domain`` aggregate pickles one bitset per pattern position
#: (``_masks``; version 2 pickled frozensets as ``_sets``).
#: 4: the pickled ``RunResult`` holds one per-superstep list, ``steps``,
#: whose records carry the work units and wire counters (version 3 kept
#: them in a second list on a ``RunMetrics``).
#: 5: the pickled ``RunResult`` holds its undecoded ``output_log`` of
#: ``(words, mask, take)`` records (version 4 pickled the decoded
#: ``outputs`` list, a name that is now a read-only property).
#: 6: a pickled ``ListStore`` carries its byte budget and segment fields,
#: and a spilled store is saved as a plain ``ListStore`` of its rows
#: (version 5 saved it as a tagged ``("spill-rows", rows)`` pair).
#: 7: a guided run's store holds one plan level under ``PLAN_LEVEL``, read
#: back by membership (version 6 held one ODAG per canonical pattern,
#: whose paths that rule would read as duplicates).
#: 8: a guided run's plan travels only in the pickled computation (version
#: 7 also pickled it on the config, and kept a never-read ``"mode"`` key).
FORMAT_VERSION = 8
_CHECKSUM_NBYTES = 32


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
#: num_workers, deadline, spill budget...) are free to differ: results are
#: invariant across them by construction.
SEMANTIC_CONFIG_FIELDS = (
    "storage",
    "two_level_aggregation",
    "incremental_canonicality",
    "collect_outputs",
    "output_limit",
    "max_exploration_steps",
    "max_embeddings",
)


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


def _portable_store(store: EmbeddingStore) -> EmbeddingStore:
    """The store as snapshot content.  Stores pickle directly (the process
    backend already proves them picklable), but a spilled list store's
    segment files die with the run, so it is saved as a plain sorted
    :class:`ListStore` of its rows (the one memory-heavy moment of spill
    checkpointing — documented in docs/checkpoint.md).  Extraction from
    it is identical, and the resumed run's new stores spill as usual."""
    if isinstance(store, ListStore) and store.num_segments:
        plain = ListStore()
        plain.merge(store)
        plain.sort()
        return plain
    return store


def build_payload(
    *,
    graph_fingerprint: str,
    config: ArabesqueConfig,
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
        "graph_fingerprint": graph_fingerprint,
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
        store=payload["store"],
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

    #: Snapshots retained in the run directory; older ones are deleted
    #: after each successful write.
    keep = 2

    def __init__(self, run_dir: str, fresh: bool = True) -> None:
        self.run_dir = str(run_dir)
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
    "graph_fingerprint",
    "latest_snapshot_path",
    "list_snapshots",
    "load_latest",
    "payload_resume_state",
    "read_snapshot",
    "write_snapshot",
]
