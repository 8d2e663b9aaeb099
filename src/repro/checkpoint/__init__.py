"""Checkpointed execution: BSP barrier snapshots and crash-resume.

The step-synchronous engine makes the inter-step barrier a natural
snapshot point (the ASYMP / G-thinker direction named in the ROADMAP):
:mod:`~repro.checkpoint.snapshot` defines the versioned, checksummed,
atomically-written snapshot format and the retention-managed writer;
:mod:`~repro.checkpoint.resume` validates fingerprints and rebuilds an
engine mid-run.  The suite's fault injection (``tests/faults.py``) crashes
runs at chosen barriers so the resume path is tested against every barrier
of a run.

See docs/checkpoint.md for the format and the resume semantics.
"""

from .resume import (
    EXECUTION_CONFIG_FIELDS,
    build_resume_config,
    resume_run,
    validate_payload,
)
from .snapshot import (
    CheckpointConfigMismatch,
    CheckpointError,
    CheckpointGraphMismatch,
    CheckpointWriter,
    FORMAT_VERSION,
    SEMANTIC_CONFIG_FIELDS,
    graph_fingerprint,
    latest_snapshot_path,
    list_snapshots,
    load_latest,
    read_snapshot,
    write_snapshot,
)

__all__ = [
    "CheckpointConfigMismatch",
    "CheckpointError",
    "CheckpointGraphMismatch",
    "CheckpointWriter",
    "EXECUTION_CONFIG_FIELDS",
    "FORMAT_VERSION",
    "SEMANTIC_CONFIG_FIELDS",
    "build_resume_config",
    "graph_fingerprint",
    "latest_snapshot_path",
    "list_snapshots",
    "load_latest",
    "read_snapshot",
    "resume_run",
    "validate_payload",
    "write_snapshot",
]
