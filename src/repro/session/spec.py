"""The one validated query spec every surface deserializes into.

A :class:`QuerySpec` is a frozen, declarative description of one mining
query: the workload, its parameters, and the execution options.  The
fluent :class:`~repro.session.query.Query` holds one and replaces it on
every chained option; the CLI builds one from its argparse namespace and
the query service from a JSON body; all three hand it to
:meth:`Miner.query <repro.session.Miner.query>`.  Its ``__post_init__``
is the only place an option's type, range or domain rule is written
outside :class:`~repro.core.config.ArabesqueConfig`, so a value one
surface rejects is rejected by every surface with the same message —
before anything runs, and before the service consults its result cache.

The fields split into two halves:

* **semantic fields** (workload, its parameters, labeled/exhaustive
  semantics, the output cap) feed the **canonical signatures** the
  service's whole-result cache keys on.  Patterns are canonicalized on
  construction, so ``"triangle"`` and an equivalent explicit edge list
  are the *same* cache entry.
* **execution fields** (workers/backend/storage, budgets, collection,
  checkpointing, streaming) steer *how* the run happens and are
  deliberately **excluded** from the signatures: the engine's results
  are byte-identical across all of them (the determinism property the
  test suite enforces), so including them would only fragment the cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..core.config import BACKENDS
from ..core.pattern import Pattern
from ..core.storage import STORAGE_MODES


class SessionError(ValueError):
    """A facade query was built or combined incorrectly."""


#: Workloads a spec-driven surface can name (each is a CLI subcommand
#: and a service endpoint).
WORKLOADS = ("motifs", "match", "fsm", "cliques")
#: Workloads that answer with an aggregate table (a distribution, a
#: pattern table) instead of per-embedding outputs.
AGGREGATE_WORKLOADS = ("motifs", "fsm")
#: Workloads that compile exploration plans: guided by default,
#: ``exhaustive`` opts out into the filter-process oracle.
PLAN_CAPABLE_WORKLOADS = ("motifs", "match", "fsm")

#: Workload -> the parameter fields it takes; every other parameter
#: must stay unset.  ``compute`` (an in-process Computation object, see
#: :meth:`Miner.compute`) takes none.  The service's per-workload
#: request keys are these names (``pattern`` is spelled ``query``).
PARAMETERS = {
    "motifs": ("max_size", "min_size"),
    "match": ("pattern", "induced"),
    "fsm": ("support", "max_edges"),
    "cliques": ("max_size", "min_size", "maximal"),
    "compute": (),
}
_ALL_PARAMETERS = tuple(
    dict.fromkeys(name for names in PARAMETERS.values() for name in names)
)
#: What an omitted size parameter means, on every surface.
_WHEN_OMITTED = {
    "motifs": {"max_size": 3, "min_size": 3},
    "cliques": {"min_size": 1},
}
#: Integer fields -> their minimum.
_INT_MINIMUM = {
    "max_size": 1,
    "min_size": 1,
    "support": 1,
    "max_edges": 1,
    "limit": 0,
    "workers": 1,
    "max_embeddings": 1,
}
_BOOL_FIELDS = ("induced", "maximal", "labeled", "exhaustive", "stream")
#: Execution-option field -> the :class:`ArabesqueConfig` field it sets.
CONFIG_FIELDS = {
    "workers": "num_workers",
    "backend": "backend",
    "storage": "storage",
    "collect": "collect_outputs",
    "limit": "output_limit",
    "deadline_seconds": "deadline_seconds",
    "max_embeddings": "max_embeddings",
    "checkpoint_dir": "checkpoint_dir",
}


@dataclass(frozen=True)
class QuerySpec:
    """One validated mining query (see the module docstring for the
    split between semantic and execution fields)."""

    workload: str
    # -- semantic fields (signed) --------------------------------------
    max_size: int | None = None
    min_size: int | None = None
    pattern: Pattern | None = None  # canonical (match only)
    induced: bool = True
    support: int | None = None
    max_edges: int | None = None
    maximal: bool = False
    labeled: bool = True
    exhaustive: bool = False
    limit: int | None = None
    # -- execution fields (not signed) ---------------------------------
    workers: int | None = None
    backend: str | None = None
    storage: str | None = None
    deadline_seconds: float | None = None
    max_embeddings: int | None = None
    #: Keep individual outputs; None leaves the base config's choice.
    collect: bool | None = None
    checkpoint_dir: str | None = None
    stream: bool = False

    def __post_init__(self) -> None:
        workload = self.workload
        takes = PARAMETERS.get(workload)
        if takes is None:
            raise SessionError(
                f"unknown workload {workload!r} — available: "
                f"{', '.join(WORKLOADS)}"
            )
        fields = type(self).__dataclass_fields__
        for name in _ALL_PARAMETERS:
            if name not in takes and getattr(self, name) != fields[name].default:
                raise SessionError(
                    f"{workload} queries take no {name!r} parameter"
                )
        for name, default in _WHEN_OMITTED.get(workload, {}).items():
            if getattr(self, name) is None:
                object.__setattr__(self, name, default)
        for name, minimum in _INT_MINIMUM.items():
            value = getattr(self, name)
            if value is not None and (
                not isinstance(value, int)
                or isinstance(value, bool)
                or value < minimum
            ):
                raise SessionError(
                    f"{name!r} must be an integer >= {minimum} (got {value!r})"
                )
        for name in _BOOL_FIELDS:
            self._require_bool(name)
        if self.collect is not None:
            self._require_bool("collect")
        seconds = self.deadline_seconds
        if seconds is not None and (
            not isinstance(seconds, (int, float))
            or isinstance(seconds, bool)
            or not seconds > 0  # also rejects NaN
        ):
            raise SessionError(
                f"'deadline_seconds' must be a positive number (got {seconds!r})"
            )
        if self.backend is not None and self.backend not in BACKENDS:
            raise SessionError(
                f"unknown backend {self.backend!r} (choose from "
                f"{', '.join(BACKENDS)})"
            )
        if self.storage is not None and self.storage not in STORAGE_MODES:
            raise SessionError(
                f"unknown storage mode {self.storage!r} (choose from "
                f"{', '.join(STORAGE_MODES)})"
            )
        if self.checkpoint_dir is not None and (
            not isinstance(self.checkpoint_dir, str) or not self.checkpoint_dir
        ):
            raise SessionError(
                "'checkpoint_dir' must be a non-empty directory path "
                f"(got {self.checkpoint_dir!r})"
            )
        if workload in ("motifs", "cliques") and self.max_size is not None and (
            self.min_size > self.max_size
        ):
            raise SessionError("need 1 <= min_size <= max_size")
        if workload == "fsm" and self.support is None:
            raise SessionError(
                'fsm requests need a "support" threshold (integer >= 1)'
            )
        if workload == "match":
            self._check_pattern()
        if self.exhaustive and workload not in PLAN_CAPABLE_WORKLOADS:
            raise SessionError(
                f"{workload} queries always run exhaustively — only "
                "plan-capable queries (Miner.match, Miner.fsm, Miner.motifs) "
                "have an exhaustive() opt-out"
            )
        if self.limit is not None and self.collect is False:
            raise SessionError(
                "limit caps collected outputs, but collect=False drops "
                "them — set one or the other (limit() / collect(False) on "
                "the fluent query)"
            )
        if (
            workload in AGGREGATE_WORKLOADS
            and not self.exhaustive
            and (self.collect or self.limit is not None)
        ):
            raise SessionError(
                f"guided {workload} runs (the default) produce an "
                "aggregate table, never per-embedding outputs — "
                "collect()/limit() need the exhaustive path: chain "
                ".exhaustive() first (--exhaustive on the CLI)"
            )

    def _require_bool(self, name: str) -> None:
        value = getattr(self, name)
        if not isinstance(value, bool):
            raise SessionError(f"{name!r} must be true or false (got {value!r})")

    def _check_pattern(self) -> None:
        pattern = self.pattern
        if not isinstance(pattern, Pattern):
            raise SessionError(
                "match needs a Pattern, a named shape, or a pattern-file "
                f"path (got {type(pattern).__name__})"
            )
        if pattern.num_vertices == 0:
            raise SessionError("query pattern must not be empty")
        if not pattern.is_connected():
            # Connected exploration can never assemble a disconnected
            # occurrence — refuse instead of reporting zero matches.
            raise SessionError("query pattern must be connected")
        object.__setattr__(self, "pattern", pattern.canonical())

    # ------------------------------------------------------------------
    def query_signature(self) -> str:
        """Canonical signature of *what* is asked (cache-key half 1)."""
        parts: tuple[Any, ...] = (
            self.workload,
            self.max_size,
            self.min_size,
            None if self.pattern is None else (
                self.pattern.vertex_labels,
                self.pattern.edges,
            ),
            self.induced,
            self.support,
            self.max_edges,
            self.maximal,
            self.labeled,
            self.exhaustive,
        )
        return repr(parts)

    def config_signature(self) -> str:
        """Signature of the result-affecting config subset (cache-key
        half 2).  Only the output cap qualifies: workers, backend,
        storage, and budgets cannot change a finished run's payload."""
        return repr(("limit", self.limit))

    def config_overrides(self) -> dict[str, Any]:
        """The :class:`ArabesqueConfig` fields this spec sets; unset
        options keep the base config's value."""
        return {
            target: value
            for name, target in CONFIG_FIELDS.items()
            if (value := getattr(self, name)) is not None
        }


__all__ = [
    "AGGREGATE_WORKLOADS",
    "CONFIG_FIELDS",
    "PARAMETERS",
    "PLAN_CAPABLE_WORKLOADS",
    "QuerySpec",
    "SessionError",
    "WORKLOADS",
]
