"""Run results: one record per superstep, one list of them per run.

Everything the evaluation section reports is derived from these records:
candidate/embedding counts (Figure 1, Tables 4-5), storage sizes under both
strategies (Figure 9), communication volumes and per-worker work (Figures
7-8, priced by a reader of these records, :mod:`repro.bsp.cost_model`),
phase timings (Figure 12), and pattern statistics (Table 4, Figure 11).
The metered half (:class:`SuperstepRecord`, :class:`RunTotals`) is written
once here; the TLV/TLP baselines' run container, :class:`RunMetrics`, holds
the same records.
"""

from __future__ import annotations

import dataclasses
import threading
from dataclasses import dataclass, field
from typing import Any, Hashable

from ..graph.bitset import from_bitset

#: Serializes first reads of :attr:`RunResult.outputs` (the decode consumes the log).
_DECODE_LOCK = threading.Lock()


@dataclass
class SuperstepRecord:
    """What one superstep cost to distribute: per-worker compute load (and
    therefore imbalance/hotspots), communication volume, measured time."""

    step: int
    #: Logical workers the superstep ran on — what the cost model divides
    #: its traffic by.  ``work_units`` may list fewer (TLP: active ones).
    num_workers: int = 1
    #: Compute work units per worker id (load-balance metering).
    work_units: dict[int, float] = field(default_factory=dict)
    messages_sent: int = 0
    bytes_sent: int = 0
    broadcast_messages: int = 0
    broadcast_bytes: int = 0
    #: Measured time is left out of record equality (``compare=False``).
    wall_seconds: float = field(default=0.0, compare=False)
    #: Per-phase wall-clock (W/R/G/C/P, Figure 12), when profiling is on.
    #: Summed across workers: aggregate CPU seconds, not critical path.
    phase_seconds: dict[str, float] = field(default_factory=dict, compare=False)

    def add_work(self, worker_id: int, units: float) -> None:
        """Accumulate compute work units for ``worker_id``."""
        self.work_units[worker_id] = self.work_units.get(worker_id, 0.0) + units

    def add_phase_time(self, phase: str, seconds: float) -> None:
        """Accumulate wall time attributed to a named phase."""
        self.phase_seconds[phase] = self.phase_seconds.get(phase, 0.0) + seconds

    @property
    def total_work(self) -> float:
        """Sum of work units across workers."""
        return sum(self.work_units.values())

    @property
    def max_work(self) -> float:
        """The busiest worker's load — the superstep's critical path."""
        return max(self.work_units.values(), default=0.0)

    def imbalance(self) -> float:
        """max/mean work ratio: 1.0 is perfect balance."""
        if not self.work_units:
            return 1.0
        mean = self.total_work / len(self.work_units)
        if mean == 0.0:
            return 1.0
        return self.max_work / mean


class RunTotals:
    """Run-level sums over ``self.steps``, a list of :class:`SuperstepRecord`."""

    @property
    def total_messages(self) -> int:
        """All point-to-point messages across the run."""
        return sum(step.messages_sent for step in self.steps)

    @property
    def total_bytes(self) -> int:
        """All point-to-point bytes across the run."""
        return sum(step.bytes_sent for step in self.steps)

    @property
    def total_broadcast_bytes(self) -> int:
        """All broadcast bytes across the run."""
        return sum(step.broadcast_bytes for step in self.steps)


@dataclass
class RunMetrics(RunTotals):
    """A baseline run (TLV, TLP): the same records, one per superstep."""

    #: The cluster size: every superstep is priced on this many workers.
    num_workers: int
    steps: list[SuperstepRecord] = field(default_factory=list)

    def new_superstep(self) -> SuperstepRecord:
        """Open the record for the next superstep and return it."""
        record = SuperstepRecord(step=len(self.steps), num_workers=self.num_workers)
        self.steps.append(record)
        return record


@dataclass
class StepStats(SuperstepRecord):
    """One exploration step: its metered cost plus the exploration counters."""

    #: Embeddings read back from the previous step's store (set I).
    expanded_embeddings: int = 0
    #: Embeddings discarded by the aggregation filter α at read time.
    aggregation_pruned: int = 0
    #: Spurious ODAG paths discarded at extraction: valid embeddings of a
    #: *different* pattern, or (guided) valid plan prefixes never stored.
    spurious_discarded: int = 0
    #: Raw candidates generated by extension (before any check).
    candidates_generated: int = 0
    #: Candidates surviving the embedding canonicality check.
    canonical_candidates: int = 0
    #: Canonical candidates accepted by the user filter φ (processed).
    processed_embeddings: int = 0
    #: Per-vertex domain images recorded by domain-accumulating
    #: computations (guided FSM): one hit per (match, pattern position).
    domain_hits: int = 0
    #: The ``processed_embeddings`` finished by ``process_terminal`` from
    #: survivor masks, never materialised (zero on the per-child loop).
    batched_embeddings: int = 0
    #: Embeddings written to the step's store (set F).
    stored_embeddings: int = 0
    #: Wire size of the configured store after the global merge.
    storage_bytes: int = 0
    #: Wire size the same embeddings would need as plain lists (Figure 9's
    #: second series; equals storage_bytes under list storage).
    list_bytes: int = 0
    #: Distinct patterns in the store (= ODAGs); 1 on a guided stored step.
    num_patterns: int = 0
    #: Wire format this step's store was shipped in ("odag" or "list" —
    #: adaptive mode picks per step, section 6.3).
    shipped_format: str = ""

    #: Counter fields each worker task accumulates independently; the
    #: engine sums them at the step barrier.  Store-derived fields
    #: (stored_embeddings, storage_bytes, ...) are computed post-merge.
    MERGEABLE_COUNTERS = (
        "expanded_embeddings",
        "aggregation_pruned",
        "spurious_discarded",
        "candidates_generated",
        "canonical_candidates",
        "processed_embeddings",
        "domain_hits",
        "batched_embeddings",
    )

    def absorb(self, other: "StepStats") -> None:
        """Sum another worker's counters, work units and phase seconds
        into this step's totals."""
        for name in self.MERGEABLE_COUNTERS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        for worker_id, units in other.work_units.items():
            self.add_work(worker_id, units)
        for phase, seconds in other.phase_seconds.items():
            self.add_phase_time(phase, seconds)

    #: The frozen spine's name for ``step`` (see ``RunResult.metrics``).
    superstep = property(lambda self: self.step)


@dataclass
class WorkerDelta:
    """Everything one worker task produced during one exploration step.

    Worker tasks are pure functions (see :func:`repro.runtime.tasks.run_step_task`):
    they never touch shared engine state, so all their effects travel back
    in this record and the engine folds the deltas together — in worker-id
    order, which keeps every backend byte-identical to the serial one.
    The record must stay picklable: the process backend ships it across
    process boundaries.
    """

    worker_id: int
    #: This worker's share of set F (its local embedding store).
    local_store: Any = None
    #: Level-1-reduced aggregation partials, per channel.
    agg_partials: dict[Hashable, Any] = field(default_factory=dict)
    out_partials: dict[Hashable, Any] = field(default_factory=dict)
    #: Emitted values as an undecoded output log (see
    #: :func:`decode_output_log`), already cut to the per-run limit.
    output_log: list = field(default_factory=list)
    #: Exact number of values emitted (never truncated).
    num_outputs: int = 0
    #: This worker's slice of the step record: the MERGEABLE_COUNTERS, its
    #: own ``work_units`` entry, and ``phase_seconds`` when profiling is on.
    counters: StepStats = field(default_factory=lambda: StepStats(step=0))
    # -- pattern canonicalization delta (two-level aggregation) --------
    pattern_requests: int = 0
    isomorphism_runs: int = 0
    new_pattern_entries: dict = field(default_factory=dict)


@dataclass
class RunResult(RunTotals):
    """Everything a finished exploration returns."""

    #: The workers' output logs in worker-id order, cut at output_limit;
    #: decoded into :attr:`outputs` on first read, then dropped.
    output_log: list | None = field(default_factory=list, repr=False)
    #: Exact number of values emitted (never truncated).
    num_outputs: int = 0
    #: Final values of output aggregation (mapOutput/reduceOutput).
    output_aggregates: dict[Hashable, Any] = field(default_factory=dict)
    #: Last published per-step aggregates (readAggregate channel) — useful
    #: for apps whose final answer lives in the aggregation state (FSM).
    final_aggregates: dict[Hashable, Any] = field(default_factory=dict)
    steps: list[StepStats] = field(default_factory=list)
    #: Measured wall-clock of the (sequential, in-process) run.
    wall_seconds: float = 0.0
    # -- two-level pattern aggregation statistics (Table 4 / Figure 11) --
    #: pattern_requests, quick_patterns, and canonical_patterns are
    #: invariant to num_workers and backend.  isomorphism_runs counts
    #: computations actually performed: workers cache quick patterns
    #: per-task (seeded from the previous step), so with num_workers > 1
    #: several workers of one step may each canonicalize the same new
    #: quick pattern — exactly as real distributed workers would.  With
    #: num_workers=1 it equals the distinct-quick-pattern count.  All four
    #: read 0 on a guided run, whose rows are keyed by plan level.
    pattern_requests: int = 0
    quick_patterns: int = 0
    canonical_patterns: int = 0
    isomorphism_runs: int = 0
    #: Peak resident-set style estimate: max over steps of store wire size.
    peak_storage_bytes: int = 0
    _outputs: list | None = field(default=None, init=False, compare=False)

    @property
    def outputs(self) -> list:
        """Values emitted via ``output``/``output_batch`` (possibly
        truncated to output_limit), decoded from the log once."""
        if self._outputs is None:
            with _DECODE_LOCK:
                if self._outputs is None:
                    log, self.output_log = self.output_log, None
                    self._outputs = decode_output_log(log)
        return self._outputs

    # ------------------------------------------------------------------
    @property
    def num_steps(self) -> int:
        return len(self.steps)

    @property
    def total_candidates(self) -> int:
        """Candidates generated across all steps."""
        return sum(step.candidates_generated for step in self.steps)

    @property
    def total_processed(self) -> int:
        """Embeddings processed (canonical + accepted by φ) across the run —
        the paper's "embeddings analyzed" figure (Table 5)."""
        return sum(step.processed_embeddings for step in self.steps)

    @property
    def total_batched(self) -> int:
        """Embeddings finished by terminal-level mask aggregation."""
        return sum(step.batched_embeddings for step in self.steps)

    def embeddings_by_step(self) -> list[int]:
        """Processed embeddings per step — Figure 1's growth series."""
        return [step.processed_embeddings for step in self.steps]

    # -- read-only aliases: the frozen ``benchmarks/spine`` reads steps as
    # ``.metrics.supersteps``; they go with the next ``[benchmark]`` PR.
    metrics = property(lambda self: self)
    supersteps = property(lambda self: self.steps)
    num_workers = property(
        lambda self: self.steps[-1].num_workers if self.steps else 0
    )

    def pattern_reduction_factor(self) -> float:
        """Embeddings-to-quick-patterns ratio (Table 4's headline number)."""
        if self.quick_patterns == 0:
            return 0.0
        return self.pattern_requests / self.quick_patterns

    def canonical_signature(self, ignore_output_order: bool = False) -> bytes:
        """Deterministic byte serialization of the run's *semantic* results.

        Covers outputs, exact output count, output aggregates, and final
        aggregates — everything an application observes — while normalizing
        away representation noise (dict/set iteration order can differ
        after a pickle round-trip through the process backend).

        With the default ``ignore_output_order=False`` the outputs keep
        their emission order: at a fixed ``num_workers``, every backend
        must yield byte-identical signatures.  ``ignore_output_order=True``
        sorts the outputs, giving the stronger cross-worker-count
        comparison (partitioning reorders emissions but never changes the
        emitted multiset).  The determinism tests and the scalability
        benchmark assert both.
        """
        outputs = _normalize(self.outputs)
        if ignore_output_order:
            outputs = ("seq", tuple(sorted(outputs[1], key=repr)))
        payload = (
            outputs,
            self.num_outputs,
            _normalize(self.output_aggregates),
            _normalize(self.final_aggregates),
        )
        return repr(payload).encode("utf-8")


def decode_output_log(log: list) -> list:
    """The values an output log spells, in emission order; consumes it.

    A list record is a run of ``output(value)`` calls, their values as
    emitted; a ``(words, mask, take)`` record is one ``output_batch``
    call cut to the first ``take`` set bits of ``mask``, ascending."""
    outputs: list = []
    log.reverse()
    while log:
        record = log.pop()
        if type(record) is list:
            outputs.extend(record)
        else:
            words, mask, take = record
            outputs.extend(
                [tuple(sorted(words + (w,))) for w in from_bitset(mask)[:take]]
            )
    return outputs


def _log_size(record) -> int:
    return len(record) if type(record) is list else record[2]


def log_outputs(log: list, record, room: int | None) -> int | None:
    """Append one record to an output log, cut to ``room`` values
    (``None``: no limit); return the room left.  A list record joins a
    list record just before it: one run of ``output`` values."""
    single = type(record) is list
    if room is not None:
        if room <= 0:
            return room
        record = record[:room] if single else (*record[:2], min(record[2], room))
        room -= _log_size(record)
    if single and log and type(log[-1]) is list:
        log[-1].extend(record)
    else:
        log.append(record)
    return room


def extend_output_log(log: list, records: list, limit: int | None) -> None:
    """Append ``records`` to ``log``, cut where the log would spell more
    than ``limit`` values (``None``: no limit)."""
    if limit is None:
        log.extend(records)
        return
    room = limit - sum(map(_log_size, log))
    for record in records:
        room = log_outputs(log, record, room)


def _normalize(value: Any) -> Any:
    """Recursively rewrite containers into order-independent, repr-stable
    structures (dicts/sets sorted, dataclasses expanded to fields)."""
    if isinstance(value, dict):
        items = [(_normalize(k), _normalize(v)) for k, v in value.items()]
        return ("dict", tuple(sorted(items, key=repr)))
    if isinstance(value, (set, frozenset)):
        return ("set", tuple(sorted((_normalize(v) for v in value), key=repr)))
    if isinstance(value, (list, tuple)):
        return ("seq", tuple(_normalize(v) for v in value))
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = tuple(
            (f.name, _normalize(getattr(value, f.name)))
            for f in dataclasses.fields(value)
        )
        return (type(value).__name__, fields)
    if hasattr(value, "__slots__") and not isinstance(value, type):
        slots = []
        for klass in type(value).__mro__:
            slots.extend(getattr(klass, "__slots__", ()))
        fields = tuple(
            (name, _normalize(getattr(value, name)))
            for name in slots
            if hasattr(value, name)
        )
        return (type(value).__name__, fields)
    return repr(value)
