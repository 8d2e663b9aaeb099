"""The run container of the TLV/TLP baselines.

A baseline run is a list of the same per-superstep
:class:`~repro.core.results.SuperstepRecord` the Arabesque engine fills
(per-worker work units, message and byte counters), so one cost model
(:mod:`repro.bsp.cost_model`) prices both.  Workers report work units
through ``BspContext.add_work``; message sizes are metered automatically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.results import RunTotals, SuperstepRecord


@dataclass
class RunMetrics(RunTotals):
    """Metrics for a whole BSP run (one baseline job)."""

    #: The cluster size: every superstep is priced on this many workers.
    num_workers: int
    steps: list[SuperstepRecord] = field(default_factory=list)

    def new_superstep(self) -> SuperstepRecord:
        """Open the record for the next superstep and return it."""
        record = SuperstepRecord(step=len(self.steps), num_workers=self.num_workers)
        self.steps.append(record)
        return record
