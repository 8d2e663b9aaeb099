"""Deterministic cost model: a reader that prices a run's metered
supersteps into simulated cluster time.

The paper's scalability results (Figures 7 and 8, Table 3) were measured on
20 servers with 32 threads and a 10 GbE network.  We do not have that
testbed; per docs/architecture.md (substitution 1) we recover *simulated*
makespans from quantities the in-process engines meter exactly, one
:class:`~repro.core.results.SuperstepRecord` per superstep — the Arabesque
engine's :class:`~repro.core.results.RunResult` and the TLV/TLP baselines'
:class:`~repro.core.results.RunMetrics` carry the same records:

* per-worker **work units** — a superstep lasts as long as its busiest
  worker, so hotspots (the TLV/TLP failure mode) directly stretch the
  critical path;
* **point-to-point traffic** — per-message overhead plus bytes over the
  aggregate bandwidth of the cluster (sharded across workers);
* **broadcast traffic** — global state (e.g. merged ODAGs) must reach every
  worker, so its cost *does not shrink* as workers are added; this is the
  ODAG broadcast ceiling the paper observes for pattern-rich workloads;
* a fixed per-superstep **barrier**.

The defaults are calibrated to commodity-cluster magnitudes (10 GbE, ~1 µs
per fine-grained work unit, ~5 µs per small message).  Only *ratios* between
configurations are reported by the benchmarks, which makes the shapes robust
to the absolute constants.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.results import RunTotals, SuperstepRecord


@dataclass(frozen=True)
class CostModel:
    """Tunable constants of the simulated cluster.

    ``seconds_per_broadcast_byte`` models the per-server cost of receiving
    and de-serializing broadcast state (merged ODAGs): every worker pays it
    for the *whole* broadcast regardless of cluster size — "the per-server
    computational cost of de-serializing and filtering out embeddings
    remains constant" (paper, section 6.3).  This is the term that caps the
    scalability of pattern-rich workloads.
    """

    seconds_per_work_unit: float = 1e-6
    seconds_per_message: float = 5e-6
    bytes_per_second: float = 1.25e9  # 10 GbE
    seconds_per_broadcast_byte: float = 2e-8  # ~50 MB/s deserialization
    barrier_seconds: float = 0.002

    def superstep_seconds(self, step: SuperstepRecord, num_workers: int) -> float:
        """Simulated duration of one superstep on ``num_workers`` workers."""
        compute = step.max_work * self.seconds_per_work_unit
        p2p = (
            step.messages_sent * self.seconds_per_message
            + step.bytes_sent / self.bytes_per_second
        ) / max(num_workers, 1)
        if num_workers > 1:
            fan_out = (num_workers - 1) / num_workers
        else:
            fan_out = 0.0
        broadcast = step.broadcast_bytes * fan_out / self.bytes_per_second
        # Constant per server: does not shrink as workers are added.
        deserialize = step.broadcast_bytes * fan_out * self.seconds_per_broadcast_byte
        return compute + p2p + broadcast + deserialize + self.barrier_seconds

    def makespan(self, run: RunTotals) -> float:
        """Simulated end-to-end time of a run — an engine ``RunResult`` or a
        baseline ``RunMetrics`` — each superstep priced on the workers it
        ran on."""
        return sum(
            self.superstep_seconds(step, step.num_workers) for step in run.steps
        )


def speedup_curve(
    makespans: dict[int, float], baseline_workers: int | None = None
) -> dict[int, float]:
    """Speedups relative to the configuration with ``baseline_workers``.

    ``makespans`` maps worker count to simulated time.  When
    ``baseline_workers`` is None the smallest configuration is the baseline
    (the paper's Figure 8 uses 5 servers as the reference).
    """
    if not makespans:
        return {}
    if baseline_workers is None:
        baseline_workers = min(makespans)
    base = makespans[baseline_workers]
    return {
        workers: base / seconds if seconds > 0 else float("inf")
        for workers, seconds in sorted(makespans.items())
    }
