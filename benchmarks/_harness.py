"""Shared helpers for the benchmark suite.

Every bench regenerates one of the paper's tables or figures.  Results are
printed and also written to ``benchmarks/results/<name>.txt`` so they
survive pytest's output capture; EXPERIMENTS.md records the paper-vs-
measured comparison for each experiment.

The workloads run on the synthetic datasets of :mod:`repro.datasets` at
scales calibrated to keep each bench in the seconds range (the paper's own
parameters — e.g. FSM support thresholds — are rescaled alongside the
graphs; the *shape* of each result is the reproduction target, per
DESIGN.md).

Micro-benchmark note — step-0 universe caching: the engine materializes
``initial_candidates(graph, mode)`` once per run (``ArabesqueEngine.
_zero_pool``) instead of per worker pass.  For the in-memory
``LabeledGraph`` the candidate set is a ``range``, so the old per-worker
rebuild cost O(1) and the measured win on Motifs-MiCo (scale 0.02,
32 workers) is under 1 ms — the caching matters structurally, not for
these benches: the step-0 :class:`~repro.runtime.tasks.StepContext` now
carries one shared tuple, so the process backend ships/inherits the
universe once per step instead of regenerating it per task, and any future
graph whose candidate enumeration is *not* O(1) (disk-backed or filtered
universes) is automatically amortized across workers and backends.
"""

from __future__ import annotations

import json
from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"


def report(name: str, title: str, lines: list[str]) -> str:
    """Print a result block and persist it under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    body = "\n".join([f"== {title} ==", *lines, ""])
    print("\n" + body)
    (RESULTS_DIR / f"{name}.txt").write_text(body, encoding="utf-8")
    return body


def report_json(name: str, payload: dict) -> Path:
    """Persist a machine-readable result under benchmarks/results/.

    Written alongside the human-readable ``report`` block so CI (and any
    regression tooling) can assert on exact numbers instead of parsing
    the text table.  Keys are sorted for stable diffs.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.json"
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return path


def fmt_count(value: float) -> str:
    """Human-scale count formatting (1234567 -> '1.23e+06')."""
    if value >= 1_000_000:
        return f"{value:.2e}"
    return f"{int(value):,}"
