"""Shared helpers for the benchmark suite.

Every bench regenerates one of the paper's tables or figures.  Results are
printed and also written to ``benchmarks/results/<name>.txt`` so they
survive pytest's output capture.

The workloads run on the synthetic datasets of :mod:`repro.datasets` at
scales calibrated to keep each bench in the seconds range (the paper's own
parameters — e.g. FSM support thresholds — are rescaled alongside the
graphs; the *shape* of each result is the reproduction target, see
"Substitutions" in docs/architecture.md).
"""

from __future__ import annotations

from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"


def report(name: str, title: str, lines: list[str]) -> str:
    """Print a result block and persist it under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    body = "\n".join([f"== {title} ==", *lines, ""])
    print("\n" + body)
    (RESULTS_DIR / f"{name}.txt").write_text(body, encoding="utf-8")
    return body


def fmt_count(value: float) -> str:
    """Human-scale count formatting (1234567 -> '1.23e+06')."""
    if value >= 1_000_000:
        return f"{value:.2e}"
    return f"{int(value):,}"
