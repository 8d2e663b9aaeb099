"""What one benchmark job shares between its phases, and where things live."""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import inputs  # noqa: E402
import measure  # noqa: E402
import workloads  # noqa: E402

MIN_WARM_PASSES = 3


def child_env() -> dict[str, str]:
    """Environment for ``python -m repro`` children: the checkout's src."""
    return {**os.environ, "PYTHONPATH": str(SRC)}


class Tally:
    """Operations attempted and the failures among them."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{what}: " + "; ".join(problems))


class Job:
    """Everything one workload run shares between its phases."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.workload = workloads.WORKLOADS[args.workload]
        self.quick = args.quick
        self.seconds = args.seconds
        self.theta = workloads.QUICK_THETA if args.quick else workloads.THETA
        self.scratch = HERE / ".work" / f"{args.workload}-{os.getpid()}"
        self.scratch.mkdir(parents=True, exist_ok=True)
        spec = self.workload.quick_graph if args.quick else self.workload.graph
        self.input = inputs.write_input(spec, args.seed, self.scratch)
        self.path = self.input["path"]
        self.truth = workloads.Truth(self.path, self.theta, args.self_test)
        self.tracer = measure.Tracer(args.workload, enabled=False)
        self.calibrator = measure.Calibrator()
        self.tally = Tally()
        self.min_passes = 2 if args.quick else MIN_WARM_PASSES
        self.report: dict = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "quick": args.quick,
            "input": {k: v for k, v in self.input.items() if k != "path"},
            "theta": self.theta,
        }


# ----------------------------------------------------------------------
# Set-up probes and CLI runs (both are child processes of this worker)
# ----------------------------------------------------------------------
def probe_setup(job: Job) -> tuple[float, float]:
    """Child start -> session ready: interpreter, ``import repro``,
    ``read_edge_list``, ``Miner(graph)`` in a fresh process.
    Returns ``(raw seconds, calibrated seconds)``."""
    with measure.Interval(job.calibrator) as interval:
        started = time.time()
        done = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--probe", job.path],
            env=child_env(), capture_output=True, text=True, timeout=60,
        )
    problems = [] if done.returncode == 0 else [done.stderr[-300:]]
    job.tally.record("setup probe", problems)
    raw = float(done.stdout) - started if not problems else 0.0
    return raw, raw * interval.factor


def run_cli(job: Job) -> tuple[float, float]:
    """One cold ``python -m repro <primary query>``: what a CLI user waits
    for — interpreter, import, load, catalog, compile, run, print.
    Returns ``(raw seconds, calibrated seconds)``."""
    argv = job.workload.cli(job.path, job.scratch, job.theta)
    with measure.Interval(job.calibrator) as interval:
        done = subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            env=child_env(), capture_output=True, text=True, timeout=120,
        )
    expect = job.workload.cli_expect(job.truth)
    problems = []
    if done.returncode != 0:
        problems.append(f"exit {done.returncode}: {done.stderr[-300:]}")
    elif expect not in done.stdout:
        problems.append(f"output lacks {expect!r}")
    job.tally.record(f"cli {argv[0]}", problems)
    return interval.raw_wall, interval.raw_wall * interval.factor


# ----------------------------------------------------------------------
# The end-to-end report (the same eight metrics on every workload)
# ----------------------------------------------------------------------
@dataclass
class PassSample:
    """One warm pass, raw: seconds, CPU seconds, units of work done
    (embeddings or requests), primary and secondary latency in ms, and the
    machine-speed factor of the moment (raw x factor = calibrated)."""

    wall: float
    cpu: float
    factor: float
    work: float
    primary_ms: float
    secondary_ms: float


def report_end_to_end(job: Job, setup: list[tuple[float, float]],
                      cold: list[tuple[float, float]], rss_mb: float,
                      passes: list[PassSample]) -> None:
    """Fill ``raw_end_to_end`` and ``end_to_end`` (calibrated) from
    ``(raw, calibrated)`` set-up and cold-start samples and the passes."""
    for section, calibrated in (("raw_end_to_end", 0), ("end_to_end", 1)):
        scale = [p.factor if calibrated else 1.0 for p in passes]
        walls = [p.wall * k for p, k in zip(passes, scale)]
        job.report[section] = {
            "setup_s": measure.summarize([s[calibrated] for s in setup], "s"),
            "warm_pass_s": measure.summarize(walls, "s"),
            "throughput_per_s": measure.summarize(
                [p.work / w for p, w in zip(passes, walls)], "1/s"),
            "cpu_s": measure.summarize(
                [p.cpu * k for p, k in zip(passes, scale)], "s"),
            "peak_rss_mb": measure.single(rss_mb, "MiB"),
            "cli_wall_s": measure.summarize([c[calibrated] for c in cold], "s"),
            "primary_query_ms_p50": measure.summarize(
                [p.primary_ms * k for p, k in zip(passes, scale)], "ms"),
            "secondary_query_ms_p50": measure.summarize(
                [p.secondary_ms * k for p, k in zip(passes, scale)], "ms"),
        }
