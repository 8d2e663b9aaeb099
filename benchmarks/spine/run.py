"""The measurement spine: one command, four workloads, every metric by name.

Two ways to call it, both from the repository root:

``python3 benchmarks/spine/run.py --workload W --seed N --seconds S --trace 0|1``
    One job (the ``BENCHMARK.json`` contract): runs workload ``W`` in a child
    process and prints, as the last line, one JSON object with ``correct``,
    ``attempted``, ``failed`` and ``metrics`` — the end-to-end metrics with
    ``--trace 0``, the per-layer metrics with ``--trace 1``.

``python3 benchmarks/spine/run.py [--seed N] [--seconds S] [--quick]``
    The whole benchmark: every workload untraced then traced, each job in
    its own child, results flushed to ``results/latest.json`` as each child
    finishes, tables printed, one row appended to
    ``results/TRAJECTORY.jsonl``.  ``--write-baseline`` also replaces
    ``results/BASELINE.json``; ``--quick`` is the < 30 s smoke mode (tiny
    inputs, oracles still hard, nothing committed is written).

Exit status is non-zero when any operation failed its oracle, a job crashed
or timed out, or the program under test (``src/repro``) is not there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RESULTS = HERE / "results"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
#: The contract allows a run 180 s; leave room to kill and report.
JOB_TIMEOUT = 170.0
QUICK_SECONDS = 1.0


def run_job(workload: str, seed: int, seconds: float, trace: int,
            quick: bool = False, self_test: bool = False,
            interrupt_after: float | None = None) -> dict:
    """Run one worker child to completion; return its report plus the
    child's ``wait4`` rusage (CPU of the job and all it reaped, peak RSS).

    The child leads its own process group, so a timeout or an interrupt
    here stops the server and pool workers it started as well.
    """
    out = HERE / ".work" / f"job-{os.getpid()}-{workload}-{trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--out", str(out)]
    argv += ["--quick"] * quick + ["--self-test"] * self_test
    started = time.perf_counter()
    child = subprocess.Popen(
        argv, start_new_session=True, stdout=subprocess.DEVNULL,
        # an interrupt on purpose (--self-test) need not show its traceback
        stderr=subprocess.DEVNULL if interrupt_after is not None else None)
    interrupted = False
    try:
        while True:
            pid, status, usage = os.wait4(child.pid, os.WNOHANG)
            if pid:
                break
            elapsed = time.perf_counter() - started
            if elapsed > JOB_TIMEOUT:
                os.killpg(child.pid, signal.SIGKILL)
            elif (interrupt_after is not None and not interrupted
                  and elapsed > interrupt_after):
                os.kill(child.pid, signal.SIGINT)
                interrupted = True
            time.sleep(0.02)
    except BaseException:  # interrupted ourselves: take the job down too
        os.killpg(child.pid, signal.SIGINT)
        try:
            child.wait(timeout=15)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
        raise
    child.returncode = os.waitstatus_to_exitcode(status)
    try:
        os.killpg(child.pid, signal.SIGKILL)  # anything the job left behind
    except ProcessLookupError:
        pass
    report = json.loads(out.read_text()) if out.exists() else {
        "workload": workload, "attempted": 0, "failed": 0, "failures": [],
        "error": "the job left no report"}
    out.unlink(missing_ok=True)
    report["job"] = {
        "exit_code": child.returncode,
        "wall_s": time.perf_counter() - started,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }
    if child.returncode != 0 and not report["failed"]:
        report.setdefault("error", f"job exited with {child.returncode}")
    return report


def metric_line(report: dict, trace: int) -> dict:
    """The contract's result object: every declared metric of the mode."""
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    measured = report.get("layers" if trace else "end_to_end", {})
    return {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            m["name"]: {
                "value": measured.get(m["name"], {}).get("value", 0.0),
                "unit": m["unit"],
            }
            for m in declared
        },
    }


# ----------------------------------------------------------------------
# The whole benchmark
# ----------------------------------------------------------------------
def git_commit() -> str:
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def fmt(metric: dict) -> str:
    return (f"{metric['value']:>14.4f} {metric['unit']:<6} "
            f"iqr {metric['iqr']:<10.4g} n {metric['n']}")


def print_tables(latest: dict) -> None:
    """Set-up, size and query latency as separate sections (the layout of
    the Tiny Search Engine README), baselines beside; then the layers."""
    sections = (
        ("Set-up (cold costs)", ("setup_s", "cli_wall_s"),
         ("cli.import_s", "cli.startup_overhead_s",
          "graph.read_edge_list_s", "session.cold_minus_warm_s")),
        ("Size", ("peak_rss_mb",),
         ("graph.memory_mb", "checkpoint.snapshot_bytes")),
        ("Query latency and throughput (warm)",
         ("warm_pass_s", "throughput_per_s", "cpu_s",
          "primary_query_ms_p50", "secondary_query_ms_p50"),
         ("baselines.esu_s", "baselines.grami_s", "baselines.bk_s",
          "baselines.ratio", "plan.guided_speedup")),
    )
    shown: set[str] = set()
    for title, end_to_end, beside in sections:
        print(f"\n== {title} ==")
        for name, result in latest["workloads"].items():
            print(f"  [{name}]")
            for metric in end_to_end:
                if metric in result.get("end_to_end", {}):
                    print(f"    {metric:<42}{fmt(result['end_to_end'][metric])}")
            for metric in beside:
                value = result.get("layers", {}).get(metric)
                if value and value["value"]:
                    print(f"      {metric:<40}{fmt(value)}")
        shown.update(beside)
    print("\n== Layers (metrics a workload does not exercise read 0) ==")
    for name, result in latest["workloads"].items():
        print(f"  [{name}]  attempted {result['attempted']}"
              f"  failed {result['failed']}")
        for metric, value in sorted(result.get("layers", {}).items()):
            if metric not in shown and value["value"]:
                print(f"    {metric:<42}{fmt(value)}")
        for failure in result["failures"][:10]:
            print(f"    FAILED {failure}")
        for key in ("error_0", "error_1"):
            if key in result:
                print(f"    ERROR {result[key].strip().splitlines()[-1]}")


def run_all(args: argparse.Namespace) -> int:
    seconds = QUICK_SECONDS if args.quick else args.seconds
    latest = {
        "schema": 1,
        "commit": git_commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "seconds": seconds,
        "quick": args.quick,
        "started": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "workloads": {},
    }
    RESULTS.mkdir(exist_ok=True)
    target = RESULTS / ("quick.json" if args.quick else "latest.json")
    for workload in WORKLOADS:
        merged = {"attempted": 0, "failed": 0, "failures": []}
        for trace in (0, 1):
            print(f"... {workload} trace={trace}", file=sys.stderr)
            report = run_job(workload, args.seed, seconds, trace, args.quick)
            for key in ("attempted", "failed", "failures"):
                merged[key] += report[key]
            for key in ("end_to_end", "raw_end_to_end", "layers", "queries",
                        "input", "theta", "trace_file", "embeddings_per_pass",
                        "cold_pass_s"):
                if key in report:
                    merged[key] = report[key]
            merged[f"passes_{trace}"] = report.get("passes", 0)
            merged[f"job_{trace}"] = report["job"]
            if "error" in report:
                merged[f"error_{trace}"] = report["error"]
                merged["failed"] += 1
            # flushed as each child finishes: a later crash loses nothing
            latest["workloads"][workload] = merged
            target.write_text(json.dumps(latest, indent=1, sort_keys=True))
    print_tables(latest)
    failed = sum(w["failed"] for w in latest["workloads"].values())
    if not args.quick:
        row = {
            "commit": latest["commit"], "started": latest["started"],
            "seed": args.seed, "seconds": seconds, "nproc": latest["nproc"],
            "python": latest["python"], "failed": failed,
            "end_to_end": {
                name: {m: v["value"] for m, v in w.get("end_to_end", {}).items()}
                for name, w in latest["workloads"].items()},
        }
        with open(RESULTS / "TRAJECTORY.jsonl", "a", encoding="utf-8") as out:
            out.write(json.dumps(row, sort_keys=True) + "\n")
        if args.write_baseline:
            (RESULTS / "BASELINE.json").write_text(target.read_text())
    print(f"\n{target.relative_to(ROOT)}: failed operations: {failed}")
    return 1 if failed else 0


def self_test() -> int:
    """The benchmark's own alarms: a corrupted expected count must fail the
    run, and an interrupted traced run must still leave its trace."""
    corrupted = run_job("dense-guided", 0, QUICK_SECONDS, 0, quick=True,
                        self_test=True)
    caught = corrupted["failed"] > 0 and corrupted["job"]["exit_code"] != 0
    print(f"corrupted oracle -> failed={corrupted['failed']} "
          f"exit={corrupted['job']['exit_code']}: "
          f"{'ok' if caught else 'NOT CAUGHT'}")
    trace = RESULTS / "trace-sparse-fsm.jsonl"
    trace.unlink(missing_ok=True)
    stopped = run_job("sparse-fsm", 0, 30.0, 1, quick=True,
                      interrupt_after=1.5)
    kept = (stopped["job"]["exit_code"] != 0 and trace.exists()
            and trace.stat().st_size > 0)
    print(f"interrupted traced run -> exit={stopped['job']['exit_code']} "
          f"trace kept={trace.exists()}: {'ok' if kept else 'TRACE LOST'}")
    return 0 if caught and kept else 1


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=20150704)
    parser.add_argument("--seconds", type=float,
                        default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--write-baseline", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    # a terminated benchmark takes its job down too (run_job cleans up)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    if not (ROOT / "src" / "repro" / "__init__.py").exists():
        print(f"error: the program under test is not at {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.workload is None:
        return run_all(args)
    report = run_job(args.workload, args.seed, args.seconds, args.trace,
                     args.quick)
    if "error" in report:
        print(report["error"], file=sys.stderr)
        return 1
    for failure in report["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps(metric_line(report, args.trace)))
    return 1 if report["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
