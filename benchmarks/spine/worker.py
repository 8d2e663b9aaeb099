"""One benchmark job: run one workload in this (child) process.

``run.py`` spawns this file once per job and reads the JSON it leaves in
``--out``; the result file and the trace are written in ``finally`` blocks,
so a crashed or interrupted job still leaves what it measured.

Untraced mode (``--trace 0``) produces the end-to-end metrics: set-up
probes, one cold pass, warm passes for ``--seconds``, CLI runs, oracles.
Traced mode (``--trace 1``) produces the per-layer metrics: the same passes
with spans from the benchmark's own wrappers around each call into a
layer, then the layer ladder (:mod:`ladder`).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import measure  # noqa: E402
import workloads  # noqa: E402
from job import (  # noqa: E402
    HERE, Job, PassSample, probe_setup, report_end_to_end, run_cli,
)

SETUP_PROBES = 5
CLI_RUNS = 5


def probe_main(path: str) -> None:
    from repro import Miner
    from repro.graph import read_edge_list

    Miner(read_edge_list(path))
    print(repr(time.time()))


# ----------------------------------------------------------------------
# Passes over the query list
# ----------------------------------------------------------------------
class Pass:
    """One run of every query of the workload on the warm session.

    Times are raw clock readings; ``factor`` is the machine-speed factor
    of the moment (see :class:`measure.Interval`): raw x factor = calibrated.
    """

    def __init__(self) -> None:
        self.wall = self.cpu = 0.0
        self.factor = 1.0
        self.query_walls: list[float] = []
        self.results: list = []
        self.embeddings = 0


def run_pass(job: Job, miner, kind: str) -> Pass:
    done = Pass()
    tracer = job.tracer
    interval = measure.Interval(job.calibrator)
    with interval, tracer.span("pass", kind=kind):
        for query in job.workload.queries:
            with tracer.span("query", query=query.name):
                started = time.perf_counter()
                with tracer.span("query.build"):
                    built = query.build(miner, job.scratch, job.theta)
                with tracer.span("engine.run") as span:
                    result = built.run()
                with tracer.span("result.view"):
                    query.view(result)
                done.query_walls.append(time.perf_counter() - started)
            attach_supersteps(tracer, span, result)
            done.results.append(result)
            done.embeddings += result.total_processed
    done.wall, done.cpu, done.factor = (
        interval.raw_wall, interval.raw_cpu, interval.factor)
    return done


def attach_supersteps(tracer, span, result) -> None:
    """The program's own per-superstep walls become children of the
    ``engine.run`` span (laid end to end from its start)."""
    metrics = result.raw.metrics
    if span is None or metrics is None:
        return
    cursor = span["start"]
    for step in metrics.supersteps:
        tracer.child_record(
            span, "engine.superstep", cursor, step.wall_seconds,
            superstep=step.superstep, work_units=step.total_work,
        )
        cursor += step.wall_seconds


def fingerprint(result, full: bool):
    """What a repeated query must reproduce: its ``signature()`` byte for
    byte when ``full``, else its exact counters (serializing a signature
    costs about half a pass)."""
    if full:
        return result.signature()
    return (result.total_processed, result.total_candidates,
            result.num_outputs)


def check_pass(job: Job, done: Pass, reference: Pass | None,
               full: bool = True) -> None:
    """Pass 1 answers to the oracles; a later pass must repeat pass 1."""
    with job.tracer.span("oracle.check"):
        for index, query in enumerate(job.workload.queries):
            result = done.results[index]
            if reference is None:
                problems = query.check(result, job.truth)
            elif fingerprint(result, full) != fingerprint(
                    reference.results[index], full):
                problems = ["differs from pass 1"]
            else:
                problems = []
            job.tally.record(query.name, problems)


def warm_passes(job: Job, miner, reference: Pass, seconds: float,
                traced_every: int = 0) -> tuple[list[Pass], list[Pass]]:
    """Warm passes until ``seconds`` are spent (never fewer than the
    minimum).  With ``traced_every`` = 2 every second pass is traced, so
    traced and untraced walls come from the same stretch of time.  The
    last pass of each kind is checked by full signature."""
    untraced: list[Pass] = []
    traced: list[Pass] = []
    least = 2 if traced_every else job.min_passes
    deadline = time.perf_counter() + seconds
    count = 0
    while (time.perf_counter() < deadline or len(untraced) < least
           or (traced_every and len(traced) < least)):
        count += 1
        is_traced = bool(traced_every) and count % traced_every == 0
        same_kind = traced if is_traced else untraced
        if same_kind:
            # only the newest pass of each kind keeps its results: held
            # results would grow the heap, and the RSS, with every pass
            same_kind[-1].results = []
        job.tracer.enabled = is_traced
        done = run_pass(job, miner, "warm")
        check_pass(job, done, reference, full=False)
        same_kind.append(done)
    job.tracer.enabled = bool(traced_every)
    for done in (untraced[-1], *traced[-1:]):
        check_pass(job, done, reference)
    return untraced, traced


# ----------------------------------------------------------------------
# The two modes of a batch workload
# ----------------------------------------------------------------------
def open_session(job: Job):
    from repro import Miner
    from repro.graph import read_edge_list

    with job.tracer.span("load"):
        graph = read_edge_list(job.path)
    with job.tracer.span("session.open"):
        miner = Miner(graph)
    job.truth.graph = graph
    return graph, miner


def batch_end_to_end(job: Job) -> None:
    setup = [probe_setup(job) for _ in range(2 if job.quick else SETUP_PROBES)]
    _, miner = open_session(job)
    cold = run_pass(job, miner, "cold")
    check_pass(job, cold, None)
    warm, _ = warm_passes(job, miner, cold, job.seconds)
    rss = measure.peak_rss_mb()  # before the CLI children can raise it
    cli = [run_cli(job) for _ in range(1 if job.quick else CLI_RUNS)]

    job.report["passes"] = len(warm)
    job.report["embeddings_per_pass"] = warm[-1].embeddings
    job.report["cold_pass_s"] = cold.wall
    report_end_to_end(job, setup, cli, rss, [
        PassSample(p.wall, p.cpu, p.factor, p.embeddings,
                   p.query_walls[0] * 1e3, p.query_walls[1] * 1e3)
        for p in warm])
    job.report["queries"] = {
        query.name: measure.summarize(
            [p.query_walls[i] * p.factor * 1e3 for p in warm], "ms")
        for i, query in enumerate(job.workload.queries)
    }


def batch_layers(job: Job) -> None:
    import ladder

    job.tracer.enabled = True
    graph, miner = open_session(job)
    cold = run_pass(job, miner, "cold")
    check_pass(job, cold, None)
    after_cold = miner.cache_info()
    untraced, traced = warm_passes(
        job, miner, cold, job.seconds / 3, traced_every=2)
    job.report["passes"] = len(untraced) + len(traced)
    job.report["layers"] = ladder.batch_ladder(
        job, graph, miner, cold, untraced, traced, after_cold)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--probe", metavar="FILE")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    if args.probe:
        probe_main(args.probe)
        return 0
    if args.workload is None or args.out is None:
        parser.error("--workload and --out are required")

    job = Job(args)
    try:
        try:
            if job.workload.name == "service-mix":
                import service_mix

                service_mix.run(job)
            elif args.trace:
                batch_layers(job)
            else:
                batch_end_to_end(job)
        finally:
            if args.trace:
                trace_file = HERE / "results" / f"trace-{args.workload}.jsonl"
                job.tracer.write(trace_file)
                job.report["trace_file"] = trace_file.name
                job.report["trace_spans"] = len(job.tracer.spans)
    except BaseException:  # reported, then re-raised: the job must fail
        job.report["error"] = traceback.format_exc()
        raise
    finally:
        job.report["attempted"] = job.tally.attempted
        job.report["failed"] = len(job.tally.failures)
        job.report["failures"] = job.tally.failures
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(job.report, indent=1, sort_keys=True))
        shutil.rmtree(job.scratch, ignore_errors=True)
    return 1 if job.tally.failures else 0


if __name__ == "__main__":
    sys.exit(main())
