"""Measurement primitives: sample summaries, CPU/RSS readings, spans.

Everything here observes the program from outside — wall clocks around
public calls, ``getrusage`` and ``/proc`` for CPU and memory.  Spans inside
``src/`` are a later issue (ROADMAP "Run traces").
"""

from __future__ import annotations

import json
import math
import os
import random
import resource
import statistics
import threading
import time
from contextlib import contextmanager
from pathlib import Path

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def summarize(samples: list[float], unit: str) -> dict:
    """Median, interquartile range and count of ``samples``."""
    if not samples:
        return {"value": 0.0, "unit": unit, "iqr": 0.0, "n": 0}
    if len(samples) >= 2:
        q1, _, q3 = statistics.quantiles(samples, n=4)
        iqr = q3 - q1
    else:
        iqr = 0.0
    return {
        "value": statistics.median(samples),
        "unit": unit,
        "iqr": iqr,
        "n": len(samples),
    }


def single(value: float, unit: str) -> dict:
    """A metric that is one exact reading (a count, a size), not a sample."""
    return {"value": value, "unit": unit, "iqr": 0.0, "n": 1}


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..1) of a non-empty sample."""
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def cpu_seconds() -> float:
    """User+system CPU of this process and of every child it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def process_cpu_seconds(pid: int) -> float:
    """User+system CPU of a *running* process, read from ``/proc``."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


class Calibrator:
    """How fast the machine runs the interpreter *right now*.

    Two fixed pure-Python loops of about 20 ms each: integer arithmetic
    (tracks the mask kernels) and tuple-keyed dict/set traffic over a 13 MB
    table, too big for the private caches (tracks the row kernels,
    aggregation and the process backend).  :meth:`slowdown` is the geometric
    mean of their times over the undisturbed times of the reference machine
    (2-core Xeon 2.1 GHz microVM, CPython 3.11); neither loop touches
    ``src/``.
    """

    ARITHMETIC_LOOP = 400_000
    ARITHMETIC_NOMINAL_S = 0.0175
    TABLE_KEYS = 60_000
    TABLE_NOMINAL_S = 0.0225

    def __init__(self) -> None:
        rng = random.Random(0)
        self._keys = [(rng.randrange(10**6), rng.randrange(10**6))
                      for _ in range(self.TABLE_KEYS)]
        self._table = {key: i for i, key in enumerate(self._keys)}
        self._order = list(range(0, self.TABLE_KEYS, 2))
        rng.shuffle(self._order)

    def slowdown(self) -> float:
        started = time.perf_counter()
        total = 0
        for i in range(self.ARITHMETIC_LOOP):
            total += i * i
        arithmetic = time.perf_counter() - started
        seen = set()
        for j in self._order:
            key = self._keys[j]
            total += self._table[key]
            seen.add((key[1], key[0]))
        table = time.perf_counter() - started - arithmetic
        return math.sqrt(arithmetic / self.ARITHMETIC_NOMINAL_S
                         * table / self.TABLE_NOMINAL_S)


class Interval:
    """Wall and CPU seconds of a ``with`` block, raw, plus the factor that
    calibrates them: ``raw x factor`` = seconds on the undisturbed machine.

    The shared host moves between speed regimes that last 5-25 s (most
    likely its cores dropping out of turbo when other tenants are busy, and
    cache contention on top): the same query takes 1.0x to 1.35x its best
    time, CPU time included, so a 12 s run reads whichever regime it lands
    in.  Measured spread between medians of 6-pass windows: FSM 16.6 % raw,
    7.0 % calibrated; cliques on the process backend 8.9 % -> 4.4 %; the
    mask-kernel query 4.3 % -> 5.0 % (arithmetic alone gave 2.3 % there but
    14.6 % on FSM).  The calibrator is sampled right before and after the
    block.  Raw values are kept beside the calibrated ones in every report.
    """

    def __init__(self, calibrator: Calibrator) -> None:
        self._calibrator = calibrator

    def __enter__(self) -> "Interval":
        self._before = self._calibrator.slowdown()
        self._cpu = cpu_seconds()
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.raw_wall = time.perf_counter() - self._started
        self.raw_cpu = cpu_seconds() - self._cpu
        self.factor = 2.0 / (self._before + self._calibrator.slowdown())


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set (MiB) of a *running* process: ``VmHWM`` from
    ``/proc``.  (``ru_maxrss`` of a child also remembers the size of the
    parent it was forked from, so it cannot be used for a spawned server.)"""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def peak_rss_mb() -> float:
    """Peak resident set (MiB): the larger of this process and its
    largest reaped child (``ru_maxrss`` is KiB on Linux).  Includes the
    benchmark's own ~20 MB (interpreter, calibrator table, oracle truth)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


class Tracer:
    """In-memory span recorder for the traced run.

    A span is ``{id, parent, name, start, end, workload, ...tags}``; the
    parent is the innermost open span of the same thread.  Disabled (the
    end-to-end passes) ``span`` costs one attribute test.  Spans stay in
    memory until :meth:`write`, which the worker calls in a ``finally``.
    """

    def __init__(self, workload: str, enabled: bool) -> None:
        self.workload = workload
        self.enabled = enabled
        self.spans: list[dict] = []
        self._open = threading.local()
        self._ids = iter(range(1, 1 << 62))
        self._lock = threading.Lock()

    def _next_id(self) -> int:
        with self._lock:
            return next(self._ids)

    @contextmanager
    def span(self, name: str, **tags):
        if not self.enabled:
            yield None
            return
        stack = self._open.__dict__.setdefault("stack", [])
        record = {
            "id": self._next_id(),
            "parent": stack[-1]["id"] if stack else None,
            "name": name,
            "workload": self.workload,
            "start": time.perf_counter(),
            "end": None,
            **tags,
        }
        self.spans.append(record)  # open spans survive a crash, end=None
        stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()

    def child_record(self, parent: dict | None, name: str, start: float,
                     seconds: float, **tags) -> None:
        """Attach a span measured by the program itself (a superstep wall
        from ``RunMetrics``) under ``parent``."""
        if not self.enabled or parent is None:
            return
        self.spans.append({
            "id": self._next_id(),
            "parent": parent["id"],
            "name": name,
            "workload": self.workload,
            "start": start,
            "end": start + seconds,
            **tags,
        })

    def self_seconds(self) -> dict[str, float]:
        """Per span name: duration minus the part its children cover."""
        covered: dict[int, float] = {}
        for span in self.spans:
            if span["parent"] is not None and span["end"] is not None:
                covered[span["parent"]] = covered.get(span["parent"], 0.0) + (
                    span["end"] - span["start"]
                )
        totals: dict[str, float] = {}
        for span in self.spans:
            if span["end"] is None:
                continue
            own = span["end"] - span["start"] - covered.get(span["id"], 0.0)
            totals[span["name"]] = totals.get(span["name"], 0.0) + max(own, 0.0)
        return totals

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, sort_keys=True) + "\n")
