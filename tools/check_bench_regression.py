#!/usr/bin/env python
"""Bench-regression gate for the machine-readable benchmark artifacts.

Compares freshly produced ``benchmarks/results/BENCH_*.json`` files
against the committed quick-mode baselines in ``benchmarks/baselines/``
(``<name>.quick.json``), and fails when a tracked number regresses:

* **machine-independent counters** (states, candidate/survivor stream
  totals, match counts, batch sizes) must be *exactly* equal — any
  drift means kernel behavior changed, not the machine;
* **relative wall ratios** (``wall_ratio``, ``best_wall_ratio``, ...)
  may wobble with the host, but both sides of a ratio are measured on
  the same machine in the same run, so a drop beyond the tolerance
  (default 20%) is a real slowdown of the new kernel against the old
  one and fails the gate.  Improvements never fail.  Only ratios whose
  slow side is a frozen replay kept in the bench file are gated: the
  fused-DAG ratio divides by the live per-candidate *reference*
  (``DagStepper.candidates`` + ``check``), so making the reference
  faster would fail it — that kernel's wall is watched absolutely by
  the spine's ``plan.dag_step_ns_per_cand`` instead.  The cost-planner
  artifact's wall ratios divide one live plan's wall by another's and
  are not gated either (see ``LIVE_WALL_RATIO_ARTIFACTS``).

Usage::

    python tools/check_bench_regression.py \
        [--baselines benchmarks/baselines] \
        [--results benchmarks/results] \
        [--tolerance 0.20]

Every ``*.quick.json`` baseline must have a matching fresh result (the
CI quick-mode smoke produces them); a missing result, a missing
workload, a changed counter, or an out-of-tolerance ratio exits 1 with
the offending numbers listed.  Exit status 0 means no regressions.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Exactly-equal keys: machine-independent stream/batch counters.
EXACT_KEYS = (
    "states",
    "members",
    "matches",
    "candidates",
    "survivors",
    "candidates_exhaustive",
    "candidates_guided",
    "candidates_cost",
    "candidates_heuristic",
    "total_candidates_exhaustive",
    "total_candidates_guided",
    "total_candidates_cost",
    "total_candidates_heuristic",
)

#: Ratio keys: relative same-machine timings, tolerance-checked
#: (lower than baseline by more than the tolerance = regression).
RATIO_KEYS = (
    "wall_ratio",
    "candidate_ratio",
    "best_wall_ratio",
    "aggregate_wall_ratio",
    "aggregate_candidate_ratio",
    "best_skewed_wall_ratio",
)

#: Workload lists whose ``wall_ratio`` is reference-over-kernel (see the
#: module docstring): counters stay exact, the ratio is not gated.
REFERENCE_RATIO_LISTS = ("dag_workloads",)

#: The wall-clock members of ``RATIO_KEYS``.
WALL_RATIO_KEYS = (
    "wall_ratio",
    "best_wall_ratio",
    "aggregate_wall_ratio",
    "best_skewed_wall_ratio",
)

#: Artifacts whose wall ratios have no frozen side: the cost planner's is
#: heuristic-order wall / cost-order wall, both through today's runtime,
#: on a query whose cost-order run takes ~0.7 ms in quick mode.  Anything
#: that speeds up the runtime under both plans lowers it with no kernel
#: regressing — the committed 25.05 already read 19.13 at the parent of
#: the change that un-gated it (PR 16, before any edit), after PRs 12 and
#: 15 made the candidate-heavy heuristic side cheaper.  Counters and the
#: candidate ratios (machine-independent) stay gated.
LIVE_WALL_RATIO_ARTIFACTS = ("BENCH_cost_planner",)

#: Keys naming a workload entry inside a ``workloads``-style list.
IDENTITY_KEYS = ("graph", "query", "workload")


def _workload_id(entry: dict) -> tuple:
    return tuple(entry.get(key) for key in IDENTITY_KEYS)


def _compare_scalars(
    path: str,
    baseline: dict,
    fresh: dict,
    tolerance: float,
    ratios: tuple[str, ...] = RATIO_KEYS,
) -> list[str]:
    problems = []
    for key in EXACT_KEYS:
        if key in baseline:
            if key not in fresh:
                problems.append(f"{path}: counter {key!r} disappeared")
            elif fresh[key] != baseline[key]:
                problems.append(
                    f"{path}: counter {key!r} drifted "
                    f"{baseline[key]} -> {fresh[key]} (must be exact)"
                )
    for key in ratios:
        if key in baseline and isinstance(baseline[key], (int, float)):
            if key not in fresh:
                problems.append(f"{path}: ratio {key!r} disappeared")
                continue
            floor = baseline[key] * (1.0 - tolerance)
            if fresh[key] < floor:
                problems.append(
                    f"{path}: ratio {key!r} regressed "
                    f"{baseline[key]} -> {fresh[key]} "
                    f"(floor {floor:.3f} at {tolerance:.0%} tolerance)"
                )
    return problems


def compare_payloads(
    name: str, baseline: dict, fresh: dict, tolerance: float
) -> list[str]:
    """All regressions of ``fresh`` against ``baseline`` (empty = pass)."""
    ratios = tuple(
        key
        for key in RATIO_KEYS
        if name not in LIVE_WALL_RATIO_ARTIFACTS or key not in WALL_RATIO_KEYS
    )
    problems = _compare_scalars(name, baseline, fresh, tolerance, ratios)
    if baseline.get("quick") != fresh.get("quick"):
        problems.append(
            f"{name}: quick-mode flag mismatch "
            f"(baseline {baseline.get('quick')}, fresh {fresh.get('quick')}) "
            "— compare like with like"
        )
    for list_key, baseline_entries in baseline.items():
        if not (
            isinstance(baseline_entries, list)
            and baseline_entries
            and isinstance(baseline_entries[0], dict)
        ):
            continue
        fresh_entries = {
            _workload_id(entry): entry
            for entry in fresh.get(list_key, ())
            if isinstance(entry, dict)
        }
        for entry in baseline_entries:
            key = _workload_id(entry)
            label = f"{name}:{list_key}:{'/'.join(str(k) for k in key if k)}"
            fresh_entry = fresh_entries.get(key)
            if fresh_entry is None:
                problems.append(f"{label}: workload disappeared")
                continue
            problems.extend(
                _compare_scalars(
                    label,
                    entry,
                    fresh_entry,
                    tolerance,
                    () if list_key in REFERENCE_RATIO_LISTS else ratios,
                )
            )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baselines", default="benchmarks/baselines", type=Path
    )
    parser.add_argument("--results", default="benchmarks/results", type=Path)
    parser.add_argument("--tolerance", default=0.20, type=float)
    args = parser.parse_args(argv)

    baselines = sorted(args.baselines.glob("*.quick.json"))
    if not baselines:
        print(f"no *.quick.json baselines under {args.baselines}", flush=True)
        return 1
    problems: list[str] = []
    for baseline_path in baselines:
        name = baseline_path.name[: -len(".quick.json")]
        result_path = args.results / f"{name}.json"
        if not result_path.exists():
            problems.append(
                f"{name}: fresh result {result_path} missing "
                "(run the quick-mode benches first)"
            )
            continue
        baseline = json.loads(baseline_path.read_text())
        fresh = json.loads(result_path.read_text())
        found = compare_payloads(name, baseline, fresh, args.tolerance)
        problems.extend(found)
        status = "FAIL" if found else "ok"
        print(f"{name}: {status} ({result_path} vs {baseline_path})")
    if problems:
        print(f"\n{len(problems)} regression(s):")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print("no bench regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
