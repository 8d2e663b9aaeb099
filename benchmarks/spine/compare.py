"""Compare two spine result files: ``compare.py A.json B.json`` (A = parent).

Prints one verdict per (end-to-end metric, workload):

* ``worse``      — B's median is worse than A's by more than the metric's
  bound in ``BENCHMARK.json``;
* ``better``     — better by more than the bound;
* ``same``       — within the bound;
* ``unresolved`` — either side's spread (IQR ÷ median) is wider than the
  bound, so the run cannot tell: never reported as ``same``.

Refuses to compare runs whose inputs (sha256), seed, pass length or
``nproc`` differ.  Exits non-zero on any ``worse`` or when B failed more
operations than A.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def comparable(a: dict, b: dict) -> list[str]:
    """Reasons the two runs must not be compared (empty when they can)."""
    reasons = [
        f"{key} differs: {a.get(key)!r} vs {b.get(key)!r}"
        for key in ("seed", "seconds", "nproc", "quick")
        if a.get(key) != b.get(key)
    ]
    for name in sorted(set(a["workloads"]) | set(b["workloads"])):
        sha_a = a["workloads"].get(name, {}).get("input", {}).get("sha256")
        sha_b = b["workloads"].get(name, {}).get("input", {}).get("sha256")
        if sha_a != sha_b:
            reasons.append(f"{name}: input sha256 differs")
    return reasons


def verdict(a: dict, b: dict, better: str, bound: float) -> tuple[str, float]:
    """``(verdict, signed change)``; positive change = B is worse."""
    if not a["value"]:
        return "unresolved", 0.0
    change = (b["value"] - a["value"]) / a["value"]
    if better == "higher":
        change = -change
    spread = max(
        side["iqr"] / side["value"] if side["value"] else 0.0 for side in (a, b)
    )
    if spread > bound:
        return "unresolved", change
    if change > bound:
        return "worse", change
    if change < -bound:
        return "better", change
    return "same", change


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(path).read_text()) for path in argv)
    reasons = comparable(a, b)
    if reasons:
        print("refusing to compare:\n  " + "\n  ".join(reasons), file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    worse = 0
    print(f"{'workload':<16}{'metric':<26}{'A':>14}{'B':>14}{'change':>9}  verdict")
    for name, side_a in a["workloads"].items():
        side_b = b["workloads"][name]
        for metric in spec["end_to_end"]:
            key = metric["name"]
            if key not in side_a.get("end_to_end", {}) or key not in side_b.get(
                "end_to_end", {}
            ):
                continue
            one, two = side_a["end_to_end"][key], side_b["end_to_end"][key]
            result, change = verdict(one, two, metric["better"], metric["bound"])
            worse += result == "worse"
            print(
                f"{name:<16}{key:<26}{one['value']:>14.4f}{two['value']:>14.4f}"
                f"{change * 100:>+8.1f}%  {result}"
            )
        share_a = side_a["failed"] / max(side_a["attempted"], 1)
        share_b = side_b["failed"] / max(side_b["attempted"], 1)
        if share_b > share_a:
            worse += 1
            print(f"{name:<16}failed_share rose: {share_a:.4f} -> {share_b:.4f}  worse")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
