#!/usr/bin/env python
"""CI bench regression guard: fresh cheetah speedups vs the committed baseline.

Re-runs the :mod:`benchmarks.bench_cheetah_perf` measurement (one
discarded warm-up pass, then median of ``--runs`` measured passes) and
compares the two headline ratios against the committed repo-root
``BENCH_cheetah.json`` baseline:

* ``primary_speedup`` — vectorized engine vs the seed ``_touch`` loop on
  the epic primary grid;
* ``kernel_speedup`` — stack-distance kernel vs the scalar survivor loop
  on the survivor-heavy synthetic grids;
* ``design_space_speedup`` — whole-design-space simulator vs cold
  per-line-size passes on the full multi-line-size grid;
* ``streaming_overhead`` — in-memory sweep seconds over chunked-trace
  sweep seconds (higher is better; 0.5 means streaming costs 2x);
* ``sampling_accuracy`` — 1 minus the max relative miss error of the
  interval-sampled sweep on the capacity-bound sampling grid
  (deterministic, so it ratchets tightly).

Speedups are *ratios* of two timings taken on the same runner, so they
are far more stable across machines than absolute seconds — but CI
runners are still noisy, hence the warm-up, the median, and a relative
``--tolerance`` (default 0.35: fail only when a fresh ratio drops more
than 35% below the committed baseline).  The fresh report is written to
``--json`` (a separate path, never the committed baseline) so CI can
upload it as an artifact.  Exit code 0 means no regression.

Each median is also printed against the benchmark's own acceptance
floor (the report's ``min_required_*`` value), so a kernel that no
longer clears its floor shows up.  That comparison is report-only: it
never fails the guard.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

_root = Path(__file__).resolve().parent.parent
for entry in (_root, _root / "src"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

from benchmarks.bench_cheetah_perf import run_benchmark, write_report  # noqa: E402

GUARDED_METRICS = (
    "primary_speedup",
    "kernel_speedup",
    "design_space_speedup",
    "streaming_overhead",
    "sampling_accuracy",
)

#: The report key holding each metric's acceptance floor.
FLOOR_KEYS = {
    "primary_speedup": "min_required_speedup",
    "kernel_speedup": "min_required_kernel_speedup",
    "design_space_speedup": "min_required_design_space_speedup",
    "streaming_overhead": "min_required_streaming_overhead",
    "sampling_accuracy": "min_required_sampling_accuracy",
}


def measure(runs: int, reps: int) -> list[dict]:
    """One discarded warm-up pass, then ``runs`` measured passes."""
    run_benchmark(reps=1, oracle=False)  # warm-up: caches, allocator, JIT-less numpy paths
    return [run_benchmark(reps=reps, oracle=False) for _ in range(runs)]


def guard(
    baseline: dict, reports: list[dict], tolerance: float
) -> tuple[dict, list[str]]:
    """Median-of-runs comparison; returns (fresh summary, failure list)."""
    fresh = dict(reports[len(reports) // 2])  # full report of the middle run
    failures = []
    for metric in GUARDED_METRICS:
        values = [r[metric] for r in reports]
        median = round(statistics.median(values), 2)
        required = fresh.get(FLOOR_KEYS[metric])
        if required is not None:
            verdict = "clears" if median >= required else "BELOW"
            print(
                f"{metric}: fresh median {median} vs acceptance floor "
                f"{FLOOR_KEYS[metric]} {required} -> {verdict} "
                "(report only)"
            )
        if metric not in baseline:
            continue  # baseline predates this metric; nothing to guard
        floor = round(baseline[metric] * (1.0 - tolerance), 2)
        fresh[f"{metric}_median"] = median
        fresh[f"{metric}_baseline"] = baseline[metric]
        fresh[f"{metric}_floor"] = floor
        status = "ok" if median >= floor else "REGRESSED"
        print(
            f"{metric}: baseline {baseline[metric]}x, fresh median "
            f"{median}x (runs: {values}), floor {floor}x -> {status}"
        )
        if median < floor:
            failures.append(
                f"{metric} regressed: median {median}x < floor {floor}x "
                f"(baseline {baseline[metric]}x, tolerance {tolerance:.0%})"
            )
    return fresh, failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline",
        type=Path,
        default=_root / "BENCH_cheetah.json",
        help="committed baseline report (repo root BENCH_cheetah.json)",
    )
    parser.add_argument(
        "--json",
        type=Path,
        default=Path("BENCH_cheetah_fresh.json"),
        help="where to write the fresh report (never the baseline path)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.35,
        help="allowed relative drop below the baseline speedups",
    )
    parser.add_argument(
        "--runs", type=int, default=3, help="measured passes (median taken)"
    )
    parser.add_argument(
        "--reps", type=int, default=1, help="timing reps within each pass"
    )
    args = parser.parse_args(argv)
    if not 0.0 <= args.tolerance < 1.0:
        parser.error("--tolerance must be in [0, 1)")
    if args.runs < 1 or args.reps < 1:
        parser.error("--runs and --reps must be >= 1")
    if args.json.resolve() == args.baseline.resolve():
        parser.error("--json must not overwrite the committed baseline")

    baseline = json.loads(args.baseline.read_text())
    reports = measure(args.runs, args.reps)
    fresh, failures = guard(baseline, reports, args.tolerance)
    write_report(fresh, args.json)
    print(f"fresh report written to {args.json}")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("bench guard: no regression")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
