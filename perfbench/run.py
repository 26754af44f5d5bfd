"""The repository's end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  ``--trace 0`` runs one untraced phase of
the workload and reports the end-to-end metrics.  ``--trace 1`` runs an
untraced and a traced phase (``S / 2`` seconds each, same seed), checks
that both produced the same outputs, and reports the per-layer metrics
plus the tracing overhead.  Every phase runs in a fresh interpreter with
its own temp directory under ``.perfbench_work/``.  Times are reported
in reference seconds, scaled by the host probe around each op and
set-up (see ``perfbench/hostspeed.py``); ``bench.host_slowdown`` gives
the traced phase's measured over reference seconds.

The last line of standard output is one JSON object::

    {"correct": true, "attempted": 12, "failed": 0,
     "metrics": {"setup_s": {"value": 5.1, "unit": "s"}, ...}}

Exits non-zero without printing a result when the sources are missing
or a phase fails.  See ``perfbench/README.md`` for the workloads and the
layer-to-metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from spans import median, p90

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
WORKLOAD_NAMES = ("explore_cold", "sweep_stream", "service_mix")
#: Every run must end within this many seconds.
RUN_BUDGET_S = 170.0

#: End-to-end metrics (untraced phase) and their units.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_s": "s",
    "cpu_s_per_op": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (traced run) and their units.  A workload reports
#: 0 for a layer it does not exercise.
PER_LAYER = {
    "workloads.load_s": "s",
    "machine.mdes_s": "s",
    "vliwcomp.compile_s": "s",
    "iformat.assemble_s": "s",
    "iformat.link_s": "s",
    "trace.emulate_s": "s",
    "trace.events": "count",
    "trace.generate_s": "s",
    "trace.ranges": "count",
    "core.cycles_s": "s",
    "core.dilation_s": "s",
    "ahh.params_s": "s",
    "cache.prime_s": "s",
    "explore.query_s": "s",
    "explore.walk_s": "s",
    "explore.frontier_points": "count",
    "trace.chunk_write_s": "s",
    "trace.chunk_read_s": "s",
    "trace.chunk_bytes": "B",
    "cache.sweep_chunked_s": "s",
    "cache.sweep_memory_s": "s",
    "cache.stream_overhead": "ratio",
    "cache.refs": "count",
    "cache.configs": "count",
    "service.submit_s": "s",
    "service.queue_wait_s": "s",
    "service.exec_repeat_s": "s",
    "service.poll_s": "s",
    "service.http_requests": "count",
    "service.exec_new_s": "s",
    "service.configs_simulated": "count",
    "service.configs_from_store": "count",
    "service.store_hit_ratio": "ratio",
    "service.db_mb": "MB",
    "analytics.runs_recorded": "count",
    "latency_p90_s": "s",
    "bench.layer_coverage": "ratio",
    "bench.trace_overhead": "ratio",
    "bench.host_slowdown": "ratio",
}


class PhaseError(RuntimeError):
    pass


def run_phase(
    workload: str, seed: int, seconds: float, traced: bool, deadline: float
) -> dict:
    """One phase in a fresh interpreter and temp directory."""
    WORK_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_ROOT, prefix=f"{workload}-") as workdir:
        out = Path(workdir) / "phase.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
        env["TMPDIR"] = workdir
        command = [
            sys.executable,
            str(HERE / "phase.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", repr(seconds),
            "--traced", "1" if traced else "0",
            "--out", str(out),
        ]
        try:
            # The phase's own output goes to our stderr: stdout carries
            # only the result line.
            done = subprocess.run(
                command,
                cwd=workdir,
                env=env,
                stdout=sys.stderr,
                timeout=max(deadline - time.monotonic(), 1.0),
            )
        except subprocess.TimeoutExpired as exc:
            raise PhaseError(f"{workload} phase timed out") from exc
        if done.returncode != 0:
            raise PhaseError(f"{workload} phase exited {done.returncode}")
        return json.loads(out.read_text())


def reference_times(
    phase: dict, samples: str = "latencies_s"
) -> tuple[list[float], float]:
    """A phase's per-op ``samples`` in reference seconds, and the
    phase's reference seconds per measured second of op time."""
    measured = phase[samples]
    scaled = [t * k for t, k in zip(measured, phase["op_scale"])]
    return scaled, sum(scaled) / sum(measured)


def end_to_end(phase: dict) -> dict[str, float]:
    ops = len(phase["latencies_s"])
    latencies, speed = reference_times(phase)
    return {
        "setup_s": phase["ref_setup_s"],
        "ops_per_s": ops / (phase["loop_wall_s"] * speed),
        "latency_p50_s": median(latencies),
        "cpu_s_per_op": phase["loop_cpu_s"] / ops * speed,
        "peak_rss_mb": phase["peak_rss_mb"],
    }


def per_layer(plain: dict, traced: dict) -> tuple[dict[str, float], int]:
    """Per-layer metrics and the number of ops whose traced output
    differs from the untraced one."""
    unknown = set(traced["layers"]) - set(PER_LAYER)
    if unknown:
        raise PhaseError(f"undeclared per-layer metrics {sorted(unknown)}")
    plain_latencies, _ = reference_times(plain)
    traced_work, _ = reference_times(traced, "work_s")
    _, traced_speed = reference_times(traced)
    metrics = {name: 0.0 for name in PER_LAYER}
    for name, value in traced["layers"].items():
        metrics[name] = value * traced_speed if PER_LAYER[name] == "s" else value
    try:
        metrics["latency_p90_s"] = p90(plain_latencies)
    except ValueError:
        pass  # too few samples for a tail percentile: left at 0
    metrics["bench.trace_overhead"] = (
        median(traced_work) / median(plain_latencies) - 1.0
    )
    metrics["bench.host_slowdown"] = 1.0 / traced_speed
    mismatches = sum(
        a != b for a, b in zip(plain["digests"], traced["digests"])
    )
    return metrics, mismatches


def report(
    metrics: dict[str, float],
    units: dict[str, str],
    phases: list[dict],
    mismatches: int,
) -> dict:
    attempted = sum(len(p["ok"]) for p in phases)
    failed = sum(not ok for p in phases for ok in p["ok"]) + mismatches
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": units[name]}
            for name in units
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        if args.trace == 0:
            phase = run_phase(args.workload, args.seed, args.seconds, False, deadline)
            result = report(end_to_end(phase), END_TO_END, [phase], 0)
        else:
            half = args.seconds / 2.0
            plain = run_phase(args.workload, args.seed, half, False, deadline)
            traced = run_phase(args.workload, args.seed, half, True, deadline)
            metrics, mismatches = per_layer(plain, traced)
            result = report(metrics, PER_LAYER, [plain, traced], mismatches)
    except PhaseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
