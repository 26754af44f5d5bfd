"""Run one phase of one workload in this (fresh) interpreter.

    python perfbench/phase.py --workload NAME --seed N --seconds S \
        --traced 0|1 --out RESULT.json

A phase is set-up, then ops in a closed loop until ``--seconds`` of
timed work have passed, then the output checks.  Set-up is the
workload's one-off ``prepare()`` (input generation) followed by
``SETUP_REPEATS`` full ``setup()`` runs; ``setup_s`` counts the
interpreter start, imports and ``prepare()`` once plus the median
``setup()``.  A :class:`~hostspeed.HostProbe` is sampled around every
set-up and between ops (its time is left out of every measurement);
each op's ``op_scale``, and the mean over the set-up's probe points,
convert to reference seconds.  The result file holds the raw samples; :mod:`run` turns them
into the reported metrics.  ``run.py`` starts every phase in its own interpreter
and temp directory, so no memo, sqlite file or peak-RSS reading carries
over between workloads, runs or phases.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402


def cpu_seconds() -> float:
    """User plus system CPU seconds of this process, all threads."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mb() -> float:
    # Linux reports ru_maxrss in KiB.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def digest(output) -> str:
    text = json.dumps(output, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


#: Full set-ups per phase; ``setup_s`` reports their median.
SETUP_REPEATS = 3
#: Before an op, the host probe is sampled if this many seconds have
#: passed since it last was: around every op longer than this, around
#: each run of shorter ones.
PROBE_INTERVAL_S = 1.0


def run_phase(
    name: str, seed: int, seconds: float, traced: bool, workdir: Path
) -> dict:
    from hostspeed import REFERENCE_PROBE_S, HostProbe
    from spans import Tracer, median
    from workloads import WORKLOADS, clear_process_memos

    probe_wall = 0.0

    def sample_probe() -> tuple[float, float]:
        nonlocal probe_wall
        wall, cpu = time.perf_counter(), cpu_seconds()
        probe.sample()
        spent = time.perf_counter() - wall
        probe_wall += spent
        return spent, cpu_seconds() - cpu

    probe = HostProbe()
    workload = WORKLOADS[name](seed, workdir)
    tracer = Tracer() if traced else None
    try:
        sample_probe()
        workload.prepare()
        once_s = time.perf_counter() - PROCESS_START - probe_wall
        sample_probe()
        setups: list[float] = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            workload.setup(tracer)
            setups.append(time.perf_counter() - start)
            sample_probe()
        setup_s = once_s + median(setups)
        # Set-up is scaled as a whole, by the mean of its probe points.
        ref_setup_s = setup_s * REFERENCE_PROBE_S / statistics.fmean(probe.seconds)

        latencies: list[float] = []
        outputs: list = []
        ok: list[bool | None] = []
        failed_ops: set[int] = set()
        roots: list[int] = []
        work_s: list[float] = []
        spans_s: list[tuple[float, float]] = []
        excluded_wall = excluded_cpu = 0.0
        cpu_start = cpu_seconds()
        loop_start = last_probe = time.perf_counter()
        while not latencies or (
            time.perf_counter() - loop_start - excluded_wall < seconds
        ):
            if time.perf_counter() - last_probe >= PROBE_INTERVAL_S:
                last_probe = time.perf_counter()
                spent_wall, spent_cpu = sample_probe()
                excluded_wall += spent_wall
                excluded_cpu += spent_cpu
            index = len(latencies)
            clear_process_memos()
            output = None
            start = time.perf_counter()
            with tracer.span("op") if tracer else nullcontext() as root:
                try:
                    output = workload.op(index, tracer)
                except Exception:  # noqa: BLE001 - a failed op is counted, not fatal
                    traceback.print_exc()
                    failed_ops.add(index)
            end = time.perf_counter()
            latencies.append(end - start)
            spans_s.append((start, end))
            if root is not None:
                roots.append(root.span_id)
                work = workload.TRACED_WORK_SPAN
                work_s.append(
                    root.wall_s
                    if work is None
                    else sum(
                        s.wall_s
                        for s in tracer.spans[root.span_id :]
                        if s.name == work
                    )
                )
            outputs.append(output)
            if index in failed_ops:
                ok.append(False)
            elif workload.CHECK_INLINE:
                check_wall, check_cpu = time.perf_counter(), cpu_seconds()
                ok.append(bool(workload.check(index, output)))
                excluded_wall += time.perf_counter() - check_wall
                excluded_cpu += cpu_seconds() - check_cpu
            else:
                ok.append(None)
        loop_wall = time.perf_counter() - loop_start - excluded_wall
        loop_cpu = cpu_seconds() - cpu_start - excluded_cpu
        sample_probe()
        op_scale = [probe.scale(start, end) for start, end in spans_s]
        rss = peak_rss_mb()
        layers = workload.layer_metrics(tracer, roots) if tracer else {}
        for index, output in enumerate(outputs):
            if ok[index] is None:
                ok[index] = bool(workload.check(index, output))
    finally:
        workload.close()
    return {
        "workload": name,
        "seed": seed,
        "traced": traced,
        "setup_s": setup_s,
        "ref_setup_s": ref_setup_s,
        "latencies_s": latencies,
        "op_scale": op_scale,
        "work_s": work_s or latencies,
        "loop_wall_s": loop_wall,
        "loop_cpu_s": loop_cpu,
        "peak_rss_mb": rss,
        "probe_s": probe.seconds,
        "ok": ok,
        "digests": [digest(o) for o in outputs],
        "layers": layers,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    result = run_phase(
        args.workload, args.seed, args.seconds, bool(args.traced), args.out.parent
    )
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
