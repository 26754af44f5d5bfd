"""Tests of the benchmark itself.

    python -m pytest perfbench/test_perfbench.py

They pin the metric names and units to ``BENCHMARK.json``, show that
the output checks catch a perturbed miss count, that p90 is refused
below 100 samples, that the traced explore op runs the real pipeline,
that times are scaled by the host probe, and that a seed no tuning
used runs clean.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(HERE), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import hostspeed  # noqa: E402
import phase  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

#: A workload seed not used while the benchmark was tuned.
HELD_OUT_SEED = 987_654


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def test_metric_names_and_units_match_benchmark_json():
    spec = benchmark_spec()
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)


def test_p90_is_refused_below_100_samples():
    with pytest.raises(ValueError):
        spans.p90([0.001 * i for i in range(99)])
    assert spans.p90([float(i) for i in range(100)]) == pytest.approx(89.9)


def test_self_time_excludes_child_spans():
    tracer = spans.Tracer()
    with tracer.span("op") as root:
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                inner.counts["n"] = 3
    self_s = tracer.self_seconds(root.span_id)
    assert set(self_s) == {"outer", "inner"}
    assert self_s["outer"] == pytest.approx(outer.wall_s - inner.wall_s)
    assert tracer.counts(root.span_id) == {"n": 3}


def test_spans_around_traces_the_named_calls_and_restores_them():
    import math

    tracer = spans.Tracer()
    original = math.gcd
    target = (math, "gcd", "math.gcd", lambda result: {"calls": 1})
    with spans.spans_around(tracer, [target]):
        assert math.gcd(12, 18) == 6
    assert math.gcd is original
    assert [s.name for s in tracer.spans] == ["math.gcd"]
    assert tracer.counts() == {"calls": 1}
    with spans.spans_around(None, [target]):
        assert math.gcd is original


def test_traced_explore_runs_the_real_pipeline_with_a_span_per_layer(tmp_path):
    from repro.experiments import pipeline

    explore = workloads.ExploreCold(1, tmp_path)
    compile_program = pipeline.compile_program
    plain = explore._explore(None, 0.25, 3_000, 11)
    tracer = spans.Tracer()
    with tracer.span("op") as root:
        traced = explore._explore(tracer, 0.25, 3_000, 11)
    assert pipeline.compile_program is compile_program
    assert traced == plain
    assert isinstance(explore._provider, pipeline.ExperimentPipeline)
    recorded = {s.name for s in tracer.spans}
    assert set(explore.TIME_LAYERS) <= recorded
    metrics = explore.layer_metrics(tracer, [root.span_id])
    assert 0.9 <= metrics["bench.layer_coverage"] <= 1.0
    assert metrics["trace.events"] > 0 and metrics["trace.ranges"] > 0


def test_layer_coverage_counts_only_the_named_layers():
    tracer = spans.Tracer()
    with tracer.span("op") as root:
        with tracer.span("explore.walk") as walk:
            with tracer.span("unnamed"):
                time.sleep(0.02)
            time.sleep(0.02)
    metrics = workloads.traced_layer_metrics(
        tracer, [root.span_id], ("explore.walk",), (), ("explore.walk",)
    )
    own = walk.wall_s - tracer.spans[2].wall_s
    assert metrics["bench.layer_coverage"] == pytest.approx(own / root.wall_s)
    assert metrics["bench.layer_coverage"] < 0.75


def test_host_probe_scales_to_reference_seconds():
    probe = hostspeed.HostProbe()
    probe.sample()
    probe.sample()
    assert len(probe.seconds) == 2 and all(s > 0 for s in probe.seconds)
    ref = hostspeed.REFERENCE_PROBE_S
    probe.times, probe.seconds = [0.0, 10.0, 20.0], [ref, 3 * ref, ref]
    assert probe.scale(1.0, 9.0) == pytest.approx(0.5)
    assert probe.scale(11.0, 19.0) == pytest.approx(0.5)
    assert probe.scale(1.0, 19.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        probe.scale(1.0, 21.0)
    phase_result = {
        "ref_setup_s": 2.0, "latencies_s": [2.0, 2.0], "op_scale": [0.5, 0.5],
        "loop_wall_s": 4.0, "loop_cpu_s": 4.0, "peak_rss_mb": 100.0,
    }
    metrics = run.end_to_end(phase_result)
    assert metrics["setup_s"] == 2.0
    assert metrics["latency_p50_s"] == pytest.approx(1.0)
    assert metrics["cpu_s_per_op"] == pytest.approx(1.0)
    assert metrics["ops_per_s"] == pytest.approx(1.0)
    assert metrics["peak_rss_mb"] == 100.0


def test_perturbed_sweep_miss_count_fails_the_check(tmp_path):
    from repro.trace.chunkstore import write_chunked

    rng = np.random.default_rng(7)
    starts = rng.integers(0, 1 << 16, 20_000, dtype=np.int64)
    sizes = rng.integers(1, 65, 20_000, dtype=np.int64)
    sweep = workloads.SweepStream(1, tmp_path)
    write_chunked(tmp_path / "t.rct", starts, sizes, chunk_ranges=4096)
    from repro.trace.chunkstore import ChunkedTrace

    sweep.trace = ChunkedTrace(tmp_path / "t.rct")
    try:
        rows = sweep.op(0, None)
        assert sweep.check(0, rows)
        perturbed = [list(row) for row in rows]
        perturbed[5][1] += 1
        assert not sweep.check(0, perturbed)
    finally:
        sweep.close()


def test_perturbed_service_results_fail_the_check(tmp_path):
    service = workloads.ServiceMix(3, tmp_path)
    service.setup(None)
    try:
        outputs = [service.op(index, None) for index in range(40)]
        new = [i for i in range(40) if service._plan(i)[0]]
        repeat = [i for i in range(40) if not service._plan(i)[0]]
        assert new and repeat
        assert all(service.check(i, out) for i, out in enumerate(outputs))
        for index in (new[0], repeat[0]):
            perturbed = json.loads(json.dumps(outputs[index]))
            perturbed["rows"][2][4] += 1
            assert not service.check(index, perturbed)
        resimulated = dict(outputs[repeat[0]], simulated=1)
        assert not service.check(repeat[0], resimulated)
    finally:
        service.close()


class _FlakyWorkload:
    """Op 1 raises and op 2 returns a wrong output; the rest are right."""

    name = "flaky"
    CHECK_INLINE = False
    TRACED_WORK_SPAN = None

    def __init__(self, seed, workdir):
        pass

    def prepare(self):
        pass

    def setup(self, tracer):
        pass

    def op(self, index, tracer):
        if index == 1:
            raise RuntimeError("injected op failure")
        return index + (index == 2)

    def check(self, index, output):
        return output == index

    def close(self):
        pass


def test_failed_and_wrong_ops_are_counted(tmp_path, monkeypatch):
    monkeypatch.setitem(workloads.WORKLOADS, "flaky", _FlakyWorkload)
    result = phase.run_phase("flaky", 1, 0.05, False, tmp_path)
    assert len(result["ok"]) >= 3
    assert result["ok"][:3] == [True, False, False]
    reported = run.report(run.end_to_end(result), run.END_TO_END, [result], 0)
    assert not reported["correct"]
    assert reported["failed"] == result["ok"].count(False) >= 2


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_held_out_seed_runs_clean(workload):
    done = run_benchmark(
        ROOT, "--workload", workload, "--seed", str(HELD_OUT_SEED),
        "--seconds", "1", "--trace", "0",
    )
    assert done.returncode == 0, done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_layer_and_matches_untraced():
    done = run_benchmark(
        ROOT, "--workload", "service_mix", "--seed", str(HELD_OUT_SEED),
        "--seconds", "2", "--trace", "1",
    )
    assert done.returncode == 0, done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert set(metrics) == set(run.PER_LAYER)
    assert {name: m["unit"] for name, m in metrics.items()} == run.PER_LAYER
    assert metrics["service.store_hit_ratio"]["value"] > 0.5
    assert metrics["analytics.runs_recorded"]["value"] >= 1


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE,
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = run_benchmark(
        tmp_path, "--workload", "service_mix", "--seed", "1",
        "--seconds", "1", "--trace", "0",
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
