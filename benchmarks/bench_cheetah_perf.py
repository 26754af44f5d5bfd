"""Cheetah engine speedup: vectorized single-pass vs the seed `_touch` path.

Times the vectorized :class:`repro.cache.cheetah.CheetahSimulator` against
the preserved seed implementation (:mod:`repro.oracles.legacy`) on the
epic unified reference trace — the same workload ``bench_micro`` uses —
across two paper-realistic sweep grids, and verifies that every miss
count on the grid is bit-identical between the two engines, with
spot-checks against the stateful :class:`CacheSimulator` ground truth.

The primary grid (64 B lines, 3 set counts, 8-way histograms) is the
configuration the memory evaluator runs during design-space exploration;
the acceptance gate asserts a >= 5x speedup there.  A second section
times the stack-distance kernel against the scalar survivor loop
(:mod:`repro.oracles.scalar`) on survivor-heavy synthetic grids, and a
third times the *whole-design-space* simulator
(:class:`repro.cache.designspace.DesignSpaceSimulator`) on the full
multi-line-size grid against cold per-line-size passes and against the
seed path.  Results are written to
``benchmarks/results/BENCH_cheetah.json``.

Runs two ways:

* ``PYTHONPATH=src python -m pytest benchmarks/bench_cheetah_perf.py``
* ``python benchmarks/bench_cheetah_perf.py [--smoke] [--json PATH]``

``--smoke`` does a single timing rep and skips the slow ground-truth
oracle — used by CI to produce the JSON artifact without gating on
runner timing noise.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

if __package__ in (None, ""):  # script mode: python benchmarks/bench_...
    _root = Path(__file__).resolve().parent.parent
    for entry in (_root, _root / "src"):
        if str(entry) not in sys.path:
            sys.path.insert(0, str(entry))

import numpy as np

from benchmarks.conftest import BENCH_SETTINGS, RESULTS_DIR
from repro.cache.cheetah import CheetahSimulator
from repro.cache.config import CacheConfig
from repro.cache.linestream import clear_line_stream_cache
from repro.cache.simulator import CacheSimulator
from repro.experiments.runner import get_pipeline
from repro.oracles import LegacyCheetahSimulator, ScalarCheetahSimulator

MIN_SPEEDUP = 5.0

#: Floor for the stack-distance kernel vs the scalar survivor loop on the
#: survivor-heavy grids below (same expansion/pre-pass work on both sides,
#: so this isolates the interpreter-loop replacement).
MIN_KERNEL_SPEEDUP = 3.0

#: Floors for the whole-design-space kernel on the full multi-line-size
#: grid: shared expansion/fingerprint/derivation vs independent
#: per-line-size vectorized passes (cold, as pre-PR sweeps paid them),
#: and vs the seed `_touch` path.  The per-size stack-distance counting
#: floor is common to both sides and dominates on epic (fine stream is
#: only ~391k lines, so near-linear radix sorts leave little to
#: amortize); measured headroom is ~1.1-1.3x depending on machine
#: state, ratcheted with margin.  The seed ratio has measured 8.1-12.2x
#: across idle runs (best-of-3 seed ~1.3s, design-space 0.15-0.18s), so its
#: floor is the worst-case pairing of those extremes with margin, not
#: the best case.
MIN_DESIGN_SPACE_SPEEDUP = 1.05
MIN_DESIGN_SPACE_SEED_SPEEDUP = 7.0

#: Floor for the chunked-trace streaming sweep vs the in-memory sweep on
#: the streaming grid below.  The metric is a ratio with the
#: in-memory time on top (``in_memory_seconds / chunked_seconds``), so
#: *higher is better* and a value of 0.5 means streaming costs 2x.  The
#: chunked path trades the in-memory path's line-stream memo for bounded
#: memory (each 64 Ki-range chunk is expanded, counted and settled on
#: its own); measured 0.45-0.62 across idle runs, ratcheted against the
#: worst with margin.
MIN_STREAMING_OVERHEAD = 0.30

#: Floor for interval-sampling accuracy: ``1 - max relative miss error``
#: of the sampled sweep against the exact sweep over the sampling grid
#: (capacity-bound caches up to 64 KiB — the paper's embedded domain).
#: The acceptance criterion is measured error <= 5%.  Caches whose
#: capacity rivals the sampled window footprint are excluded: their
#: misses are dominated by cold-start state no per-window warm-up can
#: reconstruct, which is a documented limitation of interval sampling,
#: not a regression.  Measured max error ~3.2% with the plan below.
MIN_SAMPLING_ACCURACY = 0.95

#: The "full design space" grid: every line size the paper's exploration
#: touches, crossed with the primary set-count ladder.
DESIGN_SPACE_GRID = {
    "line_sizes": [16, 32, 64, 128],
    "set_counts": [64, 256, 1024],
    "max_assoc": 8,
}

#: (line_size, set_counts, max_assoc, ground-truth spot checks, primary?)
GRIDS = [
    {
        "line_size": 64,
        "set_counts": [64, 256, 1024],
        "max_assoc": 8,
        "oracle_points": [(64, 1), (256, 2), (1024, 8)],
        "primary": True,
    },
    {
        "line_size": 16,
        "set_counts": [256, 1024, 4096],
        "max_assoc": 8,
        "oracle_points": [(256, 1), (4096, 4)],
        "primary": False,
    },
]


#: Survivor-heavy synthetic grids for the kernel-vs-scalar comparison.
#: The epic trace is dominated by immediate repeats, which both engines
#: collapse before any per-reference work; these traces are built so most
#: references *survive* the pre-passes and exercise the per-reference
#: engines.  The dense power-of-two set ladder mirrors what real design
#: spaces produce (sets = size / (assoc * line) over a size x assoc grid).
KERNEL_GRIDS = [
    {
        "name": "uniform-16K-lines",
        "line_size": 64,
        "set_counts": [64, 128, 256, 512, 1024],
        "max_assoc": 8,
    },
    {
        "name": "sequential-8K-sweep",
        "line_size": 64,
        "set_counts": [64, 128, 256, 512, 1024],
        "max_assoc": 8,
    },
]


def kernel_trace(name: str) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic survivor-heavy range traces for the kernel grids."""
    if name == "uniform-16K-lines":
        rng = np.random.default_rng(20240806)
        starts = rng.integers(0, 16_384 * 64, 60_000)
        sizes = rng.integers(1, 257, 60_000)
        return starts, sizes
    if name == "sequential-8K-sweep":
        starts = np.tile(np.arange(0, 8_192 * 64, 64), 12)
        sizes = np.full(len(starts), 64)
        return starts, sizes
    raise ValueError(f"unknown kernel trace {name!r}")


def load_unified_trace():
    pipeline = get_pipeline("epic", BENCH_SETTINGS)
    return pipeline.reference_artifacts().unified_trace


def _best_time(run, reps: int) -> float:
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best


def _assoc_grid(max_assoc: int) -> list[int]:
    return [assoc for assoc in (1, 2, 4, 8, 16) if assoc <= max_assoc]


def run_grid(trace, grid: dict, *, reps: int, oracle: bool) -> dict:
    starts, sizes = trace.starts, trace.sizes
    line_size = grid["line_size"]
    set_counts = grid["set_counts"]
    max_assoc = grid["max_assoc"]

    def run_legacy():
        sim = LegacyCheetahSimulator(line_size, set_counts, max_assoc=max_assoc)
        sim.simulate(starts, sizes)
        return sim

    def run_vectorized():
        # Cold: drop the memoized expansion so every rep pays the full
        # trace -> line-stream cost, like the legacy path does.
        clear_line_stream_cache()
        sim = CheetahSimulator(line_size, set_counts, max_assoc=max_assoc)
        sim.simulate(starts, sizes)
        return sim

    legacy_seconds = _best_time(run_legacy, reps)
    vectorized_seconds = _best_time(run_vectorized, reps)

    legacy = run_legacy()
    vectorized = run_vectorized()
    assert vectorized.accesses == legacy.accesses
    points = 0
    for nsets in set_counts:
        for assoc in _assoc_grid(max_assoc):
            got = vectorized.misses(nsets, assoc)
            want = legacy.misses(nsets, assoc)
            assert got == want, (
                f"miss mismatch at sets={nsets} assoc={assoc} "
                f"line={line_size}: vectorized={got} legacy={want}"
            )
            points += 1

    oracle_points = []
    if oracle:
        for nsets, assoc in grid["oracle_points"]:
            direct = CacheSimulator(CacheConfig(nsets, assoc, line_size))
            for start, size in zip(starts.tolist(), sizes.tolist()):
                direct.access_range(start, size)
            got = vectorized.misses(nsets, assoc)
            assert got == direct.misses, (
                f"ground-truth mismatch at sets={nsets} assoc={assoc} "
                f"line={line_size}: vectorized={got} direct={direct.misses}"
            )
            assert vectorized.accesses == direct.accesses
            oracle_points.append([nsets, assoc])

    accesses = vectorized.accesses
    return {
        "line_size": line_size,
        "set_counts": set_counts,
        "max_assoc": max_assoc,
        "primary": grid["primary"],
        "line_accesses": accesses,
        "legacy_seconds": round(legacy_seconds, 6),
        "vectorized_seconds": round(vectorized_seconds, 6),
        "speedup": round(legacy_seconds / vectorized_seconds, 2),
        "accesses_per_second_before": round(accesses / legacy_seconds),
        "accesses_per_second_after": round(accesses / vectorized_seconds),
        "grid_points_checked": points,
        "bit_identical": True,
        "ground_truth_points": oracle_points,
    }


def run_kernel_grid(grid: dict, *, reps: int) -> dict:
    """Time the scalar survivor loop vs the kernel on one survivor-heavy grid.

    Both runs share the memoized line-stream expansion (it is engine
    independent), so the comparison isolates the per-reference engine:
    the scalar survivor loop (:class:`ScalarCheetahSimulator`) against
    the vectorized stack-distance kernel (:class:`CheetahSimulator`).
    """
    starts, sizes = kernel_trace(grid["name"])
    line_size = grid["line_size"]
    set_counts = grid["set_counts"]
    max_assoc = grid["max_assoc"]

    def run(engine: type[CheetahSimulator]) -> CheetahSimulator:
        sim = engine(line_size, set_counts, max_assoc=max_assoc)
        sim.simulate(starts, sizes)
        return sim

    # Warm the shared expansion memo so neither engine pays it.
    run(CheetahSimulator)
    scalar_seconds = _best_time(lambda: run(ScalarCheetahSimulator), reps)
    kernel_seconds = _best_time(lambda: run(CheetahSimulator), reps)

    scalar = run(ScalarCheetahSimulator)
    kernel = run(CheetahSimulator)
    assert kernel.accesses == scalar.accesses
    points = 0
    for nsets in set_counts:
        for assoc in _assoc_grid(max_assoc):
            got = kernel.misses(nsets, assoc)
            want = scalar.misses(nsets, assoc)
            assert got == want, (
                f"miss mismatch at sets={nsets} assoc={assoc} "
                f"line={line_size}: kernel={got} scalar={want}"
            )
            points += 1

    accesses = kernel.accesses
    return {
        "name": grid["name"],
        "line_size": line_size,
        "set_counts": set_counts,
        "max_assoc": max_assoc,
        "trace_ranges": len(starts),
        "line_accesses": accesses,
        "scalar_seconds": round(scalar_seconds, 6),
        "kernel_seconds": round(kernel_seconds, 6),
        "kernel_speedup": round(scalar_seconds / kernel_seconds, 2),
        "grid_points_checked": points,
        "bit_identical": True,
    }


def run_design_space(trace, *, reps: int, seed_baseline: bool) -> dict:
    """Time the whole-design-space kernel against per-line-size sweeps.

    Three contenders on the same multi-line-size grid:

    * ``DesignSpaceSimulator`` — one expansion + one trace fingerprint,
      every coarser line size derived and counted on its own stream
      (the path ``sweep_design_space`` takes);
    * per-line-size vectorized passes, line-stream cache cleared before
      *each* line size — cold per group, which is honestly what pre-PR
      sweeps paid (the memo then keyed on ``(trace, line_size)``, so no
      cross-line-size sharing existed);
    * the seed ``_touch`` path (one ``LegacyCheetahSimulator`` per line
      size), timed once — it is the slow baseline being ratcheted.

    Every (line size, sets, assoc) grid point is asserted bit-identical
    across all contenders.
    """
    from repro.cache.designspace import DesignSpaceSimulator

    starts, sizes = trace.starts, trace.sizes
    line_sizes = DESIGN_SPACE_GRID["line_sizes"]
    set_counts = DESIGN_SPACE_GRID["set_counts"]
    max_assoc = DESIGN_SPACE_GRID["max_assoc"]
    spec = {ls: (set_counts, max_assoc) for ls in line_sizes}

    def run_designspace() -> DesignSpaceSimulator:
        clear_line_stream_cache()
        space = DesignSpaceSimulator(spec)
        space.simulate(starts, sizes)
        return space

    def run_per_line() -> dict[int, CheetahSimulator]:
        sims = {}
        for line_size in line_sizes:
            clear_line_stream_cache()
            sim = CheetahSimulator(line_size, set_counts, max_assoc)
            sim.simulate(starts, sizes)
            sims[line_size] = sim
        return sims

    # Fairness: every compared path is best-of-at-least-3, matching the
    # seed baseline below — a single sample makes a ratcheted ratio a
    # coin flip on a noisy runner.
    best_reps = max(reps, 3)
    designspace_seconds = _best_time(run_designspace, best_reps)
    per_line_seconds = _best_time(run_per_line, best_reps)

    space = run_designspace()
    per_line = run_per_line()
    clear_line_stream_cache()

    points = 0
    for line_size in line_sizes:
        for nsets in set_counts:
            for assoc in _assoc_grid(max_assoc):
                got = space.misses(line_size, nsets, assoc)
                want = per_line[line_size].misses(nsets, assoc)
                assert got == want, (
                    f"miss mismatch at line={line_size} sets={nsets} "
                    f"assoc={assoc}: designspace={got} per-line={want}"
                )
                points += 1

    report = {
        "line_sizes": line_sizes,
        "set_counts": set_counts,
        "max_assoc": max_assoc,
        "grid_points_checked": points,
        "bit_identical": True,
        "design_space_seconds": round(designspace_seconds, 6),
        "per_line_seconds": round(per_line_seconds, 6),
        "design_space_speedup": round(
            per_line_seconds / designspace_seconds, 2
        ),
    }

    if seed_baseline:
        def run_seed():
            sims = {}
            for line_size in line_sizes:
                sim = LegacyCheetahSimulator(
                    line_size, set_counts, max_assoc=max_assoc
                )
                sim.simulate(starts, sizes)
                sims[line_size] = sim
            return sims

        # Best-of-3 rather than best-of-`reps`: a seed pass costs ~2s,
        # and a single sample makes the ratcheted ratio a coin flip.
        seed_seconds = float("inf")
        seed = None
        for _ in range(3):
            seed_start = time.perf_counter()
            candidate = run_seed()
            elapsed = time.perf_counter() - seed_start
            if elapsed < seed_seconds:
                seed_seconds = elapsed
                seed = candidate
        for line_size in line_sizes:
            for nsets in set_counts:
                for assoc in _assoc_grid(max_assoc):
                    got = space.misses(line_size, nsets, assoc)
                    want = seed[line_size].misses(nsets, assoc)
                    assert got == want, (
                        f"seed mismatch at line={line_size} sets={nsets} "
                        f"assoc={assoc}: designspace={got} seed={want}"
                    )
        report["seed_seconds"] = round(seed_seconds, 6)
        report["design_space_seed_speedup"] = round(
            seed_seconds / designspace_seconds, 2
        )

    return report


#: Streaming comparison grid: the design-space line sizes crossed with
#: the primary set ladder at the assoc extremes — enough passes that the
#: per-chunk state-carry overhead shows, small enough to time best-of-N.
STREAMING_GRID = {
    "line_sizes": [16, 32, 64, 128],
    "set_counts": [64, 256, 1024],
    "assocs": [1, 8],
    "chunk_ranges": 65_536,
}

#: Interval-sampling accuracy setup: 16 uniform windows of 8000 ranges
#: with 4000 warm-up ranges each, gated over capacity-bound embedded
#: cache sizes (<= 64 KiB).  Larger caches retain state across the gaps
#: between windows, which no per-window warm-up reconstructs — their
#: sampled estimates are excluded from the gate (and reported so the
#: limitation stays visible).
SAMPLING_PLAN = {
    "intervals": 16,
    "interval_ranges": 8_000,
    "warmup_ranges": 4_000,
    "mode": "uniform",
}
SAMPLING_GRID = {
    "line_sizes": [16, 64],
    "set_counts": [64, 256, 1024],
    "assocs": [1, 2, 4, 8],
    "max_capacity_bytes": 64 * 1024,
}


def run_streaming(trace, *, reps: int) -> dict:
    """Chunked streaming sweep vs the in-memory sweep.

    Writes the epic trace to a chunked store once, then times
    ``sweep_design_space`` fed the in-memory arrays (whole-design-space
    kernel) against the same sweep fed the :class:`ChunkedTrace`
    (the same kernel fed chunk by chunk, every line size per chunk
    read, bounded working set).  Every grid
    point is asserted bit-identical — streaming changes memory behaviour,
    never results.
    """
    import tempfile

    from repro.cache.sweep import sweep_design_space
    from repro.trace.chunkstore import write_chunked

    starts, sizes = trace.starts, trace.sizes
    configs = [
        CacheConfig(nsets, assoc, line_size)
        for line_size in STREAMING_GRID["line_sizes"]
        for nsets in STREAMING_GRID["set_counts"]
        for assoc in STREAMING_GRID["assocs"]
    ]
    with tempfile.TemporaryDirectory(prefix="repro-bench-stream-") as td:
        ctrace = write_chunked(
            Path(td) / "epic.rct",
            starts,
            sizes,
            chunk_ranges=STREAMING_GRID["chunk_ranges"],
        )

        def run_in_memory():
            clear_line_stream_cache()
            return sweep_design_space(configs, (starts, sizes))

        def run_chunked():
            clear_line_stream_cache()
            return sweep_design_space(configs, ctrace)

        best_reps = max(reps, 3)
        in_memory_seconds = _best_time(run_in_memory, best_reps)
        chunked_seconds = _best_time(run_chunked, best_reps)

        exact = run_in_memory()
        streamed = run_chunked()
        clear_line_stream_cache()
        for config in configs:
            assert streamed[config].misses == exact[config].misses, (
                f"streaming mismatch at {config}: "
                f"{streamed[config].misses} != {exact[config].misses}"
            )
        chunks = ctrace.n_chunks
        ctrace.close()

    return {
        "line_sizes": STREAMING_GRID["line_sizes"],
        "set_counts": STREAMING_GRID["set_counts"],
        "assocs": STREAMING_GRID["assocs"],
        "chunk_ranges": STREAMING_GRID["chunk_ranges"],
        "chunks": chunks,
        "grid_points_checked": len(configs),
        "bit_identical": True,
        "in_memory_seconds": round(in_memory_seconds, 6),
        "chunked_seconds": round(chunked_seconds, 6),
        "streaming_overhead": round(
            in_memory_seconds / chunked_seconds, 3
        ),
    }


def run_sampling(trace) -> dict:
    """Interval-sampled sweep accuracy against the exact sweep.

    Deterministic (fixed window placement, no randomness): the sampled
    estimate and hence the accuracy are reproducible bit-for-bit, so the
    metric ratchets cleanly.  Configs above the capacity gate are still
    measured and reported (``excluded``) but do not enter the metric.
    """
    from repro.cache.sweep import sampled_sweep_design_space, sweep_design_space
    from repro.trace.sampling import SamplePlan

    starts, sizes = trace.starts, trace.sizes
    plan = SamplePlan.from_spec(SAMPLING_PLAN)
    cap = SAMPLING_GRID["max_capacity_bytes"]
    configs = [
        CacheConfig(nsets, assoc, line_size)
        for line_size in SAMPLING_GRID["line_sizes"]
        for nsets in SAMPLING_GRID["set_counts"]
        for assoc in SAMPLING_GRID["assocs"]
    ]
    exact = sweep_design_space(configs, (starts, sizes))
    sampled = sampled_sweep_design_space(configs, (starts, sizes), plan)

    gated, excluded = [], []
    for config in configs:
        true = exact[config].misses
        est = sampled[config]
        error = abs(est.misses - true) / true if true else 0.0
        doc = {
            "sets": config.sets,
            "assoc": config.assoc,
            "line_size": config.line_size,
            "capacity_bytes": config.sets * config.assoc * config.line_size,
            "exact_misses": true,
            "sampled_misses": est.misses,
            "relative_error": round(error, 5),
            "reported_error": (
                round(est.error, 5) if est.error is not None else None
            ),
        }
        if doc["capacity_bytes"] <= cap:
            gated.append(doc)
        else:
            excluded.append(doc)

    max_error = max(doc["relative_error"] for doc in gated)
    fraction = sampled[configs[0]].sampled_fraction
    return {
        "plan": SAMPLING_PLAN,
        "max_capacity_bytes": cap,
        "sampled_fraction": round(fraction, 4),
        "gated_configs": len(gated),
        "excluded_configs": len(excluded),
        "max_relative_error": round(max_error, 5),
        "mean_relative_error": round(
            sum(d["relative_error"] for d in gated) / len(gated), 5
        ),
        "sampling_accuracy": round(1.0 - max_error, 4),
        "configs": gated,
        "excluded": excluded,
    }


def run_benchmark(*, reps: int = 5, oracle: bool = True) -> dict:
    trace = load_unified_trace()
    grids = [run_grid(trace, grid, reps=reps, oracle=oracle) for grid in GRIDS]
    primary = next(g for g in grids if g["primary"])
    kernel_grids = [run_kernel_grid(g, reps=reps) for g in KERNEL_GRIDS]
    design_space = run_design_space(trace, reps=reps, seed_baseline=oracle)
    streaming = run_streaming(trace, reps=reps)
    sampling = run_sampling(trace)
    return {
        "workload": "epic",
        "trace_ranges": len(trace.starts),
        "timing_reps": reps,
        "min_required_speedup": MIN_SPEEDUP,
        "primary_speedup": primary["speedup"],
        "grids": grids,
        "min_required_kernel_speedup": MIN_KERNEL_SPEEDUP,
        "kernel_speedup": min(g["kernel_speedup"] for g in kernel_grids),
        "kernel_grids": kernel_grids,
        "min_required_design_space_speedup": MIN_DESIGN_SPACE_SPEEDUP,
        "min_required_design_space_seed_speedup": (
            MIN_DESIGN_SPACE_SEED_SPEEDUP
        ),
        "design_space_speedup": design_space["design_space_speedup"],
        "design_space_seed_speedup": design_space.get(
            "design_space_seed_speedup"
        ),
        "design_space": design_space,
        "min_required_streaming_overhead": MIN_STREAMING_OVERHEAD,
        "streaming_overhead": streaming["streaming_overhead"],
        "streaming": streaming,
        "min_required_sampling_accuracy": MIN_SAMPLING_ACCURACY,
        "sampling_accuracy": sampling["sampling_accuracy"],
        "sampling": sampling,
    }


def write_report(report: dict, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2) + "\n")


def render(report: dict) -> str:
    lines = [
        f"cheetah engine benchmark — workload={report['workload']} "
        f"({report['trace_ranges']} trace ranges, "
        f"best of {report['timing_reps']})"
    ]
    for grid in report["grids"]:
        tag = "primary" if grid["primary"] else "secondary"
        lines.append(
            f"  [{tag}] line={grid['line_size']}B sets={grid['set_counts']} "
            f"assoc<= {grid['max_assoc']}: "
            f"{grid['legacy_seconds']:.3f}s -> "
            f"{grid['vectorized_seconds']:.3f}s "
            f"({grid['speedup']:.1f}x, "
            f"{grid['accesses_per_second_before']:,} -> "
            f"{grid['accesses_per_second_after']:,} accesses/s, "
            f"{grid['grid_points_checked']} grid points bit-identical)"
        )
    for grid in report.get("kernel_grids", []):
        lines.append(
            f"  [kernel:{grid['name']}] line={grid['line_size']}B "
            f"sets={grid['set_counts']}: scalar {grid['scalar_seconds']:.3f}s "
            f"-> kernel {grid['kernel_seconds']:.3f}s "
            f"({grid['kernel_speedup']:.1f}x, "
            f"{grid['grid_points_checked']} grid points bit-identical)"
        )
    ds = report.get("design_space")
    if ds:
        seed = (
            f", seed {ds['seed_seconds']:.3f}s "
            f"({ds['design_space_seed_speedup']:.1f}x)"
            if "seed_seconds" in ds
            else ""
        )
        lines.append(
            f"  [design-space] lines={ds['line_sizes']} "
            f"sets={ds['set_counts']}: per-line "
            f"{ds['per_line_seconds']:.3f}s -> design-space "
            f"{ds['design_space_seconds']:.3f}s "
            f"({ds['design_space_speedup']:.1f}x{seed}, "
            f"{ds['grid_points_checked']} grid points bit-identical)"
        )
    st = report.get("streaming")
    if st:
        lines.append(
            f"  [streaming] {st['chunks']} chunks of "
            f"{st['chunk_ranges']} ranges: in-memory "
            f"{st['in_memory_seconds']:.3f}s vs chunked "
            f"{st['chunked_seconds']:.3f}s "
            f"(ratio {st['streaming_overhead']:.2f}, "
            f"{st['grid_points_checked']} grid points bit-identical)"
        )
    sp = report.get("sampling")
    if sp:
        lines.append(
            f"  [sampling] {sp['plan']['intervals']} windows x "
            f"{sp['plan']['interval_ranges']} ranges "
            f"({sp['sampled_fraction']:.0%} of the trace): max error "
            f"{sp['max_relative_error']:.2%} over {sp['gated_configs']} "
            f"configs <= {sp['max_capacity_bytes'] // 1024} KiB "
            f"(accuracy {sp['sampling_accuracy']:.4f}, "
            f"{sp['excluded_configs']} over-capacity configs excluded)"
        )
    return "\n".join(lines)


def test_cheetah_engine_speedup(results_dir):
    report = run_benchmark(reps=5, oracle=True)
    write_report(report, results_dir / "BENCH_cheetah.json")
    print("\n" + render(report))
    assert report["primary_speedup"] >= MIN_SPEEDUP, (
        f"primary-grid speedup {report['primary_speedup']}x "
        f"below the {MIN_SPEEDUP}x acceptance floor"
    )
    assert report["kernel_speedup"] >= MIN_KERNEL_SPEEDUP, (
        f"stack-distance kernel speedup {report['kernel_speedup']}x "
        f"below the {MIN_KERNEL_SPEEDUP}x acceptance floor"
    )
    assert report["design_space_speedup"] >= MIN_DESIGN_SPACE_SPEEDUP, (
        f"design-space speedup {report['design_space_speedup']}x "
        f"below the {MIN_DESIGN_SPACE_SPEEDUP}x acceptance floor"
    )
    assert (
        report["design_space_seed_speedup"]
        >= MIN_DESIGN_SPACE_SEED_SPEEDUP
    ), (
        f"design-space-vs-seed speedup "
        f"{report['design_space_seed_speedup']}x below the "
        f"{MIN_DESIGN_SPACE_SEED_SPEEDUP}x acceptance floor"
    )
    assert report["streaming_overhead"] >= MIN_STREAMING_OVERHEAD, (
        f"streaming overhead ratio {report['streaming_overhead']} "
        f"below the {MIN_STREAMING_OVERHEAD} acceptance floor"
    )
    assert report["sampling_accuracy"] >= MIN_SAMPLING_ACCURACY, (
        f"sampling accuracy {report['sampling_accuracy']} "
        f"below the {MIN_SAMPLING_ACCURACY} acceptance floor "
        f"(max error {report['sampling']['max_relative_error']:.2%})"
    )


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--json",
        type=Path,
        default=RESULTS_DIR / "BENCH_cheetah.json",
        help="where to write the JSON report",
    )
    parser.add_argument(
        "--reps", type=int, default=5, help="timing repetitions (best-of)"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="single rep, skip ground-truth oracle, no speedup gate",
    )
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be >= 1")

    reps = 1 if args.smoke else args.reps
    report = run_benchmark(reps=reps, oracle=not args.smoke)
    write_report(report, args.json)
    print(render(report))
    print(f"report written to {args.json}")
    if not args.smoke and report["primary_speedup"] < MIN_SPEEDUP:
        print(
            f"FAIL: primary-grid speedup {report['primary_speedup']}x "
            f"below the {MIN_SPEEDUP}x floor",
            file=sys.stderr,
        )
        return 1
    if not args.smoke and report["kernel_speedup"] < MIN_KERNEL_SPEEDUP:
        print(
            f"FAIL: stack-distance kernel speedup "
            f"{report['kernel_speedup']}x "
            f"below the {MIN_KERNEL_SPEEDUP}x floor",
            file=sys.stderr,
        )
        return 1
    if (
        not args.smoke
        and report["design_space_speedup"] < MIN_DESIGN_SPACE_SPEEDUP
    ):
        print(
            f"FAIL: design-space speedup "
            f"{report['design_space_speedup']}x "
            f"below the {MIN_DESIGN_SPACE_SPEEDUP}x floor",
            file=sys.stderr,
        )
        return 1
    if not args.smoke and (
        report["design_space_seed_speedup"] or 0
    ) < MIN_DESIGN_SPACE_SEED_SPEEDUP:
        print(
            f"FAIL: design-space-vs-seed speedup "
            f"{report['design_space_seed_speedup']}x "
            f"below the {MIN_DESIGN_SPACE_SEED_SPEEDUP}x floor",
            file=sys.stderr,
        )
        return 1
    if (
        not args.smoke
        and report["streaming_overhead"] < MIN_STREAMING_OVERHEAD
    ):
        print(
            f"FAIL: streaming overhead ratio "
            f"{report['streaming_overhead']} "
            f"below the {MIN_STREAMING_OVERHEAD} floor",
            file=sys.stderr,
        )
        return 1
    if (
        not args.smoke
        and report["sampling_accuracy"] < MIN_SAMPLING_ACCURACY
    ):
        print(
            f"FAIL: sampling accuracy {report['sampling_accuracy']} "
            f"below the {MIN_SAMPLING_ACCURACY} floor",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
