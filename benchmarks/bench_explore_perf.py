"""Exploration-layer speedup: batched vs scalar spacewalker walk.

Times the vectorized exploration path (batched dilation-model grids,
array collision kernel, skyline Pareto accumulation) against the
preserved scalar path on the ``bench_spacewalker`` design space over the
epic workload, with all shared simulation passes pre-primed so the
timing isolates the exploration layer itself.  The acceptance gate
asserts a >= 5x end-to-end speedup on ``Spacewalker.walk`` *and* that
both paths produce identical Pareto frontiers (same designs, costs and
times within 1e-9).  Five report-only sections ride along (no gate): a
skyline-vs-sequential Pareto micro-benchmark; the compile of epic's
12 design-space processors in one array pass each vs the per-block
compiler of ``repro.oracles.compiler``, which asserts every compiled
block identical (instructions included) and counts the
garbage-collector-tracked objects that compiling, assembling and
linking the 12 processors leave; the assembly of those 12 compiled
programs by the per-instruction oracle and by the production
assembler, which asserts every assembled block identical; the
emulation of the ten suite programs on the reference processor by the
frame-walking oracle and by the production emulator, which asserts
every event trace identical; and the nine AHH parameters of the ten
suite programs' reference traces, derived in one array pass and word
by word by ``repro.oracles.granules``, which asserts them equal.  The
report also records the host probe of ``perfbench/hostspeed.py``, so
timings from different hosts can be compared.  Results are written to
``benchmarks/results/BENCH_explore.json``.

Runs two ways:

* ``PYTHONPATH=src python -m pytest benchmarks/bench_explore_perf.py``
* ``python benchmarks/bench_explore_perf.py [--smoke] [--json PATH]``

``--smoke`` does a single timing rep and drops the speedup gate (the
frontier, compiled-block, assembled-block, event-trace and
AHH-parameter identity checks always run) —
used by CI to produce the JSON artifact without gating on runner timing
noise.
"""

from __future__ import annotations

import gc
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
from repro.ahh.batch import clear_collisions_batch_cache
from repro.ahh.modeler import derive_trace_parameters
from repro.cache.config import WORD_BYTES
from repro.experiments.runner import get_pipeline
from repro.explore.pareto import ParetoSet
from repro.explore.spacewalker import Spacewalker
from repro.explore.spec import (
    CacheDesignSpace,
    ProcessorDesignSpace,
    SystemDesignSpace,
)
from perfbench.hostspeed import REFERENCE_PROBE_S, HostProbe
from repro.machine.mdes import MachineDescription
from repro.iformat.assembler import assemble
from repro.iformat.linker import link
from repro.machine.presets import REFERENCE_PROCESSOR
from repro.oracles import assembler as oracle_assembler
from repro.oracles import compiler as oracle_compiler
from repro.oracles import granules as oracle_granules
from repro.oracles.emulator import ScalarEmulator
from repro.trace.emulator import Emulator
from repro.vliwcomp.compile import BlockMemo, compile_program
from repro.workloads.suite import BENCHMARK_NAMES, load_benchmark

MIN_SPEEDUP = 5.0
TIME_RTOL = 1e-9
TIME_ATOL = 1e-6

#: Points in the skyline micro-benchmark.
SKYLINE_POINTS = 20_000

#: Visit budget and seed of the emulation section (the budget is
#: ``perfbench``'s ``SWEEP_VISITS``).
EMULATE_VISITS = 30_000
EMULATE_SEED = 1

_TRACE_ARRAYS = (
    "visit_blocks",
    "data_addrs",
    "data_streams",
    "data_offsets",
    "data_writes",
)


def build_space() -> SystemDesignSpace:
    """A larger space than ``bench_spacewalker``'s: 45 processors (many
    distinct dilations, so the dilation model dominates the walk) and
    84 + 84 + 72 cache configurations."""
    return SystemDesignSpace(
        processors=ProcessorDesignSpace(
            int_units=(1, 2, 3, 4, 6),
            float_units=(1, 2, 3),
            memory_units=(1, 2, 3),
            branch_units=(1,),
        ),
        icache=CacheDesignSpace(
            sizes_kb=(0.5, 1, 2, 4, 8, 16, 32),
            assocs=(1, 2, 4),
            line_sizes=(8, 16, 32, 64),
        ),
        dcache=CacheDesignSpace(
            sizes_kb=(0.5, 1, 2, 4, 8, 16, 32),
            assocs=(1, 2, 4),
            line_sizes=(8, 16, 32, 64),
        ),
        unified=CacheDesignSpace(
            sizes_kb=(8, 16, 32, 64, 128, 256),
            assocs=(1, 2, 4, 8),
            line_sizes=(32, 64, 128),
        ),
    )


def _best_time(run, reps: int) -> float:
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best


def _frontier(pareto) -> list[tuple]:
    return [(p.design, p.cost, p.time) for p in pareto.frontier()]


def check_frontier_identity(scalar, batched) -> int:
    """Assert both walks retained the same frontier; returns its size."""
    fs, fb = _frontier(scalar), _frontier(batched)
    assert len(fs) == len(fb), (
        f"frontier sizes differ: scalar {len(fs)} vs batched {len(fb)}"
    )
    for (d_s, c_s, t_s), (d_b, c_b, t_b) in zip(fs, fb):
        assert d_s == d_b, f"frontier designs differ: {d_s} vs {d_b}"
        for name, a, b in (("cost", c_s, c_b), ("time", t_s, t_b)):
            assert abs(a - b) <= max(TIME_RTOL * max(abs(a), abs(b)),
                                     TIME_ATOL), (
                f"{name} differs for {d_s}: scalar {a} vs batched {b}"
            )
    return len(fs)


def bench_spacewalk(pipeline, space, *, reps: int) -> dict:
    scalar_walker = Spacewalker(space, pipeline, batched=False)
    batched_walker = Spacewalker(space, pipeline, batched=True)

    # Prime all shared simulation passes once: both paths register the
    # same configurations, so afterwards the walks are pure exploration.
    batched_walker.walk()

    def run_scalar():
        return scalar_walker.walk()

    def run_batched():
        # Cold model cache each rep: memoized collision grids would
        # otherwise make later reps unrepresentative.
        clear_collisions_batch_cache()
        return batched_walker.walk()

    scalar_seconds = _best_time(run_scalar, reps)
    batched_seconds = _best_time(run_batched, reps)
    frontier_size = check_frontier_identity(run_scalar(), run_batched())

    return {
        "designs": space.total_designs(),
        "processors": len(space.processors),
        "frontier_size": frontier_size,
        "scalar_seconds": round(scalar_seconds, 6),
        "batched_seconds": round(batched_seconds, 6),
        "speedup": round(scalar_seconds / batched_seconds, 2),
        "frontier_identical": True,
    }


def bench_skyline(*, reps: int) -> dict:
    rng = np.random.default_rng(7)
    costs = rng.uniform(0.0, 100.0, SKYLINE_POINTS)
    times = rng.uniform(0.0, 100.0, SKYLINE_POINTS)
    designs = list(range(SKYLINE_POINTS))

    def run_sequential():
        pareto = ParetoSet()
        for design, cost, time_ in zip(designs, costs, times):
            pareto.insert_point(design, float(cost), float(time_))
        return pareto

    def run_skyline():
        return ParetoSet.from_arrays(designs, costs, times)

    sequential_seconds = _best_time(run_sequential, reps)
    skyline_seconds = _best_time(run_skyline, reps)
    sequential = run_sequential()
    skyline = run_skyline()
    assert (
        {(p.design, p.cost, p.time) for p in sequential.points}
        == {(p.design, p.cost, p.time) for p in skyline.points}
    ), "skyline and sequential Pareto sets differ"

    return {
        "points": SKYLINE_POINTS,
        "frontier_size": len(skyline),
        "sequential_seconds": round(sequential_seconds, 6),
        "skyline_seconds": round(skyline_seconds, 6),
        "speedup": round(sequential_seconds / skyline_seconds, 2),
        "identical": True,
    }


def design_space_mdeses() -> list[MachineDescription]:
    """Machine descriptions of the 12 design-space processors."""
    return [MachineDescription(p) for p in SystemDesignSpace().processors]


def tracked_objects_left(run) -> int:
    """Garbage-collector-tracked objects that ``run()`` allocates and
    leaves alive.  They are counted with the collector paused, because
    a collection untracks tuples of plain ints and would hide them; the
    previous collector state is restored."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        before = len(gc.get_objects())
        result = run()
        left = len(gc.get_objects()) - before
        del result
        return left
    finally:
        if enabled:
            gc.enable()


def collections_during(run) -> list[int]:
    """Collections of each generation while ``run()`` runs, starting
    from a just-collected heap."""
    counts = [0, 0, 0]

    def count(phase, info):
        if phase == "stop":
            counts[info["generation"]] += 1

    gc.collect()
    gc.callbacks.append(count)
    try:
        run()
    finally:
        gc.callbacks.remove(count)
    return counts


def bench_compile(program, *, reps: int) -> dict:
    """Compile the 12 design-space processors in one array pass each,
    through one shared block memo, and with the per-block oracle; every
    compiled block must match, instructions included.  The tracked
    objects and collections are those of compiling, assembling and
    linking the 12 processors together."""
    mdeses = design_space_mdeses()

    def run_array():
        memo = BlockMemo(program)
        return [compile_program(program, m, memo=memo) for m in mdeses]

    def run_oracle():
        return [oracle_compiler.compile_program(program, m) for m in mdeses]

    def run_chain():
        return [
            link(
                program,
                assemble(one),
                packet_bytes=one.mdes.processor.issue_width * WORD_BYTES,
            )
            for one in run_array()
        ]

    seconds = _best_time(run_array, reps)
    oracle_seconds = _best_time(run_oracle, reps)
    compiled = run_array()
    for mdes, got, want in zip(mdeses, compiled, run_oracle()):
        got_blocks, want_blocks = got.blocks, want.blocks
        assert got_blocks == want_blocks, (
            f"array compile changed a compiled block on {mdes.processor.name}"
        )
        for key, block in want_blocks.items():
            assert got_blocks[key].schedule.instructions == (
                block.schedule.instructions
            ), f"instructions differ on {mdes.processor.name} at {key}"
            assert got_blocks[key].schedule.mix == block.schedule.mix, (
                f"mixes differ on {mdes.processor.name} at {key}"
            )

    return {
        "processors": len(mdeses),
        "blocks": sum(len(one.keys) for one in compiled),
        "seconds": round(seconds, 6),
        "oracle_seconds": round(oracle_seconds, 6),
        "speedup": round(oracle_seconds / seconds, 2),
        "tracked_objects": tracked_objects_left(run_chain),
        "gc_collections": collections_during(run_chain),
        "blocks_identical": True,
    }


def bench_assemble(program, *, reps: int) -> dict:
    """Assemble the 12 design-space processors' compiled programs with
    the per-instruction oracle and with the production assembler; every
    assembled block must match."""
    memo = BlockMemo(program)
    compiled = [
        compile_program(program, m, memo=memo) for m in design_space_mdeses()
    ]

    def run_with(assemble_program):
        return [assemble_program(one) for one in compiled]

    oracle_seconds = _best_time(
        lambda: run_with(oracle_assembler.assemble), reps
    )
    production_seconds = _best_time(lambda: run_with(assemble), reps)
    for one, got, want in zip(
        compiled, run_with(assemble), run_with(oracle_assembler.assemble)
    ):
        assert got.blocks == want.blocks, (
            f"assembler and oracle differ on {one.processor_name}"
        )

    return {
        "processors": len(compiled),
        "blocks": sum(len(one.keys) for one in compiled),
        "oracle_seconds": round(oracle_seconds, 6),
        "production_seconds": round(production_seconds, 6),
        "speedup": round(oracle_seconds / production_seconds, 2),
        "blocks_identical": True,
    }


def bench_emulate(*, reps: int) -> dict:
    """Emulate every suite program on the reference processor with the
    frame-walking oracle and with the production emulator; every event
    trace must be identical."""
    cases = []
    for name in BENCHMARK_NAMES:
        workload = load_benchmark(name)
        compiled = compile_program(
            workload.program, MachineDescription(REFERENCE_PROCESSOR)
        )
        cases.append((workload, compiled))

    def run_with(emulator_class):
        return [
            emulator_class(
                workload.program, workload.streams, seed=EMULATE_SEED
            ).run(EMULATE_VISITS, compiled)
            for workload, compiled in cases
        ]

    oracle_seconds = _best_time(lambda: run_with(ScalarEmulator), reps)
    production_seconds = _best_time(lambda: run_with(Emulator), reps)
    traces = run_with(Emulator)
    for name, want, got in zip(
        BENCHMARK_NAMES, run_with(ScalarEmulator), traces
    ):
        assert got.blocks == want.blocks, f"{name}: block tables differ"
        for array in _TRACE_ARRAYS:
            assert np.array_equal(getattr(got, array), getattr(want, array)), (
                f"{name}: {array} differs from the oracle's"
            )

    return {
        "programs": len(cases),
        "visits": sum(events.n_visits for events in traces),
        "data_refs": sum(events.n_data_refs for events in traces),
        "oracle_seconds": round(oracle_seconds, 6),
        "production_seconds": round(production_seconds, 6),
        "speedup": round(oracle_seconds / production_seconds, 2),
        "traces_identical": True,
    }


def bench_ahh_params(*, reps: int) -> dict:
    """Derive the nine AHH parameters of every suite program's reference
    traces in one array pass and word by word with
    ``repro.oracles.granules``; the parameters must be equal."""
    cases = []
    for name in BENCHMARK_NAMES:
        pipeline = get_pipeline(name, BENCH_SETTINGS)
        ref = pipeline.reference_artifacts()
        cases.append(
            (
                name,
                (
                    ref.instruction_trace,
                    ref.unified_trace,
                    pipeline.i_granule,
                    pipeline.u_granule,
                ),
            )
        )

    def run_with(derive):
        return [derive(*args) for _, args in cases]

    oracle_seconds = _best_time(
        lambda: run_with(oracle_granules.derive_trace_parameters), reps
    )
    production_seconds = _best_time(
        lambda: run_with(derive_trace_parameters), reps
    )
    for (name, _), got, want in zip(
        cases,
        run_with(derive_trace_parameters),
        run_with(oracle_granules.derive_trace_parameters),
    ):
        assert got == want, f"{name}: AHH parameters differ from the oracle's"

    return {
        "programs": len(cases),
        "unified_ranges": sum(len(args[1]) for _, args in cases),
        "oracle_seconds": round(oracle_seconds, 6),
        "production_seconds": round(production_seconds, 6),
        "speedup": round(oracle_seconds / production_seconds, 2),
        "parameters_identical": True,
    }


def host_probe_seconds() -> float:
    """One perfbench host-probe point: the median of three kernel runs
    with the garbage collector off."""
    probe = HostProbe()
    probe.sample()
    return probe.seconds[0]


def run_benchmark(*, reps: int = 5) -> dict:
    probe_s = host_probe_seconds()
    pipeline = get_pipeline("epic", BENCH_SETTINGS)
    space = build_space()
    spacewalk = bench_spacewalk(pipeline, space, reps=reps)
    skyline = bench_skyline(reps=reps)
    compile_space = bench_compile(pipeline.workload.program, reps=reps)
    assemble_space = bench_assemble(pipeline.workload.program, reps=reps)
    emulate_suite = bench_emulate(reps=reps)
    ahh_params = bench_ahh_params(reps=reps)
    return {
        "workload": "epic",
        "timing_reps": reps,
        "host_probe_s": round(probe_s, 6),
        "host_slowdown": round(probe_s / REFERENCE_PROBE_S, 2),
        "min_required_speedup": MIN_SPEEDUP,
        "primary_speedup": spacewalk["speedup"],
        "spacewalker_walk": spacewalk,
        "skyline_pareto": skyline,
        "compile_design_space": compile_space,
        "assemble_design_space": assemble_space,
        "emulate_suite": emulate_suite,
        "ahh_params": ahh_params,
    }


def write_report(report: dict, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2) + "\n")


def render(report: dict) -> str:
    walk = report["spacewalker_walk"]
    sky = report["skyline_pareto"]
    comp = report["compile_design_space"]
    asm = report["assemble_design_space"]
    emu = report["emulate_suite"]
    ahh = report["ahh_params"]
    return "\n".join(
        [
            f"exploration-layer benchmark — workload={report['workload']} "
            f"(best of {report['timing_reps']}; host probe "
            f"{report['host_probe_s']:.4f}s, "
            f"{report['host_slowdown']:.2f}x the reference host)",
            f"  [primary] spacewalker walk over {walk['designs']} designs "
            f"({walk['processors']} processors): "
            f"{walk['scalar_seconds']:.3f}s -> "
            f"{walk['batched_seconds']:.3f}s "
            f"({walk['speedup']:.1f}x, frontier of {walk['frontier_size']} "
            f"identical)",
            f"  [secondary] skyline Pareto over {sky['points']:,} points: "
            f"{sky['sequential_seconds']:.3f}s -> "
            f"{sky['skyline_seconds']:.3f}s ({sky['speedup']:.1f}x, "
            f"{sky['frontier_size']} retained, identical)",
            f"  [report] compile of {comp['processors']} processors "
            f"({comp['blocks']:,} blocks): per-block oracle "
            f"{comp['oracle_seconds']:.3f}s -> array pass "
            f"{comp['seconds']:.3f}s "
            f"({comp['speedup']:.2f}x, blocks identical; compile, "
            f"assemble and link leave {comp['tracked_objects']:,} tracked "
            f"objects, "
            f"collections {comp['gc_collections']})",
            f"  [report] assembly of {asm['processors']} processors "
            f"({asm['blocks']:,} blocks): per-instruction oracle "
            f"{asm['oracle_seconds']:.3f}s -> production "
            f"{asm['production_seconds']:.3f}s "
            f"({asm['speedup']:.1f}x, blocks identical)",
            f"  [report] emulation of {emu['programs']} suite programs "
            f"({emu['visits']:,} visits, {emu['data_refs']:,} data refs): "
            f"oracle {emu['oracle_seconds']:.3f}s -> "
            f"production {emu['production_seconds']:.3f}s "
            f"({emu['speedup']:.1f}x, traces identical)",
            f"  [report] AHH parameters of {ahh['programs']} suite programs "
            f"({ahh['unified_ranges']:,} unified ranges): word-by-word "
            f"oracle {ahh['oracle_seconds']:.3f}s -> array pass "
            f"{ahh['production_seconds']:.3f}s "
            f"({ahh['speedup']:.1f}x, parameters identical)",
        ]
    )


def test_exploration_layer_speedup(results_dir):
    report = run_benchmark(reps=5)
    write_report(report, results_dir / "BENCH_explore.json")
    print("\n" + render(report))
    assert report["primary_speedup"] >= MIN_SPEEDUP, (
        f"spacewalker-walk speedup {report['primary_speedup']}x "
        f"below the {MIN_SPEEDUP}x acceptance floor"
    )


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--json",
        type=Path,
        default=RESULTS_DIR / "BENCH_explore.json",
        help="where to write the JSON report",
    )
    parser.add_argument(
        "--reps", type=int, default=5, help="timing repetitions (best-of)"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="single rep, no speedup gate (frontier check still runs)",
    )
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be >= 1")

    reps = 1 if args.smoke else args.reps
    report = run_benchmark(reps=reps)
    write_report(report, args.json)
    print(render(report))
    print(f"report written to {args.json}")
    if not args.smoke and report["primary_speedup"] < MIN_SPEEDUP:
        print(
            f"FAIL: spacewalker-walk speedup {report['primary_speedup']}x "
            f"below the {MIN_SPEEDUP}x floor",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
