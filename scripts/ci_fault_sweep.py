#!/usr/bin/env python
"""CI fault-injection smoke: faulty runs must match fault-free runs.

Runs three comparisons with deterministic worker faults injected through
:class:`repro.runtime.FaultPlan`:

1. A small line-size sweep (``sweep_design_space``) where one group's
   worker is killed mid-sweep: the executor must fall back / retry and
   produce results identical to the fault-free sweep.
2. A faulty two-worker sweep over an in-memory trace, which
   workers read from a temporary spill file: results must stay
   identical, the journal must record the retry or fallback and a
   ``trace_shipping`` event with bytes mapped exceeding bytes shipped,
   and no spill file may survive in the temp directory.
3. A small spacewalker exploration where the first attempt of every
   icache priming pass raises: the retried run's Pareto frontier must
   match the fault-free frontier exactly.

The run journal is written to ``--journal`` (JSON lines) so CI can
upload it as an artifact next to ``BENCH_explore.json``; the script
asserts the journal actually recorded the injected retries/fallbacks.
Exit code 0 means every assertion held.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.cache.config import CacheConfig  # noqa: E402
from repro.cache.sweep import sweep_design_space  # noqa: E402
from repro.experiments.runner import (  # noqa: E402
    RunnerSettings,
    clear_pipeline_cache,
    get_pipeline,
)
from repro.explore.spacewalker import Spacewalker  # noqa: E402
from repro.explore.spec import (  # noqa: E402
    CacheDesignSpace,
    ProcessorDesignSpace,
    SystemDesignSpace,
)
from repro.runtime import ExecutorPolicy, FaultPlan, RunJournal  # noqa: E402

SWEEP_CONFIGS = [
    CacheConfig(8, 1, 16),
    CacheConfig(8, 2, 16),
    CacheConfig(16, 1, 16),
    CacheConfig(8, 1, 32),
    CacheConfig(4, 4, 32),
    CacheConfig(16, 2, 64),
]


def sweep_trace():
    """Tiny fixed trace shared by the faulty and fault-free sweeps."""
    starts = [0, 32, 64, 0, 128, 256, 32, 512, 0, 96, 72, 8]
    sizes = [16, 16, 32, 16, 64, 16, 16, 16, 16, 4, 4, 40]
    return starts, sizes


def check_sweep(journal: RunJournal) -> None:
    """Worker death mid-sweep must not change the sweep's results."""
    baseline = sweep_design_space(SWEEP_CONFIGS, sweep_trace())
    policy = ExecutorPolicy(
        max_workers=2,
        retries=2,
        backoff=0.0,
        fault=FaultPlan("exit", match="32", times=1),
    )
    faulty = sweep_design_space(
        SWEEP_CONFIGS, sweep_trace, policy=policy, journal=journal
    )
    assert faulty == baseline, "fault-injected sweep diverged from baseline"
    assert journal.select("fallback") or journal.select("retry"), (
        "journal recorded neither a fallback nor a retry for the killed worker"
    )
    print(f"sweep: {len(faulty)} configs identical under injected worker death")


def check_spill_sweep(journal: RunJournal) -> None:
    """Spill-file trace shipping under faults: identical, no leaks.

    A two-worker sweep over an in-memory trace spills the trace
    to a temporary chunked file and ships each worker its path.  With a
    worker killed mid-sweep, results must match the fault-free sweep,
    the journal must record the recovery and the shipping accounting,
    and no spill file may survive in the temp directory.
    """
    import tempfile

    baseline = sweep_design_space(SWEEP_CONFIGS, sweep_trace())
    policy = ExecutorPolicy(
        max_workers=2,
        retries=2,
        backoff=0.0,
        fault=FaultPlan("exit", match="16", times=1),
    )
    first_event = len(journal)
    saved_tempdir = tempfile.tempdir
    with tempfile.TemporaryDirectory(prefix="spill-check-") as spill_dir:
        tempfile.tempdir = spill_dir
        try:
            faulty = sweep_design_space(
                SWEEP_CONFIGS, sweep_trace(), policy=policy, journal=journal
            )
        finally:
            tempfile.tempdir = saved_tempdir
        leftovers = sorted(Path(spill_dir).iterdir())
    assert faulty == baseline, "spill-shipped sweep diverged from baseline"
    window = journal.events[first_event:]
    recoveries = [e for e in window if e["event"] in ("retry", "fallback")]
    assert recoveries, (
        "journal recorded neither a retry nor a fallback for the killed "
        "worker"
    )
    shipping = [e for e in window if e["event"] == "trace_shipping"]
    assert shipping, "journal recorded no trace_shipping event"
    shipped = sum(e["bytes_shipped"] for e in shipping)
    mapped = sum(e["bytes_mapped"] for e in shipping)
    assert mapped > shipped, (
        f"path shipping saved nothing: {shipped} B shipped for "
        f"{mapped} B mapped"
    )
    assert not leftovers, f"spill files survived the sweep: {leftovers}"
    print(
        f"spill sweep: {len(faulty)} configs identical under injected "
        f"worker death; {sum(e['jobs'] for e in shipping)} path-shipped "
        f"jobs shipped {shipped} B for {mapped} B mapped, no spill file "
        f"left"
    )


def explore_space() -> SystemDesignSpace:
    """A deliberately tiny design space (seconds, not minutes, in CI)."""
    return SystemDesignSpace(
        processors=ProcessorDesignSpace(
            int_units=(1, 2), float_units=(1,), memory_units=(1,),
            branch_units=(1,),
        ),
        icache=CacheDesignSpace(
            sizes_kb=(0.5, 1), assocs=(1,), line_sizes=(16, 32)
        ),
        dcache=CacheDesignSpace(
            sizes_kb=(0.5, 1), assocs=(1,), line_sizes=(16,)
        ),
        unified=CacheDesignSpace(sizes_kb=(8,), assocs=(2,), line_sizes=(32,)),
    )


def frontier_fingerprint(pareto) -> list[tuple]:
    """Comparable summary of a Pareto frontier (cost, time, design repr)."""
    return [
        (round(p.cost, 9), round(p.time, 9), repr(p.design))
        for p in pareto.frontier()
    ]


def check_explore(journal: RunJournal) -> None:
    """An injected priming fault must not change the Pareto frontier."""
    settings = RunnerSettings(scale=0.12, max_visits=2000)
    space = explore_space()
    retries_before = len(journal.select("retry"))

    clear_pipeline_cache()
    baseline = frontier_fingerprint(
        Spacewalker(space, get_pipeline("epic", settings)).walk()
    )

    clear_pipeline_cache()
    policy = ExecutorPolicy(
        max_workers=2,
        retries=2,
        backoff=0.0,
        fault=FaultPlan("raise", match="icache", times=1),
    )
    faulty_settings = RunnerSettings(scale=0.12, max_visits=2000, policy=policy)
    faulty = frontier_fingerprint(
        Spacewalker(
            space, get_pipeline("epic", faulty_settings), journal=journal
        ).walk()
    )
    assert faulty == baseline, (
        "fault-injected exploration frontier diverged from baseline:\n"
        f"  baseline: {baseline}\n  faulty:   {faulty}"
    )
    retries = len(journal.select("retry")) - retries_before
    assert retries > 0, (
        "journal recorded no retry for the injected priming fault"
    )
    print(
        f"explore: frontier of {len(faulty)} designs identical under "
        f"{retries} injected fault(s)"
    )


def check_recorded_fault_run(journal: RunJournal) -> None:
    """Run-table recording under faults: columns match, results don't move.

    Records a fault-free and a fault-injected sweep as analytics runs
    and asserts (a) the faulty run's retry/fallback columns equal its
    journal window, and (b) ``compare_runs`` reports identical rows and
    identical Pareto frontiers — recording never perturbs results.
    """
    import tempfile

    from repro.analytics.compare import compare_runs
    from repro.analytics.runs import RunRecorder, get_run, get_run_rows
    from repro.service.store import ResultStore

    with tempfile.TemporaryDirectory(prefix="fault-runs-") as tmp:
        store = ResultStore(Path(tmp) / "runs.sqlite")
        with RunRecorder(
            store, "sweep", journal=journal, run_id="clean"
        ) as rec:
            rec.add_sweep_results(
                sweep_design_space(
                    SWEEP_CONFIGS, sweep_trace(), journal=journal
                ),
                benchmark="synthetic",
            )
        policy = ExecutorPolicy(
            max_workers=2,
            retries=2,
            backoff=0.0,
            fault=FaultPlan("exit", match="32", times=1),
        )
        recoveries_before = len(journal.select("retry")) + len(
            journal.select("fallback")
        )
        with RunRecorder(
            store, "sweep", journal=journal, run_id="faulty"
        ) as rec:
            rec.add_sweep_results(
                sweep_design_space(
                    SWEEP_CONFIGS,
                    sweep_trace,
                    policy=policy,
                    journal=journal,
                ),
                benchmark="synthetic",
            )
        retries = len(journal.select("retry"))
        fallbacks = len(journal.select("fallback"))
        recoveries = retries + fallbacks - recoveries_before
        assert recoveries > 0, "fault plan injected no recovery"
        faulty = get_run(store, "faulty")
        window = faulty["journal"]["retries"] + faulty["journal"]["fallbacks"]
        assert window == recoveries, (
            f"run columns saw {window} recoveries, journal saw {recoveries}"
        )
        for row in get_run_rows(store, "faulty"):
            assert row["retries"] + row["fallbacks"] == recoveries
        doc = compare_runs(store, "clean", "faulty")
        assert doc["rows"]["identical"], "faulty run rows drifted"
        assert doc["frontier"]["identical"], "faulty run frontier drifted"
        store.close()
    print(
        f"recorded fault run: {faulty['rows']} rows identical to the "
        f"clean run; {recoveries} recovery event(s) surfaced in the "
        f"retry/fallback columns"
    )


#: Interleaved (bare, recorded) pairs the recording-overhead check times.
OVERHEAD_PAIRS = 81


def check_recording_overhead() -> None:
    """Recording must cost < 2% wall time on the epic benchmark grid.

    One grid run takes about 0.1 s and the host's speed drifts by more
    than 2% between runs, so the check times many back-to-back pairs
    (the order alternating) and gates on the median of the per-pair
    ratios: both halves of a pair see the same host state, and the
    median ignores the pairs a load change split.  Each sample starts
    from a collected heap, so neither variant pays for the other's
    garbage.
    """
    import gc
    import statistics
    import tempfile
    import time

    from repro.analytics.runs import RunRecorder
    from repro.cache.config import CacheConfig
    from repro.runtime.journal import use_journal
    from repro.service.store import ResultStore

    settings = RunnerSettings()
    artifacts = get_pipeline("epic", settings).reference_artifacts()
    roles = {
        role: artifacts.trace(role)
        for role in ("icache", "dcache", "unified")
    }
    grid = [
        CacheConfig(sets, assoc, line_size)
        for line_size in (16, 32, 64)
        for sets in (64, 256, 1024)
        for assoc in (1, 2, 4)
    ]

    def plain() -> float:
        gc.collect()
        start = time.perf_counter()
        for trace in roles.values():
            sweep_design_space(grid, (trace.starts, trace.sizes))
        return time.perf_counter() - start

    def recorded(store: ResultStore, index: int) -> float:
        gc.collect()
        journal = RunJournal()
        start = time.perf_counter()
        with use_journal(journal):
            with RunRecorder(
                store,
                "sweep",
                journal=journal,
                run_id=f"overhead-{index}",
                benchmark="epic",
            ) as rec:
                for role, trace in roles.items():
                    rec.add_sweep_results(
                        sweep_design_space(
                            grid,
                            (trace.starts, trace.sizes),
                            journal=journal,
                        ),
                        benchmark="epic",
                        role=role,
                    )
        return time.perf_counter() - start

    with tempfile.TemporaryDirectory(prefix="overhead-runs-") as tmp:
        store = ResultStore(Path(tmp) / "runs.sqlite")
        # The pipeline's object graph is long-lived; keep the collector
        # from rescanning it inside the timed samples.
        gc.collect()
        gc.freeze()
        ratios: list[float] = []
        try:
            for index in range(OVERHEAD_PAIRS):
                if index % 2:
                    bare = plain()
                    ratios.append(recorded(store, index) / bare)
                else:
                    instrumented = recorded(store, index)
                    ratios.append(instrumented / plain())
        finally:
            gc.unfreeze()
            store.close()
    overhead = statistics.median(ratios) - 1.0
    assert overhead < 0.02, (
        f"recording overhead {overhead:.1%} exceeds 2% on the epic grid "
        f"(median of {len(ratios)} paired runs)"
    )
    print(
        f"recording overhead: {max(overhead, 0.0):.2%} on the epic grid "
        f"({len(grid)} configs x {len(roles)} roles, median of "
        f"{len(ratios)} paired runs)"
    )


def main(argv: list[str] | None = None) -> int:
    """Run both fault-injection checks; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--journal",
        default="JOURNAL_fault_sweep.jsonl",
        metavar="PATH",
        help="write the JSON-lines run journal here (CI artifact)",
    )
    args = parser.parse_args(argv)
    with RunJournal(args.journal) as journal:
        check_sweep(journal)
        check_spill_sweep(journal)
        check_explore(journal)
        check_recorded_fault_run(journal)
        check_recording_overhead()
        print()
        print(journal.summary_text(title="Fault-injection smoke journal"))
        print(f"\njournal: {len(journal)} events -> {args.journal}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
