#!/usr/bin/env python
"""CI smoke for streaming chunked traces: bounded memory, bit-identity.

The streaming stack's whole point is simulating traces bigger than the
memory budget without changing any result.  This smoke proves both
halves on a synthetic trace >= 10x the epic reference workload:

1. **Stream-write** ``--ranges`` ranges (default 2.6M) into a chunked
   store with :class:`~repro.trace.chunkstore.ChunkedTraceWriter` —
   batches only, the full arrays never exist in this phase.
2. **Bounded-memory sweep**: re-exec this script as a child process that
   installs ``resource.setrlimit(RLIMIT_AS, budget)`` *before* importing
   numpy, attaches the trace by path, and runs the serial chunked sweep.
   The budget is enforced by the kernel — exceeding it is a
   ``MemoryError``, not a report.  The child journals the sweep plus an
   ``rss`` event (``ru_maxrss`` vs the budget) into ``--journal``.
3. **Mid-trace resume**, in the same bounded child: a checkpointed sweep
   is stopped when it asks for chunk ``STOP_AT_CHUNK`` (or the last
   chunk of a shorter trace), then re-run against the same checkpoint
   store; it must resume from the chunk-boundary snapshot (histograms
   plus the carried LRU prefix) at that chunk.
4. **Bit-identity**: the parent (no rlimit) materializes the same trace,
   sweeps in memory, and asserts every per-config miss count equals both
   of the child's streamed results.
5. **Worker shipping**: the parent re-runs the sweep over the chunked
   trace with a 2-process pool and asserts results again — jobs carry
   ``(path, digest)``, verified by the ``trace_shipping mode=chunkpath``
   journal event.

Exit code 0 means every assertion held.  The journal goes to
``--journal`` so CI uploads it as an artifact.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: Streaming grid: two line-size groups so the pool path has something
#: to fan out, assoc extremes to keep the histograms honest.
GRID = {
    "line_sizes": [32, 64],
    "set_counts": [64, 256, 1024],
    "assocs": [1, 4],
}

#: Ranges written per writer batch — the generation working set.
BATCH_RANGES = 131_072

#: Chunk at which the child stops its checkpointed sweep before resuming.
STOP_AT_CHUNK = 2


def _import_repro():
    if str(REPO / "src") not in sys.path:
        sys.path.insert(0, str(REPO / "src"))


def configs():
    from repro.cache.config import CacheConfig

    return [
        CacheConfig(nsets, assoc, line_size)
        for line_size in GRID["line_sizes"]
        for nsets in GRID["set_counts"]
        for assoc in GRID["assocs"]
    ]


def config_key(config) -> str:
    return f"S{config.sets}A{config.assoc}L{config.line_size}"


def synth_batch(seed: int, index: int, count: int):
    """Deterministic batch ``index`` of the synthetic trace."""
    import numpy as np

    rng = np.random.default_rng((seed, index))
    starts = rng.integers(0, 1 << 22, count, dtype=np.int64)
    sizes = rng.integers(1, 65, count, dtype=np.int64)
    return starts, sizes


def write_trace(path: Path, ranges: int, seed: int, chunk_ranges: int):
    from repro.trace.chunkstore import ChunkedTrace, ChunkedTraceWriter

    with ChunkedTraceWriter(path, chunk_ranges=chunk_ranges) as writer:
        index = 0
        written = 0
        while written < ranges:
            count = min(BATCH_RANGES, ranges - written)
            writer.append(*synth_batch(seed, index, count))
            written += count
            index += 1
    return ChunkedTrace(path)


class _Stopped(Exception):
    """Raised to stop a checkpointed sweep at a chunk boundary."""


def interrupted_then_resumed(trace_path: Path, store_path: Path, stop_at: int):
    """Stop a checkpointed sweep when it reads chunk ``stop_at``, then
    rerun it; returns the rerun's results and the set of chunks its
    passes resumed at."""
    from repro.cache.sweep import sweep_design_space
    from repro.runtime.journal import RunJournal
    from repro.service.store import ResultStore
    from repro.trace.chunkstore import ChunkedTrace

    class StoppingTrace(ChunkedTrace):
        def chunk(self, index):
            if index == stop_at:
                raise _Stopped(index)
            return super().chunk(index)

    store = ResultStore(store_path)
    try:
        with StoppingTrace(trace_path) as trace:
            try:
                sweep_design_space(configs(), trace, checkpoint=store)
            except _Stopped:
                pass
            else:
                raise AssertionError(f"sweep never read chunk {stop_at}")
        journal = RunJournal()
        with ChunkedTrace(trace_path) as trace:
            results = sweep_design_space(
                configs(), trace, checkpoint=store, journal=journal
            )
    finally:
        store.close()
    resumed = {
        e.get("resumed_at_chunk", 0)
        for e in journal.events
        if e["event"] == "pass"
    }
    return results, resumed


def run_child(args) -> int:
    """Bounded-memory half: rlimit first, numpy second, sweeps third."""
    budget = args.budget_mb * 1024 * 1024
    resource.setrlimit(resource.RLIMIT_AS, (budget, budget))
    _import_repro()
    from repro.cache.sweep import sweep_design_space
    from repro.runtime.journal import RunJournal
    from repro.trace.chunkstore import ChunkedTrace

    journal = RunJournal(args.journal)
    with ChunkedTrace(args.trace) as trace:
        results = sweep_design_space(configs(), trace, journal=journal)
        chunks, ranges = trace.n_chunks, trace.n_ranges
    stop_at = min(STOP_AT_CHUNK, chunks - 1)
    resumed_results, resumed_at = interrupted_then_resumed(
        args.trace, args.out.with_suffix(".sqlite"), stop_at
    )
    max_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    journal.record("rss", max_rss_bytes=max_rss, budget_bytes=budget)
    journal.close()
    out = {
        "misses": {
            config_key(c): result.misses for c, result in results.items()
        },
        "resumed_misses": {
            config_key(c): result.misses
            for c, result in resumed_results.items()
        },
        "stop_at": stop_at,
        "resumed_at": sorted(resumed_at),
        "max_rss_bytes": max_rss,
        "budget_bytes": budget,
        "chunks": chunks,
        "ranges": ranges,
    }
    Path(args.out).write_text(json.dumps(out))
    return 0


def run_parent(args) -> int:
    _import_repro()
    import tempfile

    from repro.cache.sweep import sweep_design_space
    from repro.runtime.executor import ExecutorPolicy
    from repro.runtime.journal import RunJournal

    with tempfile.TemporaryDirectory(prefix="repro-stream-smoke-") as td:
        trace_path = Path(td) / "stream.rct"
        print(
            f"writing {args.ranges} ranges "
            f"({args.ranges // 257_806}x epic) in "
            f"{BATCH_RANGES}-range batches ..."
        )
        trace = write_trace(
            trace_path, args.ranges, args.seed, args.chunk_ranges
        )
        n_chunks = trace.n_chunks
        print(
            f"  {n_chunks} chunks, "
            f"{trace_path.stat().st_size / 1e6:.1f} MB on disk, "
            f"digest {trace.digest[:12]}..."
        )

        # Child: serial chunked sweep under the enforced RSS budget.
        out_path = Path(td) / "child.json"
        child = subprocess.run(
            [
                sys.executable,
                str(Path(__file__).resolve()),
                "--child",
                "--trace",
                str(trace_path),
                "--budget-mb",
                str(args.budget_mb),
                "--journal",
                str(args.journal),
                "--out",
                str(out_path),
            ],
            capture_output=True,
            text=True,
        )
        if child.returncode != 0:
            print(child.stdout)
            print(child.stderr, file=sys.stderr)
            print(
                f"FAIL: bounded-memory child exited {child.returncode} "
                f"under the {args.budget_mb} MiB budget",
                file=sys.stderr,
            )
            return 1
        streamed = json.loads(out_path.read_text())
        rss_mb = streamed["max_rss_bytes"] / (1024 * 1024)
        print(
            f"child sweep ok under enforced budget: peak RSS "
            f"{rss_mb:.0f} MiB of {args.budget_mb} MiB"
        )
        assert streamed["max_rss_bytes"] <= streamed["budget_bytes"]
        assert streamed["ranges"] == args.ranges

        # In-memory baseline (parent is unrestricted).
        starts, sizes = trace.materialize()
        exact = sweep_design_space(configs(), (starts, sizes))
        mismatches = [
            config_key(c)
            for c in configs()
            if exact[c].misses != streamed["misses"][config_key(c)]
        ]
        if mismatches:
            print(
                f"FAIL: streamed results diverge from in-memory at "
                f"{mismatches}",
                file=sys.stderr,
            )
            return 1
        stop_at = streamed["stop_at"]
        if streamed["resumed_at"] != [stop_at]:
            print(
                f"FAIL: the stopped sweep resumed at "
                f"{streamed['resumed_at']}, not chunk {stop_at}",
                file=sys.stderr,
            )
            return 1
        resumed_bad = [
            config_key(c)
            for c in configs()
            if exact[c].misses != streamed["resumed_misses"][config_key(c)]
        ]
        if resumed_bad:
            print(
                f"FAIL: the sweep resumed at chunk {stop_at} "
                f"diverges from in-memory at {resumed_bad}",
                file=sys.stderr,
            )
            return 1
        print(
            f"bit-identity: {len(configs())} configs identical between "
            "streamed (child) and in-memory (parent) sweeps, and for the "
            f"child sweep stopped at chunk {stop_at} and resumed"
        )
        del starts, sizes

        # Pool path: workers attach by (path, digest).
        journal = RunJournal()
        pooled = sweep_design_space(
            configs(),
            trace,
            policy=ExecutorPolicy(max_workers=2),
            journal=journal,
        )
        shipping = [
            e for e in journal.events if e["event"] == "trace_shipping"
        ]
        assert shipping and shipping[0]["mode"] == "chunkpath", shipping
        pool_bad = [
            config_key(c)
            for c in configs()
            if pooled[c].misses != exact[c].misses
        ]
        if pool_bad:
            print(
                f"FAIL: pool-worker results diverge at {pool_bad}",
                file=sys.stderr,
            )
            return 1
        print(
            f"pool shipping: {shipping[0]['jobs']} jobs shipped by "
            f"path+digest (mode=chunkpath), results bit-identical"
        )
        trace.close()

    child_journal = RunJournal.load(args.journal)
    summary = child_journal.summary()
    if n_chunks > 1:
        # A one-chunk sweep is not journaled as chunked.
        chunked = summary.get("streaming", {}).get("chunked_passes", 0)
        assert chunked >= 1, summary
    assert summary["memory"]["max_rss_bytes"] <= summary["memory"][
        "rss_budget_bytes"
    ], summary
    print()
    print(child_journal.summary_text("Child journal summary"))
    print()
    print("stream smoke: all assertions held")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--ranges",
        type=int,
        default=2_600_000,
        help="synthetic trace length (default >= 10x the epic workload)",
    )
    parser.add_argument("--seed", type=int, default=20260808)
    parser.add_argument(
        "--chunk-ranges",
        type=int,
        default=262_144,
        help="ranges per chunk in the on-disk store",
    )
    parser.add_argument(
        "--budget-mb",
        type=int,
        default=256,
        help="address-space budget enforced on the sweeping child (MiB)",
    )
    parser.add_argument(
        "--journal",
        type=Path,
        default=Path("JOURNAL_stream_smoke.jsonl"),
        help="where the child writes its run journal",
    )
    # Child-mode plumbing (internal).
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--trace", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--out", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.ranges < 1 or args.chunk_ranges < 1 or args.budget_mb < 1:
        parser.error("--ranges, --chunk-ranges and --budget-mb must be >= 1")

    if args.child:
        return run_child(args)
    if args.journal.exists():
        args.journal.unlink()  # the child appends; start fresh
    return run_parent(args)


if __name__ == "__main__":
    raise SystemExit(main())
