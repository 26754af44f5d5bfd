"""Command-line interface: ``python -m repro <command>``.

Gives the repository's main flows a shell entry point:

* ``table2`` / ``table3`` / ``table4`` / ``fig5`` / ``fig6`` / ``fig7`` —
  regenerate one paper table/figure and print it;
* ``explore`` — run the spacewalker on each benchmark and print the
  Pareto frontier;
* ``sweep`` — exact (or ``--sample-*`` estimated) miss counts for a
  cache design-space grid (line sizes x sets x associativities) on each
  benchmark's reference trace;
* ``dilation`` — print text dilations of the paper processors for one
  benchmark;
* ``errors`` — estimation-error statistics over a table4-style run;
* ``report`` — assemble bench results into one markdown report;
* ``benchmarks`` — list the workload suite;
* ``serve`` — run the evaluation service (durable store + job queue +
  HTTP API) against one sqlite database;
* ``submit`` — send a job spec to a running service and optionally wait
  for its result;
* ``work`` — run a pull-loop fleet worker against a running service
  (lease-based claiming with heartbeats; any number of these processes,
  on any host, scale the service out);
* ``runs`` — inspect recorded runs in an analytics database: ``list``,
  ``show``, ``export`` (the canonical CSV table), ``compare`` (row
  deltas + Pareto-frontier diff) and ``gc``.

Common options: ``--scale`` (workload footprint multiplier),
``--visits`` (emulation budget), ``--benchmarks`` (subset),
``--max-workers``/``--job-timeout``/``--job-retries`` (parallel
priming), ``--journal`` (structured JSON-lines run
journal), ``--runs-db`` (record each sweep/explore job as a durable run
in an analytics sqlite database, browsable with ``repro runs``).

``sweep`` and ``explore`` are in-process clients of
:func:`repro.service.jobs.execute_job`: they turn their flags into the
job spec a client would submit to ``repro serve`` (one per benchmark),
run it against a result store and only format the returned document.
The store is the ``--checkpoint``/``--runs-db`` file, else a temporary
sqlite file removed on exit.  The sweep flags ``--strategy``,
``--trace-format`` and ``--chunk-ranges`` are retired; chunked traces
are swept through ``{"kind": "chunked"}`` job specs.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from contextlib import ExitStack, contextmanager, nullcontext
from typing import Sequence

from repro.errors import ConfigurationError
from repro.experiments.runner import (
    RunnerSettings,
    get_pipeline,
    run_figure5,
    run_figure6,
    run_figure7,
    run_table2,
    run_table3,
    run_table4,
)
from repro.machine.presets import PAPER_PROCESSORS
from repro.runtime.journal import RunJournal, use_journal
from repro.workloads.suite import BENCHMARK_NAMES


def _positive_int(text: str) -> int:
    """argparse type: an int >= 1 (0/negatives are configuration errors,
    not a silent request for serial execution)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {value}"
        )
    return value


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (common options live on each subcommand)."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="workload footprint multiplier (default 1.0 = paper scale)",
    )
    common.add_argument(
        "--visits",
        type=int,
        default=60_000,
        help="emulation budget in block visits (default 60000)",
    )
    common.add_argument(
        "--benchmarks",
        nargs="+",
        default=None,
        metavar="NAME",
        help=f"benchmark subset (default: all of {', '.join(BENCHMARK_NAMES)})",
    )
    common.add_argument(
        "--max-workers",
        type=_positive_int,
        default=None,
        metavar="N",
        help=(
            "worker processes for batched simulation priming "
            "(default: serial; must be >= 1)"
        ),
    )
    common.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "per-pass timeout for parallel priming; a hung worker is "
            "evicted and the pass retried (default: no limit)"
        ),
    )
    common.add_argument(
        "--job-retries",
        type=int,
        default=2,
        metavar="N",
        help="re-attempts per failed simulation pass (default: 2)",
    )
    common.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help=(
            "append a structured JSON-lines run journal (passes, "
            "retries, fallbacks, cache hit rates) to PATH"
        ),
    )
    common.add_argument(
        "--runs-db",
        default=None,
        metavar="PATH",
        help=(
            "record each benchmark's sweep/explore job as a durable "
            "run in the given analytics sqlite database (browse with "
            "'repro runs')"
        ),
    )
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Automatic and Efficient Evaluation of "
            "Memory Hierarchies for Embedded Systems' (MICRO-32, 1999)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
        ("table2", "relative data-cache miss rates"),
        ("table3", "text dilation for all benchmarks"),
        ("table4", "actual vs dilated vs estimated misses (full suite)"),
        ("fig5", "dilation distributions (gcc, ghostscript)"),
        ("fig6", "estimated vs dilated misses across dilations (gcc)"),
        ("fig7", "actual vs dilated vs estimated misses (gcc)"),
        ("dilation", "text dilations of the paper processors"),
        ("explore", "spacewalker Pareto exploration"),
        ("errors", "estimation-error statistics (table4 slices)"),
        ("benchmarks", "list the workload suite"),
    ):
        sub.add_parser(name, help=doc, parents=[common])
    sweep = sub.add_parser(
        "sweep",
        help="exact miss counts for a cache design-space grid",
        parents=[common],
    )
    sweep.add_argument(
        "--role",
        choices=("icache", "dcache", "unified"),
        default="unified",
        help="reference trace to sweep (default: unified)",
    )
    sweep.add_argument(
        "--line-sizes",
        nargs="+",
        type=_positive_int,
        default=[16, 32, 64],
        metavar="BYTES",
        help="line sizes of the grid (default: 16 32 64)",
    )
    sweep.add_argument(
        "--sets",
        nargs="+",
        type=_positive_int,
        default=[64, 256, 1024],
        metavar="N",
        help="set counts of the grid (default: 64 256 1024)",
    )
    sweep.add_argument(
        "--assocs",
        nargs="+",
        type=_positive_int,
        default=[1, 2, 4],
        metavar="N",
        help="associativities of the grid (default: 1 2 4)",
    )
    sweep.add_argument(
        "--checkpoint",
        default=None,
        metavar="PATH",
        help=(
            "sqlite result store the sweep runs against, so a rerun "
            "is answered from its stored results; must name the "
            "--runs-db file if both are given (default: a temporary "
            "store)"
        ),
    )
    sweep.add_argument(
        "--sample-intervals",
        type=_positive_int,
        default=None,
        metavar="K",
        help=(
            "interval-sample the sweep: simulate K windows and report "
            "extrapolated misses with an error estimate instead of "
            "simulating the whole trace (default: exact)"
        ),
    )
    sweep.add_argument(
        "--sample-interval-ranges",
        type=_positive_int,
        default=4096,
        metavar="N",
        help="ranges per sampled window (default: 4096)",
    )
    sweep.add_argument(
        "--sample-warmup",
        type=int,
        default=1024,
        metavar="N",
        help=(
            "ranges simulated before each window to warm LRU state, "
            "excluded from the counts (default: 1024)"
        ),
    )
    sweep.add_argument(
        "--sample-mode",
        choices=("uniform", "strided", "first"),
        default="uniform",
        help=(
            "window placement: evenly spread ('uniform'), fixed stride "
            "('strided') or an initial segment ('first'; the paper's "
            "truncation sampling) (default: uniform)"
        ),
    )
    report = sub.add_parser(
        "report", help="assemble bench results into a markdown report"
    )
    report.add_argument(
        "--results",
        default="benchmarks/results",
        help="directory of bench result files",
    )
    report.add_argument(
        "--output",
        default=None,
        help="write the report here instead of stdout",
    )
    report.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help="include a run-journal summary section from this JSON-lines file",
    )
    report.add_argument(
        "--store",
        default=None,
        metavar="PATH",
        help=(
            "include store / job-queue / recorded-run statistics from "
            "this evaluation-service sqlite database"
        ),
    )
    serve = sub.add_parser(
        "serve",
        help="run the evaluation service (store + job queue + HTTP API)",
    )
    serve.add_argument(
        "--db",
        required=True,
        metavar="PATH",
        help="sqlite database file for the shared result store and job queue",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=8321, help="bind port (default 8321)"
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help=(
            "local job worker threads (each job may fan out to "
            "processes); 0 = broker mode, all work pulled by remote "
            "'repro work' processes"
        ),
    )
    serve.add_argument(
        "--lease",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "job lease duration; workers heartbeat to renew, expired "
            "leases are requeued (default 30)"
        ),
    )
    serve.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help="append the service's JSON-lines run journal to PATH",
    )
    submit = sub.add_parser(
        "submit", help="submit a job spec to a running evaluation service"
    )
    submit.add_argument(
        "--url",
        default="http://127.0.0.1:8321",
        help="service base URL (default http://127.0.0.1:8321)",
    )
    submit.add_argument(
        "--spec",
        required=True,
        metavar="PATH",
        help="job spec JSON file ('-' reads stdin)",
    )
    submit.add_argument(
        "--wait",
        action="store_true",
        help="poll until the job finishes and print its result document",
    )
    submit.add_argument(
        "--timeout",
        type=float,
        default=600.0,
        metavar="SECONDS",
        help="--wait polling budget (default 600)",
    )
    worker = sub.add_parser(
        "work",
        help="run a pull-loop fleet worker against a running service",
    )
    worker.add_argument(
        "--server",
        default="http://127.0.0.1:8321",
        metavar="URL",
        help="service base URL (default http://127.0.0.1:8321)",
    )
    worker.add_argument(
        "--tags",
        nargs="*",
        default=[],
        metavar="TAG",
        help=(
            "capability tags; only jobs whose 'requires' list these "
            "tags cover are claimed"
        ),
    )
    worker.add_argument(
        "--lease",
        type=float,
        default=None,
        metavar="SECONDS",
        help="requested lease per claim (default: the server's lease)",
    )
    worker.add_argument(
        "--id",
        default=None,
        metavar="WORKER_ID",
        help="worker identity (default: host:pid)",
    )
    worker.add_argument(
        "--max-jobs",
        type=_positive_int,
        default=None,
        metavar="N",
        help="exit after executing N jobs (default: run until killed)",
    )
    worker.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help="append the worker's JSON-lines run journal to PATH",
    )
    runs = sub.add_parser(
        "runs",
        help="inspect recorded runs in an analytics database",
    )
    runs_sub = runs.add_subparsers(dest="runs_command", required=True)
    runs_common = argparse.ArgumentParser(add_help=False)
    runs_common.add_argument(
        "--db",
        required=True,
        metavar="PATH",
        help="analytics sqlite database (a service db or --runs-db file)",
    )
    runs_list = runs_sub.add_parser(
        "list", help="recorded runs, newest first", parents=[runs_common]
    )
    runs_list.add_argument(
        "--kind", default=None, help="filter by run kind (sweep/explore/...)"
    )
    runs_list.add_argument(
        "--state", default=None, help="filter by state (done/failed/running)"
    )
    runs_list.add_argument(
        "--limit", type=_positive_int, default=20, help="max rows (default 20)"
    )
    runs_show = runs_sub.add_parser(
        "show", help="one run with its rows as JSON", parents=[runs_common]
    )
    runs_show.add_argument("run_id", help="run id (see 'repro runs list')")
    runs_export = runs_sub.add_parser(
        "export",
        help="write a run's canonical CSV table",
        parents=[runs_common],
    )
    runs_export.add_argument("run_id", help="run id (see 'repro runs list')")
    runs_export.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="write the CSV here instead of stdout",
    )
    runs_compare = runs_sub.add_parser(
        "compare",
        help="diff two runs: row deltas + Pareto frontiers",
        parents=[runs_common],
    )
    runs_compare.add_argument("run_a", help="baseline run id")
    runs_compare.add_argument("run_b", help="candidate run id")
    runs_gc = runs_sub.add_parser(
        "gc", help="delete old recorded runs", parents=[runs_common]
    )
    runs_gc.add_argument(
        "--older-than",
        type=float,
        default=None,
        metavar="SECONDS",
        help="delete runs started more than SECONDS ago",
    )
    runs_gc.add_argument(
        "--keep",
        type=int,
        default=None,
        metavar="N",
        help="always keep the N newest runs",
    )
    return parser


def _settings(args: argparse.Namespace) -> RunnerSettings:
    return RunnerSettings.from_spec(vars(args))


def _benchmarks(args: argparse.Namespace) -> tuple[str, ...]:
    if args.benchmarks is None:
        return BENCHMARK_NAMES
    unknown = set(args.benchmarks) - set(BENCHMARK_NAMES)
    if unknown:
        raise SystemExit(
            f"unknown benchmarks: {sorted(unknown)}; "
            f"choose from {', '.join(BENCHMARK_NAMES)}"
        )
    return tuple(args.benchmarks)


def _policy_knobs(args: argparse.Namespace) -> dict:
    """The execution knobs of a job spec (top level, never in a trace
    spec, so trace keys stay content addresses)."""
    return {
        "max_workers": args.max_workers,
        "job_timeout": args.job_timeout,
        "job_retries": args.job_retries,
    }


@contextmanager
def _job_store(args: argparse.Namespace):
    """The result store a command's jobs run against: the
    ``--checkpoint``/``--runs-db`` file, else a temporary sqlite file
    removed on exit.  Closed on exit."""
    from repro.errors import EvaluationCacheError
    from repro.service.store import ResultStore

    checkpoint = getattr(args, "checkpoint", None)
    flag, path = (
        ("--checkpoint", checkpoint) if checkpoint
        else ("--runs-db", args.runs_db)
    )
    with ExitStack() as stack:
        if not path:
            tmpdir = stack.enter_context(
                tempfile.TemporaryDirectory(prefix="repro-store-")
            )
            path = os.path.join(tmpdir, "store.sqlite")
        try:
            store = ResultStore(path)
        except EvaluationCacheError as exc:
            raise SystemExit(
                f"{flag} {path}: must be a sqlite result store ({exc})"
            )
        stack.callback(store.close)
        yield store


def _execute_jobs(
    args: argparse.Namespace, specs: list[dict]
) -> tuple[list[dict], list[str]]:
    """Run job specs in-process through
    :func:`repro.service.jobs.execute_job`, as the service would.

    Returns the result documents and one ``[runs]`` line per recorded
    run (runs are recorded only with ``--runs-db``).
    """
    from repro.analytics.runs import new_run_id
    from repro.errors import ServiceError
    from repro.service.jobs import execute_job

    results, recorded = [], []
    with _job_store(args) as store:
        for spec in specs:
            run_id = new_run_id() if args.runs_db else None
            try:
                results.append(
                    execute_job(
                        spec, store, run_id=run_id, record=run_id is not None
                    )
                )
            except ServiceError as exc:
                raise SystemExit(str(exc)) from None
            if run_id is not None:
                recorded.append(f"[runs] recorded {run_id} -> {args.runs_db}")
    return results, recorded


def _cmd_explore(args: argparse.Namespace) -> str:
    from repro.cache.config import CacheConfig

    specs = [
        {
            "kind": "explore",
            "benchmark": bench,
            "scale": args.scale,
            "visits": args.visits,
            **_policy_knobs(args),
        }
        for bench in _benchmarks(args)
    ]
    results, recorded = _execute_jobs(args, specs)
    lines: list[str] = []
    for result in results:
        frontier = result["frontier"]
        lines.append(
            f"Pareto frontier for {result['benchmark']} "
            f"({len(frontier)} designs):"
        )
        for point in frontier:
            icache, dcache, unified = (
                CacheConfig(**point[role]).describe()
                for role in ("icache", "dcache", "unified")
            )
            lines.append(
                f"  cost={point['cost']:9.2f} cycles={point['cycles']:13.0f} "
                f"proc={point['processor']} "
                f"I={icache} D={dcache} U={unified}"
            )
    return "\n".join(lines + recorded)


def _cmd_sweep(args: argparse.Namespace) -> str:
    if args.checkpoint and args.sample_intervals:
        raise SystemExit(
            "--checkpoint cannot be combined with --sample-intervals: "
            "sampled estimates are never checkpointed"
        )
    sample = {}
    if args.sample_intervals:
        sample["sample"] = {
            "intervals": args.sample_intervals,
            "interval_ranges": args.sample_interval_ranges,
            "warmup_ranges": args.sample_warmup,
            "mode": args.sample_mode,
        }
    traces = [
        {
            "kind": "benchmark",
            "benchmark": bench,
            "role": args.role,
            "scale": args.scale,
            "visits": args.visits,
        }
        for bench in _benchmarks(args)
    ]
    grid = {
        "line_sizes": args.line_sizes,
        "sets": args.sets,
        "assocs": args.assocs,
    }
    results, recorded = _execute_jobs(
        args,
        [
            {
                "kind": "sweep",
                "trace": trace,
                "configs": grid,
                **_policy_knobs(args),
                **sample,
            }
            for trace in traces
        ],
    )
    lines: list[str] = []
    for trace, result in zip(traces, results):
        # The job built its trace through this memoized pipeline.
        ranges = get_pipeline(
            trace["benchmark"], RunnerSettings.from_spec(trace)
        ).reference_artifacts().trace(args.role)
        docs = result["results"]
        header = (
            f"{trace['benchmark']} {args.role}: {len(ranges)} ranges, "
            f"{len(docs)} configurations"
        )
        columns = (
            f"  {'line':>5} {'sets':>6} {'assoc':>5} "
            f"{'misses':>12} {'rate':>8}"
        )
        if result["sampled"]:
            header += (
                f" (sampled: {docs[0]['intervals']} intervals, "
                f"{docs[0]['sampled_ranges'] / docs[0]['total_ranges']:.1%}"
                " of the trace)"
            )
            columns += f" {'error':>8}"
        lines += [header, columns]
        for doc in docs:
            misses, accesses = doc["misses"], doc["accesses"]
            rate = misses / accesses if accesses else 0.0
            row = (
                f"  {doc['line_size']:>5} {doc['sets']:>6} "
                f"{doc['assoc']:>5} {misses:>12} {rate:>8.4f}"
            )
            if result["sampled"]:
                error = (
                    f"{doc['error']:.2%}" if doc["error"] is not None
                    else "n/a"
                )
                row += f" {error:>8}"
            lines.append(row)
    return "\n".join(lines + recorded)


def _cmd_dilation(args: argparse.Namespace) -> str:
    lines = []
    for bench in _benchmarks(args):
        pipeline = get_pipeline(bench, _settings(args))
        row = "  ".join(
            f"{p.name}={pipeline.dilation(p):.2f}" for p in PAPER_PROCESSORS
        )
        lines.append(f"{bench:>12}: {row}")
    return "\n".join(lines)


def _cmd_errors(args: argparse.Namespace) -> str:
    from repro.experiments.runner import run_table4
    from repro.experiments.summary import render_error_summary

    result = run_table4(benchmarks=_benchmarks(args), settings=_settings(args))
    return render_error_summary(result)


def _cmd_report(args: argparse.Namespace) -> str:
    from repro.experiments.report import build_report, save_report

    if args.output:
        path = save_report(
            args.results,
            args.output,
            journal=args.journal,
            store=args.store,
        )
        return f"report written to {path}"
    return build_report(args.results, journal=args.journal, store=args.store)


def _cmd_runs(args: argparse.Namespace) -> str:
    import json
    import time as _time

    from repro.analytics.compare import compare_runs
    from repro.analytics.runs import gc_runs, get_run, get_run_rows, list_runs
    from repro.analytics.table import run_table_csv
    from repro.service.store import ResultStore

    store = ResultStore(args.db)
    if args.runs_command == "list":
        runs = list_runs(
            store, kind=args.kind, state=args.state, limit=args.limit
        )
        if not runs:
            return "no recorded runs"
        lines = [
            f"{'id':>20} {'kind':>8} {'state':>8} {'benchmark':>12} "
            f"{'rows':>6} {'wall_s':>9}  started"
        ]
        for run in runs:
            started = _time.strftime(
                "%Y-%m-%d %H:%M:%S", _time.localtime(run["started"])
            )
            wall = run.get("wall_s")
            lines.append(
                f"{run['id']:>20} {run['kind']:>8} {run['state']:>8} "
                f"{(run.get('benchmark') or '-'):>12} {run['rows']:>6} "
                f"{wall if wall is not None else '-':>9}  {started}"
            )
        return "\n".join(lines)
    if args.runs_command == "show":
        return json.dumps(
            {
                "run": get_run(store, args.run_id),
                "rows": get_run_rows(store, args.run_id),
            },
            indent=2,
        )
    if args.runs_command == "export":
        csv_text = run_table_csv(store, args.run_id)
        if args.output:
            with open(args.output, "w", encoding="utf-8", newline="") as fh:
                fh.write(csv_text)
            return f"table written to {args.output}"
        return csv_text.rstrip("\n")
    if args.runs_command == "compare":
        return json.dumps(
            compare_runs(store, args.run_a, args.run_b), indent=2
        )
    if args.runs_command == "gc":
        deleted = gc_runs(
            store, older_than=args.older_than, keep=args.keep
        )
        return f"deleted {deleted} run(s)"
    raise SystemExit(f"unknown runs command {args.runs_command!r}")


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.queue import DEFAULT_LEASE
    from repro.service.server import serve

    serve(
        args.db,
        host=args.host,
        port=args.port,
        workers=args.workers,
        journal_path=args.journal,
        lease=args.lease if args.lease is not None else DEFAULT_LEASE,
    )
    return 0


def _cmd_work(args: argparse.Namespace) -> int:
    from repro.service.worker import work

    work(
        args.server,
        tags=args.tags,
        lease=args.lease,
        worker_id=args.id,
        max_jobs=args.max_jobs,
        journal_path=args.journal,
    )
    return 0


def _cmd_submit(args: argparse.Namespace) -> str:
    import json

    from repro.service.client import ServiceClient

    if args.spec == "-":
        spec = json.load(sys.stdin)
    else:
        with open(args.spec, encoding="utf-8") as handle:
            spec = json.load(handle)
    client = ServiceClient(args.url)
    submitted = client.submit_job(spec)
    if not args.wait:
        return json.dumps({"id": submitted.id, "state": submitted.state})
    record = client.wait(submitted.id, timeout=args.timeout)
    return json.dumps(record.to_dict(), indent=2)


def _cmd_benchmarks(_: argparse.Namespace) -> str:
    from repro.workloads.suite import benchmark_profile

    lines = []
    for name in BENCHMARK_NAMES:
        profile = benchmark_profile(name)
        lines.append(
            f"{name:>12}: {profile.n_procedures} procedures, "
            f"blocks/proc {profile.blocks_per_proc}, "
            f"mix(i/f/m)={profile.op_mix}"
        )
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "max_workers"):
        try:
            _settings(args)
        except ConfigurationError as exc:
            parser.error(str(exc))
        checkpoint = getattr(args, "checkpoint", None)
        if (
            checkpoint
            and args.runs_db
            and os.path.realpath(checkpoint) != os.path.realpath(args.runs_db)
        ):
            parser.error("--checkpoint and --runs-db must name the same file")
    if args.command == "report":
        print(_cmd_report(args))
        return 0
    if args.command == "serve":
        # serve owns its journal (installed as the active journal for
        # the service's whole lifetime, not one command's).
        return _cmd_serve(args)
    if args.command == "submit":
        print(_cmd_submit(args))
        return 0
    if args.command == "work":
        # work owns its journal (it spans the worker's whole lifetime).
        return _cmd_work(args)
    if args.command == "runs":
        print(_cmd_runs(args))
        return 0
    journal = RunJournal(args.journal) if args.journal else None
    if journal is None and getattr(args, "runs_db", None):
        # Run recording derives wall/kernel/cache columns from journal
        # events; give it an in-memory journal when none was requested.
        journal = RunJournal()
    scope = use_journal(journal) if journal is not None else nullcontext()
    with scope:
        if journal is not None:
            journal.record("run_start", command=args.command)
        try:
            return _dispatch(args)
        finally:
            if journal is not None:
                journal.record("run_end", command=args.command)
                if journal.path is not None:
                    print(
                        f"[journal] {len(journal)} events -> {journal.path}",
                        file=sys.stderr,
                    )
                journal.close()


def _dispatch(args: argparse.Namespace) -> int:
    settings = _settings(args)
    benches = _benchmarks(args)
    if args.command == "table2":
        out = run_table2(benchmarks=benches, settings=settings).render()
    elif args.command == "table3":
        out = run_table3(benchmarks=benches, settings=settings).render()
    elif args.command == "table4":
        out = run_table4(benchmarks=benches, settings=settings).render()
    elif args.command == "fig5":
        out = run_figure5(settings=settings).render()
    elif args.command == "fig6":
        out = run_figure6(settings=settings).render()
    elif args.command == "fig7":
        out = run_figure7(settings=settings).render()
    elif args.command == "sweep":
        out = _cmd_sweep(args)
    elif args.command == "dilation":
        out = _cmd_dilation(args)
    elif args.command == "explore":
        out = _cmd_explore(args)
    elif args.command == "errors":
        out = _cmd_errors(args)
    elif args.command == "benchmarks":
        out = _cmd_benchmarks(args)
    else:  # pragma: no cover - argparse enforces the choices
        raise SystemExit(f"unknown command {args.command!r}")
    print(out)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
