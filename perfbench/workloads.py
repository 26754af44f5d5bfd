"""The benchmark's three workloads, each a closed loop with one client.

Every workload builds its inputs from the workload seed alone and
exposes the same shape to :mod:`phase`:

* ``prepare()`` — one-off generation of the inputs from the seed;
* ``setup(tracer)`` — deterministic preparation up to the first timed op
  (warm-up op, trace writing, store pre-population).  The phase runs it
  several times; each run starts over and replaces the last one's state;
* ``op(index, tracer)`` — one timed op; returns a JSON-able output.  With
  a :class:`~spans.Tracer` the op runs the same code, with the calls it
  makes into each layer wrapped in spans (:func:`~spans.spans_around`);
* ``check(index, output)`` — is the output correct?  ``CHECK_INLINE``
  workloads are checked right after each op (their oracle needs the
  op's live state); the others after the timed loop;
* ``layer_metrics(tracer, roots)`` — per-layer numbers of a traced phase.

Layer names are the ``repro`` module names: ``workloads``, ``vliwcomp``,
``iformat``, ``trace``, ``core``, ``ahh``, ``cache``, ``explore``,
``service`` and ``analytics``.
"""

from __future__ import annotations

import random
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any

import numpy as np

from spans import Tracer, maybe_span, median, spans_around

from repro.ahh.batch import clear_collisions_batch_cache
from repro.cache.linestream import clear_line_stream_cache


def clear_process_memos() -> None:
    """Drop the in-process memos keyed by trace content, so no op is
    served from an earlier op's trace."""
    clear_line_stream_cache()
    clear_collisions_batch_cache()


def derived_seed(seed: int, *path: int) -> int:
    """A 31-bit seed drawn from the workload seed and a position."""
    rng = np.random.default_rng([seed, *path])
    return int(rng.integers(1, 2**31 - 1))


# ----------------------------------------------------------------------
# explore_cold: a whole `repro explore` request on a fresh pipeline.
# ----------------------------------------------------------------------


EXPLORE_BENCHMARK = "epic"
EXPLORE_SCALE = 1.0
EXPLORE_VISITS = 5_000
WARMUP_SCALE = 0.25
WARMUP_VISITS = 3_000
WARMUP_EMULATION_SEED = 1
#: Frontier cost/time tolerance between the batched and scalar walks.
FRONTIER_RTOL = 1e-9
FRONTIER_ATOL = 1e-6


def frontier_doc(pareto) -> list[list[Any]]:
    """A Pareto set's frontier as plain, exactly comparable rows."""
    rows = []
    for point in pareto.frontier():
        memory = point.design.memory
        rows.append(
            [
                point.design.processor,
                memory.icache.describe(),
                memory.dcache.describe(),
                memory.unified.describe(),
                float(point.cost),
                float(point.time),
            ]
        )
    return rows


def frontiers_match(got: list[list[Any]], want: list[list[Any]]) -> bool:
    if len(got) != len(want):
        return False
    for a, b in zip(got, want):
        if a[:4] != b[:4]:
            return False
        for x, y in zip(a[4:], b[4:]):
            if abs(x - y) > max(FRONTIER_RTOL * max(abs(x), abs(y)), FRONTIER_ATOL):
                return False
    return True


def _trace_counts(trace) -> dict[str, float]:
    return {"trace.ranges": float(len(trace))}


def explore_targets() -> list:
    """The calls a cold explore makes into each layer, as
    :func:`~spans.spans_around` targets.  The pipeline's own names are
    replaced, so the traced op runs the real
    :class:`~repro.experiments.pipeline.ExperimentPipeline`."""
    from repro.experiments import pipeline
    from repro.explore.evaluators import MemoryEvaluator
    from repro.trace.emulator import Emulator
    from repro.trace.generator import TraceGenerator

    return [
        (pipeline, "MachineDescription", "machine.mdes", None),
        (pipeline, "compile_program", "vliwcomp.compile", None),
        (pipeline, "assemble", "iformat.assemble", None),
        (pipeline, "link", "iformat.link", None),
        (Emulator, "__init__", "trace.emulate", None),
        (
            Emulator,
            "run",
            "trace.emulate",
            lambda events: {"trace.events": events.n_visits + events.n_data_refs},
        ),
        (TraceGenerator, "__init__", "trace.generate", None),
        (TraceGenerator, "instruction_trace", "trace.generate", _trace_counts),
        (TraceGenerator, "data_trace", "trace.generate", _trace_counts),
        (TraceGenerator, "unified_trace", "trace.generate", _trace_counts),
        (pipeline, "processor_cycles", "core.cycles", None),
        (pipeline, "measure_dilation", "core.dilation", None),
        (pipeline, "derive_trace_parameters", "ahh.params", None),
        (MemoryEvaluator, "prime", "cache.prime", None),
        (MemoryEvaluator, "misses_batch", "explore.query", None),
    ]


class ExploreCold:
    """Each op is a cold ``repro explore`` on epic: fresh pipeline,
    emulation seed drawn from the workload seed, ending in a walk."""

    name = "explore_cold"
    CHECK_INLINE = True
    #: Span whose work equals the untraced op (None: the whole op).
    TRACED_WORK_SPAN = None
    TIME_LAYERS = (
        "workloads.load",
        "machine.mdes",
        "vliwcomp.compile",
        "iformat.assemble",
        "iformat.link",
        "trace.emulate",
        "trace.generate",
        "core.cycles",
        "core.dilation",
        "ahh.params",
        "cache.prime",
        "explore.query",
        "explore.walk",
    )
    #: The layers the op's time is attributed to.  ``explore.walk`` is
    #: the walker's own time: the evaluator's grid queries, the calls
    #: into other layers and the benchmark's frontier rows have spans
    #: of their own.  Anything else left outside these layers (the
    #: machine descriptions, the cycle counts, the queries and whatever
    #: no span covers) lowers ``bench.layer_coverage``.
    COVERAGE_LAYERS = (
        "workloads.load",
        "vliwcomp.compile",
        "iformat.assemble",
        "iformat.link",
        "trace.emulate",
        "trace.generate",
        "core.dilation",
        "ahh.params",
        "cache.prime",
        "explore.walk",
    )
    COUNTS = ("trace.events", "trace.ranges", "explore.frontier_points")

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self._provider = None

    def prepare(self) -> None:
        pass

    def setup(self, tracer: Tracer | None) -> None:
        # A small warm-up explore lets lazy imports and first-call set-up
        # finish before timing; its inputs are fixed, so set-up does the
        # same work whatever the workload seed.
        output = self._explore(None, WARMUP_SCALE, WARMUP_VISITS, WARMUP_EMULATION_SEED)
        if not self.check(-1, output):
            raise RuntimeError("explore_cold warm-up op produced a wrong frontier")

    def op(self, index: int, tracer: Tracer | None) -> list[list[Any]]:
        return self._explore(
            tracer, EXPLORE_SCALE, EXPLORE_VISITS, derived_seed(self.seed, index + 1)
        )

    def _explore(
        self, tracer: Tracer | None, scale: float, visits: int, emulation_seed: int
    ) -> list[list[Any]]:
        from repro.experiments.pipeline import ExperimentPipeline
        from repro.explore.spacewalker import Spacewalker
        from repro.explore.spec import SystemDesignSpace
        from repro.workloads.suite import load_benchmark

        with spans_around(tracer, explore_targets()):
            with maybe_span(tracer, "workloads.load"):
                workload = load_benchmark(EXPLORE_BENCHMARK, scale=scale)
            self._provider = ExperimentPipeline(
                workload, seed=emulation_seed, max_visits=visits
            )
            with maybe_span(tracer, "explore.walk"):
                pareto = Spacewalker(SystemDesignSpace(), self._provider).walk()
        with maybe_span(tracer, "bench.frontier_doc") as record:
            doc = frontier_doc(pareto)
            record.counts["explore.frontier_points"] = len(doc)
        return doc

    def check(self, index: int, output: list[list[Any]]) -> bool:
        """The frontier equals a scalar (``batched=False``) walk of the
        same, already primed, provider."""
        from repro.explore.spacewalker import Spacewalker
        from repro.explore.spec import SystemDesignSpace

        scalar = Spacewalker(SystemDesignSpace(), self._provider, batched=False)
        ok = frontiers_match(output, frontier_doc(scalar.walk()))
        self._provider = None
        return ok

    def layer_metrics(self, tracer: Tracer, roots: list[int]) -> dict[str, float]:
        return traced_layer_metrics(
            tracer, roots, self.TIME_LAYERS, self.COUNTS, self.COVERAGE_LAYERS
        )

    def close(self) -> None:
        self._provider = None


def traced_layer_metrics(
    tracer: Tracer,
    roots: list[int],
    time_layers: tuple[str, ...],
    counts: tuple[str, ...],
    coverage_layers: tuple[str, ...] = (),
) -> dict[str, float]:
    """Per-op self seconds of each layer, per-op counts and, when
    ``coverage_layers`` are named, the share of the op's wall time
    their self time covers."""
    self_s: dict[str, float] = {}
    count_totals: dict[str, float] = {}
    op_wall = 0.0
    for root in roots:
        for name, value in tracer.self_seconds(root).items():
            self_s[name] = self_s.get(name, 0.0) + value
        for name, value in tracer.counts(root).items():
            count_totals[name] = count_totals.get(name, 0.0) + value
        op_wall += tracer.spans[root].wall_s
    metrics = {
        f"{name}_s": self_s.get(name, 0.0) / len(roots) for name in time_layers
    }
    metrics.update(
        {name: count_totals.get(name, 0.0) / len(roots) for name in counts}
    )
    if coverage_layers:
        covered = sum(self_s.get(name, 0.0) for name in coverage_layers)
        metrics["bench.layer_coverage"] = covered / op_wall
    return metrics


# ----------------------------------------------------------------------
# sweep_stream: a serial design-space sweep over a long chunked trace.
# ----------------------------------------------------------------------


#: Emulation visits per suite program: the ten reference traces hold
#: about 1.2 M ranges, about fifty times the unified trace of one
#: ``explore_cold`` processor.
SWEEP_VISITS = 30_000
SWEEP_LINE_SIZES = (16, 32, 64, 128)
SWEEP_SET_COUNTS = (64, 256, 1024)
SWEEP_ASSOCS = (1, 2, 4, 8)


def sweep_configs():
    from repro.cache.config import CacheConfig

    return [
        CacheConfig(sets, assoc, line_size)
        for line_size in SWEEP_LINE_SIZES
        for sets in SWEEP_SET_COUNTS
        for assoc in SWEEP_ASSOCS
    ]


def miss_rows(results, configs) -> list[list[int]]:
    return [[int(results[c].accesses), int(results[c].misses)] for c in configs]


def write_stream_trace(seed: int, path: str) -> None:
    """Write the reference unified traces of every suite program, each
    emulated with a seed drawn from ``seed``, as one chunked trace."""
    from repro.experiments.pipeline import ExperimentPipeline
    from repro.trace.chunkstore import ChunkedTraceWriter
    from repro.workloads.suite import BENCHMARK_NAMES, load_benchmark

    with ChunkedTraceWriter(path) as writer:
        for position, name in enumerate(BENCHMARK_NAMES):
            pipeline = ExperimentPipeline(
                load_benchmark(name),
                seed=derived_seed(seed, position),
                max_visits=SWEEP_VISITS,
            )
            unified = pipeline.reference_artifacts().unified_trace
            writer.append(unified.starts, unified.sizes)


def _chunk_bytes(chunk) -> dict[str, float]:
    starts, sizes = chunk
    return {"trace.chunk_bytes": float(starts.nbytes + sizes.nbytes)}


class SweepStream:
    """Each op sweeps a 48-point, 4-line-size grid over one chunked
    trace built from every suite program's reference trace."""

    name = "sweep_stream"
    CHECK_INLINE = False
    TRACED_WORK_SPAN = "cache.sweep_chunked"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.configs = sweep_configs()
        self.trace = None
        self._materialized = None
        self._reference: list[list[int]] | None = None
        self._source = workdir / "emulated.rct"
        self.chunk_write_s: list[float] = []

    def prepare(self) -> None:
        # The programs are emulated in a child interpreter, so this
        # process's peak RSS is the sweep's own, not the emulator's.
        subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys, workloads; "
                "workloads.write_stream_trace(int(sys.argv[1]), sys.argv[2])",
                str(self.seed),
                str(self._source),
            ],
            check=True,
        )

    def setup(self, tracer: Tracer | None) -> None:
        from repro.trace.chunkstore import ChunkedTrace, ChunkedTraceWriter

        # Each set-up writes the trace anew, one chunk at a time, from
        # the emulated copy, and sweeps it once.
        self.close()
        path = self.workdir / "stream.rct"
        start = time.perf_counter()
        source = ChunkedTrace(self._source)
        try:
            with ChunkedTraceWriter(path) as writer:
                for starts, sizes in source.iter_chunks():
                    writer.append(starts, sizes)
        finally:
            source.close()
        self.chunk_write_s.append(time.perf_counter() - start)
        self.trace = ChunkedTrace(path)
        if tracer is not None:
            # The traced op also sweeps the same trace in memory.
            self._materialized = self.trace.materialize()
        clear_process_memos()
        self.op(-1, None)

    def op(self, index: int, tracer: Tracer | None) -> list[list[int]]:
        from repro.cache.sweep import sweep_design_space

        if tracer is None:
            return miss_rows(sweep_design_space(self.configs, self.trace), self.configs)
        # The chunked sweep reads through ``ChunkedTrace.chunk``; tracing
        # it on this instance times every chunk read and verification.
        chunk_read = (self.trace, "chunk", "trace.chunk_read", _chunk_bytes)
        with spans_around(tracer, [chunk_read]):
            with tracer.span("cache.sweep_chunked"):
                chunked = sweep_design_space(self.configs, self.trace)
        clear_line_stream_cache()
        with tracer.span("cache.sweep_memory"):
            in_memory = sweep_design_space(self.configs, self._materialized)
        rows = miss_rows(chunked, self.configs)
        if miss_rows(in_memory, self.configs) != rows:
            raise RuntimeError("chunked and in-memory sweeps disagree")
        return rows

    def check(self, index: int, output: list[list[int]]) -> bool:
        """Bit-identical to the per-line-size oracle on the
        materialized trace."""
        from repro.cache.sweep import sweep_design_space

        if self._reference is None:
            clear_process_memos()
            results = sweep_design_space(
                self.configs, self.trace.materialize(), strategy="perline"
            )
            self._reference = miss_rows(results, self.configs)
        return output == self._reference

    def layer_metrics(self, tracer: Tracer, roots: list[int]) -> dict[str, float]:
        metrics = traced_layer_metrics(
            tracer,
            roots,
            ("trace.chunk_read", "cache.sweep_chunked", "cache.sweep_memory"),
            ("trace.chunk_bytes",),
        )
        chunked = [s.wall_s for s in tracer.spans if s.name == "cache.sweep_chunked"]
        memory = [s.wall_s for s in tracer.spans if s.name == "cache.sweep_memory"]
        metrics["cache.stream_overhead"] = median(chunked) / median(memory)
        metrics["cache.refs"] = float(self.trace.n_ranges)
        metrics["cache.configs"] = float(len(self.configs))
        metrics["trace.chunk_write_s"] = median(self.chunk_write_s)
        return metrics

    def close(self) -> None:
        if self.trace is not None:
            self.trace.close()
            self.trace = None
        self._materialized = None


# ----------------------------------------------------------------------
# service_mix: HTTP clients of an in-process evaluation service.
# ----------------------------------------------------------------------


#: Fixed client poll interval: no backoff, no jitter worth the name.
SERVICE_POLL_S = 0.002
SERVICE_WAIT_TIMEOUT_S = 60.0
#: Share of ops that submit a never-seen sweep spec.
SERVICE_NEW_FRACTION = 0.1
#: Specs pre-populated through the HTTP API during set-up.
SERVICE_BASE_SPECS = 24
#: Resubmissions made during set-up, after pre-population.
SERVICE_WARMUP_OPS = 48
SERVICE_GRID = {"sets": [16, 64, 256], "assocs": [1, 2, 4], "line_sizes": [16, 32]}


def service_spec(trace_seed: int, ranges: int) -> dict[str, Any]:
    return {
        "kind": "sweep",
        "trace": {
            "kind": "synthetic",
            "seed": trace_seed,
            "ranges": ranges,
            "footprint": 1 << 16,
            "max_size": 64,
        },
        "configs": SERVICE_GRID,
    }


def result_rows(result: dict[str, Any]) -> list[list[int]]:
    return [
        [d["sets"], d["assoc"], d["line_size"], d["accesses"], d["misses"]]
        for d in result["results"]
    ]


def _one_request(_) -> dict[str, float]:
    return {"service.http_requests": 1.0}


class ServiceMix:
    """A closed-loop HTTP client of ``EvalService(workers=1)``: most ops
    resubmit a stored spec, a seeded tenth submit a new one."""

    name = "service_mix"
    CHECK_INLINE = False
    TRACED_WORK_SPAN = None
    #: New jobs stay far below the fused-counting limit (96k refs).
    NEW_RANGES = 4096
    BASE_RANGES = 16384

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.service = None
        self.server = None
        self._thread: threading.Thread | None = None
        self.client = None
        self.base_specs = [
            service_spec(derived_seed(seed, 0, i), self.BASE_RANGES)
            for i in range(SERVICE_BASE_SPECS)
        ]
        self.base_results: list[list[list[int]] | None] = [None] * len(self.base_specs)
        self._verified: dict[int, bool] = {}
        self._setups = 0

    def _plan(self, index: int) -> tuple[bool, int]:
        """(is the op a new job?, its trace seed or base-spec index)."""
        rng = random.Random(derived_seed(self.seed, 1, index + 1))
        if rng.random() < SERVICE_NEW_FRACTION:
            return True, derived_seed(self.seed, 2, index + 1)
        return False, rng.randrange(len(self.base_specs))

    def _run(self, spec: dict[str, Any]):
        job_id = self.client.submit(spec)
        return self.client.wait(
            job_id,
            timeout=SERVICE_WAIT_TIMEOUT_S,
            poll=SERVICE_POLL_S,
            poll_max=SERVICE_POLL_S,
        )

    def prepare(self) -> None:
        pass

    def setup(self, tracer: Tracer | None) -> None:
        from repro.service.client import ServiceClient
        from repro.service.server import EvalService, make_server

        # Each set-up starts a new service on a new, empty store.
        self.close()
        self._setups += 1
        db = self.workdir / f"service-{self._setups}.sqlite"
        self.service = EvalService(db, workers=1).start()
        self.server = make_server(self.service)
        self._thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self._thread.start()
        host, port = self.server.server_address[:2]
        self.client = ServiceClient(f"http://{host}:{port}")
        for i, spec in enumerate(self.base_specs):
            self.base_results[i] = result_rows(self._run(spec).result)
        for i in range(SERVICE_WARMUP_OPS):
            self._run(self.base_specs[i % len(self.base_specs)])

    def op(self, index: int, tracer: Tracer | None) -> dict[str, Any]:
        new, which = self._plan(index)
        spec = service_spec(which, self.NEW_RANGES) if new else self.base_specs[which]
        if tracer is None:
            record = self._run(spec)
        else:
            # Every status poll is one HTTP request.
            poll = (self.client, "job", "service.poll", _one_request)
            with tracer.span("service.submit"):
                job_id = self.client.submit(spec)
            with spans_around(tracer, [poll]):
                with tracer.span("service.wait") as record_span:
                    record = self.client.wait(
                        job_id,
                        timeout=SERVICE_WAIT_TIMEOUT_S,
                        poll=SERVICE_POLL_S,
                        poll_max=SERVICE_POLL_S,
                    )
                    seen = time.time()
            result = record.result
            record_span.counts.update(
                {
                    "service.http_requests": 1,
                    "service.queue_wait_s": record.started - record.submitted,
                    "service.exec_new_s" if new else "service.exec_repeat_s": (
                        record.finished - record.started
                    ),
                    "service.poll_s": seen - record.finished,
                    "service.configs_simulated": result["simulated"],
                    "service.configs_from_store": result["from_store"],
                    "new": 1 if new else 0,
                }
            )
        return {
            "simulated": record.result["simulated"],
            "rows": result_rows(record.result),
        }

    def _expected_rows(self, spec: dict[str, Any]) -> list[list[int]]:
        from repro.cache.sweep import sweep_design_space
        from repro.service.jobs import build_trace_arrays, parse_configs

        configs = parse_configs(spec["configs"])
        results = sweep_design_space(configs, build_trace_arrays(spec["trace"]))
        return [
            [
                c.sets,
                c.assoc,
                c.line_size,
                int(results[c].accesses),
                int(results[c].misses),
            ]
            for c in configs
        ]

    def check(self, index: int, output: dict[str, Any]) -> bool:
        """New jobs match an in-process sweep of the same spec;
        resubmissions simulate nothing and repeat the verified base
        result."""
        new, which = self._plan(index)
        if new:
            spec = service_spec(which, self.NEW_RANGES)
            expected = self._expected_rows(spec)
            return output["simulated"] > 0 and output["rows"] == expected
        if which not in self._verified:
            self._verified[which] = self.base_results[which] == self._expected_rows(
                self.base_specs[which]
            )
        return (
            output["simulated"] == 0
            and self._verified[which]
            and output["rows"] == self.base_results[which]
        )

    def layer_metrics(self, tracer: Tracer, roots: list[int]) -> dict[str, float]:
        from repro.analytics.runs import list_runs

        metrics = traced_layer_metrics(
            tracer, roots, ("service.submit", "service.wait"), ()
        )
        # The wait is reported split by the job record's timestamps
        # (queue wait, execution, poll) instead of as one span.
        metrics.pop("service.wait_s")
        # Only timed ops are traced here, so the totals are theirs.
        counts = tracer.counts()
        ops = len(roots)
        new_ops = counts.get("new", 0.0)
        for name in (
            "service.http_requests",
            "service.queue_wait_s",
            "service.poll_s",
            "service.configs_simulated",
            "service.configs_from_store",
        ):
            metrics[name] = counts.get(name, 0.0) / ops
        metrics["service.exec_new_s"] = counts.get(
            "service.exec_new_s", 0.0
        ) / max(new_ops, 1)
        metrics["service.exec_repeat_s"] = counts.get(
            "service.exec_repeat_s", 0.0
        ) / max(ops - new_ops, 1)
        looked_up = counts.get("service.configs_simulated", 0.0) + counts.get(
            "service.configs_from_store", 0.0
        )
        metrics["service.store_hit_ratio"] = (
            counts.get("service.configs_from_store", 0.0) / looked_up
        )
        db = self.service.store.path
        metrics["service.db_mb"] = sum(
            p.stat().st_size for p in db.parent.glob(db.name + "*")
        ) / 1e6
        metrics["analytics.runs_recorded"] = float(
            len(list_runs(self.service.store, limit=1_000_000))
        )
        return metrics

    def close(self) -> None:
        if self.server is not None:
            self.server.shutdown()
            self.server.server_close()
            self.server = None
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        if self.service is not None:
            self.service.stop()
            self.service = None


WORKLOADS = {w.name: w for w in (ExploreCold, SweepStream, ServiceMix)}
