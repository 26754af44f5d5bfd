"""Job specs and their execution (the service's unit of work).

A job spec is one JSON object with a ``kind``:

``sweep``
    Exact miss counts for a grid of cache configurations on one trace:
    ``{"kind": "sweep", "trace": <trace spec>, "configs": <configs>}``.
    Runs one single-pass simulation per distinct line size through
    :func:`repro.cache.sweep.sweep_design_space`, checkpointing group
    states into the shared store and serving per-config results that
    are already stored without simulating at all.

``estimate``
    Dilation-model miss estimates over a (config x dilation) grid for a
    named benchmark's reference trace: ``{"kind": "estimate",
    "benchmark": ..., "role": ..., "configs": ..., "dilations": [...]}``.
    Uses :meth:`repro.explore.evaluators.MemoryEvaluator.misses_batch`
    with priming checkpointed into the shared store.

``explore``
    A spacewalker Pareto walk for a named benchmark:
    ``{"kind": "explore", "benchmark": ...}``, optional ``space``
    overrides.  The resulting frontier is stored under the
    ``frontiers`` namespace and returned.

Trace specs (for ``sweep``):

* ``{"kind": "ranges", "starts": [...], "sizes": [...]}`` — explicit;
* ``{"kind": "synthetic", "seed": 1, "ranges": 512, "footprint": 65536,
  "max_size": 64}`` — a seeded random range trace, cheap to
  re-materialize anywhere (workers rebuild it from the spec);
* ``{"kind": "benchmark", "benchmark": "085.gcc", "role": "icache",
  "scale": 1.0, "visits": 60000}`` — a real workload's reference trace
  via the experiment pipeline;
* ``{"kind": "chunked", "path": "/data/trace.rct", "digest": "..."}`` —
  an on-disk chunked trace (see :mod:`repro.trace.chunkstore`), opened
  by path and fed to the engines chunk-at-a-time; workers receive the
  path, never the arrays.  ``digest`` (optional) pins the expected
  content.

Sweep specs may also carry ``"sample"``, an interval-sampling plan
(:meth:`repro.trace.sampling.SamplePlan.from_spec`: ``{"intervals": 16,
"interval_ranges": 4096, "warmup_ranges": 1024, "mode": "uniform"}``).
Sampled results are *estimates*: they are stored under sample-specific
keys (never mixed with exact results) and flagged ``"estimated": true``
with their extrapolation error.

Every spec is *content-addressed*: :func:`trace_key` is a digest of the
canonical spec JSON, so two clients submitting the same trace (however
phrased) share store entries.

Knobs are checked at submission by the CLI's own parser,
:meth:`repro.experiments.runner.RunnerSettings.from_spec`; execution
knobs land in one :class:`repro.runtime.executor.ExecutorPolicy`, so
jobs inherit the fault-tolerant runtime (timeouts, retries, journal).
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Iterator, Mapping, Sequence

import numpy as np

from repro.cache.config import CacheConfig
from repro.cache.sweep import (
    CHECKPOINT_NAMESPACE,
    sampled_sweep_design_space,
    sweep_design_space,
)
from repro.errors import ConfigurationError, ReproError, ServiceError
from repro.runtime.executor import (
    ExecutorPolicy,
    checked_int,
    checked_number,
)
from repro.runtime.journal import RunJournal, resolve_journal
from repro.service.store import ResultStore
from repro.trace.chunkstore import ChunkedTrace
from repro.trace.sampling import SamplePlan

if TYPE_CHECKING:  # pragma: no cover - typing only (heavy import)
    from repro.experiments.pipeline import ExperimentPipeline
    from repro.experiments.runner import RunnerSettings

#: Job kinds the queue accepts.
JOB_KINDS = ("sweep", "estimate", "explore")

#: Trace kinds a sweep spec accepts.
TRACE_KINDS = ("ranges", "synthetic", "benchmark", "chunked")

#: Store namespaces used by job execution.
NS_METRICS = "metrics"
NS_EVALCACHE = CHECKPOINT_NAMESPACE
NS_FRONTIERS = "frontiers"


# ----------------------------------------------------------------------
# Content addressing.
# ----------------------------------------------------------------------


def canonical(spec: Any) -> str:
    """Canonical JSON of a spec (sorted keys, no whitespace)."""
    try:
        return json.dumps(spec, sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError) as exc:
        raise ServiceError(f"spec is not JSON-representable: {exc}") from exc


def trace_key(trace_spec: dict[str, Any]) -> str:
    """Content address of a trace spec (``spec=<16 hex>``)."""
    digest = hashlib.sha256(canonical(trace_spec).encode()).hexdigest()
    return f"spec={digest[:16]}"


def result_key(trace_id: str, config: CacheConfig) -> str:
    """Content address of one config's exact miss result on one trace."""
    return (
        f"misses:{trace_id}:S{config.sets}"
        f"A{config.assoc}L{config.line_size}"
    )


# ----------------------------------------------------------------------
# Spec parsing and validation.
# ----------------------------------------------------------------------


def _require(spec: dict, field: str, kind: str) -> Any:
    try:
        return spec[field]
    except (KeyError, TypeError):
        raise ServiceError(
            f"{kind} job spec is missing required field {field!r}"
        ) from None


def parse_configs(value: Any) -> list[CacheConfig]:
    """Configs from either an explicit list or a Cartesian grid.

    List form: ``[{"sets": 8, "assoc": 1, "line_size": 16}, ...]``.
    Grid form: ``{"sets": [8, 16], "assocs": [1, 2],
    "line_sizes": [16, 32]}`` (full cross product).
    """
    try:
        if isinstance(value, dict):
            configs = [
                CacheConfig(int(sets), int(assoc), int(line))
                for line in value["line_sizes"]
                for sets in value["sets"]
                for assoc in value["assocs"]
            ]
        else:
            configs = [
                CacheConfig(
                    int(item["sets"]),
                    int(item["assoc"]),
                    int(item["line_size"]),
                )
                for item in value
            ]
    except (KeyError, TypeError, ValueError) as exc:
        raise ServiceError(f"malformed configs spec: {exc}") from exc
    except ReproError as exc:
        raise ServiceError(f"infeasible cache configuration: {exc}") from exc
    if not configs:
        raise ServiceError("configs spec is empty")
    return list(dict.fromkeys(configs))


def build_trace_arrays(trace_spec: dict[str, Any]) -> tuple[Any, Any]:
    """Materialize a trace spec into ``(starts, sizes)`` arrays.

    Module-level and driven purely by the (picklable) spec dict, so the
    executor can ship trace construction to worker processes instead of
    materializing in the service parent.
    """
    kind = trace_spec.get("kind")
    if kind == "ranges":
        starts = trace_spec.get("starts")
        sizes = trace_spec.get("sizes")
        if not starts or not sizes or len(starts) != len(sizes):
            raise ServiceError(
                "ranges trace needs equal-length non-empty starts/sizes"
            )
        try:
            return (
                np.asarray(starts, dtype=np.int64),
                np.asarray(sizes, dtype=np.int64),
            )
        except (TypeError, ValueError, OverflowError) as exc:
            raise ServiceError(
                f"ranges trace starts/sizes must be integers: {exc}"
            ) from None
    if kind == "synthetic":
        seed, n, footprint, max_size = synthetic_params(trace_spec)
        rng = np.random.default_rng(seed)
        starts = rng.integers(0, footprint, size=n, dtype=np.int64)
        sizes = rng.integers(1, max_size + 1, size=n, dtype=np.int64)
        return starts, sizes
    if kind == "benchmark":
        trace = _benchmark_trace(trace_spec)
        return trace.starts, trace.sizes
    if kind == "chunked":
        return _open_chunked(trace_spec).materialize()
    raise ServiceError(
        f"unknown trace kind {kind!r}; expected one of {TRACE_KINDS}"
    )


def synthetic_params(trace_spec: dict[str, Any]) -> tuple[int, int, int, int]:
    """A synthetic trace spec's ``(seed, ranges, footprint, max_size)``.

    Checks the fields without generating anything: the seed must be a
    non-negative integer, the rest positive integers.
    """
    params = []
    for field, default, lowest in (
        ("seed", 0, 0),
        ("ranges", 512, 1),
        ("footprint", 65536, 1),
        ("max_size", 64, 1),
    ):
        try:
            params.append(
                checked_int(field, trace_spec.get(field, default), lowest)
            )
        except ConfigurationError as exc:
            raise ServiceError(f"synthetic trace {exc}") from None
    return tuple(params)


def _open_chunked(trace_spec: dict[str, Any]) -> ChunkedTrace:
    path = _require(trace_spec, "path", "chunked trace")
    try:
        ctrace = ChunkedTrace(path)
    except ReproError as exc:
        raise ServiceError(f"cannot open chunked trace: {exc}") from exc
    expected = trace_spec.get("digest")
    if expected and ctrace.digest != expected:
        ctrace.close()
        raise ServiceError(
            f"chunked trace at {path} has digest {ctrace.digest}, "
            f"spec pinned {expected}"
        )
    return ctrace


def sweep_trace(trace_spec: dict[str, Any]):
    """The trace argument a sweep should pass to the cache layer.

    Chunked specs open the on-disk store (the sweep streams it and ships
    only the path to workers); everything else becomes a picklable
    factory so workers materialize the arrays themselves.
    """
    if trace_spec.get("kind") == "chunked":
        return _open_chunked(trace_spec)
    return SpecTraceFactory(trace_spec)


def runner_settings(spec: Mapping[str, Any]) -> "RunnerSettings":
    """A spec's ``scale``/``visits``/execution knobs, checked
    (:meth:`~repro.experiments.runner.RunnerSettings.from_spec`)."""
    from repro.experiments.runner import RunnerSettings

    try:
        return RunnerSettings.from_spec(spec)
    except ConfigurationError as exc:
        raise ServiceError(f"bad job knob: {exc}") from exc


def _benchmark_trace(trace_spec: dict[str, Any]):
    from repro.experiments.runner import get_pipeline

    benchmark = _require(trace_spec, "benchmark", "benchmark trace")
    role = trace_spec.get("role", "unified")
    settings = runner_settings(trace_spec)
    try:
        pipeline = get_pipeline(benchmark, settings)
        return pipeline.reference_artifacts().trace(role)
    except ReproError as exc:
        raise ServiceError(f"cannot build benchmark trace: {exc}") from exc


class SpecTraceFactory:
    """Picklable zero-arg trace factory for :func:`sweep_design_space`."""

    def __init__(self, trace_spec: dict[str, Any]):
        self.trace_spec = trace_spec

    def __call__(self) -> tuple[Any, Any]:
        return build_trace_arrays(self.trace_spec)


def validate_spec(spec: Any) -> dict[str, Any]:
    """Check a job spec's shape up front (at submission time).

    Raises :class:`ServiceError` with an actionable message; returns the
    spec unchanged when acceptable.  Full validation of e.g. benchmark
    names happens at execution; this catches the malformed 90% before
    they occupy the queue.
    """
    parse_spec(spec)
    return spec


def parse_spec(spec: Any) -> "SweepRequest | BenchmarkRequest":
    """Validate a job spec like :func:`validate_spec`; returns it
    parsed: a :class:`SweepRequest` for a sweep, a
    :class:`BenchmarkRequest` for an estimate or an explore."""
    if not isinstance(spec, dict):
        raise ServiceError(f"job spec must be a JSON object, got {type(spec).__name__}")
    kind = spec.get("kind")
    if kind not in JOB_KINDS:
        raise ServiceError(
            f"unknown job kind {kind!r}; expected one of {JOB_KINDS}"
        )
    requires = spec.get("requires")
    if requires is not None and (
        not isinstance(requires, list)
        or not all(isinstance(tag, str) for tag in requires)
    ):
        raise ServiceError(
            "'requires' must be a list of capability tag strings"
        )
    settings = runner_settings(spec)
    sample = spec.get("sample")
    plan = None
    if sample is not None:
        if not isinstance(sample, dict):
            raise ServiceError("'sample' must be a sampling plan object")
        try:
            plan = SamplePlan.from_spec(sample)
        except ReproError as exc:
            raise ServiceError(f"bad sample plan: {exc}") from exc
    if kind == "sweep":
        trace_spec = _require(spec, "trace", kind)
        if not isinstance(trace_spec, dict) or "kind" not in trace_spec:
            raise ServiceError("sweep trace spec must be an object with a 'kind'")
        if trace_spec["kind"] not in TRACE_KINDS:
            raise ServiceError(
                f"unknown trace kind {trace_spec['kind']!r}"
            )
        if trace_spec["kind"] == "chunked":
            # Shape only: the file may live on the workers' filesystem,
            # not the submitter's.
            path = _require(trace_spec, "path", "chunked trace")
            if not isinstance(path, str) or not path:
                raise ServiceError("chunked trace 'path' must be a string")
        elif trace_spec["kind"] == "synthetic":
            synthetic_params(trace_spec)
        elif trace_spec["kind"] == "ranges":
            build_trace_arrays(trace_spec)
        elif trace_spec["kind"] == "benchmark":
            runner_settings(trace_spec)
        return SweepRequest(
            trace_spec,
            parse_configs(_require(spec, "configs", kind)),
            plan,
            settings.policy,
        )
    benchmark = _require(spec, "benchmark", kind)
    if kind == "explore":
        return BenchmarkRequest(benchmark, settings, plan)
    configs = parse_configs(_require(spec, "configs", kind))
    dilations = _parse_dilations(spec.get("dilations", [1.0]))
    role = spec.get("role", "icache")
    if role not in ("icache", "dcache", "unified"):
        raise ServiceError(f"unknown role {role!r}")
    return BenchmarkRequest(benchmark, settings, plan, role, configs, dilations)


def _parse_dilations(value: Any) -> list[float]:
    """An estimate's dilations: a non-empty list of finite numbers > 0."""
    if not isinstance(value, list) or not value:
        raise ServiceError(
            f"estimate job needs at least one dilation, in a list: {value!r}"
        )
    try:
        return [float(checked_number("dilation", d)) for d in value]
    except ConfigurationError as exc:
        raise ServiceError(f"bad dilations: {exc}") from exc


class SweepRequest:
    """A validated sweep spec, parsed once: its trace spec, configs,
    sampling plan and the trace identity its results are stored under.

    :meth:`lookup` and :meth:`document` are shared by execution and by
    the service's submit-time answer, so a sweep served from the store
    at submit gets the very document execution would have returned.
    """

    def __init__(
        self,
        trace_spec: dict[str, Any],
        configs: list[CacheConfig],
        plan: SamplePlan | None,
        policy: ExecutorPolicy,
    ):
        self.trace_spec = trace_spec
        self.configs = configs
        self.plan = plan
        self.policy = policy
        self.trace_key = trace_key(trace_spec)
        if plan is not None:
            # Estimates live under sample-specific keys so they can
            # never shadow (or be shadowed by) exact results for the
            # same trace.
            self.result_trace = (
                f"{self.trace_key}:sample={trace_key(plan.to_spec())[5:]}"
            )
        else:
            self.result_trace = self.trace_key

    def lookup(self, store: ResultStore) -> dict[CacheConfig, Any]:
        """The configs whose miss results the store already holds, in
        one batched read."""
        keys = {
            config: result_key(self.result_trace, config)
            for config in self.configs
        }
        values = store.get_many(keys.values(), namespace=NS_METRICS)
        stored = {}
        for config, key in keys.items():
            value = values.get(key)
            if (
                isinstance(value, dict)
                and "misses" in value
                and "accesses" in value
            ):
                stored[config] = value
        return stored

    def document(
        self,
        stored: dict[CacheConfig, Any],
        simulated: dict[CacheConfig, Any],
    ) -> dict[str, Any]:
        """The job's result document from per-config result dicts."""
        docs = []
        for config in self.configs:
            source = "store" if config in stored else "simulated"
            doc = stored.get(config) or simulated[config]
            docs.append(_config_doc(config, **doc, source=source))
        return {
            "kind": "sweep",
            "trace_key": self.result_trace,
            "total": len(self.configs),
            "from_store": len(stored),
            "simulated": len(simulated),
            "sampled": self.plan is not None,
            "results": docs,
        }

    def stored_document(self, store: ResultStore) -> dict[str, Any] | None:
        """The result document when every config is stored, else None."""
        stored = self.lookup(store)
        if len(stored) < len(self.configs):
            return None
        return self.document(stored, {})


class BenchmarkRequest:
    """A validated estimate or explore spec, parsed once: the
    benchmark, its runner settings and sampling plan and, for an
    estimate, the grid it asks for."""

    def __init__(
        self,
        benchmark: Any,
        settings: "RunnerSettings",
        plan: SamplePlan | None,
        role: str = "icache",
        configs: Sequence[CacheConfig] = (),
        dilations: Sequence[float] = (),
    ):
        self.benchmark = benchmark
        self.settings = settings
        self.plan = plan
        self.role = role
        self.configs = configs
        self.dilations = dilations
        #: The benchmark trace's identity in store keys.
        self.bench_id = (
            f"{benchmark}:scale={settings.scale:g}"
            f":visits={settings.max_visits}"
        )

    def stored_document(self, store: ResultStore) -> None:
        """Estimates and explores are never answered at submit."""
        return None

    @contextmanager
    def pipeline(self, store: ResultStore) -> Iterator["ExperimentPipeline"]:
        """The benchmark's pipeline, its reference evaluator set to
        prime through ``store``'s checkpoints under this request's plan
        for the duration of the ``with`` block.

        The pipeline is memoized per process and outlives the job, so
        the evaluator is detached from ``store`` when the block ends: a
        later caller of the same pipeline never reaches a store that may
        be gone by then.  The passes stay in ``store``, so the next job
        that attaches it still adopts them."""
        from repro.experiments.runner import get_pipeline

        try:
            pipeline = get_pipeline(self.benchmark, self.settings)
            evaluator = pipeline.memory_evaluator()
        except ReproError as exc:
            raise ServiceError(f"cannot build evaluator: {exc}") from exc
        # Priming passes checkpoint into the shared store, de-duplicating
        # across jobs, processes and restarts.
        evaluator.attach_checkpoint(
            store,
            trace_keys={
                role: f"{self.bench_id}:{role}"
                for role in ("icache", "dcache", "unified")
            },
        )
        # An exact job must not inherit the plan a sampled job left on
        # the shared (memoized) evaluator.
        if self.plan is not None or evaluator.sample_plan is not None:
            evaluator.set_sample_plan(self.plan)
        try:
            yield pipeline
        finally:
            evaluator.detach_checkpoint(store)


# ----------------------------------------------------------------------
# Execution.
# ----------------------------------------------------------------------


def execute_job(
    spec: dict[str, Any],
    store: ResultStore,
    journal: RunJournal | None = None,
    run_id: str | None = None,
    record: bool = True,
) -> dict[str, Any]:
    """Run one validated job spec against the shared store.

    Returns the job's JSON result document.  All simulation work routes
    through the existing runtime (``sweep_design_space`` /
    ``MemoryEvaluator.prime`` / ``Spacewalker.walk`` →
    :func:`repro.runtime.executor.run_jobs`), so the spec's
    ``max_workers`` / ``job_timeout`` / ``job_retries`` knobs behave
    exactly as they do on the CLI.

    When ``record`` is true (the default) the execution is also
    persisted as a durable analytics run (``run_id`` defaults to a
    fresh id; the service passes the job id so runs and jobs share
    identity).  Recording is observational — it reads the result
    document and the journal window *after* execution, so results are
    bit-identical with and without it.  Failed executions are recorded
    as ``failed`` runs before the exception propagates.
    """
    from repro.analytics.runs import RunRecorder, supports_runs

    journal = resolve_journal(journal)
    request = parse_spec(spec)
    kind = spec["kind"]
    recorder = None
    if record and supports_runs(store):
        recorder = RunRecorder(
            store,
            kind=kind,
            spec=spec,
            journal=journal,
            run_id=run_id,
            benchmark=_spec_benchmark(spec),
        )
    try:
        if kind == "sweep":
            result = _execute_sweep(request, store, journal)
        elif kind == "estimate":
            result = _execute_estimate(request, store, journal)
        else:
            result = _execute_explore(request, spec, store, journal)
    except Exception as exc:
        if recorder is not None:
            recorder.finish(state="failed", error=repr(exc))
        raise
    if recorder is not None:
        _record_result_rows(recorder, spec, result)
        recorder.finish()
    return result


def _spec_benchmark(spec: dict[str, Any]) -> str | None:
    """The benchmark a spec runs on: a sweep names it in its trace spec
    (when that is a benchmark trace), an estimate or explore at the top
    level."""
    trace_spec = spec.get("trace")
    if isinstance(trace_spec, dict) and trace_spec.get("kind") == "benchmark":
        return trace_spec.get("benchmark")
    return spec.get("benchmark")


def _record_result_rows(
    recorder: Any, spec: dict[str, Any], result: dict[str, Any]
) -> None:
    """Translate one job's result document into run rows."""
    kind = result.get("kind")
    if kind == "sweep":
        benchmark = _spec_benchmark(spec)
        role = (spec.get("trace") or {}).get("role")
        for doc in result.get("results", ()):
            recorder.add_config_doc(doc, benchmark=benchmark, role=role)
    elif kind == "estimate":
        benchmark = result.get("benchmark")
        role = result.get("role")
        for doc in result.get("results", ()):
            misses = doc.get("misses") or {}
            for dilation, value in misses.items():
                recorder.add_row(
                    benchmark=benchmark,
                    role=role,
                    sets=doc.get("sets"),
                    assoc=doc.get("assoc"),
                    line_size=doc.get("line_size"),
                    misses=value,
                    estimated=bool(result.get("sampled")),
                    source="estimate",
                    dilation=dilation,
                )
    elif kind == "explore":
        benchmark = result.get("benchmark")
        for point in result.get("frontier", ()):
            recorder.add_frontier_point(point, benchmark=benchmark)


def _config_doc(config: CacheConfig, **extra: Any) -> dict[str, Any]:
    return {
        "sets": config.sets,
        "assoc": config.assoc,
        "line_size": config.line_size,
        **extra,
    }


def _execute_sweep(
    request: SweepRequest,
    store: ResultStore,
    journal: RunJournal,
) -> dict[str, Any]:
    plan = request.plan
    rkey_trace = request.result_trace
    # Result-level de-duplication: configs whose misses are already
    # stored (for this exact trace + sampling identity) are served
    # without any simulation.
    stored = request.lookup(store)
    missing = [c for c in request.configs if c not in stored]

    simulated: dict[CacheConfig, Any] = {}
    if missing:
        trace = sweep_trace(request.trace_spec)
        try:
            fresh = {}
            if plan is not None:
                results = sampled_sweep_design_space(
                    missing, trace, plan, journal=journal
                )
                for config, miss in results.items():
                    doc = {
                        "accesses": miss.accesses,
                        "misses": miss.misses,
                        "estimated": True,
                        "error": miss.error,
                        "intervals": miss.intervals,
                        "sampled_ranges": miss.sampled_ranges,
                        "total_ranges": miss.total_ranges,
                    }
                    simulated[config] = doc
                    fresh[result_key(rkey_trace, config)] = doc
            else:
                # Group-level de-duplication: the sweep checkpoints each
                # line-size group's single-pass state into the shared
                # store, so even a *partially* overlapping grid reuses
                # whole passes.
                results = sweep_design_space(
                    missing,
                    trace,
                    policy=request.policy,
                    journal=journal,
                    checkpoint=store,
                    trace_key=request.trace_key,
                )
                for config, miss in results.items():
                    doc = {"accesses": miss.accesses, "misses": miss.misses}
                    simulated[config] = doc
                    fresh[result_key(rkey_trace, config)] = doc
            store.put_many(fresh, namespace=NS_METRICS)
        finally:
            if isinstance(trace, ChunkedTrace):
                trace.close()

    journal.record(
        "service_dedup",
        kind="sweep",
        trace_key=rkey_trace,
        from_store=len(stored),
        simulated=len(simulated),
    )
    journal.observe_cache(store, label="result-store")
    return request.document(stored, simulated)


def _execute_estimate(
    request: BenchmarkRequest, store: ResultStore, journal: RunJournal
) -> dict[str, Any]:
    configs, dilations = request.configs, request.dilations
    with request.pipeline(store) as pipeline:
        grid = pipeline.memory_evaluator().misses_batch(
            request.role, configs, dilations
        )
    journal.observe_cache(store, label="result-store")
    return {
        "kind": "estimate",
        "benchmark": request.benchmark,
        "role": request.role,
        "dilations": dilations,
        "sampled": request.plan is not None,
        "results": [
            _config_doc(
                config,
                misses={
                    f"{dil:g}": float(grid[i, j])
                    for j, dil in enumerate(dilations)
                },
            )
            for i, config in enumerate(configs)
        ],
    }


def _cache_space(value: dict[str, Any]):
    from repro.explore.spec import CacheDesignSpace

    return CacheDesignSpace(
        sizes_kb=tuple(value["sizes_kb"]),
        assocs=tuple(value["assocs"]),
        line_sizes=tuple(value["line_sizes"]),
    )


def _system_space(overrides: dict[str, Any] | None):
    from repro.explore.spec import ProcessorDesignSpace, SystemDesignSpace

    if not overrides:
        return SystemDesignSpace()
    kwargs: dict[str, Any] = {}
    try:
        for role in ("icache", "dcache", "unified"):
            if role in overrides:
                kwargs[role] = _cache_space(overrides[role])
        if "processors" in overrides:
            procs = overrides["processors"]
            kwargs["processors"] = ProcessorDesignSpace(
                int_units=tuple(procs.get("int_units", (1, 2, 4))),
                float_units=tuple(procs.get("float_units", (1, 2))),
                memory_units=tuple(procs.get("memory_units", (1, 2))),
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise ServiceError(f"malformed space overrides: {exc}") from exc
    except ReproError as exc:
        raise ServiceError(f"infeasible design space: {exc}") from exc
    return SystemDesignSpace(**kwargs)


def _execute_explore(
    request: BenchmarkRequest,
    spec: dict[str, Any],
    store: ResultStore,
    journal: RunJournal,
) -> dict[str, Any]:
    from repro.explore.spacewalker import Spacewalker

    space = _system_space(spec.get("space"))
    with request.pipeline(store) as pipeline:
        pareto = Spacewalker(space, pipeline, journal=journal).walk()
    frontier = [
        {
            "cost": point.cost,
            "cycles": point.time,
            "processor": point.design.processor,
            "icache": _config_doc(point.design.memory.icache),
            "dcache": _config_doc(point.design.memory.dcache),
            "unified": _config_doc(point.design.memory.unified),
        }
        for point in pareto.frontier()
    ]
    frontier_id = hashlib.sha256(
        canonical(
            {
                "benchmark": request.bench_id,
                "space": spec.get("space"),
                "sample": spec.get("sample") or None,
            }
        ).encode()
    ).hexdigest()[:16]
    frontier_key = f"pareto:{request.bench_id}:space={frontier_id}"
    store.put(frontier_key, frontier, namespace=NS_FRONTIERS)
    journal.observe_cache(store, label="result-store")
    return {
        "kind": "explore",
        "benchmark": request.benchmark,
        "frontier_key": frontier_key,
        "frontier": frontier,
    }
