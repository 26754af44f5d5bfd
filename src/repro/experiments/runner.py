"""One entry point per paper table/figure (Section 6).

Every ``run_*`` function returns a result object carrying the raw numbers
plus a ``render()`` method producing a paper-style text table.  A module-
level pipeline cache lets several experiments in one process share the
expensive per-benchmark artifacts (compiles, emulations, simulations).

Scaling: ``RunnerSettings.scale`` shrinks workload code footprints and
``max_visits`` truncates execution, trading absolute magnitudes for speed
while preserving the shape-level results (see DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from repro.cache.config import CacheConfig
from repro.experiments.configs import PAPER_CONFIGS, PaperCacheConfigs
from repro.experiments.pipeline import ExperimentPipeline
from repro.experiments.tables import render_series, render_table
from repro.machine.presets import (
    PAPER_PROCESSORS,
    REFERENCE_PROCESSOR,
    TARGET_PROCESSORS,
)
from repro.machine.processor import VliwProcessor
from repro.runtime.executor import ExecutorPolicy, checked_int, checked_number
from repro.workloads.suite import BENCHMARK_NAMES, load_benchmark


@dataclass(frozen=True)
class RunnerSettings:
    """Knobs shared by all experiment runners."""

    scale: float = 1.0
    max_visits: int = 60_000
    seed: int = 1
    i_granule: int = 2_000
    u_granule: int = 20_000
    #: Workers, per-pass timeout and retries for simulation priming.
    policy: ExecutorPolicy = ExecutorPolicy()

    @classmethod
    def from_spec(cls, spec: Mapping[str, Any]) -> "RunnerSettings":
        """Settings from the knob names the CLI and job specs share.

        Reads ``scale``, ``visits``, ``max_workers``, ``job_timeout``
        and ``job_retries``; every other key is ignored.  Values must be
        JSON numbers (integer knobs take ints only, and a bool is
        neither); a bad one raises
        :class:`~repro.errors.ConfigurationError`.
        """
        get = spec.get
        return cls(
            scale=float(checked_number("scale", get("scale", 1.0))),
            max_visits=checked_int("visits", get("visits", 60_000), 1),
            policy=ExecutorPolicy(
                max_workers=checked_int(
                    "max_workers", get("max_workers"), 1, optional=True
                ),
                timeout=checked_number(
                    "job_timeout", get("job_timeout"), optional=True
                ),
                retries=checked_int("job_retries", get("job_retries", 2), 0),
            ),
        )


_PIPELINES: dict[tuple, ExperimentPipeline] = {}


def get_pipeline(
    benchmark: str, settings: RunnerSettings = RunnerSettings()
) -> ExperimentPipeline:
    """Shared, memoized pipeline per (benchmark, settings)."""
    key = (benchmark, settings)
    pipeline = _PIPELINES.get(key)
    if pipeline is None:
        workload = load_benchmark(benchmark, scale=settings.scale)
        pipeline = ExperimentPipeline(
            workload,
            seed=settings.seed,
            max_visits=settings.max_visits,
            i_granule=settings.i_granule,
            u_granule=settings.u_granule,
            policy=settings.policy,
        )
        _PIPELINES[key] = pipeline
    return pipeline


def clear_pipeline_cache() -> None:
    """Drop all memoized pipelines (frees their traces and simulators)."""
    _PIPELINES.clear()


# ----------------------------------------------------------------------
# Table 2: relative data cache miss rates.
# ----------------------------------------------------------------------


@dataclass
class Table2Result:
    """data[config_label][benchmark][processor] = misses / ref misses."""

    data: dict[str, dict[str, dict[str, float]]]
    processors: tuple[str, ...]

    def render(self) -> str:
        parts = []
        for label, per_bench in self.data.items():
            rows = [
                [bench, *(per_bench[bench][p] for p in self.processors)]
                for bench in per_bench
            ]
            parts.append(
                render_table(
                    f"Relative Data Cache Miss Rates ({label})",
                    ["Benchmark", *self.processors],
                    rows,
                )
            )
        return "\n\n".join(parts)


def run_table2(
    benchmarks: tuple[str, ...] = BENCHMARK_NAMES,
    settings: RunnerSettings = RunnerSettings(),
    configs: PaperCacheConfigs = PAPER_CONFIGS,
) -> Table2Result:
    """Actual data-cache misses per processor, normalized to 1111."""
    labels = {
        configs.small_dcache: f"{configs.small_dcache.size_kb:g} KB",
        configs.large_dcache: f"{configs.large_dcache.size_kb:g} KB",
    }
    data: dict[str, dict[str, dict[str, float]]] = {
        label: {} for label in labels.values()
    }
    for bench in benchmarks:
        pipeline = get_pipeline(bench, settings)
        per_config: dict[CacheConfig, dict[str, int]] = {
            c: {} for c in labels
        }
        for processor in PAPER_PROCESSORS:
            misses = pipeline.actual_misses(
                processor, "dcache", list(labels)
            )
            for config, count in misses.items():
                per_config[config][processor.name] = count
        for config, label in labels.items():
            ref = per_config[config][REFERENCE_PROCESSOR.name]
            data[label][bench] = {
                name: (count / ref if ref else float("nan"))
                for name, count in per_config[config].items()
            }
    return Table2Result(
        data=data, processors=tuple(p.name for p in PAPER_PROCESSORS)
    )


# ----------------------------------------------------------------------
# Table 3: text dilation.
# ----------------------------------------------------------------------


@dataclass
class Table3Result:
    """data[benchmark][processor] = text dilation."""

    data: dict[str, dict[str, float]]
    processors: tuple[str, ...]

    def render(self) -> str:
        rows = [
            [bench, *(self.data[bench][p] for p in self.processors)]
            for bench in self.data
        ]
        return render_table(
            "Text Dilation", ["Benchmark", *self.processors], rows
        )


def run_table3(
    benchmarks: tuple[str, ...] = BENCHMARK_NAMES,
    settings: RunnerSettings = RunnerSettings(),
) -> Table3Result:
    """Text dilation of every processor for every benchmark (Table 3)."""
    data: dict[str, dict[str, float]] = {}
    for bench in benchmarks:
        pipeline = get_pipeline(bench, settings)
        data[bench] = {
            p.name: pipeline.dilation(p) for p in PAPER_PROCESSORS
        }
    return Table3Result(
        data=data, processors=tuple(p.name for p in PAPER_PROCESSORS)
    )


# ----------------------------------------------------------------------
# Figure 5: dilation distributions.
# ----------------------------------------------------------------------


@dataclass
class Figure5Result:
    """curves[benchmark][(kind, processor)] = CDF values at thresholds."""

    thresholds: np.ndarray
    curves: dict[str, dict[tuple[str, str], np.ndarray]]

    def render(self) -> str:
        parts = []
        for bench, series in self.curves.items():
            named = {
                f"{kind} {proc}": values
                for (kind, proc), values in series.items()
            }
            parts.append(
                render_series(
                    f"Dilation distribution - {bench}",
                    "dilation",
                    self.thresholds.tolist(),
                    named,
                    float_format="{:.3f}",
                )
            )
        return "\n\n".join(parts)


def run_figure5(
    benchmarks: tuple[str, ...] = ("085.gcc", "ghostscript"),
    processors: tuple[VliwProcessor, ...] | None = None,
    settings: RunnerSettings = RunnerSettings(),
    thresholds: np.ndarray | None = None,
) -> Figure5Result:
    """Static and dynamic cumulative dilation distributions."""
    if processors is None:
        processors = tuple(
            p for p in TARGET_PROCESSORS if p.name in ("2111", "3221", "6332")
        )
    if thresholds is None:
        thresholds = np.linspace(0.0, 10.0, 41)
    curves: dict[str, dict[tuple[str, str], np.ndarray]] = {}
    for bench in benchmarks:
        pipeline = get_pipeline(bench, settings)
        ref_events = pipeline.reference_artifacts().events
        weights = {
            key: int(count)
            for key, count in zip(
                ref_events.blocks, ref_events.visit_frequencies().tolist()
            )
        }
        series: dict[tuple[str, str], np.ndarray] = {}
        for processor in processors:
            info = pipeline.dilation_info(processor)
            series[("static", processor.name)] = info.static_distribution(
                thresholds
            )
            series[("dynamic", processor.name)] = info.dynamic_distribution(
                weights, thresholds
            )
        curves[bench] = series
    return Figure5Result(thresholds=thresholds, curves=curves)


# ----------------------------------------------------------------------
# Figure 6: estimated vs dilated misses across a dilation sweep.
# ----------------------------------------------------------------------


@dataclass
class Figure6Result:
    """series[config_label] = {"dilated": [...], "estimated": [...]}."""

    benchmark: str
    dilations: tuple[float, ...]
    series: dict[str, dict[str, list[float]]]

    def render(self) -> str:
        parts = []
        for label, pair in self.series.items():
            parts.append(
                render_series(
                    f"Estimated and dilated misses - {self.benchmark} "
                    f"({label})",
                    "dilation",
                    self.dilations,
                    pair,
                )
            )
        return "\n\n".join(parts)


def run_figure6(
    benchmark: str = "085.gcc",
    settings: RunnerSettings = RunnerSettings(),
    configs: PaperCacheConfigs = PAPER_CONFIGS,
    dilations: tuple[float, ...] = (1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0),
) -> Figure6Result:
    """Estimated vs dilated misses across a dilation sweep (Figure 6)."""
    pipeline = get_pipeline(benchmark, settings)
    targets: dict[str, tuple[str, CacheConfig]] = {
        f"{configs.small_icache.size_kb:g} KB Icache": (
            "icache",
            configs.small_icache,
        ),
        f"{configs.large_icache.size_kb:g} KB Icache": (
            "icache",
            configs.large_icache,
        ),
        f"{configs.small_ucache.size_kb:g} KB Ucache": (
            "unified",
            configs.small_ucache,
        ),
        f"{configs.large_ucache.size_kb:g} KB Ucache": (
            "unified",
            configs.large_ucache,
        ),
    }
    series: dict[str, dict[str, list[float]]] = {
        label: {"dilated": [], "estimated": []} for label in targets
    }
    for dilation in dilations:
        for label, (role, config) in targets.items():
            dilated = pipeline.dilated_misses(dilation, role, [config])
            estimated = pipeline.estimated_misses(dilation, role, [config])
            series[label]["dilated"].append(float(dilated[config]))
            series[label]["estimated"].append(float(estimated[config]))
    return Figure6Result(
        benchmark=benchmark, dilations=dilations, series=series
    )


# ----------------------------------------------------------------------
# Figure 7 / Table 4: actual vs dilated vs estimated misses.
# ----------------------------------------------------------------------


@dataclass
class ThreeWayResult:
    """data[config_label][benchmark][processor] = (act, dil, est).

    All three values are normalized to the reference processor's actual
    misses, matching Table 4's presentation.
    """

    data: dict[str, dict[str, dict[str, tuple[float, float, float]]]]
    processors: tuple[str, ...]

    def render(self) -> str:
        parts = []
        for label, per_bench in self.data.items():
            headers = ["Benchmark"]
            for name in self.processors:
                headers += [f"{name} Act", f"{name} Dil", f"{name} Est"]
            rows = []
            for bench, per_proc in per_bench.items():
                row: list[object] = [bench]
                for name in self.processors:
                    act, dil, est = per_proc[name]
                    row += [act, dil, est]
                rows.append(row)
            parts.append(render_table(label, headers, rows))
        return "\n\n".join(parts)


def _three_way(
    benchmarks: tuple[str, ...],
    settings: RunnerSettings,
    configs: PaperCacheConfigs,
) -> ThreeWayResult:
    targets: dict[str, tuple[str, CacheConfig]] = {
        f"{configs.small_icache.size_kb:g} KB Icache": (
            "icache",
            configs.small_icache,
        ),
        f"{configs.large_icache.size_kb:g} KB Icache": (
            "icache",
            configs.large_icache,
        ),
        f"{configs.small_ucache.size_kb:g} K Ucache": (
            "unified",
            configs.small_ucache,
        ),
        f"{configs.large_ucache.size_kb:g} K Ucache": (
            "unified",
            configs.large_ucache,
        ),
    }
    data: dict[str, dict[str, dict[str, tuple[float, float, float]]]] = {
        label: {} for label in targets
    }
    for bench in benchmarks:
        pipeline = get_pipeline(bench, settings)
        for label, (role, config) in targets.items():
            ref_actual = pipeline.actual_misses(
                REFERENCE_PROCESSOR, role, [config]
            )[config]
            norm = float(ref_actual) if ref_actual else float("nan")
            per_proc: dict[str, tuple[float, float, float]] = {}
            for processor in TARGET_PROCESSORS:
                dilation = pipeline.dilation(processor)
                actual = pipeline.actual_misses(processor, role, [config])[
                    config
                ]
                dilated = pipeline.dilated_misses(dilation, role, [config])[
                    config
                ]
                estimated = pipeline.estimated_misses(
                    dilation, role, [config]
                )[config]
                per_proc[processor.name] = (
                    actual / norm,
                    dilated / norm,
                    estimated / norm,
                )
            data[label][bench] = per_proc
    return ThreeWayResult(
        data=data, processors=tuple(p.name for p in TARGET_PROCESSORS)
    )


def run_figure7(
    benchmark: str = "085.gcc",
    settings: RunnerSettings = RunnerSettings(),
    configs: PaperCacheConfigs = PAPER_CONFIGS,
) -> ThreeWayResult:
    """The single-benchmark bar chart (Figure 7) as a table."""
    return _three_way((benchmark,), settings, configs)


def run_table4(
    benchmarks: tuple[str, ...] = BENCHMARK_NAMES,
    settings: RunnerSettings = RunnerSettings(),
    configs: PaperCacheConfigs = PAPER_CONFIGS,
) -> ThreeWayResult:
    """The full suite comparison (Table 4)."""
    return _three_way(benchmarks, settings, configs)
