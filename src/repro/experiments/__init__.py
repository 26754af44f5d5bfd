"""Experiment harness: regenerate every table and figure of Section 6.

* :mod:`repro.experiments.configs` — the paper's small/large cache
  configurations and processor roster;
* :mod:`repro.experiments.pipeline` — the per-benchmark evaluation
  pipeline (compile, link, emulate, trace, simulate, model) with caching;
  only the reference processor is emulated for an exploration;
* :mod:`repro.experiments.tables` — plain-text table/series rendering;
* :mod:`repro.experiments.runner` — one entry point per table/figure
  (table2, table3, figure5, figure6, figure7, table4).
"""

from repro.experiments.configs import PaperCacheConfigs
from repro.experiments.pipeline import (
    ExperimentPipeline,
    ProcessorArtifacts,
    ProcessorBinary,
)
from repro.experiments.report import build_report, save_report
from repro.experiments.summary import error_summary, render_error_summary
from repro.experiments.runner import (
    run_figure5,
    run_figure6,
    run_figure7,
    run_table2,
    run_table3,
    run_table4,
)

__all__ = [
    "PaperCacheConfigs",
    "ExperimentPipeline",
    "ProcessorArtifacts",
    "ProcessorBinary",
    "run_table2",
    "run_table3",
    "run_table4",
    "run_figure5",
    "run_figure6",
    "run_figure7",
    "build_report",
    "save_report",
    "error_summary",
    "render_error_summary",
]
