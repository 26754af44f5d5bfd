"""Experiment analytics: durable run tables over the result store.

Every sweep / estimate / explore execution can be recorded as a **run**:
one row in the ``runs`` table (identity, spec, state, wall time, a
journal-derived summary) plus one ``run_rows`` row per
(design, benchmark, repetition) carrying the measured metrics
(misses / cycles / cost / area) *and* journal-derived execution columns
(pass wall time, kernel seconds, retries, timeouts, cache hits, bytes
shipped to workers).  Both tables live in the same sqlite database as the
:class:`~repro.service.store.ResultStore`, so the evidence trail shares
the store's durability, WAL concurrency and backup story.

Layers:

* :mod:`repro.analytics.runs` — the run model: the ``RUN_TABLE_COLUMNS``
  registry (also the ``docs/RUN_TABLE_COLUMNS.md`` source),
  :class:`RunRecorder` (observes a journal window + result documents,
  never perturbs execution), ``record_run`` / ``list_runs`` /
  ``get_run`` / ``get_run_rows`` / ``gc_runs``;
* :mod:`repro.analytics.table` — the canonical ``run_table.csv`` export;
* :mod:`repro.analytics.compare` — ``compare_runs``: per-config metric
  deltas and Pareto-frontier diffing between two runs;
* :mod:`repro.analytics.metrics` — a fixed-capacity time-series ring
  buffer the service's reaper thread samples into (``/metrics/history``);
* :mod:`repro.analytics.dashboard` — the zero-dependency single-file
  HTML dashboard behind ``GET /dashboard``.

Everything is standard library + numpy; there is no new dependency.
"""

from repro.analytics.compare import compare_runs
from repro.analytics.metrics import MetricsRing
from repro.analytics.runs import (
    RUN_TABLE_COLUMNS,
    RunRecorder,
    delete_run,
    gc_runs,
    get_run,
    get_run_rows,
    list_runs,
    record_run,
    supports_runs,
)
from repro.analytics.table import (
    format_cell,
    run_table_csv,
    run_table_rows,
)

__all__ = [
    "MetricsRing",
    "RUN_TABLE_COLUMNS",
    "RunRecorder",
    "compare_runs",
    "delete_run",
    "format_cell",
    "gc_runs",
    "get_run",
    "get_run_rows",
    "list_runs",
    "record_run",
    "run_table_csv",
    "run_table_rows",
    "supports_runs",
]
