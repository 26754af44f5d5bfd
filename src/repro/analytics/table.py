"""The canonical ``run_table.csv`` export.

One CSV per run, one line per (design, benchmark, repetition) row, with
run-level identity columns repeated on every line (the flat layout a
spreadsheet, pandas, or a plotting script ingests without joins).

:data:`RUN_TABLE_COLUMNS` is the single source of truth for the column
set: the CSV header, the HTTP/CLI exports and the generated
``docs/RUN_TABLE_COLUMNS.md`` all derive from it.  Cell formatting is
round-trip exact: integers print plainly, floats print via ``repr``
(shortest form that parses back to the identical float), absent values
print as empty strings — so ``csv.DictReader`` recovers the stored
values bit-identically (the CI analytics smoke asserts this).
"""

from __future__ import annotations

import csv
import io
import json
from typing import TYPE_CHECKING, Any, Iterable, Mapping

from repro.analytics.runs import get_run, get_run_rows

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.store import ResultStore

__all__ = [
    "RUN_TABLE_COLUMNS",
    "format_cell",
    "run_table_csv",
    "run_table_rows",
]

#: (name, source, units, description) for every run-table column, in
#: CSV order.  ``source`` is where the value originates: ``run`` (the
#: runs table), ``result`` (result documents / the result store) or
#: ``journal`` (derived from RunJournal events).
RUN_TABLE_COLUMNS: tuple[tuple[str, str, str, str], ...] = (
    ("run_id", "run", "-", "Run identity (the job id for service jobs)."),
    ("kind", "run", "-", "Job kind: sweep, estimate or explore."),
    ("state", "run", "-", "Run outcome: done or failed."),
    ("idx", "result", "-", "Row position within the run (0-based)."),
    ("benchmark", "result", "-", "Benchmark name, empty for raw traces."),
    ("role", "result", "-",
     "Trace role (icache/dcache/unified), or 'system' for frontier rows."),
    ("design", "result", "-",
     "Design string: S<sets>A<assoc>L<line> for caches; "
     "processor|I...|D...|U... for systems."),
    ("sets", "result", "count", "Cache sets (empty for system rows)."),
    ("assoc", "result", "ways", "Associativity (empty for system rows)."),
    ("line_size", "result", "bytes",
     "Cache line size (empty for system rows)."),
    ("repetition", "result", "count",
     "0-based repetition index for repeated (design, benchmark) rows."),
    ("accesses", "result", "count", "Trace accesses the row measured."),
    ("misses", "result", "count",
     "Cache misses (exact, or extrapolated when estimated=1)."),
    ("miss_rate", "result", "ratio", "misses / accesses."),
    ("cycles", "result", "cycles",
     "Execution time for system rows (explore frontiers)."),
    ("cost", "result", "cost units",
     "System cost for frontier rows (processor + caches)."),
    ("area", "result", "cost units",
     "Cache area from the CACTI-lite model (sum over caches for "
     "system rows)."),
    ("estimated", "result", "0/1",
     "1 when the row is a sampled/extrapolated estimate."),
    ("error", "result", "count",
     "Extrapolation error bar for estimated rows."),
    ("source", "result", "-",
     "store (served from cache), simulated, estimate, or frontier."),
    ("wall_s", "journal", "seconds",
     "Pass wall time attributed to this row (the line-size group's "
     "pass time split evenly across its rows)."),
    ("kernel_s", "journal", "seconds",
     "Stack-distance kernel time attributed like wall_s."),
    ("retries", "journal", "count",
     "Executor retries in this run's journal window (run-level, "
     "repeated on every row)."),
    ("timeouts", "journal", "count",
     "Executor timeouts in the window (run-level)."),
    ("fallbacks", "journal", "count",
     "Pool fallbacks in the window (run-level)."),
    ("cache_hits", "journal", "count",
     "Checkpoint hits + results served from the store without "
     "simulation (run-level)."),
    ("cache_misses", "journal", "count",
     "Checkpoint misses + configs actually simulated (run-level)."),
    ("bytes_shipped", "journal", "bytes",
     "Bytes shipped to workers as trace-file handles in the window "
     "(run-level)."),
    ("extra", "result", "JSON",
     "Row-specific extras (sampling plan detail, dilation, ...)."),
)

#: Just the column names, in order.
RUN_TABLE_HEADER = tuple(name for name, _, _, _ in RUN_TABLE_COLUMNS)


def format_cell(value: Any) -> str:
    """Round-trip-exact cell text for one value.

    None → empty; bools → 0/1; ints plain; floats via ``repr`` (so
    ``float(text)`` reconstructs the identical IEEE value); everything
    else (e.g. the ``extra`` dict) as compact JSON.
    """
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, str):
        return value
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def run_table_rows(
    run: Mapping[str, Any], rows: Iterable[Mapping[str, Any]]
) -> list[dict[str, str]]:
    """Formatted (all-string) table rows for one run document."""
    out: list[dict[str, str]] = []
    for row in rows:
        merged = {
            "run_id": run.get("id"),
            "kind": run.get("kind"),
            "state": run.get("state"),
            **{k: row.get(k) for k in RUN_TABLE_HEADER[3:]},
        }
        out.append({k: format_cell(merged[k]) for k in RUN_TABLE_HEADER})
    return out


def run_table_csv(
    store: "ResultStore | None" = None,
    run_id: str | None = None,
    run: Mapping[str, Any] | None = None,
    rows: Iterable[Mapping[str, Any]] | None = None,
) -> str:
    """The run's table as CSV text (header + one line per row).

    Pass either a ``(store, run_id)`` pair or pre-fetched
    ``run``/``rows`` documents.
    """
    if run is None or rows is None:
        if store is None or run_id is None:
            raise ValueError(
                "run_table_csv needs (store, run_id) or (run, rows)"
            )
        run = get_run(store, run_id)
        rows = get_run_rows(store, run_id)
    buffer = io.StringIO()
    writer = csv.DictWriter(
        buffer, fieldnames=list(RUN_TABLE_HEADER), lineterminator="\n"
    )
    writer.writeheader()
    for row in run_table_rows(run, rows):
        writer.writerow(row)
    return buffer.getvalue()
