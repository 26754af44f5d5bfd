"""The canonical ``run_table.csv`` export.

One CSV per run, one line per (design, benchmark, repetition) row, with
run-level identity columns repeated on every line (the flat layout a
spreadsheet, pandas, or a plotting script ingests without joins).

The column set is :data:`~repro.analytics.runs.RUN_TABLE_COLUMNS`, the
run model's registry (re-exported here): the CSV header, the HTTP/CLI
exports and the generated ``docs/RUN_TABLE_COLUMNS.md`` all derive
from it.  Cell formatting is round-trip exact: integers print plainly,
floats print via ``repr`` (shortest form that parses back to the
identical float), absent values print as empty strings — so
``csv.DictReader`` recovers the stored values bit-identically (the CI
analytics smoke asserts this).
"""

from __future__ import annotations

import csv
import io
import json
from typing import TYPE_CHECKING, Any, Iterable, Mapping

from repro.analytics.runs import RUN_TABLE_COLUMNS, get_run, get_run_rows

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.store import ResultStore

__all__ = [
    "RUN_TABLE_COLUMNS",
    "format_cell",
    "run_table_csv",
    "run_table_rows",
]

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
