"""The run model: durable ``runs`` / ``run_rows`` tables + RunRecorder.

A *run* is one recorded execution of a sweep / estimate / explore (or
any caller-defined kind).  The ``runs`` row carries identity, state and
a journal-derived summary; ``run_rows`` carries one row per
(design, benchmark, repetition) with the measured metrics and the
journal-derived execution columns.  :data:`RUN_TABLE_COLUMNS` is the
one registry of those columns: the ``run_rows`` insert, the CSV export
and ``docs/RUN_TABLE_COLUMNS.md`` all derive from it.

:class:`RunRecorder` is strictly **observational**: it reads result
documents after they exist and a window of already-recorded journal
events, and writes the run in one transaction at :meth:`finish`.  It
never sits on the simulation path, so recording cannot perturb results
(the CI analytics smoke asserts bit-identity;
``scripts/ci_fault_sweep.py``'s ``check_recording_overhead`` bounds the
cost).  Every row is one tuple in registry order from intake to sqlite:
result columns when it is added, journal columns appended at finish,
and one ``executemany`` writes them all.

Two sinks are supported transparently:

* a local :class:`~repro.service.store.ResultStore` — direct SQL;
* anything exposing ``record_run(run, rows)`` (e.g.
  :class:`~repro.service.worker.RemoteStore`) — the run is shipped to
  the server over ``POST /runs`` and recorded there, so fleet workers
  leave their evidence in the shared database.
"""

from __future__ import annotations

import json
import time
import uuid
from collections import Counter
from typing import TYPE_CHECKING, Any, Iterable, Mapping

from repro.cache.area import cache_cost
from repro.cache.config import CacheConfig
from repro.errors import ServiceError
from repro.runtime.journal import RunJournal, resolve_journal

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.store import ResultStore


def _result_store_type():
    """The ResultStore class, imported lazily.

    :mod:`repro.service` imports the analytics modules (the server
    mounts the run endpoints), so a module-level import here would be
    circular; resolve it at call time instead.
    """
    from repro.service.store import ResultStore

    return ResultStore


__all__ = [
    "RUN_STATES",
    "RUN_TABLE_COLUMNS",
    "RunRecorder",
    "delete_run",
    "derive_journal_columns",
    "design_label",
    "gc_runs",
    "get_run",
    "get_run_rows",
    "list_runs",
    "new_run_id",
    "record_run",
    "supports_runs",
]

#: Lifecycle of a recorded run.
RUN_STATES = ("running", "done", "failed")

#: ``runs`` column order used by :func:`record_run`.
_RUN_COLUMNS = (
    "id",
    "kind",
    "label",
    "benchmark",
    "state",
    "spec",
    "error",
    "started",
    "finished",
    "wall_s",
    "rows",
    "journal",
)

#: (name, source, units, description) for every run-table column, in
#: CSV order: the single source of truth for the column set.
#: ``source`` is where the value originates: ``run`` (the runs table),
#: ``result`` (result documents / the result store) or ``journal``
#: (derived from RunJournal events).
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

#: The result-sourced columns except ``idx`` (the writer numbers the
#: rows), in registry order: the layout of every row tuple the recorder
#: collects.
_RESULT_COLUMNS = tuple(
    name
    for name, source, _, _ in RUN_TABLE_COLUMNS
    if source == "result" and name != "idx"
)

#: The journal-derived columns :meth:`RunRecorder.finish` appends to
#: every row tuple.
_JOURNAL_COLUMNS = tuple(
    name for name, source, _, _ in RUN_TABLE_COLUMNS if source == "journal"
)

#: Every column with a unit holds a number.
_NUMERIC_COLUMNS = frozenset(
    name
    for name, _, units, _ in RUN_TABLE_COLUMNS
    if units not in ("-", "JSON")
)

_LINE_SIZE = _RESULT_COLUMNS.index("line_size")

_RUN_SQL = (
    f"INSERT OR REPLACE INTO runs ({', '.join(_RUN_COLUMNS)}) VALUES"
    f" ({', '.join('?' * len(_RUN_COLUMNS))})"
)
#: The ``run_rows`` insert: run id, row index, then a row tuple.
_INSERT_COLUMNS = ("run_id", "idx", *_RESULT_COLUMNS, *_JOURNAL_COLUMNS)
_ROW_SQL = (
    f"INSERT INTO run_rows ({', '.join(_INSERT_COLUMNS)}) VALUES"
    f" ({', '.join('?' * len(_INSERT_COLUMNS))})"
)


def new_run_id() -> str:
    """A fresh run identity (``run-<12 hex>``)."""
    return f"run-{uuid.uuid4().hex[:12]}"


def design_label(
    sets: int | None, assoc: int | None, line_size: int | None
) -> str:
    """The canonical ``S<sets>A<assoc>L<line>`` design string."""
    return f"S{sets}A{assoc}L{line_size}"


def supports_runs(store: Any) -> bool:
    """True when ``store`` can absorb a recorded run (local or remote)."""
    return isinstance(store, _result_store_type()) or hasattr(
        store, "record_run"
    )


# ----------------------------------------------------------------------
# Journal-derived columns.
# ----------------------------------------------------------------------


def derive_journal_columns(
    events: Iterable[Mapping[str, Any]],
) -> dict[str, Any]:
    """Aggregate one journal window into the run's execution columns.

    Returns run-level counters plus per-line-size pass wall/kernel
    attribution (``by_line_size``), all JSON-representable.  The window
    is whatever slice of events the recorder observed between start and
    finish; for serially executed jobs that is exactly this run's
    events.
    """
    events = list(events)
    by_ls: dict[str, dict[str, Any]] = {}
    passes = wall = kernel = 0.0
    npasses = 0
    retries = timeouts = fallbacks = 0
    ckpt_hits = ckpt_misses = ckpt_stores = 0
    dedup_store = dedup_sim = 0
    bytes_shipped = bytes_mapped = 0
    jobs_done = jobs_failed = 0
    for event in events:
        kind = event.get("event")
        if kind in ("pass", "sampled_pass"):
            npasses += 1
            w = float(event.get("wall_s", 0.0) or 0.0)
            k = float(event.get("kernel_s", 0.0) or 0.0)
            wall += w
            kernel += k
            ls = str(event.get("line_size", "?"))
            slot = by_ls.setdefault(
                ls, {"passes": 0, "wall_s": 0.0, "kernel_s": 0.0}
            )
            slot["passes"] += 1
            slot["wall_s"] += w
            slot["kernel_s"] += k
        elif kind == "retry":
            retries += 1
        elif kind == "timeout":
            timeouts += 1
        elif kind == "fallback":
            fallbacks += 1
        elif kind == "checkpoint":
            action = event.get("action")
            if action == "hit":
                ckpt_hits += 1
            elif action == "miss":
                ckpt_misses += 1
            elif action == "store":
                ckpt_stores += 1
        elif kind == "service_dedup":
            dedup_store += int(event.get("from_store", 0) or 0)
            dedup_sim += int(event.get("simulated", 0) or 0)
        elif kind == "trace_shipping":
            bytes_shipped += int(event.get("bytes_shipped", 0) or 0)
            bytes_mapped += int(event.get("bytes_mapped", 0) or 0)
        elif kind == "job":
            jobs_done += 1
        elif kind == "job_failed":
            jobs_failed += 1
    return {
        "events": len(events),
        "passes": npasses,
        "wall_s": round(wall, 6),
        "kernel_s": round(kernel, 6),
        "retries": retries,
        "timeouts": timeouts,
        "fallbacks": fallbacks,
        "checkpoint_hits": ckpt_hits,
        "checkpoint_misses": ckpt_misses,
        "checkpoint_stores": ckpt_stores,
        "dedup_from_store": dedup_store,
        "dedup_simulated": dedup_sim,
        "cache_hits": ckpt_hits + dedup_store,
        "cache_misses": ckpt_misses + dedup_sim,
        "bytes_shipped": bytes_shipped,
        "bytes_mapped": bytes_mapped,
        "jobs_completed": jobs_done,
        "jobs_failed": jobs_failed,
        "by_line_size": by_ls,
    }


# ----------------------------------------------------------------------
# The recorder.
# ----------------------------------------------------------------------


class RunRecorder:
    """Accumulate one run's rows, derive journal columns, write once.

    Use as a context manager around the execution being recorded::

        with RunRecorder(store, kind="sweep", spec=spec) as rec:
            results = sweep_design_space(configs, trace, ...)
            rec.add_sweep_results(results)

    The journal *window* is every event recorded on ``journal`` between
    ``__enter__`` and :meth:`finish`; the recorder never writes journal
    events of its own during execution and touches the store only at
    finish (one transaction), so recording is invisible to the work
    being measured.  An exception inside the block records the run as
    ``failed`` and re-raises.
    """

    def __init__(
        self,
        store: Any,
        kind: str,
        spec: Mapping[str, Any] | None = None,
        journal: RunJournal | None = None,
        run_id: str | None = None,
        label: str | None = None,
        benchmark: str | None = None,
    ):
        if not supports_runs(store):
            raise ServiceError(
                "run recording needs a ResultStore or a store exposing "
                f"record_run(); got {type(store).__name__}"
            )
        self.store = store
        self.kind = str(kind)
        self.spec = dict(spec or {})
        self.journal = resolve_journal(journal)
        self.run_id = run_id or new_run_id()
        self.label = label
        self.benchmark = benchmark
        # Result-column tuples in _RESULT_COLUMNS order.
        self._rows: list[tuple] = []
        self._reps: dict[tuple, int] = {}
        self._window = self.journal.open_window()
        self._started = time.time()
        self._finished: dict[str, Any] | None = None

    # -- context manager ------------------------------------------------

    def __enter__(self) -> "RunRecorder":
        self._window.clear()
        self._started = time.time()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._finished is None:
            if exc is not None:
                self.finish(state="failed", error=repr(exc))
            else:
                self.finish()

    # -- row intake -----------------------------------------------------

    def _repetition(
        self, design: str, benchmark: str | None, role: str | None
    ) -> int:
        """The next repetition of (design, benchmark, role) in this run."""
        key = (design, benchmark, role)
        repetition = self._reps.get(key, 0)
        self._reps[key] = repetition + 1
        return repetition

    def add_row(
        self,
        design: str | None = None,
        *,
        benchmark: str | None = None,
        role: str | None = None,
        sets: int | None = None,
        assoc: int | None = None,
        line_size: int | None = None,
        repetition: int | None = None,
        accesses: int | None = None,
        misses: float | None = None,
        cycles: float | None = None,
        cost: float | None = None,
        area: float | None = None,
        estimated: bool = False,
        error: float | None = None,
        source: str | None = None,
        **extra: Any,
    ) -> None:
        """Append one (design, benchmark, repetition) row.

        ``repetition`` auto-increments per (design, benchmark, role)
        when not given, so re-measuring the same design in one run
        yields distinct rows instead of collisions.
        """
        if design is None:
            design = design_label(sets, assoc, line_size)
        if benchmark is None:
            benchmark = self.benchmark
        if repetition is None:
            repetition = self._repetition(design, benchmark, role)
        if (
            area is None
            and sets is not None
            and assoc is not None
            and line_size is not None
        ):
            area = cache_cost(CacheConfig(sets, assoc, line_size))
        self._rows.append((
            benchmark, role, design, sets, assoc, line_size,
            int(repetition), accesses, misses, _miss_rate(misses, accesses),
            cycles, cost, area, 1 if estimated else 0, error, source,
            json.dumps(extra) if extra else "{}",
        ))

    def add_config_doc(
        self,
        doc: Mapping[str, Any],
        benchmark: str | None = None,
        role: str | None = None,
    ) -> None:
        """One row from a sweep result document (``_config_doc`` shape)."""
        extra = {
            k: doc[k]
            for k in ("intervals", "sampled_ranges", "total_ranges")
            if k in doc
        }
        self.add_row(
            benchmark=benchmark,
            role=role,
            sets=doc.get("sets"),
            assoc=doc.get("assoc"),
            line_size=doc.get("line_size"),
            accesses=doc.get("accesses"),
            misses=doc.get("misses"),
            estimated=bool(doc.get("estimated", False)),
            error=doc.get("error"),
            source=doc.get("source"),
            **extra,
        )

    def add_sweep_results(
        self,
        results: Mapping[CacheConfig, Any],
        benchmark: str | None = None,
        role: str | None = None,
        source: str = "simulated",
    ) -> None:
        """Rows from an in-process ``sweep_design_space`` result map."""
        if benchmark is None:
            benchmark = self.benchmark
        append = self._rows.append
        for config, miss in results.items():
            sets, assoc = config.sets, config.assoc
            line_size = config.line_size
            design = design_label(sets, assoc, line_size)
            accesses = getattr(miss, "accesses", None)
            misses = getattr(miss, "misses", None)
            error = getattr(miss, "error", None)
            append((
                benchmark, role, design, sets, assoc, line_size,
                self._repetition(design, benchmark, role), accesses,
                misses, _miss_rate(misses, accesses), None, None,
                cache_cost(config), 0 if error is None else 1, error,
                source, "{}",
            ))

    def add_frontier_point(
        self, point: Mapping[str, Any], benchmark: str | None = None
    ) -> None:
        """One row from an explore frontier point document."""
        parts = [str(point.get("processor", "?"))]
        total_area = 0.0
        for role in ("icache", "dcache", "unified"):
            cache = point.get(role)
            if isinstance(cache, Mapping):
                parts.append(
                    role[0].upper()
                    + design_label(
                        cache.get("sets"),
                        cache.get("assoc"),
                        cache.get("line_size"),
                    )
                )
                try:
                    total_area += cache_cost(
                        CacheConfig(
                            int(cache["sets"]),
                            int(cache["assoc"]),
                            int(cache["line_size"]),
                        )
                    )
                except Exception:  # noqa: BLE001 - area stays best-effort
                    pass
        self.add_row(
            design="|".join(parts),
            benchmark=benchmark,
            role="system",
            cycles=point.get("cycles"),
            cost=point.get("cost"),
            area=round(total_area, 6) if total_area else None,
            source="frontier",
        )

    # -- finish ---------------------------------------------------------

    def finish(
        self, state: str = "done", error: str | None = None
    ) -> dict[str, Any]:
        """Derive the journal columns and write the run (idempotent)."""
        if self._finished is not None:
            return self._finished
        if state not in RUN_STATES:
            raise ServiceError(
                f"unknown run state {state!r}; expected one of {RUN_STATES}"
            )
        finished = time.time()
        self.journal.close_window(self._window)
        derived = derive_journal_columns(self._window)
        # Per-row attribution: a single-pass simulation serves every
        # config sharing its line size, so the pass wall/kernel time is
        # split evenly across that line size's rows (row sums then
        # reconstruct the totals).  Run-level counters are replicated
        # on every row (documented in RUN_TABLE_COLUMNS.md).
        line_sizes = [str(row[_LINE_SIZE]) for row in self._rows]
        journal_values = {}
        for line_size, share in Counter(line_sizes).items():
            slot = derived["by_line_size"].get(line_size)
            attributed = {
                name: round(slot[name] / share, 9) if slot else None
                for name in ("wall_s", "kernel_s")
            }
            journal_values[line_size] = tuple(
                attributed.get(name, derived[name])
                for name in _JOURNAL_COLUMNS
            )
        rows = [
            (self.run_id, idx, *row, *journal_values[line_size])
            for idx, (row, line_size) in enumerate(
                zip(self._rows, line_sizes)
            )
        ]
        run = {
            "id": self.run_id,
            "kind": self.kind,
            "label": self.label,
            "benchmark": self.benchmark,
            "state": state,
            "spec": self.spec,
            "error": error,
            "started": round(self._started, 6),
            "finished": round(finished, 6),
            "wall_s": round(finished - self._started, 6),
            "rows": len(rows),
            "journal": derived,
        }
        if isinstance(self.store, _result_store_type()):
            _write_run(self.store, _run_values(run, len(rows)), rows)
        else:
            self.store.record_run(
                run, [_row_doc(zip(_INSERT_COLUMNS, row)) for row in rows]
            )
        self.journal.record(
            "analytics_run",
            id=self.run_id,
            kind=self.kind,
            state=state,
            rows=len(rows),
            wall_s=run["wall_s"],
        )
        self._finished = run
        return run


def _miss_rate(misses: float | None, accesses: int | None) -> float | None:
    if misses is not None and accesses:
        return misses / accesses
    return None


# ----------------------------------------------------------------------
# Table access (local ResultStore).
# ----------------------------------------------------------------------


def _number(value: Any, what: str) -> Any:
    """``value`` itself when it is a number or absent."""
    if value is None or isinstance(value, (int, float)):
        return value
    raise ServiceError(f"{what} must be a number, got {value!r}")


def _run_values(run: Any, rows: int) -> tuple:
    """A run document as its ``runs`` row, checked once."""
    if not isinstance(run, Mapping):
        raise ServiceError(f"a run document must be an object, got {run!r}")
    run_id = str(run.get("id") or "")
    if not run_id:
        raise ServiceError("run document needs an 'id'")
    kind = str(run.get("kind") or "")
    if not kind:
        raise ServiceError("run document needs a 'kind'")
    state = str(run.get("state") or "done")
    if state not in RUN_STATES:
        raise ServiceError(
            f"unknown run state {state!r}; expected one of {RUN_STATES}"
        )
    started, finished, wall_s = (
        _number(run.get(name), f"run {name!r}")
        for name in ("started", "finished", "wall_s")
    )
    return (
        run_id, kind, run.get("label"), run.get("benchmark"), state,
        json.dumps(run.get("spec") or {}), run.get("error"),
        float(started or time.time()), finished, wall_s, rows,
        json.dumps(run.get("journal") or {}),
    )


def _row_values(run_id: str, idx: int, row: Any) -> tuple:
    """A row document as its ``run_rows`` row, checked once."""
    if not isinstance(row, Mapping):
        raise ServiceError(f"a run row must be an object, got {row!r}")
    for name in _NUMERIC_COLUMNS.intersection(row):
        _number(row[name], f"run row {name!r}")
    values = {
        **row,
        "run_id": run_id,
        "idx": idx,
        "design": str(row.get("design") or "?"),
        "repetition": int(row.get("repetition") or 0),
        "estimated": 1 if row.get("estimated") else 0,
        "extra": json.dumps(row.get("extra") or {}),
    }
    return tuple(values.get(name) for name in _INSERT_COLUMNS)


def _write_run(store: ResultStore, run: tuple, rows: list[tuple]) -> None:
    """Replace run ``run[0]`` and its rows in one transaction."""
    with store.transaction() as conn:
        conn.execute("DELETE FROM run_rows WHERE run_id = ?", (run[0],))
        conn.execute(_RUN_SQL, run)
        conn.executemany(_ROW_SQL, rows)


def record_run(
    store: ResultStore,
    run: Mapping[str, Any],
    rows: Iterable[Mapping[str, Any]] = (),
) -> dict[str, Any]:
    """Write one run + its row documents in a single transaction
    (idempotent: re-recording the same run id replaces the previous
    attempt).

    Rows arrive as documents keyed by run-table column name; every
    numeric column must hold a number.  Malformed documents raise
    :class:`ServiceError` before anything is written.
    """
    if isinstance(rows, (Mapping, str)) or not isinstance(rows, Iterable):
        raise ServiceError(f"run rows must be a list of objects, got {rows!r}")
    rows = list(rows)
    values = _run_values(run, len(rows))
    run_id = values[0]
    _write_run(store, values, [
        _row_values(run_id, idx, row) for idx, row in enumerate(rows)
    ])
    return {"id": run_id, "rows": len(rows)}


def _run_doc(row: Any) -> dict[str, Any]:
    doc = dict(row)
    for field in ("spec", "journal"):
        try:
            doc[field] = json.loads(doc.get(field) or "{}")
        except (TypeError, ValueError):
            doc[field] = {}
    return doc


def _row_doc(row: Any) -> dict[str, Any]:
    doc = dict(row)
    doc["estimated"] = bool(doc.get("estimated"))
    try:
        doc["extra"] = json.loads(doc.get("extra") or "{}")
    except (TypeError, ValueError):
        doc["extra"] = {}
    return doc


def list_runs(
    store: ResultStore,
    kind: str | None = None,
    state: str | None = None,
    limit: int = 50,
) -> list[dict[str, Any]]:
    """Recent runs, newest first (spec/journal decoded)."""
    sql = "SELECT * FROM runs"
    clauses, args = [], []
    if kind is not None:
        clauses.append("kind = ?")
        args.append(kind)
    if state is not None:
        clauses.append("state = ?")
        args.append(state)
    if clauses:
        sql += " WHERE " + " AND ".join(clauses)
    sql += " ORDER BY started DESC, id LIMIT ?"
    args.append(int(limit))
    rows = store.connection().execute(sql, args).fetchall()
    return [_run_doc(r) for r in rows]


def get_run(store: ResultStore, run_id: str) -> dict[str, Any]:
    """One run's document; raises on an unknown id."""
    row = store.connection().execute(
        "SELECT * FROM runs WHERE id = ?", (run_id,)
    ).fetchone()
    if row is None:
        raise ServiceError(f"unknown run id {run_id!r}")
    return _run_doc(row)


def get_run_rows(store: ResultStore, run_id: str) -> list[dict[str, Any]]:
    """A run's rows in recorded order (extra decoded)."""
    rows = store.connection().execute(
        "SELECT * FROM run_rows WHERE run_id = ? ORDER BY idx", (run_id,)
    ).fetchall()
    return [_row_doc(r) for r in rows]


def delete_run(store: ResultStore, run_id: str) -> bool:
    """Remove one run + its rows; True when it existed."""
    with store.transaction() as conn:
        conn.execute("DELETE FROM run_rows WHERE run_id = ?", (run_id,))
        cur = conn.execute("DELETE FROM runs WHERE id = ?", (run_id,))
    return cur.rowcount > 0


def gc_runs(
    store: ResultStore,
    older_than: float | None = None,
    keep: int | None = None,
) -> int:
    """Expire old runs; returns how many were deleted.

    ``keep`` protects the N most recent runs unconditionally.  Among
    the unprotected rest, ``older_than`` (an age in seconds against each
    run's start) dooms only runs older than that; with ``keep`` alone,
    every unprotected run goes.  With neither, nothing is deleted (an
    explicit no-op, not a wipe).
    """
    if older_than is None and keep is None:
        return 0
    cutoff = (
        time.time() - float(older_than) if older_than is not None else None
    )
    rows = store.connection().execute(
        "SELECT id, started FROM runs ORDER BY started DESC, id"
    ).fetchall()
    doomed: list[str] = []
    for index, row in enumerate(rows):
        if keep is not None and index < int(keep):
            continue
        if cutoff is None or float(row["started"]) < cutoff:
            doomed.append(row["id"])
    deleted = 0
    with store.transaction() as tx:
        for run_id in sorted(doomed):
            tx.execute(
                "DELETE FROM run_rows WHERE run_id = ?", (run_id,)
            )
            cur = tx.execute("DELETE FROM runs WHERE id = ?", (run_id,))
            deleted += cur.rowcount
    return deleted
