"""The run model: durable ``runs`` / ``run_rows`` tables + RunRecorder.

A *run* is one recorded execution of a sweep / estimate / explore (or
any caller-defined kind).  The ``runs`` row carries identity, state and
a journal-derived summary; ``run_rows`` carries one row per
(design, benchmark, repetition) with the measured metrics and the
journal-derived execution columns (see ``docs/RUN_TABLE_COLUMNS.md``).

:class:`RunRecorder` is strictly **observational**: it reads result
documents after they exist and a window of already-recorded journal
events, and writes the run in one transaction at :meth:`finish`.  It
never sits on the simulation path, so recording cannot perturb results
(the CI analytics smoke asserts bit-identity and bounds the overhead).

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

#: ``run_rows`` column order used by :func:`record_run`.
_ROW_COLUMNS = (
    "run_id",
    "idx",
    "benchmark",
    "role",
    "design",
    "sets",
    "assoc",
    "line_size",
    "repetition",
    "accesses",
    "misses",
    "miss_rate",
    "cycles",
    "cost",
    "area",
    "estimated",
    "error",
    "source",
    "wall_s",
    "kernel_s",
    "retries",
    "timeouts",
    "fallbacks",
    "cache_hits",
    "cache_misses",
    "bytes_shipped",
    "extra",
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
        self._rows: list[dict[str, Any]] = []
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
    ) -> dict[str, Any]:
        """Append one (design, benchmark, repetition) row.

        ``repetition`` auto-increments per (design, benchmark, role)
        when not given, so re-measuring the same design in one run
        yields distinct rows instead of collisions.
        """
        if design is None:
            design = design_label(sets, assoc, line_size)
        benchmark = benchmark if benchmark is not None else self.benchmark
        if repetition is None:
            rep_key = (design, benchmark, role)
            repetition = self._reps.get(rep_key, 0)
            self._reps[rep_key] = repetition + 1
        miss_rate = None
        if misses is not None and accesses:
            miss_rate = misses / accesses
        if (
            area is None
            and sets is not None
            and assoc is not None
            and line_size is not None
        ):
            area = cache_cost(CacheConfig(sets, assoc, line_size))
        row = {
            "benchmark": benchmark,
            "role": role,
            "design": design,
            "sets": sets,
            "assoc": assoc,
            "line_size": line_size,
            "repetition": int(repetition),
            "accesses": accesses,
            "misses": misses,
            "miss_rate": miss_rate,
            "cycles": cycles,
            "cost": cost,
            "area": area,
            "estimated": bool(estimated),
            "error": error,
            "source": source,
            "extra": dict(extra) if extra else {},
        }
        self._rows.append(row)
        return row

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
        for config, miss in results.items():
            self.add_row(
                benchmark=benchmark,
                role=role,
                sets=config.sets,
                assoc=config.assoc,
                line_size=config.line_size,
                accesses=getattr(miss, "accesses", None),
                misses=getattr(miss, "misses", None),
                estimated=bool(getattr(miss, "error", None) is not None),
                error=getattr(miss, "error", None),
                source=source,
            )

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
        window = list(self._window)
        derived = derive_journal_columns(window)
        by_ls = derived.pop("by_line_size")
        # Per-row attribution: a single-pass simulation serves every
        # config sharing its line size, so the pass wall/kernel time is
        # split evenly across that line size's rows (row sums then
        # reconstruct the totals).  Run-level counters are replicated
        # on every row (documented in RUN_TABLE_COLUMNS.md).
        ls_rows: dict[str, int] = {}
        for row in self._rows:
            ls = str(row.get("line_size"))
            ls_rows[ls] = ls_rows.get(ls, 0) + 1
        for row in self._rows:
            ls = str(row.get("line_size"))
            slot = by_ls.get(ls)
            share = ls_rows.get(ls, 1)
            row["wall_s"] = (
                round(slot["wall_s"] / share, 9) if slot else None
            )
            row["kernel_s"] = (
                round(slot["kernel_s"] / share, 9) if slot else None
            )
            row["retries"] = derived["retries"]
            row["timeouts"] = derived["timeouts"]
            row["fallbacks"] = derived["fallbacks"]
            row["cache_hits"] = derived["cache_hits"]
            row["cache_misses"] = derived["cache_misses"]
            row["bytes_shipped"] = derived["bytes_shipped"]
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
            "rows": len(self._rows),
            "journal": {**derived, "by_line_size": by_ls},
        }
        if isinstance(self.store, _result_store_type()):
            record_run(self.store, run, self._rows)
        else:
            self.store.record_run(run, self._rows)
        self.journal.record(
            "analytics_run",
            id=self.run_id,
            kind=self.kind,
            state=state,
            rows=len(self._rows),
            wall_s=run["wall_s"],
        )
        self._finished = run
        return run


# ----------------------------------------------------------------------
# Table access (local ResultStore).
# ----------------------------------------------------------------------


def record_run(
    store: ResultStore,
    run: Mapping[str, Any],
    rows: Iterable[Mapping[str, Any]] = (),
) -> dict[str, Any]:
    """Write one run + its rows in a single transaction (idempotent:
    re-recording the same run id replaces the previous attempt)."""
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
    rows = [dict(r) for r in rows]
    run_values = (
        run_id,
        kind,
        run.get("label"),
        run.get("benchmark"),
        state,
        json.dumps(run.get("spec") or {}),
        run.get("error"),
        float(run.get("started") or time.time()),
        run.get("finished"),
        run.get("wall_s"),
        len(rows),
        json.dumps(run.get("journal") or {}),
    )
    row_values = []
    for idx, row in enumerate(rows):
        row_values.append(
            (
                run_id,
                idx,
                row.get("benchmark"),
                row.get("role"),
                str(row.get("design") or "?"),
                row.get("sets"),
                row.get("assoc"),
                row.get("line_size"),
                int(row.get("repetition") or 0),
                row.get("accesses"),
                row.get("misses"),
                row.get("miss_rate"),
                row.get("cycles"),
                row.get("cost"),
                row.get("area"),
                1 if row.get("estimated") else 0,
                row.get("error"),
                row.get("source"),
                row.get("wall_s"),
                row.get("kernel_s"),
                row.get("retries"),
                row.get("timeouts"),
                row.get("fallbacks"),
                row.get("cache_hits"),
                row.get("cache_misses"),
                row.get("bytes_shipped"),
                json.dumps(row.get("extra") or {}),
            )
        )
    run_sql = (
        f"INSERT OR REPLACE INTO runs ({', '.join(_RUN_COLUMNS)}) VALUES"
        f" ({', '.join('?' * len(_RUN_COLUMNS))})"
    )
    row_sql = (
        f"INSERT INTO run_rows ({', '.join(_ROW_COLUMNS)}) VALUES"
        f" ({', '.join('?' * len(_ROW_COLUMNS))})"
    )
    with store.transaction() as conn:
        conn.execute("DELETE FROM run_rows WHERE run_id = ?", (run_id,))
        conn.execute(run_sql, run_values)
        if row_values:
            conn.executemany(row_sql, row_values)
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
