"""Durable content-addressed result store (sqlite, WAL mode).

This is the production-grade form of the paper's "persistent disk-based
database": one sqlite file shared by any number of processes, holding

* ``results`` — string-keyed JSON metric values partitioned into
  *namespaces* (``metrics``, ``evalcache``, ``frontiers``, ...), with
  atomic per-key upserts instead of whole-file rewrites;
* ``jobs`` — the job queue's persistent state (owned by
  :mod:`repro.service.queue`, created here so one connection bootstraps
  the whole schema).  A job answered at submit carries an
  ``answer_key`` (the digest of its spec) so a resubmission is answered
  by that row; :meth:`ResultStore.delete` and :meth:`ResultStore.gc`
  clear every key in the transaction that deletes results, so an answer
  never outlives the results it was built from;
* ``runs`` / ``run_rows`` — the analytics subsystem's durable run
  tables (owned by :mod:`repro.analytics.runs`): one row per recorded
  execution plus one row per (design, benchmark, repetition) measured.

Keys are *content addresses*: they embed the trace digest and the
configuration-family identity (see :func:`repro.service.jobs.trace_key`
and the sweep checkpoint key format), so identical work submitted by
different clients lands on the same row and is computed once.

Concurrency: WAL mode allows one writer plus many readers without
blocking; writes go through short ``BEGIN IMMEDIATE`` transactions with
a busy timeout, so concurrent multi-process writers queue rather than
corrupt.  Connections are per-thread (sqlite connections must not cross
threads), created lazily.

The store is the only evaluation cache: sweep and priming checkpoints
live in its ``evalcache`` namespace
(:data:`repro.cache.sweep.CHECKPOINT_NAMESPACE`), read with :meth:`get`
and written with one :meth:`put_many` transaction per boundary.
:meth:`get_many` answers a whole batch of keys in one query per
:data:`LOOKUP_BATCH` keys (a sweep's per-config dedup lookup).
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping

from repro.errors import EvaluationCacheError

#: JSON-representable metric values.
Metric = float | int | list | dict | str

#: Default namespace for loose results.
DEFAULT_NAMESPACE = "metrics"

#: Keys per ``IN (...)`` query in :meth:`ResultStore.get_many` (well
#: under sqlite's bound-parameter limit).
LOOKUP_BATCH = 500

_SCHEMA = """
CREATE TABLE IF NOT EXISTS results (
    namespace TEXT NOT NULL,
    key       TEXT NOT NULL,
    value     TEXT NOT NULL,
    created   REAL NOT NULL,
    updated   REAL NOT NULL,
    PRIMARY KEY (namespace, key)
);
CREATE TABLE IF NOT EXISTS jobs (
    id            TEXT PRIMARY KEY,
    spec          TEXT NOT NULL,
    state         TEXT NOT NULL,
    attempts      INTEGER NOT NULL DEFAULT 0,
    max_attempts  INTEGER NOT NULL DEFAULT 3,
    result        TEXT,
    error         TEXT,
    owner         TEXT,
    submitted     REAL NOT NULL,
    started       REAL,
    finished      REAL,
    lease_expires REAL,
    answer_key    TEXT
);
CREATE INDEX IF NOT EXISTS jobs_state ON jobs (state, submitted);
CREATE TABLE IF NOT EXISTS workers (
    id         TEXT PRIMARY KEY,
    tags       TEXT NOT NULL DEFAULT '[]',
    meta       TEXT NOT NULL DEFAULT '{}',
    registered REAL NOT NULL,
    last_seen  REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS runs (
    id        TEXT PRIMARY KEY,
    kind      TEXT NOT NULL,
    label     TEXT,
    benchmark TEXT,
    state     TEXT NOT NULL DEFAULT 'running',
    spec      TEXT NOT NULL DEFAULT '{}',
    error     TEXT,
    started   REAL NOT NULL,
    finished  REAL,
    wall_s    REAL,
    rows      INTEGER NOT NULL DEFAULT 0,
    journal   TEXT NOT NULL DEFAULT '{}'
);
CREATE INDEX IF NOT EXISTS runs_started ON runs (started);
CREATE TABLE IF NOT EXISTS run_rows (
    run_id        TEXT NOT NULL,
    idx           INTEGER NOT NULL,
    benchmark     TEXT,
    role          TEXT,
    design        TEXT NOT NULL,
    sets          INTEGER,
    assoc         INTEGER,
    line_size     INTEGER,
    repetition    INTEGER NOT NULL DEFAULT 0,
    accesses      INTEGER,
    misses        REAL,
    miss_rate     REAL,
    cycles        REAL,
    cost          REAL,
    area          REAL,
    estimated     INTEGER NOT NULL DEFAULT 0,
    error         REAL,
    source        TEXT,
    wall_s        REAL,
    kernel_s      REAL,
    retries       INTEGER,
    timeouts      INTEGER,
    fallbacks     INTEGER,
    cache_hits    INTEGER,
    cache_misses  INTEGER,
    bytes_shipped INTEGER,
    extra         TEXT NOT NULL DEFAULT '{}',
    PRIMARY KEY (run_id, idx)
);
"""

#: Columns added after the first released schema; applied as ALTERs so
#: databases created by older builds keep working (sqlite has no
#: ADD COLUMN IF NOT EXISTS).  Whole new tables (``runs`` /
#: ``run_rows``, the analytics run model) migrate via the idempotent
#: CREATE IF NOT EXISTS statements in ``_SCHEMA``, which rerun on every
#: open — only retrofitted *columns*, and indexes over them, need an
#: entry here.  Only answered jobs carry an ``answer_key``, so its index
#: leaves out the rest.  No query read the old ``run_rows_design`` index
#: (every ``run_rows`` query filters on ``run_id`` alone, which the
#: primary key serves), so databases that still hold it lose it.
_MIGRATIONS = (
    "ALTER TABLE jobs ADD COLUMN lease_expires REAL",
    "ALTER TABLE runs ADD COLUMN benchmark TEXT",
    "ALTER TABLE jobs ADD COLUMN answer_key TEXT",
    "CREATE INDEX IF NOT EXISTS jobs_answer ON jobs (answer_key, submitted)"
    " WHERE answer_key IS NOT NULL",
    "DROP INDEX IF EXISTS run_rows_design",
)


class ResultStore:
    """Content-addressed metric store over one sqlite database file.

    ``namespace`` is the default partition for the key/value methods;
    every method also takes an explicit ``namespace=`` override so one
    store object can serve several logical tables.  Hit/miss counters
    are per-instance (they describe *this* process's lookup traffic, not
    the shared database) and lock-guarded, since HTTP threads look up
    results while a worker thread executes.
    """

    def __init__(
        self,
        path: str | Path,
        namespace: str = DEFAULT_NAMESPACE,
        timeout: float = 30.0,
    ):
        self.path = Path(path)
        self.namespace = namespace
        self.timeout = timeout
        self.hits = 0
        self.misses = 0
        self._count_lock = threading.Lock()
        self._local = threading.local()
        self._init_schema()

    # ------------------------------------------------------------------
    # Connections and transactions.
    # ------------------------------------------------------------------

    def connection(self) -> sqlite3.Connection:
        """This thread's connection (created lazily, WAL mode)."""
        conn = getattr(self._local, "conn", None)
        if conn is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            try:
                conn = sqlite3.connect(
                    self.path, timeout=self.timeout, isolation_level=None
                )
                conn.row_factory = sqlite3.Row
                conn.execute("PRAGMA journal_mode=WAL")
                conn.execute("PRAGMA synchronous=NORMAL")
                conn.execute(
                    f"PRAGMA busy_timeout={int(self.timeout * 1000)}"
                )
            except sqlite3.Error as exc:
                raise EvaluationCacheError(
                    f"cannot open result store {self.path}: {exc}"
                ) from exc
            self._local.conn = conn
        return conn

    @contextmanager
    def transaction(self) -> Iterator[sqlite3.Connection]:
        """A short ``BEGIN IMMEDIATE`` write transaction.

        IMMEDIATE takes the write lock up front, so concurrent
        multi-process writers serialize at BEGIN (bounded by the busy
        timeout) instead of deadlocking on lock upgrades.  Nested use
        inside an open transaction joins it.
        """
        conn = self.connection()
        if conn.in_transaction:
            yield conn
            return
        try:
            conn.execute("BEGIN IMMEDIATE")
        except sqlite3.Error as exc:
            raise EvaluationCacheError(
                f"result store {self.path} is locked or unusable: {exc}"
            ) from exc
        try:
            yield conn
        except BaseException:
            conn.execute("ROLLBACK")
            raise
        else:
            conn.execute("COMMIT")

    def _init_schema(self) -> None:
        # executescript manages its own transaction (it commits any open
        # one first), so it must not run inside self.transaction().
        try:
            conn = self.connection()
            conn.executescript(_SCHEMA)
            for statement in _MIGRATIONS:
                try:
                    conn.execute(statement)
                except sqlite3.OperationalError as exc:
                    if "duplicate column" not in str(exc).lower():
                        raise
        except sqlite3.Error as exc:
            raise EvaluationCacheError(
                f"cannot initialize result store {self.path}: {exc}"
            ) from exc

    def close(self) -> None:
        """Close this thread's connection (others close on GC/exit)."""
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            conn.close()
            self._local.conn = None

    # ------------------------------------------------------------------
    # Key/value API.
    # ------------------------------------------------------------------

    def _ns(self, namespace: str | None) -> str:
        return namespace if namespace is not None else self.namespace

    def put(
        self, key: str, value: Metric, namespace: str | None = None
    ) -> None:
        """Atomically upsert one metric (durable on return)."""
        self.put_many({key: value}, namespace=namespace)

    def put_many(
        self, items: Mapping[str, Metric], namespace: str | None = None
    ) -> None:
        """Upsert a batch of metrics in one transaction."""
        if not items:
            return
        ns = self._ns(namespace)
        now = time.time()
        try:
            rows = [
                (ns, key, json.dumps(value), now, now) for key, value in items.items()
            ]
        except (TypeError, ValueError) as exc:
            raise EvaluationCacheError(
                f"metric value is not JSON-representable: {exc}"
            ) from exc
        with self.transaction() as conn:
            conn.executemany(
                "INSERT INTO results (namespace, key, value, created, updated)"
                " VALUES (?, ?, ?, ?, ?)"
                " ON CONFLICT (namespace, key) DO UPDATE"
                " SET value = excluded.value, updated = excluded.updated",
                rows,
            )

    def _fetch(self, key: str, namespace: str | None) -> sqlite3.Row | None:
        return self.connection().execute(
            "SELECT value FROM results WHERE namespace = ? AND key = ?",
            (self._ns(namespace), key),
        ).fetchone()

    def get(self, key: str, namespace: str | None = None) -> Metric | None:
        """The stored metric, or None when absent (counted as a miss).

        A present key whose stored value is ``null`` still counts as a
        hit.
        """
        row = self._fetch(key, namespace)
        if row is None:
            self._count(misses=1)
            return None
        self._count(hits=1)
        return json.loads(row["value"])

    def get_many(
        self, keys: Iterable[str], namespace: str | None = None
    ) -> dict[str, Metric]:
        """The stored metrics among ``keys``: ``{key: value}`` for the
        present ones, absent keys left out.

        One ``IN (...)`` query per :data:`LOOKUP_BATCH` keys; each key
        counts as a hit or a miss exactly as :meth:`get` would count it.
        """
        keys = list(keys)
        ns = self._ns(namespace)
        found: dict[str, Metric] = {}
        conn = self.connection()
        for lo in range(0, len(keys), LOOKUP_BATCH):
            batch = keys[lo : lo + LOOKUP_BATCH]
            marks = ",".join("?" * len(batch))
            for row in conn.execute(
                "SELECT key, value FROM results"
                f" WHERE namespace = ? AND key IN ({marks})",
                (ns, *batch),
            ):
                found[row["key"]] = json.loads(row["value"])
        hits = sum(key in found for key in keys)
        self._count(hits=hits, misses=len(keys) - hits)
        return found

    def _count(self, hits: int = 0, misses: int = 0) -> None:
        with self._count_lock:
            self.hits += hits
            self.misses += misses

    def contains(self, key: str, namespace: str | None = None) -> bool:
        """Presence test without hit/miss accounting."""
        return self._fetch(key, namespace) is not None

    def __contains__(self, key: str) -> bool:
        return self.contains(key)

    def items(
        self,
        prefix: str = "",
        namespace: str | None = None,
        limit: int | None = None,
    ) -> dict[str, Metric]:
        """All (key, value) pairs whose key starts with ``prefix``."""
        sql = (
            "SELECT key, value FROM results"
            " WHERE namespace = ? AND key GLOB ? ORDER BY key"
        )
        args: list[Any] = [self._ns(namespace), _glob_prefix(prefix)]
        if limit is not None:
            sql += " LIMIT ?"
            args.append(int(limit))
        rows = self.connection().execute(sql, args).fetchall()
        return {row["key"]: json.loads(row["value"]) for row in rows}

    def keys(
        self, prefix: str = "", namespace: str | None = None
    ) -> list[str]:
        """All keys with the given prefix, sorted."""
        rows = self.connection().execute(
            "SELECT key FROM results WHERE namespace = ? AND key GLOB ?"
            " ORDER BY key",
            (self._ns(namespace), _glob_prefix(prefix)),
        ).fetchall()
        return [row["key"] for row in rows]

    def namespaces(self) -> dict[str, int]:
        """Entry counts per namespace across the whole database."""
        rows = self.connection().execute(
            "SELECT namespace, COUNT(*) AS n FROM results GROUP BY namespace"
        ).fetchall()
        return {row["namespace"]: row["n"] for row in rows}

    def count(self, namespace: str | None = None) -> int:
        """Entries in one namespace."""
        row = self.connection().execute(
            "SELECT COUNT(*) AS n FROM results WHERE namespace = ?",
            (self._ns(namespace),),
        ).fetchone()
        return int(row["n"])

    def __len__(self) -> int:
        return self.count()

    # ------------------------------------------------------------------
    # GC.
    # ------------------------------------------------------------------

    def delete(self, key: str, namespace: str | None = None) -> bool:
        """Remove one entry; True when it existed.

        Removing one invalidates every job's answer (see
        :func:`_forget_answers`).
        """
        with self.transaction() as conn:
            cur = conn.execute(
                "DELETE FROM results WHERE namespace = ? AND key = ?",
                (self._ns(namespace), key),
            )
            _forget_answers(conn, cur.rowcount)
        return cur.rowcount > 0

    def gc(
        self,
        namespace: str | None = None,
        older_than: float | None = None,
        prefix: str = "",
    ) -> int:
        """Remove entries; returns how many were deleted.

        ``older_than`` is an age in seconds against each row's last
        update, so periodically re-derived results survive while
        abandoned ones age out.  With no arguments, clears the default
        namespace.  Removing any entry invalidates every job's answer
        (see :func:`_forget_answers`).
        """
        sql = "DELETE FROM results WHERE namespace = ? AND key GLOB ?"
        args: list[Any] = [self._ns(namespace), _glob_prefix(prefix)]
        if older_than is not None:
            sql += " AND updated < ?"
            args.append(time.time() - older_than)
        with self.transaction() as conn:
            cur = conn.execute(sql, args)
            _forget_answers(conn, cur.rowcount)
        return cur.rowcount

    def vacuum(self) -> None:
        """Reclaim disk space after large GCs."""
        self.connection().execute("VACUUM")

    # ------------------------------------------------------------------
    # Accounting.
    # ------------------------------------------------------------------

    @property
    def hit_rate(self) -> float:
        """Hits per lookup in this process; 0.0 before any lookup."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def stats(self) -> dict[str, Metric]:
        """Hit/miss accounting plus database-wide shape (journal-friendly)."""
        try:
            size = self.path.stat().st_size
        except OSError:
            size = 0
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "entries": self.count(),
            "namespaces": self.namespaces(),
            "db_bytes": size,
        }


def _forget_answers(conn: sqlite3.Connection, deleted: int) -> None:
    """Clear every job's ``answer_key`` once ``deleted`` results are gone.

    An answered job's result document was read from stored results; a
    resubmission must not be handed that document after any of them
    is removed, so it takes the full submit path again.  Which answers
    read the removed rows is not recorded, so all of them go.
    """
    if deleted > 0:
        conn.execute(
            "UPDATE jobs SET answer_key = NULL WHERE answer_key IS NOT NULL"
        )


def _glob_prefix(prefix: str) -> str:
    """GLOB pattern matching keys that start with ``prefix`` literally.

    GLOB (unlike LIKE) is case-sensitive and its metacharacters are
    rare in keys; escape the ones that do occur via character classes.
    """
    escaped = []
    for ch in prefix:
        if ch in "*?[":
            escaped.append(f"[{ch}]")
        else:
            escaped.append(ch)
    return "".join(escaped) + "*"
