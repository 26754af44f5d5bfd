"""Persistent asynchronous job queue (same database as the store).

Jobs move ``queued → running → done | failed``.  A *failed attempt*
requeues the job until its bounded attempt budget is spent (mirroring
the executor's retry policy, but durable: the counter lives in sqlite,
so retries survive the worker process).  Claiming is one ``BEGIN
IMMEDIATE`` transaction, so any number of worker threads or processes
can pull from the same queue without double-claiming.

Leases and fencing
------------------

A claim is a *lease*, not ownership forever: the claiming transaction
stamps ``lease_expires = now + lease`` and the worker must renew via
:meth:`JobQueue.heartbeat` while it runs.  The durable attempt counter
doubles as a **fencing token** — every claim increments it, so the
token uniquely identifies one lease of one job.  ``complete()`` /
``fail()`` / ``heartbeat()`` verify the caller's token against the
row and raise :class:`~repro.errors.StaleLeaseError` on mismatch: a
worker that lost its lease (expired mid-run, job re-leased elsewhere)
cannot overwrite the rightful execution's outcome.

Kill-and-resume: a job claimed by a worker that died stays ``running``
until its lease expires; :meth:`JobQueue.recover` (called on service
startup *and* periodically by the service's reaper) requeues only
lease-expired jobs at their current attempt count — jobs under a live
lease held by another process are left alone, so any number of service
processes and remote workers can share one database without double
execution.  Because sweep jobs checkpoint per-group state into the
shared store, a resumed job re-simulates only the groups its
predecessor had not finished.

Workers themselves register in a ``workers`` table with capability
tags; a job spec may carry ``"requires": [...]`` and is only handed to
workers whose tags cover it.  Workers that stop checking in are reaped
by :meth:`JobQueue.reap_workers`.
"""

from __future__ import annotations

import json
import os
import time
import uuid
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from repro.errors import ServiceError, StaleLeaseError
from repro.service.store import ResultStore

#: Legal job states, in lifecycle order.
JOB_STATES = ("queued", "running", "done", "failed")

#: Default lease duration granted to a claim, seconds.  Workers renew
#: at a fraction of this; the service reaper requeues jobs whose lease
#: has been expired for a while.
DEFAULT_LEASE = 30.0


@dataclass(frozen=True)
class JobRecord:
    """One job's durable state, decoded from its sqlite row."""

    id: str
    spec: dict[str, Any]
    state: str
    attempts: int
    max_attempts: int
    result: Any = None
    error: str | None = None
    owner: str | None = None
    submitted: float = 0.0
    started: float | None = None
    finished: float | None = None
    lease_expires: float | None = None
    extra: dict[str, Any] = field(default_factory=dict)

    @property
    def finished_ok(self) -> bool:
        return self.state == "done"

    @property
    def terminal(self) -> bool:
        """True once the job can no longer change state."""
        return self.state in ("done", "failed")

    @property
    def token(self) -> int:
        """The fencing token of the *current* lease (the attempt count)."""
        return self.attempts

    def to_dict(self) -> dict[str, Any]:
        """JSON-representable form (the HTTP API's job document)."""
        return {
            "id": self.id,
            "spec": self.spec,
            "state": self.state,
            "attempts": self.attempts,
            "max_attempts": self.max_attempts,
            "result": self.result,
            "error": self.error,
            "owner": self.owner,
            "submitted": self.submitted,
            "started": self.started,
            "finished": self.finished,
            "lease_expires": self.lease_expires,
        }


def _decode(row) -> JobRecord:
    return JobRecord(
        id=row["id"],
        spec=json.loads(row["spec"]),
        state=row["state"],
        attempts=row["attempts"],
        max_attempts=row["max_attempts"],
        result=json.loads(row["result"]) if row["result"] else None,
        error=row["error"],
        owner=row["owner"],
        submitted=row["submitted"],
        started=row["started"],
        finished=row["finished"],
        lease_expires=row["lease_expires"],
    )


def default_owner() -> str:
    """This worker's identity, recorded on claim (host:pid:uuid-ish)."""
    return f"pid={os.getpid()}"


def check_max_attempts(max_attempts: int) -> None:
    """Refuse an attempt budget below one."""
    if max_attempts < 1:
        raise ServiceError(f"max_attempts must be >= 1, got {max_attempts}")


def job_requires(spec: dict[str, Any]) -> list[str]:
    """The capability tags a job spec demands (``[]`` = any worker)."""
    requires = spec.get("requires") or []
    return [str(tag) for tag in requires]


class JobQueue:
    """Durable FIFO job queue over the store's ``jobs`` table."""

    def __init__(self, store: ResultStore):
        self.store = store

    # ------------------------------------------------------------------
    # Submission and inspection.
    # ------------------------------------------------------------------

    def submit(
        self, spec: dict[str, Any], max_attempts: int = 3
    ) -> str:
        """Enqueue a job spec; returns the new job id."""
        return self.insert(spec, max_attempts=max_attempts).id

    def insert(
        self,
        spec: dict[str, Any],
        max_attempts: int = 3,
        result: Any = None,
        answer_key: str | None = None,
    ) -> JobRecord:
        """Write a new job row and return its record.

        Without ``result`` the job is ``queued``.  With one it is
        written ``done`` at once (``attempts=0``, submitted, started
        and finished all now): a job answered at submission, which is
        never leased, executed or fenced.  Its ``answer_key`` lets
        :meth:`answered` hand the row to a resubmission of the spec.
        """
        check_max_attempts(max_attempts)
        job_id = uuid.uuid4().hex[:16]
        try:
            text = json.dumps(spec)
        except (TypeError, ValueError) as exc:
            raise ServiceError(f"job spec is not JSON-representable: {exc}") from exc
        try:
            result_text = None if result is None else json.dumps(result)
        except (TypeError, ValueError) as exc:
            raise ServiceError(
                f"job result is not JSON-representable: {exc}"
            ) from exc
        now = time.time()
        ended = None if result is None else now
        record = JobRecord(
            id=job_id,
            spec=spec,
            state="queued" if result is None else "done",
            attempts=0,
            max_attempts=max_attempts,
            result=result,
            submitted=now,
            started=ended,
            finished=ended,
        )
        with self.store.transaction() as conn:
            conn.execute(
                "INSERT INTO jobs (id, spec, state, attempts, max_attempts,"
                " result, submitted, started, finished, answer_key)"
                " VALUES (?, ?, ?, 0, ?, ?, ?, ?, ?, ?)",
                (
                    job_id,
                    text,
                    record.state,
                    max_attempts,
                    result_text,
                    now,
                    ended,
                    ended,
                    answer_key,
                ),
            )
        return record

    def answered(self, answer_key: str) -> JobRecord | None:
        """The earliest job answered under ``answer_key``, or None.

        One read of the ``jobs_answer`` index; a key cleared by a
        store deletion no longer matches any row.
        """
        row = self.store.connection().execute(
            "SELECT * FROM jobs WHERE answer_key = ?"
            " ORDER BY submitted LIMIT 1",
            (answer_key,),
        ).fetchone()
        return None if row is None else _decode(row)

    def get(self, job_id: str) -> JobRecord:
        """The job's current durable state."""
        row = self.store.connection().execute(
            "SELECT * FROM jobs WHERE id = ?", (job_id,)
        ).fetchone()
        if row is None:
            raise ServiceError(f"unknown job id {job_id!r}")
        return _decode(row)

    def list(
        self, state: str | None = None, limit: int = 100
    ) -> list[JobRecord]:
        """Jobs newest-first, optionally filtered by state."""
        if state is not None and state not in JOB_STATES:
            raise ServiceError(
                f"unknown job state {state!r}; expected one of {JOB_STATES}"
            )
        if state is None:
            rows = self.store.connection().execute(
                "SELECT * FROM jobs ORDER BY submitted DESC, id LIMIT ?",
                (limit,),
            ).fetchall()
        else:
            rows = self.store.connection().execute(
                "SELECT * FROM jobs WHERE state = ?"
                " ORDER BY submitted DESC, id LIMIT ?",
                (state, limit),
            ).fetchall()
        return [_decode(row) for row in rows]

    def counts(self) -> dict[str, int]:
        """Job counts per state (zero-filled)."""
        rows = self.store.connection().execute(
            "SELECT state, COUNT(*) AS n FROM jobs GROUP BY state"
        ).fetchall()
        counts = {state: 0 for state in JOB_STATES}
        for row in rows:
            counts[row["state"]] = row["n"]
        return counts

    # ------------------------------------------------------------------
    # Worker protocol.
    # ------------------------------------------------------------------

    def claim(
        self,
        owner: str | None = None,
        lease: float = DEFAULT_LEASE,
        tags: Iterable[str] | None = None,
    ) -> JobRecord | None:
        """Atomically lease the oldest claimable queued job, or None.

        The returned record's ``attempts`` is the lease's fencing
        token; pass it back to :meth:`heartbeat` / :meth:`complete` /
        :meth:`fail`.  With ``tags`` given, only jobs whose
        ``requires`` list is covered by the tags are considered.
        """
        if lease < 0:
            raise ServiceError(f"lease must be >= 0, got {lease}")
        owner = owner or default_owner()
        now = time.time()
        with self.store.transaction() as conn:
            if tags is None:
                row = conn.execute(
                    "SELECT * FROM jobs WHERE state = 'queued'"
                    " ORDER BY submitted, id LIMIT 1"
                ).fetchone()
            else:
                offered = set(tags)
                row = None
                for candidate in conn.execute(
                    "SELECT * FROM jobs WHERE state = 'queued'"
                    " ORDER BY submitted, id"
                ):
                    required = job_requires(json.loads(candidate["spec"]))
                    if set(required) <= offered:
                        row = candidate
                        break
            if row is None:
                return None
            conn.execute(
                "UPDATE jobs SET state = 'running', attempts = attempts + 1,"
                " owner = ?, started = ?, lease_expires = ? WHERE id = ?",
                (owner, now, now + lease, row["id"]),
            )
        return self.get(row["id"])

    def heartbeat(
        self, job_id: str, token: int, lease: float = DEFAULT_LEASE
    ) -> float:
        """Renew a running job's lease; returns the new deadline.

        Raises :class:`StaleLeaseError` when the caller's fencing token
        no longer matches (the lease expired and the job was requeued,
        re-leased or finished elsewhere) — the worker should abandon
        the job.
        """
        deadline = time.time() + lease
        with self.store.transaction() as conn:
            cur = conn.execute(
                "UPDATE jobs SET lease_expires = ?"
                " WHERE id = ? AND state = 'running' AND attempts = ?",
                (deadline, job_id, token),
            )
            if cur.rowcount != 1:
                self._raise_fence(conn, job_id, token, "heartbeat")
        return deadline

    def complete(
        self, job_id: str, result: Any, token: int | None = None
    ) -> None:
        """Mark a running job done with its result document.

        With ``token`` given the transition is fenced: a stale token
        (job re-leased or finished by another worker) raises
        :class:`StaleLeaseError` and the row is untouched.
        """
        try:
            text = json.dumps(result)
        except (TypeError, ValueError) as exc:
            raise ServiceError(
                f"job result is not JSON-representable: {exc}"
            ) from exc
        with self.store.transaction() as conn:
            sql = (
                "UPDATE jobs SET state = 'done', result = ?, error = NULL,"
                " finished = ?, lease_expires = NULL"
                " WHERE id = ? AND state = 'running'"
            )
            args: list[Any] = [text, time.time(), job_id]
            if token is not None:
                sql += " AND attempts = ?"
                args.append(token)
            cur = conn.execute(sql, args)
            if cur.rowcount != 1:
                self._raise_fence(conn, job_id, token, "complete")

    def fail(
        self, job_id: str, error: str, token: int | None = None
    ) -> str:
        """Record a failed attempt; returns the resulting state.

        Requeues while attempts remain (``"queued"``); otherwise the
        job is terminally ``"failed"`` with the error preserved.  A
        requeued row drops its ``owner``/``started``/``lease_expires``
        (it belongs to nobody until the next claim).  Fenced like
        :meth:`complete` when ``token`` is given.
        """
        with self.store.transaction() as conn:
            sql = (
                "SELECT attempts, max_attempts FROM jobs"
                " WHERE id = ? AND state = 'running'"
            )
            args: list[Any] = [job_id]
            if token is not None:
                sql += " AND attempts = ?"
                args.append(token)
            row = conn.execute(sql, args).fetchone()
            if row is None:
                self._raise_fence(conn, job_id, token, "fail")
            state = (
                "queued" if row["attempts"] < row["max_attempts"] else "failed"
            )
            if state == "queued":
                # A requeued row belongs to nobody until the next
                # claim: stale owner/started would misattribute it in
                # /jobs listings and to the reaper.
                conn.execute(
                    "UPDATE jobs SET state = 'queued', error = ?,"
                    " finished = NULL, owner = NULL, started = NULL,"
                    " lease_expires = NULL WHERE id = ?",
                    (error, job_id),
                )
            else:
                # Terminal failure keeps owner/started: accurate
                # history of which worker spent the last attempt.
                conn.execute(
                    "UPDATE jobs SET state = 'failed', error = ?,"
                    " finished = ?, lease_expires = NULL WHERE id = ?",
                    (error, time.time(), job_id),
                )
        return state

    def _raise_fence(
        self, conn, job_id: str, token: int | None, action: str
    ) -> None:
        """Diagnose why a fenced transition matched no row and raise."""
        row = conn.execute(
            "SELECT state, attempts FROM jobs WHERE id = ?", (job_id,)
        ).fetchone()
        if row is None:
            raise ServiceError(f"unknown job id {job_id!r}")
        if token is not None and (
            row["state"] != "running" or row["attempts"] != token
        ):
            raise StaleLeaseError(
                f"stale fencing token for job {job_id!r}: cannot {action}"
                f" with token {token} (job is {row['state']} at attempt"
                f" {row['attempts']})"
            )
        raise ServiceError(
            f"job {job_id!r} is not running; cannot {action} it"
        )

    # ------------------------------------------------------------------
    # Lease reaping (kill-and-resume).
    # ------------------------------------------------------------------

    def recover(
        self, owner: str | None = None, grace: float = 0.0
    ) -> list[str]:
        """Requeue ``running`` jobs whose lease has expired.

        Safe to call from any process at any time: jobs under a live
        lease (a worker somewhere is executing and heartbeating) are
        never touched, so two service processes sharing one database
        do not steal each other's in-flight work.  Rows with no lease
        at all (claimed by a pre-lease build) are treated as expired.

        With ``owner`` given, that owner's running jobs are requeued
        *regardless* of lease — the caller is asserting it knows the
        owner is gone (e.g. its own crashed predecessor).  ``grace``
        widens the expiry test (a lease must be expired for at least
        that long), absorbing clock skew between hosts.

        Jobs whose attempt budget is already spent become ``failed``.
        Returns the transitioned job ids.
        """
        now = time.time()
        with self.store.transaction() as conn:
            if owner is None:
                rows = conn.execute(
                    "SELECT id, attempts, max_attempts FROM jobs"
                    " WHERE state = 'running' AND (lease_expires IS NULL"
                    " OR lease_expires < ?)",
                    (now - grace,),
                ).fetchall()
            else:
                rows = conn.execute(
                    "SELECT id, attempts, max_attempts FROM jobs"
                    " WHERE state = 'running' AND owner = ?",
                    (owner,),
                ).fetchall()
            for row in rows:
                if row["attempts"] >= row["max_attempts"]:
                    conn.execute(
                        "UPDATE jobs SET state = 'failed', error = ?,"
                        " finished = ?, lease_expires = NULL WHERE id = ?",
                        (
                            "lease expired; worker presumed dead"
                            " (recovered)",
                            time.time(),
                            row["id"],
                        ),
                    )
                else:
                    conn.execute(
                        "UPDATE jobs SET state = 'queued', error = NULL,"
                        " finished = NULL, owner = NULL, started = NULL,"
                        " lease_expires = NULL WHERE id = ?",
                        (row["id"],),
                    )
        return [row["id"] for row in rows]

    # ------------------------------------------------------------------
    # Worker registry.
    # ------------------------------------------------------------------

    def register_worker(
        self,
        worker_id: str | None = None,
        tags: Sequence[str] = (),
        meta: dict[str, Any] | None = None,
    ) -> str:
        """Register (or refresh) a worker; returns its id.

        ``tags`` are the worker's capability tags, matched against job
        specs' ``requires`` lists at claim time.
        """
        worker_id = worker_id or f"worker-{uuid.uuid4().hex[:12]}"
        now = time.time()
        with self.store.transaction() as conn:
            conn.execute(
                "INSERT INTO workers (id, tags, meta, registered, last_seen)"
                " VALUES (?, ?, ?, ?, ?)"
                " ON CONFLICT (id) DO UPDATE SET tags = excluded.tags,"
                " meta = excluded.meta, last_seen = excluded.last_seen",
                (
                    worker_id,
                    json.dumps([str(t) for t in tags]),
                    json.dumps(meta or {}),
                    now,
                    now,
                ),
            )
        return worker_id

    def worker_seen(self, worker_id: str) -> None:
        """Refresh a worker's liveness stamp (claim/heartbeat traffic)."""
        with self.store.transaction() as conn:
            conn.execute(
                "UPDATE workers SET last_seen = ? WHERE id = ?",
                (time.time(), worker_id),
            )

    def workers(self) -> list[dict[str, Any]]:
        """Registered workers, most recently seen first."""
        rows = self.store.connection().execute(
            "SELECT * FROM workers ORDER BY last_seen DESC"
        ).fetchall()
        return [
            {
                "id": row["id"],
                "tags": json.loads(row["tags"]),
                "meta": json.loads(row["meta"]),
                "registered": row["registered"],
                "last_seen": row["last_seen"],
            }
            for row in rows
        ]

    def reap_workers(self, ttl: float) -> list[str]:
        """Drop workers not seen for ``ttl`` seconds; returns their ids.

        Their in-flight jobs are *not* touched here — lease expiry
        (:meth:`recover`) requeues those independently, so a worker
        that merely lost registry contact cannot be double-executed.
        """
        cutoff = time.time() - ttl
        with self.store.transaction() as conn:
            rows = conn.execute(
                "SELECT id FROM workers WHERE last_seen < ?", (cutoff,)
            ).fetchall()
            ids = [row["id"] for row in rows]
            if ids:
                conn.executemany(
                    "DELETE FROM workers WHERE id = ?",
                    [(wid,) for wid in ids],
                )
        return ids
