"""Stdlib-only HTTP front end for the evaluation service.

:class:`EvalService` owns the store, the job queue, the journal and a
pool of worker *threads* that claim queued jobs and execute them (each
job may itself fan out to worker *processes* through the fault-tolerant
executor, per its spec).  With ``workers=0`` the service runs in pure
**broker mode**: it executes nothing itself and all work is pulled by
remote worker processes (``repro work``) over the HTTP fleet protocol.

:func:`make_server` wraps a service in a ``ThreadingHTTPServer``
speaking a small JSON API:

===============================  ======================================
``POST /jobs``                   submit a job spec → ``{"id", "state",
                                 "job"}``; a sweep whose every config
                                 is stored comes back ``done``, and a
                                 repeat of it gets the same job back
``GET /jobs``                    recent jobs (``?state=`` filter)
``GET /jobs/<id>``               one job's status, attempts and result
``POST /workers``                register a worker (capability tags)
``GET /workers``                 the live worker registry
``POST /claim``                  lease the oldest claimable job
``POST /jobs/<id>/heartbeat``    renew a lease (fenced by token)
``POST /jobs/<id>/complete``     finish a job (fenced by token)
``POST /jobs/<id>/fail``         fail an attempt (fenced by token)
``GET /result``                  one stored value (``?key=&namespace=``)
``POST /results/lookup``         the stored values among ``keys``
``POST /results``                upload stored values (worker results)
``GET /results``                 query stored metrics (``?prefix=``,
                                 ``?namespace=``, ``?limit=``)
``GET /metrics``                 journal counters, store stats, queue
                                 depths, worker registry size and
                                 HTTP request counts
``GET /metrics/history``         the reaper-sampled time-series ring
``GET /runs``                    recorded runs (``?kind=``, ``?limit=``)
``GET /runs/<id>``               one run + its rows
``GET /runs/<id>/table.csv``     the run's canonical CSV table
``POST /runs``                   record a run (fleet workers)
``GET /compare``                 diff two runs (``?a=&b=``)
``GET /dashboard``               zero-dependency HTML dashboard
``GET /healthz``                 liveness probe
===============================  ======================================

Stale fencing tokens answer **409**; other errors are JSON too:
``{"error": "..."}`` with a 4xx/5xx status.  Connections stay open
between requests (HTTP/1.1 keep-alive) until idle for 30 s or until
the server closes.  ``repro serve`` is the CLI entry point; tests and
the CI smoke/fleet jobs run :func:`make_server` on an ephemeral port
in-process.
"""

from __future__ import annotations

import hashlib
import json
import socket
import threading
import traceback
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any
from urllib.parse import parse_qs, urlparse

from repro.analytics.compare import compare_runs
from repro.analytics.dashboard import render_dashboard
from repro.analytics.metrics import MetricsRing
from repro.analytics.runs import get_run, get_run_rows, list_runs, record_run
from repro.analytics.table import run_table_csv
from repro.errors import ServiceError, StaleLeaseError
from repro.runtime.journal import (
    NullJournal,
    RunJournal,
    active_journal,
    resolve_journal,
    set_active_journal,
    use_journal,
)
from repro.service.jobs import canonical, execute_job, parse_spec
from repro.service.queue import (
    DEFAULT_LEASE,
    JobQueue,
    JobRecord,
    check_max_attempts,
)
from repro.service.store import ResultStore

#: Request body ceiling (8 MiB: result uploads carry whole sweep grids).
MAX_BODY_BYTES = 8 << 20

#: Longest lease a client may request over HTTP (a runaway value would
#: park a job un-reapable for that long after a worker death).
MAX_LEASE = 15 * 60.0

#: Most recent events a journal the service creates keeps in memory
#: (its file, when it has one, keeps every event), so a long-lived
#: service's memory does not grow with the requests it has answered.
JOURNAL_KEEP = 2048


class EvalService:
    """The long-lived service: store + queue + journal + job workers.

    ``lease`` is the lease duration for local worker threads and the
    default offered to remote claims; ``reap_interval`` is how often
    the reaper thread renews local leases and requeues expired ones
    (default: ``lease / 3``); ``worker_ttl`` is how long a registered
    remote worker may go silent before it is dropped from the registry
    (default: ``4 * lease``).
    """

    def __init__(
        self,
        db_path: str | Path,
        workers: int = 1,
        journal: RunJournal | None = None,
        poll_interval: float = 0.05,
        lease: float = DEFAULT_LEASE,
        reap_interval: float | None = None,
        worker_ttl: float | None = None,
    ):
        if workers < 0:
            raise ServiceError(f"workers must be >= 0, got {workers}")
        if lease <= 0:
            raise ServiceError(f"lease must be > 0, got {lease}")
        self.store = ResultStore(db_path)
        self.queue = JobQueue(self.store)
        # The service always owns a *recording* journal: run recording
        # derives per-row wall/kernel/cache columns from the event
        # window around each job, which a NullJournal (the resolve
        # default when nothing is active) would silently leave empty.
        resolved = resolve_journal(journal)
        if isinstance(resolved, NullJournal):
            resolved = RunJournal(keep=JOURNAL_KEEP)
        self.journal = resolved
        self._installed_active_journal = False
        self.poll_interval = poll_interval
        self.lease = lease
        self.reap_interval = (
            reap_interval if reap_interval is not None else lease / 3.0
        )
        self.worker_ttl = (
            worker_ttl if worker_ttl is not None else 4.0 * lease
        )
        self._workers = workers
        # Reaper-sampled metrics time series behind /metrics/history
        # and the dashboard sparklines.
        self.metrics_ring = MetricsRing()
        self._threads: list[threading.Thread] = []
        self._stop = threading.Event()
        # Condition + version counter: submit() bumps the version and
        # notifies everyone, idle workers re-check the version before
        # waiting, so no wakeup is ever swallowed by another worker.
        self._cond = threading.Condition()
        self._queue_version = 0
        # Jobs being executed by *this* process's threads, job id →
        # fencing token; the reaper renews their leases.
        self._active: dict[str, int] = {}
        self._active_lock = threading.Lock()
        # Answered HTTP requests, and how many of them failed (4xx/5xx).
        self.http_requests = 0
        self.http_errors = 0
        self._http_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------

    def start(self) -> "EvalService":
        """Reap expired leases and start the worker + reaper threads."""
        # Simulation internals (stack-distance kernels, evaluator
        # checkpoints) journal through the process-wide *active*
        # journal; install ours for the service's lifetime when the
        # embedding process has none, so run recording sees their
        # events.  ``repro serve`` installs the same journal anyway.
        if isinstance(active_journal(), NullJournal):
            set_active_journal(self.journal)
            self._installed_active_journal = True
        recovered = self.queue.recover()
        for job_id in recovered:
            self.journal.record(
                "lease", action="expired", id=job_id, where="startup"
            )
        if recovered:
            self.journal.record("service_recover", jobs=len(recovered))
        self._stop.clear()
        for index in range(self._workers):
            thread = threading.Thread(
                target=self._worker_loop,
                name=f"eval-worker-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        reaper = threading.Thread(
            target=self._reaper_loop, name="eval-reaper", daemon=True
        )
        reaper.start()
        self._threads.append(reaper)
        self.journal.record(
            "service_start", workers=self._workers, db=str(self.store.path)
        )
        self._sample_metrics()
        return self

    def stop(self, timeout: float = 10.0) -> None:
        """Signal the workers and join them."""
        if self._installed_active_journal:
            set_active_journal(None)
            self._installed_active_journal = False
        self._stop.set()
        with self._cond:
            self._cond.notify_all()
        for thread in self._threads:
            thread.join(timeout=timeout)
        self._threads.clear()
        self.journal.record("service_stop")

    def __enter__(self) -> "EvalService":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Job intake and execution.
    # ------------------------------------------------------------------

    def submit(self, spec: dict[str, Any], max_attempts: int = 3) -> str:
        """Validate and submit a job (see :meth:`submit_job`); returns
        its id."""
        return self.submit_job(spec, max_attempts=max_attempts).id

    def submit_job(
        self, spec: dict[str, Any], max_attempts: int = 3
    ) -> JobRecord:
        """Validate a job and return its record as of submission.

        A sweep whose every config result is already stored is answered
        here: its row is written ``done`` with the result document that
        execution would return, and no worker, lease or analytics run
        is involved.  The row carries the spec's answer key, so a
        resubmission of the same spec (keys in any order) gets that row
        back from one indexed read, writing nothing, until a store
        deletion clears the key.  Any other job is enqueued and wakes
        every idle worker.
        """
        check_max_attempts(max_attempts)
        key = _answer_key(spec)
        job = self.queue.answered(key)
        if job is None:
            request = parse_spec(spec)
            # One transaction from lookup to insert: a deletion cannot
            # land between them and leave a key on a stale answer.
            with self.store.transaction():
                result = request.stored_document(self.store)
                job = self.queue.insert(
                    spec,
                    max_attempts=max_attempts,
                    result=result,
                    answer_key=None if result is None else key,
                )
        if job.state == "done":
            # No service_dedup event: a run recorded by a concurrently
            # executing job would count these hits as its own.
            self.journal.record(
                "service_job",
                id=job.id,
                state="done",
                kind="sweep",
                where="submit",
            )
            return job
        self.journal.record(
            "service_job", id=job.id, state="queued", kind=spec.get("kind")
        )
        self._notify_queued()
        return job

    def _notify_queued(self) -> None:
        with self._cond:
            self._queue_version += 1
            self._cond.notify_all()

    def _worker_loop(self) -> None:
        owner = f"thread={threading.current_thread().name}"
        while not self._stop.is_set():
            with self._cond:
                version = self._queue_version
            job = self.queue.claim(owner, lease=self.lease)
            if job is None:
                with self._cond:
                    # Only wait if nothing was submitted since the
                    # failed claim: a missed notify cannot strand a
                    # queued job with an idle worker.
                    if (
                        self._queue_version == version
                        and not self._stop.is_set()
                    ):
                        self._cond.wait(timeout=self.poll_interval)
                continue
            token = job.token
            with self._active_lock:
                self._active[job.id] = token
            self.journal.record(
                "lease",
                action="grant",
                id=job.id,
                owner=owner,
                token=token,
                expires=job.lease_expires,
            )
            self.journal.record(
                "service_job",
                id=job.id,
                state="running",
                attempt=job.attempts,
                kind=job.spec.get("kind"),
            )
            try:
                result = execute_job(
                    job.spec, self.store, self.journal, run_id=job.id
                )
            except Exception as exc:  # noqa: BLE001 - job code may raise anything
                self._finish(job, token, error=repr(exc))
            else:
                self._finish(job, token, result=result)

    def _finish(
        self,
        job,
        token: int,
        result: Any = None,
        error: str | None = None,
    ) -> None:
        """Report one local execution's outcome through the fence."""
        try:
            if error is None:
                self.queue.complete(job.id, result, token=token)
                self.journal.record(
                    "service_job",
                    id=job.id,
                    state="done",
                    attempt=job.attempts,
                )
            else:
                state = self.queue.fail(job.id, error, token=token)
                self.journal.record(
                    "service_job",
                    id=job.id,
                    state=state,
                    attempt=job.attempts,
                    error=error,
                )
                if state == "queued":
                    self._notify_queued()
        except StaleLeaseError as exc:
            # The lease expired mid-run and the job moved on without
            # us; the other execution's outcome stands.
            self.journal.record(
                "fence_rejected", id=job.id, token=token, detail=str(exc)
            )
        finally:
            with self._active_lock:
                self._active.pop(job.id, None)

    def _reaper_loop(self) -> None:
        """Renew local leases; requeue expired ones; drop dead workers."""
        while not self._stop.wait(self.reap_interval):
            with self._active_lock:
                active = dict(self._active)
            for job_id, token in active.items():
                try:
                    expires = self.queue.heartbeat(
                        job_id, token, lease=self.lease
                    )
                    self.journal.record(
                        "lease",
                        action="renew",
                        id=job_id,
                        token=token,
                        expires=expires,
                    )
                except ServiceError:
                    # Lost or finished; the executing thread's fenced
                    # complete()/fail() settles it.
                    pass
            try:
                reaped = self.queue.recover()
            except ServiceError:
                continue
            for job_id in reaped:
                self.journal.record(
                    "lease", action="expired", id=job_id, where="reaper"
                )
            if reaped:
                self._notify_queued()
            dead = self.queue.reap_workers(self.worker_ttl)
            for worker_id in dead:
                self.journal.record("worker", action="reaped", id=worker_id)
            self._sample_metrics()

    def _sample_metrics(self) -> None:
        """Drop one compact sample into the metrics ring.

        Deliberately cheap (queue counts + store stats, no journal
        summary) and failure-proof: a locked database must never kill
        the reaper thread.
        """
        try:
            counts = self.queue.counts()
            stats = self.store.stats()
            self.metrics_ring.sample(
                {
                    **counts,
                    "workers": len(self.queue.workers()),
                    "entries": stats.get("entries", 0),
                    "db_bytes": stats.get("db_bytes", 0),
                    "hit_rate": stats.get("hit_rate", 0.0),
                }
            )
        except Exception:  # noqa: BLE001 - sampling is best-effort
            pass

    def drain(self, timeout: float = 60.0) -> bool:
        """Block until no jobs are queued or running (True on success)."""
        import time

        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            counts = self.queue.counts()
            if counts["queued"] == 0 and counts["running"] == 0:
                return True
            # Bounded below poll_interval: drain is a progress check,
            # not a claim loop, and must stay responsive even when the
            # workers' idle poll is configured long.
            time.sleep(min(self.poll_interval, 0.05))
        return False

    # ------------------------------------------------------------------
    # Introspection (the /metrics document).
    # ------------------------------------------------------------------

    def count_request(self, failed: bool) -> None:
        """Count one answered HTTP request (``/metrics`` ``"http"``)."""
        with self._http_lock:
            self.http_requests += 1
            self.http_errors += failed

    def metrics(self) -> dict[str, Any]:
        """Journal counters, store stats, queue depths and HTTP request
        counts, one document."""
        with self._http_lock:
            http = {"requests": self.http_requests, "errors": self.http_errors}
        return {
            "jobs": self.queue.counts(),
            "workers": len(self.queue.workers()),
            "store": self.store.stats(),
            "journal": self.journal.summary(),
            "http": http,
        }


class _Handler(BaseHTTPRequestHandler):
    """Route HTTP requests onto the owning server's EvalService."""

    server: "_Server"
    protocol_version = "HTTP/1.1"
    # Small JSON answers on a kept-alive connection: without this,
    # Nagle's algorithm holds each one until the client's delayed ACK.
    disable_nagle_algorithm = True
    #: Idle seconds before a kept-alive connection is closed and its
    #: thread freed (also bounds a stalled read or write).
    timeout = 30.0

    # -- plumbing -------------------------------------------------------

    def log_request(self, code: Any = "-", size: Any = "-") -> None:
        """Count every answered request; journal only failed ones.

        An in-memory journal event per request would grow the journal
        with every store-served resubmission; the job's own
        ``service_job`` events already record what it did.
        """
        failed = isinstance(code, int) and code >= 400
        self.server.service.count_request(failed)
        if failed:
            super().log_request(code, size)

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        """Route access logs into the journal instead of stderr."""
        self.server.service.journal.record(
            "http", client=self.client_address[0], line=format % args
        )

    def _send_json(self, payload: Any, status: int = 200) -> None:
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_error(self, message: str, status: int) -> None:
        self._send_json({"error": message}, status=status)

    def _send_body(
        self, body: str, content_type: str, status: int = 200
    ) -> None:
        raw = body.encode()
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(raw)))
        self.end_headers()
        self.wfile.write(raw)

    def _read_json(self) -> Any:
        length = int(self.headers.get("Content-Length") or 0)
        if length > MAX_BODY_BYTES:
            raise ServiceError(
                f"request body too large ({length} > {MAX_BODY_BYTES} bytes)"
            )
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise ServiceError("request body is empty; expected JSON")
        try:
            return json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ServiceError(f"request body is not valid JSON: {exc}") from exc

    # -- routes ---------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        try:
            url = urlparse(self.path)
            query = {k: v[-1] for k, v in parse_qs(url.query).items()}
            service = self.server.service
            parts = [p for p in url.path.split("/") if p]
            if url.path == "/healthz":
                self._send_json({"ok": True})
            elif url.path == "/metrics":
                self._send_json(service.metrics())
            elif parts == ["jobs"]:
                records = service.queue.list(
                    state=query.get("state"),
                    limit=int(query.get("limit", 100)),
                )
                self._send_json({"jobs": [r.to_dict() for r in records]})
            elif len(parts) == 2 and parts[0] == "jobs":
                self._send_json(service.queue.get(parts[1]).to_dict())
            elif parts == ["workers"]:
                self._send_json({"workers": service.queue.workers()})
            elif parts == ["result"]:
                key = query.get("key")
                if not key:
                    raise ServiceError("GET /result needs a ?key=")
                items = service.store.get_many(
                    [key], namespace=query.get("namespace", "metrics")
                )
                self._send_json(
                    {"found": key in items, "value": items.get(key)}
                )
            elif parts == ["results"]:
                limit = query.get("limit")
                items = service.store.items(
                    prefix=query.get("prefix", ""),
                    namespace=query.get("namespace", "metrics"),
                    limit=int(limit) if limit is not None else None,
                )
                self._send_json({"count": len(items), "items": items})
            elif parts == ["metrics", "history"]:
                self._send_json(
                    {
                        "capacity": service.metrics_ring.capacity,
                        "total": service.metrics_ring.total,
                        "samples": service.metrics_ring.samples(),
                    }
                )
            elif parts == ["runs"]:
                runs = list_runs(
                    service.store,
                    kind=query.get("kind"),
                    state=query.get("state"),
                    limit=int(query.get("limit", 50)),
                )
                self._send_json({"count": len(runs), "runs": runs})
            elif len(parts) == 2 and parts[0] == "runs":
                run = get_run(service.store, parts[1])
                rows = get_run_rows(service.store, parts[1])
                self._send_json({"run": run, "rows": rows})
            elif (
                len(parts) == 3
                and parts[0] == "runs"
                and parts[2] == "table.csv"
            ):
                csv_text = run_table_csv(service.store, parts[1])
                self._send_body(csv_text, "text/csv; charset=utf-8")
            elif parts == ["compare"]:
                a, b = query.get("a"), query.get("b")
                if not a or not b:
                    raise ServiceError("GET /compare needs ?a= and ?b=")
                self._send_json(compare_runs(service.store, a, b))
            elif parts == ["dashboard"]:
                page = render_dashboard(
                    list_runs(service.store, limit=50),
                    service.metrics_ring.samples(),
                    service.store.stats(),
                    service.queue.counts(),
                    workers=len(service.queue.workers()),
                    db_path=str(service.store.path),
                    interval=max(service.lease / 3.0, 0.05),
                )
                self._send_body(page, "text/html; charset=utf-8")
            else:
                self._send_error(f"no such resource: {url.path}", 404)
        except ServiceError as exc:
            message = str(exc)
            missing = "unknown job id" in message or "unknown run id" in message
            self._send_error(message, 404 if missing else 400)
        except Exception as exc:  # noqa: BLE001 - keep the server alive
            traceback.print_exc()
            self._send_error(f"internal error: {exc!r}", 500)

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        try:
            url = urlparse(self.path)
            parts = [p for p in url.path.split("/") if p]
            if parts == ["jobs"]:
                self._post_job()
            elif parts == ["workers"]:
                self._post_worker()
            elif parts == ["claim"]:
                self._post_claim()
            elif parts == ["results"]:
                self._post_results()
            elif parts == ["results", "lookup"]:
                self._post_results_lookup()
            elif parts == ["runs"]:
                self._post_run()
            elif len(parts) == 3 and parts[0] == "jobs" and parts[2] in (
                "heartbeat",
                "complete",
                "fail",
            ):
                self._post_job_transition(parts[1], parts[2])
            else:
                self._send_error(f"no such resource: {url.path}", 404)
        except StaleLeaseError as exc:
            parts = [p for p in urlparse(self.path).path.split("/") if p]
            self.server.service.journal.record(
                "fence_rejected",
                id=parts[1] if len(parts) == 3 else None,
                where="http",
                detail=str(exc),
            )
            self._send_error(str(exc), 409)
        except ServiceError as exc:
            message = str(exc)
            missing = "unknown job id" in message or "unknown run id" in message
            self._send_error(message, 404 if missing else 400)
        except Exception as exc:  # noqa: BLE001 - keep the server alive
            traceback.print_exc()
            self._send_error(f"internal error: {exc!r}", 500)

    # -- POST bodies ----------------------------------------------------

    def _post_job(self) -> None:
        payload = self._read_json()
        if (
            isinstance(payload, dict)
            and "spec" in payload
            and "kind" not in payload
        ):
            spec = payload["spec"]
            max_attempts = int(payload.get("max_attempts", 3))
        else:
            spec = payload
            max_attempts = 3
        job = self.server.service.submit_job(spec, max_attempts=max_attempts)
        self._send_json(
            {"id": job.id, "state": job.state, "job": job.to_dict()},
            status=201,
        )

    def _post_run(self) -> None:
        payload = self._read_json()
        if not isinstance(payload, dict) or "run" not in payload:
            raise ServiceError(
                "POST /runs expects {'run': {...}, 'rows': [...]}"
            )
        recorded = record_run(
            self.server.service.store,
            payload["run"],
            payload.get("rows") or [],
        )
        self._send_json(recorded, status=201)

    def _post_worker(self) -> None:
        payload = self._read_json()
        if not isinstance(payload, dict):
            raise ServiceError("worker registration must be a JSON object")
        service = self.server.service
        worker_id = service.queue.register_worker(
            worker_id=payload.get("id"),
            tags=payload.get("tags") or (),
            meta=payload.get("meta"),
        )
        service.journal.record(
            "worker",
            action="register",
            id=worker_id,
            tags=payload.get("tags") or [],
        )
        self._send_json(
            {"id": worker_id, "lease": service.lease}, status=201
        )

    def _post_claim(self) -> None:
        payload = self._read_json()
        if not isinstance(payload, dict):
            raise ServiceError("claim request must be a JSON object")
        service = self.server.service
        worker = payload.get("worker")
        if not worker:
            raise ServiceError("claim request needs a 'worker' id")
        lease = _clamped_lease(payload.get("lease"), service.lease)
        tags = payload.get("tags")
        service.queue.worker_seen(worker)
        job = service.queue.claim(
            owner=worker,
            lease=lease,
            tags=tags if tags is not None else None,
        )
        if job is None:
            self._send_json({"job": None})
            return
        service.journal.record(
            "lease",
            action="grant",
            id=job.id,
            owner=worker,
            token=job.token,
            expires=job.lease_expires,
        )
        service.journal.record(
            "service_job",
            id=job.id,
            state="running",
            attempt=job.attempts,
            kind=job.spec.get("kind"),
            owner=worker,
        )
        self._send_json(
            {"job": job.to_dict(), "token": job.token, "lease": lease}
        )

    def _post_results(self) -> None:
        payload = self._read_json()
        if not isinstance(payload, dict) or not isinstance(
            payload.get("items"), dict
        ):
            raise ServiceError(
                "result upload must be {'namespace': ..., 'items': {...}}"
            )
        service = self.server.service
        namespace = str(payload.get("namespace", "metrics"))
        items = payload["items"]
        service.store.put_many(items, namespace=namespace)
        self._send_json({"stored": len(items), "namespace": namespace})

    def _post_results_lookup(self) -> None:
        payload = self._read_json()
        keys = payload.get("keys") if isinstance(payload, dict) else None
        if not isinstance(keys, list) or not all(
            isinstance(key, str) for key in keys
        ):
            raise ServiceError(
                "result lookup must be {'namespace': ..., 'keys': [...]}"
            )
        items = self.server.service.store.get_many(
            keys, namespace=str(payload.get("namespace", "metrics"))
        )
        self._send_json({"items": items})

    def _post_job_transition(self, job_id: str, action: str) -> None:
        payload = self._read_json()
        if not isinstance(payload, dict):
            raise ServiceError(f"{action} request must be a JSON object")
        service = self.server.service
        token = payload.get("token")
        if token is None:
            raise ServiceError(f"{action} request needs a fencing 'token'")
        token = int(token)
        worker = payload.get("worker")
        if worker:
            service.queue.worker_seen(worker)
        if action == "heartbeat":
            lease = _clamped_lease(payload.get("lease"), service.lease)
            expires = service.queue.heartbeat(job_id, token, lease=lease)
            service.journal.record(
                "lease",
                action="renew",
                id=job_id,
                owner=worker,
                token=token,
                expires=expires,
            )
            self._send_json({"ok": True, "lease_expires": expires})
        elif action == "complete":
            service.queue.complete(job_id, payload.get("result"), token=token)
            service.journal.record(
                "service_job",
                id=job_id,
                state="done",
                attempt=token,
                owner=worker,
            )
            self._send_json({"id": job_id, "state": "done"})
        else:  # fail
            error = str(payload.get("error") or "worker reported failure")
            state = service.queue.fail(job_id, error, token=token)
            service.journal.record(
                "service_job",
                id=job_id,
                state=state,
                attempt=token,
                error=error,
                owner=worker,
            )
            if state == "queued":
                service._notify_queued()
            self._send_json({"id": job_id, "state": state})


def _answer_key(spec: Any) -> str:
    """The key a spec's answered job is found by: the sha256 of its
    canonical JSON, so key order does not matter."""
    return hashlib.sha256(canonical(spec).encode()).hexdigest()


def _clamped_lease(value: Any, default: float) -> float:
    """A client-requested lease bounded to (0, MAX_LEASE]."""
    if value is None:
        return default
    lease = float(value)
    if lease <= 0:
        raise ServiceError(f"lease must be > 0, got {lease}")
    return min(lease, MAX_LEASE)


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    service: EvalService

    def __init__(self, *args: Any, **kwargs: Any):
        super().__init__(*args, **kwargs)
        # Accepted connections still open: a kept-alive one would
        # otherwise go on serving this (closed) server's service.
        self._open: set[socket.socket] = set()
        self._open_lock = threading.Lock()

    def process_request(self, request: Any, client_address: Any) -> None:
        with self._open_lock:
            self._open.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request: Any) -> None:
        with self._open_lock:
            self._open.discard(request)
        super().shutdown_request(request)

    def server_close(self) -> None:
        """Stop listening and close every open connection."""
        super().server_close()
        with self._open_lock:
            open_now = list(self._open)
        for request in open_now:
            try:
                request.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass


def make_server(
    service: EvalService, host: str = "127.0.0.1", port: int = 0
) -> _Server:
    """An HTTP server bound to ``host:port`` (0 = ephemeral) serving
    ``service``; call ``serve_forever()`` (or run it in a thread)."""
    server = _Server((host, port), _Handler)
    server.service = service
    return server


def serve(
    db_path: str | Path,
    host: str = "127.0.0.1",
    port: int = 8321,
    workers: int = 1,
    journal_path: str | Path | None = None,
    lease: float = DEFAULT_LEASE,
) -> None:
    """Blocking entry point behind ``repro serve``."""
    journal = RunJournal(journal_path, keep=JOURNAL_KEEP)
    with use_journal(journal):
        service = EvalService(
            db_path, workers=workers, journal=journal, lease=lease
        )
        server = make_server(service, host, port)
        with service:
            address = f"http://{server.server_address[0]}:{server.server_address[1]}"
            print(
                f"[repro serve] listening on {address} (db: {db_path},"
                f" local workers: {workers})",
                flush=True,
            )
            try:
                server.serve_forever()
            except KeyboardInterrupt:
                print("[repro serve] shutting down")
            finally:
                server.server_close()
