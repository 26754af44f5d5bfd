"""Thin stdlib HTTP client for the evaluation service.

Speaks the JSON API of :mod:`repro.service.server` — both the
submit/wait surface (``repro submit``, tests, CI) and the worker-fleet
protocol (register / claim / heartbeat / complete / fail / result
upload) used by :mod:`repro.service.worker`.  Only ``http.client`` —
no new dependencies.

Each thread sends its requests over one persistent (keep-alive)
connection.  When a *reused* connection fails before any byte of the
response arrives — the server closed it while it sat idle, or was
restarted — the request is sent once more on a fresh connection; any
other transport failure is a :class:`~repro.errors.ServiceError`.

A sweep the store already answers comes back ``done`` from
``POST /jobs``: :meth:`ServiceClient.submit` keeps that record and
:meth:`ServiceClient.wait` returns it without another request.

A **409** from a fenced transition surfaces as
:class:`~repro.errors.StaleLeaseError` so workers can distinguish
"my lease was lost, abandon the job" from transport failures.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time
from typing import Any, Iterable, Mapping
from urllib.parse import urlencode, urlsplit

from repro.errors import ServiceError, StaleLeaseError
from repro.service.queue import JobRecord

#: Terminal records kept from submit answers until waited on.
MAX_ANSWERED = 1024


class _Connection:
    """One thread's keep-alive connection, closed as soon as it is
    dropped: by :meth:`ServiceClient.close`, by its thread ending or by
    the client going away."""

    def __init__(self, http: http.client.HTTPConnection, prefix: str):
        self.http = http
        self.prefix = prefix
        self.reused = False

    def __del__(self) -> None:
        self.http.close()


class ServiceClient:
    """Client for one evaluation-service base URL."""

    def __init__(self, base_url: str, timeout: float = 30.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self._local = threading.local()
        self._answered: dict[str, JobRecord] = {}
        self._answered_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Transport.
    # ------------------------------------------------------------------

    def _connection(self) -> _Connection:
        """This thread's connection (created lazily)."""
        conn = getattr(self._local, "conn", None)
        if conn is None:
            url = urlsplit(self.base_url)
            if url.scheme not in ("http", "https") or not url.hostname:
                raise ServiceError(
                    f"bad evaluation service URL {self.base_url!r}"
                )
            factory = (
                http.client.HTTPSConnection
                if url.scheme == "https"
                else http.client.HTTPConnection
            )
            conn = _Connection(
                factory(url.hostname, url.port, timeout=self.timeout),
                url.path,
            )
            self._local.conn = conn
        return conn

    def close(self) -> None:
        """Close this thread's connection (the next request reopens)."""
        conn = getattr(self._local, "conn", None)
        self._local.conn = None
        if conn is not None:
            conn.http.close()

    def _exchange(
        self, method: str, path: str, payload: Any | None = None
    ) -> tuple[int, bytes]:
        """One request/response; returns ``(status, body)``."""
        body = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            body = json.dumps(payload).encode()
            headers["Content-Type"] = "application/json"
        while True:
            conn = self._connection()
            try:
                conn.http.request(method, conn.prefix + path, body, headers)
                response = conn.http.getresponse()
            except (OSError, http.client.HTTPException) as exc:
                self.close()
                # A reused connection the server closed while idle fails
                # before any answer arrives (ConnectionError covers
                # http.client.RemoteDisconnected): send once more on a
                # fresh connection.
                if conn.reused and isinstance(exc, ConnectionError):
                    continue
                raise self._unreachable(exc) from exc
            try:
                raw = response.read()
            except (OSError, http.client.HTTPException) as exc:
                self.close()
                raise self._unreachable(exc) from exc
            if response.will_close:
                self.close()
            else:
                conn.reused = True
            return response.status, raw

    def _unreachable(self, exc: BaseException) -> ServiceError:
        return ServiceError(
            f"cannot reach evaluation service at {self.base_url}: {exc}"
        )

    def _checked(
        self, method: str, path: str, payload: Any | None = None
    ) -> bytes:
        """The response body; an HTTP error status raises."""
        status, raw = self._exchange(method, path, payload)
        if status < 400:
            return raw
        try:
            detail = json.loads(raw).get("error", "")
        except Exception:  # noqa: BLE001 - body may not be JSON
            detail = ""
        message = f"{method} {path} failed: HTTP {status}" + (
            f" ({detail})" if detail else ""
        )
        if status == 409:
            raise StaleLeaseError(message)
        raise ServiceError(message)

    def _request(
        self, method: str, path: str, payload: Any | None = None
    ) -> Any:
        return json.loads(self._checked(method, path, payload))

    def _request_text(self, path: str) -> str:
        """GET a non-JSON resource (CSV table, dashboard HTML)."""
        return self._checked("GET", path).decode()

    # ------------------------------------------------------------------
    # API surface.
    # ------------------------------------------------------------------

    def health(self) -> bool:
        """True when the server answers its liveness probe."""
        return bool(self._request("GET", "/healthz").get("ok"))

    def submit(self, spec: dict[str, Any], max_attempts: int = 3) -> str:
        """Submit a job spec; returns the job id."""
        return self.submit_job(spec, max_attempts=max_attempts).id

    def submit_job(
        self, spec: dict[str, Any], max_attempts: int = 3
    ) -> JobRecord:
        """Submit a job spec; returns its record as of submission.

        The record is ``done`` already when the store answered the
        sweep; it is kept for :meth:`wait`.
        """
        doc = self._request(
            "POST", "/jobs", {"spec": spec, "max_attempts": max_attempts}
        )
        record = _record(doc["job"])
        if record.terminal:
            with self._answered_lock:
                if len(self._answered) >= MAX_ANSWERED:
                    self._answered.pop(next(iter(self._answered)))
                self._answered[record.id] = record
        return record

    def job(self, job_id: str) -> JobRecord:
        """One job's current state."""
        return _record(self._request("GET", f"/jobs/{job_id}"))

    def jobs(
        self, state: str | None = None, limit: int = 100
    ) -> list[JobRecord]:
        """Recent jobs, newest first."""
        query = {"limit": str(limit)}
        if state is not None:
            query["state"] = state
        doc = self._request("GET", f"/jobs?{urlencode(query)}")
        return [_record(item) for item in doc["jobs"]]

    def wait(
        self,
        job_id: str,
        timeout: float = 120.0,
        poll: float = 0.1,
        poll_max: float = 2.0,
    ) -> JobRecord:
        """Poll until the job is terminal; returns the ``done`` record.

        The poll interval starts at ``poll`` and doubles (with jitter)
        up to ``poll_max``, so many waiting clients do not hammer the
        server in lockstep at a fixed rate.  Raises
        :class:`ServiceError` when the job fails or the timeout expires
        (the error message carries the job's stored error).  A record
        that :meth:`submit_job` received already terminal is used
        without a request.
        """
        deadline = time.monotonic() + timeout
        interval = max(poll, 1e-3)
        with self._answered_lock:
            record = self._answered.pop(job_id, None)
        while True:
            if record is None:
                record = self.job(job_id)
            if record.state == "done":
                return record
            if record.state == "failed":
                raise ServiceError(
                    f"job {job_id} failed after {record.attempts} "
                    f"attempt(s): {record.error}"
                )
            now = time.monotonic()
            if now >= deadline:
                raise ServiceError(
                    f"job {job_id} still {record.state} after {timeout}s"
                )
            # Jittered bounded exponential backoff, trimmed to the
            # remaining budget so the final poll lands near the deadline.
            sleep = min(
                interval * random.uniform(0.5, 1.0), deadline - now
            )
            time.sleep(max(sleep, 0.0))
            interval = min(interval * 2.0, poll_max)
            record = None

    def results(
        self,
        prefix: str = "",
        namespace: str = "metrics",
        limit: int | None = None,
    ) -> dict[str, Any]:
        """Stored metrics whose key starts with ``prefix``."""
        query = {"prefix": prefix, "namespace": namespace}
        if limit is not None:
            query["limit"] = str(limit)
        return self._request("GET", f"/results?{urlencode(query)}")["items"]

    def runs(
        self,
        kind: str | None = None,
        state: str | None = None,
        limit: int = 50,
    ) -> list[dict[str, Any]]:
        """Recorded runs, newest first."""
        query: dict[str, Any] = {"limit": limit}
        if kind:
            query["kind"] = kind
        if state:
            query["state"] = state
        return self._request("GET", f"/runs?{urlencode(query)}")["runs"]

    def run(self, run_id: str) -> dict[str, Any]:
        """One recorded run with its rows: {'run': ..., 'rows': [...]}."""
        return self._request("GET", f"/runs/{run_id}")

    def run_table_csv(self, run_id: str) -> str:
        """The run's canonical CSV table as text."""
        return self._request_text(f"/runs/{run_id}/table.csv")

    def compare(self, a: str, b: str) -> dict[str, Any]:
        """Diff two runs' rows and Pareto frontiers."""
        return self._request(
            "GET", f"/compare?{urlencode({'a': a, 'b': b})}"
        )

    def record_run(
        self,
        run: Mapping[str, Any],
        rows: Iterable[Mapping[str, Any]],
    ) -> None:
        """Upload a recorded run (fleet workers' RemoteStore sink)."""
        self._request(
            "POST", "/runs", {"run": dict(run), "rows": list(rows)}
        )

    def metrics_history(self) -> dict[str, Any]:
        """The reaper-sampled metrics ring (GET /metrics/history)."""
        return self._request("GET", "/metrics/history")

    def dashboard(self) -> str:
        """The dashboard page HTML (GET /dashboard)."""
        return self._request_text("/dashboard")

    def metrics(self) -> dict[str, Any]:
        """The server's /metrics document (journal + store + queue)."""
        return self._request("GET", "/metrics")

    # ------------------------------------------------------------------
    # Worker-fleet protocol.
    # ------------------------------------------------------------------

    def register_worker(
        self,
        worker_id: str | None = None,
        tags: Iterable[str] = (),
        meta: dict[str, Any] | None = None,
    ) -> dict[str, Any]:
        """Register this process as a worker; returns ``{"id","lease"}``."""
        return self._request(
            "POST",
            "/workers",
            {"id": worker_id, "tags": list(tags), "meta": meta or {}},
        )

    def workers(self) -> list[dict[str, Any]]:
        """The server's live worker registry."""
        return self._request("GET", "/workers")["workers"]

    def claim(
        self,
        worker: str,
        tags: Iterable[str] | None = None,
        lease: float | None = None,
    ) -> tuple[JobRecord, int] | None:
        """Lease the oldest claimable job: ``(record, fencing token)``,
        or None when the queue has nothing for this worker."""
        payload: dict[str, Any] = {"worker": worker}
        if tags is not None:
            payload["tags"] = list(tags)
        if lease is not None:
            payload["lease"] = lease
        doc = self._request("POST", "/claim", payload)
        if doc.get("job") is None:
            return None
        return _record(doc["job"]), int(doc["token"])

    def heartbeat(
        self,
        job_id: str,
        token: int,
        worker: str | None = None,
        lease: float | None = None,
    ) -> float:
        """Renew a lease; returns the new deadline.  Raises
        :class:`StaleLeaseError` when the lease was lost."""
        payload: dict[str, Any] = {"token": token, "worker": worker}
        if lease is not None:
            payload["lease"] = lease
        doc = self._request("POST", f"/jobs/{job_id}/heartbeat", payload)
        return float(doc["lease_expires"])

    def complete(
        self,
        job_id: str,
        result: Any,
        token: int,
        worker: str | None = None,
    ) -> None:
        """Finish a leased job (fenced).  Raises
        :class:`StaleLeaseError` when another execution won."""
        self._request(
            "POST",
            f"/jobs/{job_id}/complete",
            {"token": token, "result": result, "worker": worker},
        )

    def fail(
        self,
        job_id: str,
        error: str,
        token: int,
        worker: str | None = None,
    ) -> str:
        """Report a failed attempt (fenced); returns the job's state."""
        doc = self._request(
            "POST",
            f"/jobs/{job_id}/fail",
            {"token": token, "error": error, "worker": worker},
        )
        return doc["state"]

    def result(
        self, key: str, namespace: str = "metrics"
    ) -> dict[str, Any]:
        """One stored value: ``{"found": bool, "value": ...}``."""
        query = urlencode({"key": key, "namespace": namespace})
        return self._request("GET", f"/result?{query}")

    def lookup_results(
        self, keys: Iterable[str], namespace: str = "metrics"
    ) -> dict[str, Any]:
        """The stored values among ``keys`` (absent ones left out), in
        one request."""
        doc = self._request(
            "POST",
            "/results/lookup",
            {"namespace": namespace, "keys": list(keys)},
        )
        return doc["items"]

    def put_results(
        self, items: Mapping[str, Any], namespace: str = "metrics"
    ) -> int:
        """Upload values into the shared store; returns count stored."""
        doc = self._request(
            "POST",
            "/results",
            {"namespace": namespace, "items": dict(items)},
        )
        return int(doc["stored"])


def _record(doc: dict[str, Any]) -> JobRecord:
    return JobRecord(
        id=doc["id"],
        spec=doc.get("spec") or {},
        state=doc["state"],
        attempts=doc.get("attempts", 0),
        max_attempts=doc.get("max_attempts", 0),
        result=doc.get("result"),
        error=doc.get("error"),
        owner=doc.get("owner"),
        submitted=doc.get("submitted") or 0.0,
        started=doc.get("started"),
        finished=doc.get("finished"),
    )
