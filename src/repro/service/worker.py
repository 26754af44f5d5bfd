"""Standalone pull-loop worker for the evaluation service fleet.

``repro work --server URL`` runs one :class:`FleetWorker`: an OS
process (on any host that can reach the server) that

1. registers itself with capability tags (``POST /workers``),
2. leases jobs over HTTP (``POST /claim``) with jittered exponential
   backoff while the queue is empty,
3. executes each job through the existing fault-tolerant runtime
   (:func:`repro.service.jobs.execute_job` — per-pass timeouts,
   retries, pool fallback all apply), reading and writing the shared
   content-addressed store *through the server* via
   :class:`RemoteStore`, so fleet-wide de-duplication and sweep
   checkpointing behave exactly as for in-process workers,
4. renews its lease from a heartbeat thread at a third of the lease
   period, and
5. reports the outcome through the fenced ``complete``/``fail``
   endpoints — if the lease was lost mid-run (the worker stalled, the
   job was re-leased and finished elsewhere) the stale fencing token
   is rejected with 409 and exactly one execution's results survive.

The worker is crash-oblivious by design: SIGKILL it at any point and
the server's reaper requeues its job at lease expiry; whatever group
checkpoints it had already uploaded spare the successor that work.
"""

from __future__ import annotations

import os
import random
import socket
import threading
from typing import Any, Iterable, Mapping

from repro.errors import ServiceError, StaleLeaseError
from repro.runtime.journal import RunJournal, resolve_journal, use_journal
from repro.service.client import ServiceClient
from repro.service.jobs import execute_job
from repro.service.queue import JobRecord

#: Idle backoff bounds for an empty queue, seconds.
IDLE_BACKOFF_MIN = 0.05
IDLE_BACKOFF_MAX = 2.0


class RemoteStore:
    """:class:`~repro.service.store.ResultStore`-shaped adapter that
    reads and writes through the service HTTP API.

    Implements the surface job execution touches — ``get`` /
    ``get_many`` / ``put`` / ``put_many`` / ``contains`` / ``count`` /
    ``stats`` — so :func:`execute_job` and its sweep and priming
    checkpoints run unchanged on a worker with no filesystem access to
    the sqlite database.  Hit and miss counters describe this worker's
    lookup traffic (lock-guarded, like the store's).
    """

    def __init__(self, client: ServiceClient, namespace: str = "metrics"):
        self.client = client
        self.namespace = namespace
        self.path = client.base_url
        self.hits = 0
        self.misses = 0
        self._count_lock = threading.Lock()

    def _ns(self, namespace: str | None) -> str:
        return namespace if namespace is not None else self.namespace

    def _count(self, hits: int = 0, misses: int = 0) -> None:
        with self._count_lock:
            self.hits += hits
            self.misses += misses

    def get(self, key: str, namespace: str | None = None) -> Any:
        doc = self.client.result(key, namespace=self._ns(namespace))
        if not doc.get("found"):
            self._count(misses=1)
            return None
        self._count(hits=1)
        return doc.get("value")

    def get_many(
        self, keys: Iterable[str], namespace: str | None = None
    ) -> dict[str, Any]:
        """The stored values among ``keys``, in one request."""
        keys = list(keys)
        found = self.client.lookup_results(keys, namespace=self._ns(namespace))
        hits = sum(key in found for key in keys)
        self._count(hits=hits, misses=len(keys) - hits)
        return found

    def contains(self, key: str, namespace: str | None = None) -> bool:
        return bool(
            self.client.result(key, namespace=self._ns(namespace)).get(
                "found"
            )
        )

    def __contains__(self, key: str) -> bool:
        return self.contains(key)

    def put(self, key: str, value: Any, namespace: str | None = None) -> None:
        self.put_many({key: value}, namespace=namespace)

    def put_many(
        self, items: Mapping[str, Any], namespace: str | None = None
    ) -> None:
        if not items:
            return
        self.client.put_results(items, namespace=self._ns(namespace))

    def items(
        self,
        prefix: str = "",
        namespace: str | None = None,
        limit: int | None = None,
    ) -> dict[str, Any]:
        return self.client.results(
            prefix=prefix, namespace=self._ns(namespace), limit=limit
        )

    def count(self, namespace: str | None = None) -> int:
        return len(self.items(namespace=namespace))

    def __len__(self) -> int:
        return self.count()

    @property
    def hit_rate(self) -> float:
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def stats(self) -> dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "backend": "remote",
            "server": self.client.base_url,
        }

    def record_run(
        self, run: Mapping[str, Any], rows: Any
    ) -> None:
        """Ship a recorded run to the server's durable run tables.

        Makes fleet-executed jobs show up in ``GET /runs`` and the
        dashboard exactly like locally executed ones.
        """
        self.client.record_run(run, list(rows))


def default_worker_id() -> str:
    """A stable-ish identity for this worker process."""
    return f"{socket.gethostname()}:{os.getpid()}"


class FleetWorker:
    """One pull-loop worker process against one service base URL."""

    def __init__(
        self,
        server_url: str,
        tags: Iterable[str] = (),
        lease: float | None = None,
        worker_id: str | None = None,
        max_jobs: int | None = None,
        idle_backoff_max: float = IDLE_BACKOFF_MAX,
        journal: RunJournal | None = None,
        rng: random.Random | None = None,
    ):
        self.client = ServiceClient(server_url)
        self.tags = [str(t) for t in tags]
        self.lease = lease
        self.worker_id = worker_id or default_worker_id()
        self.max_jobs = max_jobs
        self.idle_backoff_max = idle_backoff_max
        self.journal = resolve_journal(journal)
        self.jobs_done = 0
        self.jobs_failed = 0
        self.fence_rejections = 0
        self._rng = rng or random.Random()
        self._stop = threading.Event()

    def stop(self) -> None:
        """Ask the pull loop to exit after the current job."""
        self._stop.set()

    # ------------------------------------------------------------------
    # The pull loop.
    # ------------------------------------------------------------------

    def run(self) -> int:
        """Register, pull and execute until stopped; returns jobs run."""
        # Kernel/checkpoint internals journal through the *active*
        # journal; install this worker's journal for the pull loop so
        # its runs carry kernel_s / cache columns.
        with use_journal(self.journal):
            return self._run()

    def _run(self) -> int:
        registration = self.client.register_worker(
            worker_id=self.worker_id,
            tags=self.tags,
            meta={"pid": os.getpid(), "host": socket.gethostname()},
        )
        self.worker_id = registration["id"]
        if self.lease is None:
            self.lease = float(registration["lease"])
        self.journal.record(
            "worker",
            action="start",
            id=self.worker_id,
            server=self.client.base_url,
            tags=self.tags,
            lease=self.lease,
        )
        backoff = IDLE_BACKOFF_MIN
        executed = 0
        while not self._stop.is_set():
            if self.max_jobs is not None and executed >= self.max_jobs:
                break
            try:
                claimed = self.client.claim(
                    self.worker_id, tags=self.tags, lease=self.lease
                )
            except ServiceError as exc:
                # Server unreachable or refusing: back off and retry.
                self.journal.record(
                    "worker", action="claim_error", error=str(exc)
                )
                self._sleep(backoff)
                backoff = min(backoff * 2.0, self.idle_backoff_max)
                continue
            if claimed is None:
                self._sleep(backoff * self._rng.uniform(0.5, 1.0))
                backoff = min(backoff * 2.0, self.idle_backoff_max)
                continue
            backoff = IDLE_BACKOFF_MIN
            job, token = claimed
            self._execute(job, token)
            executed += 1
        self.journal.record(
            "worker",
            action="stop",
            id=self.worker_id,
            done=self.jobs_done,
            failed=self.jobs_failed,
            fenced=self.fence_rejections,
        )
        return executed

    def _sleep(self, seconds: float) -> None:
        self._stop.wait(timeout=max(seconds, 0.0))

    # ------------------------------------------------------------------
    # One job.
    # ------------------------------------------------------------------

    def _execute(self, job: JobRecord, token: int) -> None:
        self.journal.record(
            "worker",
            action="claimed",
            id=self.worker_id,
            job=job.id,
            token=token,
            kind=job.spec.get("kind"),
        )
        stop_hb = threading.Event()
        lost = threading.Event()
        heartbeater = threading.Thread(
            target=self._heartbeat_loop,
            args=(job.id, token, stop_hb, lost),
            name=f"heartbeat-{job.id}",
            daemon=True,
        )
        heartbeater.start()
        store = RemoteStore(self.client)
        error: str | None = None
        result: Any = None
        try:
            result = execute_job(
                job.spec, store, self.journal, run_id=job.id
            )
        except Exception as exc:  # noqa: BLE001 - report, don't die
            error = repr(exc)
        finally:
            stop_hb.set()
            heartbeater.join(timeout=10.0)
        if lost.is_set():
            # The lease is gone; don't even try to report — the fence
            # would reject it and the rightful execution's outcome
            # (or the reaper's requeue) stands.
            self.fence_rejections += 1
            self.journal.record(
                "fence_rejected", id=job.id, token=token, where="worker"
            )
            return
        try:
            if error is None:
                self.client.complete(
                    job.id, result, token=token, worker=self.worker_id
                )
                self.jobs_done += 1
                self.journal.record(
                    "worker", action="completed", job=job.id, token=token
                )
            else:
                state = self.client.fail(
                    job.id, error, token=token, worker=self.worker_id
                )
                self.jobs_failed += 1
                self.journal.record(
                    "worker",
                    action="failed",
                    job=job.id,
                    token=token,
                    state=state,
                    error=error,
                )
        except StaleLeaseError as exc:
            self.fence_rejections += 1
            self.journal.record(
                "fence_rejected",
                id=job.id,
                token=token,
                where="worker",
                detail=str(exc),
            )
        except ServiceError as exc:
            self.journal.record(
                "worker", action="report_error", job=job.id, error=str(exc)
            )

    def _heartbeat_loop(
        self,
        job_id: str,
        token: int,
        stop: threading.Event,
        lost: threading.Event,
    ) -> None:
        interval = max((self.lease or 1.0) / 3.0, 0.05)
        while not stop.wait(timeout=interval):
            try:
                self.client.heartbeat(
                    job_id, token, worker=self.worker_id, lease=self.lease
                )
            except StaleLeaseError:
                lost.set()
                return
            except ServiceError:
                # Transport blip: keep trying; the fence at complete()
                # is the correctness backstop.
                continue


def work(
    server_url: str,
    tags: Iterable[str] = (),
    lease: float | None = None,
    worker_id: str | None = None,
    max_jobs: int | None = None,
    journal_path: str | None = None,
) -> int:
    """Blocking entry point behind ``repro work``; returns jobs run."""
    journal = RunJournal(journal_path) if journal_path else RunJournal()
    worker = FleetWorker(
        server_url,
        tags=tags,
        lease=lease,
        worker_id=worker_id,
        max_jobs=max_jobs,
        journal=journal,
    )
    print(
        f"[repro work] {worker.worker_id} pulling from {server_url}"
        + (f" (tags: {', '.join(worker.tags)})" if worker.tags else ""),
        flush=True,
    )
    try:
        executed = worker.run()
    except KeyboardInterrupt:
        worker.stop()
        executed = worker.jobs_done + worker.jobs_failed
        print("[repro work] interrupted")
    finally:
        journal.close()
    print(
        f"[repro work] exiting: {worker.jobs_done} done,"
        f" {worker.jobs_failed} failed,"
        f" {worker.fence_rejections} fenced",
        flush=True,
    )
    return executed
