"""Fleet tests: lease reaping across service processes, the HTTP
worker protocol, fenced completion, and the pull-loop worker itself.

The headline regressions:

* ``test_second_service_start_does_not_requeue_inflight`` — the old
  ``recover(owner=None)`` treated *every* running job as orphaned, so
  a second ``EvalService`` on one database requeued jobs a live
  process was still executing (double execution).
* ``test_back_to_back_submits_wake_both_workers`` — the old
  ``Event.clear()`` wake path let one idle worker swallow another's
  wakeup, stranding a queued job for a full poll interval.
"""

import threading
import time

import pytest

from repro.cache.config import CacheConfig
from repro.cache.simulator import simulate_trace
from repro.errors import ServiceError, StaleLeaseError
from repro.service.client import ServiceClient
from repro.service.jobs import build_trace_arrays, result_key, trace_key
from repro.service.queue import JobQueue
from repro.service.server import EvalService, make_server
from repro.service.store import ResultStore
from repro.service.worker import FleetWorker, RemoteStore

SYNTH = {
    "kind": "synthetic",
    "seed": 23,
    "ranges": 120,
    "footprint": 4096,
    "max_size": 32,
}


def sweep_spec(sets, **extra):
    return {
        "kind": "sweep",
        "trace": SYNTH,
        "configs": {"sets": sets, "assocs": [1], "line_sizes": [16]},
        **extra,
    }


@pytest.fixture
def broker(tmp_path):
    """A broker-mode service (no local workers) behind HTTP."""
    with EvalService(
        tmp_path / "service.sqlite",
        workers=0,
        lease=1.0,
        reap_interval=0.1,
    ) as svc:
        server = make_server(svc)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        host, port = server.server_address
        try:
            yield svc, ServiceClient(f"http://{host}:{port}")
        finally:
            server.shutdown()
            server.server_close()


class TestMultiServiceRecovery:
    def test_second_service_start_does_not_requeue_inflight(self, tmp_path):
        db = tmp_path / "service.sqlite"
        queue = JobQueue(ResultStore(db))
        job_id = queue.submit(sweep_spec([8]))
        # Service A's worker thread holds a live lease on the job.
        claimed = queue.claim("thread=svc-a-worker-0", lease=120.0)
        assert claimed.id == job_id

        # Service B starts on the same database: its startup recovery
        # must leave the in-flight job alone.
        with EvalService(db, workers=0) as second:
            record = second.queue.get(job_id)
            assert record.state == "running"
            assert record.owner == "thread=svc-a-worker-0"
            assert record.attempts == 1  # not re-claimed, not requeued

    def test_startup_reaps_expired_leases(self, tmp_path):
        db = tmp_path / "service.sqlite"
        queue = JobQueue(ResultStore(db))
        job_id = queue.submit(sweep_spec([8]))
        queue.claim("crashed-worker", lease=0.0)
        from repro.runtime.journal import RunJournal

        with EvalService(db, workers=0, journal=RunJournal()) as svc:
            assert svc.queue.get(job_id).state == "queued"
            events = [
                e
                for e in svc.journal.select("lease")
                if e.get("action") == "expired"
            ]
            assert [e["id"] for e in events] == [job_id]


class TestWakeRace:
    def test_back_to_back_submits_wake_both_workers(
        self, tmp_path, monkeypatch
    ):
        """Two jobs submitted back-to-back to two idle workers must
        both start promptly.  The old Event-based wake path let one
        worker's ``clear()`` swallow the other's wakeup, stranding the
        second job until the first finished or the poll timed out."""
        started = threading.Event()
        second_started = threading.Event()
        count = [0]
        lock = threading.Lock()

        def slow_execute(spec, store, journal=None, **kwargs):
            with lock:
                count[0] += 1
                (started if count[0] == 1 else second_started).set()
            time.sleep(1.0)  # hold this worker busy past the assert
            return {"ok": True}

        monkeypatch.setattr(
            "repro.service.server.execute_job", slow_execute
        )
        # A poll interval far above the budget: a swallowed wakeup
        # cannot be rescued by the idle poll.
        with EvalService(
            tmp_path / "service.sqlite",
            workers=2,
            poll_interval=30.0,
        ) as svc:
            time.sleep(0.2)  # both workers reach their idle wait
            svc.submit(sweep_spec([8]))
            svc.submit(sweep_spec([16]))
            assert started.wait(timeout=5.0)
            assert second_started.wait(timeout=5.0), (
                "second submit's wakeup was swallowed; the job sat "
                "queued while a worker idled"
            )
            assert svc.drain(timeout=20.0)


class TestFleetHTTPProtocol:
    def test_register_claim_heartbeat_complete(self, broker):
        svc, client = broker
        registration = client.register_worker(tags=["fast"])
        worker_id = registration["id"]
        assert registration["lease"] == svc.lease
        assert [w["id"] for w in client.workers()] == [worker_id]

        job_id = svc.submit(sweep_spec([8]))
        record, token = client.claim(worker_id, lease=30.0)
        assert record.id == job_id
        assert token == 1
        assert client.claim(worker_id) is None  # nothing else queued

        deadline = client.heartbeat(
            job_id, token, worker=worker_id, lease=30.0
        )
        assert deadline > time.time()

        client.put_results({"misses:demo:S8A1L16": {"m": 1}})
        client.complete(job_id, {"ok": True}, token=token, worker=worker_id)
        assert client.job(job_id).finished_ok
        assert client.result("misses:demo:S8A1L16")["found"]

    def test_expired_lease_is_reaped_and_refenced(self, broker):
        svc, client = broker
        worker_id = client.register_worker()["id"]
        job_id = svc.submit(sweep_spec([8]))

        # Slow worker claims with the minimum lease and stalls.
        _, slow_token = client.claim(worker_id, lease=0.05)
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if client.job(job_id).state == "queued":
                break
            time.sleep(0.05)
        else:
            pytest.fail("reaper never requeued the expired lease")

        # A second worker takes over and finishes.
        fast_id = client.register_worker()["id"]
        record, fast_token = client.claim(fast_id, lease=30.0)
        assert record.id == job_id
        assert fast_token == slow_token + 1
        client.complete(job_id, {"winner": "fast"}, token=fast_token)

        # The stalled worker's late report is fenced with HTTP 409.
        with pytest.raises(StaleLeaseError):
            client.complete(job_id, {"winner": "slow"}, token=slow_token)
        with pytest.raises(StaleLeaseError):
            client.heartbeat(job_id, slow_token)
        # Exactly one execution's outcome survives.
        assert client.job(job_id).result == {"winner": "fast"}

    def test_capability_tags_respected_over_http(self, broker):
        svc, client = broker
        plain = client.register_worker(tags=[])["id"]
        gpu = client.register_worker(tags=["gpu"])["id"]
        job_id = svc.submit(sweep_spec([8], requires=["gpu"]))
        assert client.claim(plain, tags=[]) is None
        record, _ = client.claim(gpu, tags=["gpu"])
        assert record.id == job_id

    def test_transition_requires_token(self, broker):
        svc, client = broker
        job_id = svc.submit(sweep_spec([8]))
        worker_id = client.register_worker()["id"]
        client.claim(worker_id)
        with pytest.raises(ServiceError, match="token"):
            client._request(
                "POST", f"/jobs/{job_id}/complete", {"result": {}}
            )


class TestFleetWorker:
    def test_worker_pulls_executes_and_uploads(self, broker):
        svc, client = broker
        ids = [svc.submit(sweep_spec([s])) for s in (8, 16)]
        worker = FleetWorker(
            client.base_url, worker_id="w-test", max_jobs=2, lease=5.0
        )
        executed = worker.run()
        assert executed == 2
        assert worker.jobs_done == 2

        starts, sizes = build_trace_arrays(SYNTH)
        tkey = trace_key(SYNTH)
        for job_id, sets in zip(ids, (8, 16)):
            record = svc.queue.get(job_id)
            assert record.finished_ok
            config = CacheConfig(sets, 1, 16)
            expected = simulate_trace(config, starts, sizes)
            doc = record.result["results"][0]
            assert doc["misses"] == expected.misses
            # Results were uploaded into the shared store over HTTP.
            stored = svc.store.get(result_key(tkey, config))
            assert stored["misses"] == expected.misses
        # The worker registered itself with its identity.
        assert any(w["id"] == "w-test" for w in svc.queue.workers())

    def test_worker_reports_job_failure(self, broker):
        svc, client = broker
        job_id = svc.submit(
            {
                "kind": "estimate",
                "benchmark": "999.nope",
                "configs": [{"sets": 8, "assoc": 1, "line_size": 16}],
            },
            max_attempts=1,
        )
        worker = FleetWorker(client.base_url, max_jobs=1, lease=5.0)
        worker.run()
        assert worker.jobs_failed == 1
        record = svc.queue.get(job_id)
        assert record.state == "failed"
        assert "999.nope" in record.error

    def test_remote_store_round_trip(self, broker):
        _, client = broker
        store = RemoteStore(client)
        assert store.get("nope") is None
        assert store.misses == 1
        store.put("k1", {"v": 1})
        store.put_many({"k2": [1, 2], "k3": None}, namespace="evalcache")
        assert store.get("k1") == {"v": 1}
        assert store.hits == 1
        assert "k1" in store
        assert store.contains("k2", namespace="evalcache")
        assert store.count(namespace="evalcache") == 2
        assert store.get("k2", namespace="evalcache") == [1, 2]
        assert store.get("k3", namespace="evalcache") is None
        assert store.hits == 3  # a present null is a hit
        assert store.stats()["backend"] == "remote"


class TestClientBackoff:
    def test_wait_backs_off_exponentially_with_cap(self, monkeypatch):
        client = ServiceClient("http://example.invalid")
        states = ["queued"] * 8 + ["done"]
        sleeps = []

        class FakeRecord:
            def __init__(self, state):
                self.state = state

        monkeypatch.setattr(
            client, "job", lambda job_id: FakeRecord(states.pop(0))
        )
        monkeypatch.setattr(
            "repro.service.client.time.sleep", lambda s: sleeps.append(s)
        )
        record = client.wait("j1", timeout=3600.0, poll=0.1, poll_max=2.0)
        assert record.state == "done"
        assert len(sleeps) == 8
        # Grew beyond the initial interval, never beyond the cap.
        assert max(sleeps) > 0.1
        assert all(s <= 2.0 for s in sleeps)
        # Jitter keeps polls off lockstep but within the envelope.
        for i, s in enumerate(sleeps):
            assert s <= min(0.1 * 2**i, 2.0) + 1e-9

    def test_wait_honors_deadline(self, monkeypatch):
        client = ServiceClient("http://example.invalid")

        class FakeRecord:
            state = "running"

        clock = [0.0]
        monkeypatch.setattr(client, "job", lambda job_id: FakeRecord())
        monkeypatch.setattr(
            "repro.service.client.time.monotonic", lambda: clock[0]
        )

        def advance(s):
            clock[0] += max(s, 0.05)

        monkeypatch.setattr("repro.service.client.time.sleep", advance)
        with pytest.raises(ServiceError, match="still running"):
            client.wait("j1", timeout=5.0, poll=0.1)
