"""Store hits answered at submit, and the keep-alive HTTP transport.

A sweep whose every config result is already stored is written ``done``
by ``POST /jobs`` itself: no queue row, lease, worker, analytics run or
client poll.  Its result document must be the one execution returns.
A resubmission of an answered spec gets that same job back and writes
no row, until a store deletion invalidates the answer.
"""

import json
import sqlite3
import threading
import time
from contextlib import contextmanager

import pytest

from repro.analytics.runs import list_runs
from repro.cli import main
from repro.errors import ServiceError
from repro.service.client import ServiceClient
from repro.service.jobs import (
    NS_METRICS,
    build_trace_arrays,
    execute_job,
    parse_spec,
    result_key,
)
from repro.service.server import EvalService, _Handler, make_server
from repro.service.store import ResultStore
from repro.service.worker import RemoteStore

SYNTH = {
    "kind": "synthetic",
    "seed": 5,
    "ranges": 200,
    "footprint": 8192,
    "max_size": 32,
}
SAMPLE = {"intervals": 4, "interval_ranges": 30, "warmup_ranges": 10}


def sweep_spec(trace=SYNTH, sets=(8, 16), **extra):
    return {
        "kind": "sweep",
        "trace": trace,
        "configs": {"sets": list(sets), "assocs": [1, 2], "line_sizes": [16]},
        **extra,
    }


def ranges_trace():
    starts, sizes = build_trace_arrays(SYNTH)
    return {"kind": "ranges", "starts": starts.tolist(), "sizes": sizes.tolist()}


def chunked_trace(tmp_path):
    from repro.trace.chunkstore import write_chunked

    starts, sizes = build_trace_arrays(SYNTH)
    path = tmp_path / "trace.rct"
    with write_chunked(path, starts, sizes, chunk_ranges=64) as trace:
        digest = trace.digest
    return {"kind": "chunked", "path": str(path), "digest": digest}


@contextmanager
def serving(db, workers=1, port=0):
    with EvalService(db, workers=workers) as svc:
        server = make_server(svc, port=port)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, bound = server.server_address
        try:
            yield svc, server, f"http://{host}:{bound}"
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)


@pytest.fixture
def served(tmp_path):
    with serving(tmp_path / "service.sqlite") as (svc, _, url):
        yield svc, ServiceClient(url)


class TestSubmitTimeCompletion:
    @pytest.mark.parametrize("sampled", [False, True], ids=["exact", "sampled"])
    @pytest.mark.parametrize("kind", ["ranges", "synthetic", "chunked"])
    def test_answer_equals_execution(self, tmp_path, kind, sampled):
        trace = {
            "ranges": ranges_trace,
            "synthetic": lambda: SYNTH,
            "chunked": lambda: chunked_trace(tmp_path),
        }[kind]()
        spec = sweep_spec(trace, **({"sample": SAMPLE} if sampled else {}))
        svc = EvalService(tmp_path / "service.sqlite", workers=0)
        first = execute_job(spec, svc.store, record=False)
        assert first["simulated"] == 4
        job = svc.submit_job(spec)
        expected = execute_job(spec, svc.store, record=False)
        assert expected["from_store"] == 4
        assert job.state == "done"
        assert job.attempts == 0
        assert job.submitted == job.started == job.finished
        assert json.dumps(job.result) == json.dumps(expected)
        assert json.dumps(svc.queue.get(job.id).result) == json.dumps(expected)
        counts = svc.queue.counts()
        assert (counts["queued"], counts["running"]) == (0, 0)

    def test_answer_journals_one_event_and_no_dedup(self, tmp_path):
        svc = EvalService(tmp_path / "service.sqlite", workers=0)
        execute_job(sweep_spec(), svc.store, record=False)
        mark = len(svc.journal.events)
        job = svc.submit_job(sweep_spec())
        events = svc.journal.events[mark:]
        assert [e["event"] for e in events] == ["service_job"]
        assert events[0]["id"] == job.id
        assert events[0]["state"] == "done"
        assert events[0]["where"] == "submit"

    def test_new_spec_is_queued(self, tmp_path):
        svc = EvalService(tmp_path / "service.sqlite", workers=0)
        job = svc.submit_job(sweep_spec())
        assert job.state == "queued"
        assert job.result is None
        assert svc.queue.counts()["queued"] == 1

    def test_partial_hit_queues_and_simulates_only_missing(self, tmp_path):
        with EvalService(tmp_path / "service.sqlite", workers=1) as svc:
            execute_job(sweep_spec(sets=[8]), svc.store, record=False)
            job = svc.submit_job(sweep_spec(sets=[8, 16, 32]))
            assert job.state == "queued"
            assert svc.drain(timeout=60)
            result = svc.queue.get(job.id).result
        assert result["from_store"] == 2
        assert result["simulated"] == 4
        assert [d["source"] for d in result["results"]] == (
            ["store"] * 2 + ["simulated"] * 4
        )


def job_rows(svc):
    return svc.store.connection().execute(
        "SELECT COUNT(*) FROM jobs"
    ).fetchone()[0]


def reversed_keys(value):
    """``value`` with every object's keys in reverse order."""
    if isinstance(value, dict):
        return {k: reversed_keys(value[k]) for k in reversed(list(value))}
    if isinstance(value, list):
        return [reversed_keys(v) for v in value]
    return value


@pytest.fixture
def answered(tmp_path):
    """A broker-mode service, and a job answered at submit."""
    svc = EvalService(tmp_path / "service.sqlite", workers=0)
    execute_job(sweep_spec(), svc.store, record=False)
    job = svc.submit_job(sweep_spec())
    assert job.state == "done"
    return svc, job


class TestAnswerReuse:
    def test_resubmission_gets_the_same_job(self, answered):
        svc, first = answered
        for _ in range(3):
            again = svc.submit_job(sweep_spec())
            assert again.id == first.id
            assert again.to_dict() == first.to_dict()
        assert svc.queue.get(first.id).to_dict() == first.to_dict()

    def test_resubmissions_write_no_rows(self, answered):
        svc, first = answered
        before = job_rows(svc)
        for _ in range(50):
            assert svc.submit_job(sweep_spec()).id == first.id
        assert job_rows(svc) == before

    def test_key_order_does_not_matter(self, answered):
        svc, first = answered
        spec = reversed_keys(sweep_spec())
        assert list(spec) != list(sweep_spec())
        assert svc.submit_job(spec).id == first.id

    def test_each_reuse_journals_one_event(self, answered):
        svc, first = answered
        mark = len(svc.journal.events)
        svc.submit_job(sweep_spec())
        events = svc.journal.events[mark:]
        assert [e["event"] for e in events] == ["service_job"]
        assert (events[0]["id"], events[0]["where"]) == (first.id, "submit")

    def test_a_different_spec_is_not_answered(self, answered):
        svc, first = answered
        job = svc.submit_job(sweep_spec(sets=(8, 16, 32)))
        assert job.state == "queued"
        assert job.id != first.id

    def test_executed_job_is_not_reused(self, tmp_path):
        """Only a job answered at submit carries the key: the first
        resubmission after an execution writes the answered row."""
        with EvalService(tmp_path / "service.sqlite", workers=1) as svc:
            executed = svc.submit_job(sweep_spec())
            assert svc.drain(timeout=60)
            first = svc.submit_job(sweep_spec())
            second = svc.submit_job(sweep_spec())
        assert first.id != executed.id
        assert second.id == first.id

    def test_max_attempts_zero_is_http_400(self, served):
        svc, client = served
        client.wait(client.submit(sweep_spec()), timeout=60)
        first = client.submit(sweep_spec())
        rows = job_rows(svc)
        with pytest.raises(ServiceError, match="HTTP 400"):
            client.submit(sweep_spec(), max_attempts=0)
        assert job_rows(svc) == rows
        assert client.submit(sweep_spec()) == first

    def test_spec_that_is_not_json_is_refused(self, answered):
        svc, _ = answered
        with pytest.raises(ServiceError, match="JSON"):
            svc.submit_job(sweep_spec(tag={1, 2}))


class TestAnswerInvalidation:
    def drop_one(self, store, how):
        request = parse_spec(sweep_spec())
        key = result_key(request.result_trace, request.configs[0])
        if how == "delete":
            assert store.delete(key, namespace=NS_METRICS)
        else:
            assert store.gc(namespace=NS_METRICS, prefix=key) == 1

    @pytest.mark.parametrize("how", ["delete", "gc"])
    def test_deleted_result_requeues_and_reanswers(self, tmp_path, how):
        with EvalService(tmp_path / "service.sqlite", workers=1) as svc:
            execute_job(sweep_spec(), svc.store, record=False)
            stale = svc.submit_job(sweep_spec())
            assert stale.state == "done"
            self.drop_one(svc.store, how)
            requeued = svc.submit_job(sweep_spec())
            assert requeued.state == "queued"
            assert svc.drain(timeout=60)
            result = svc.queue.get(requeued.id).result
            assert (result["from_store"], result["simulated"]) == (3, 1)
            fresh = svc.submit_job(sweep_spec())
            assert fresh.state == "done"
            assert fresh.id not in (stale.id, requeued.id)
            assert svc.submit_job(sweep_spec()).id == fresh.id
        assert fresh.result["results"] == stale.result["results"]

    def test_deleting_nothing_keeps_answers(self, answered):
        svc, first = answered
        assert not svc.store.delete("misses:absent", namespace=NS_METRICS)
        assert svc.store.gc(namespace=NS_METRICS, prefix="absent") == 0
        assert svc.submit_job(sweep_spec()).id == first.id


#: The ``jobs`` table as databases made before answer keys have it.
OLD_JOBS_DDL = """
CREATE TABLE jobs (
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
    lease_expires REAL
);
CREATE INDEX jobs_state ON jobs (state, submitted);
"""


class TestOldDatabase:
    @pytest.fixture
    def old_db(self, tmp_path):
        """A database whose ``jobs`` rows were written without answer
        keys: one executed job, one answered at submit, one failed."""
        db = tmp_path / "old.sqlite"
        document = execute_job(
            sweep_spec(), ResultStore(tmp_path / "other.sqlite"), record=False
        )
        conn = sqlite3.connect(db)
        conn.executescript(OLD_JOBS_DDL)
        rows = [
            ("executed", "done", 1, json.dumps(document), None),
            ("answered", "done", 0, json.dumps(document), None),
            ("failed", "failed", 3, None, "RuntimeError('boom')"),
        ]
        for n, (job_id, state, attempts, result, error) in enumerate(rows):
            conn.execute(
                "INSERT INTO jobs (id, spec, state, attempts, max_attempts,"
                " result, error, submitted, started, finished)"
                " VALUES (?, ?, ?, ?, 3, ?, ?, ?, ?, ?)",
                (
                    job_id,
                    json.dumps(sweep_spec()),
                    state,
                    attempts,
                    result,
                    error,
                    float(n),
                    float(n),
                    float(n),
                ),
            )
        conn.commit()
        conn.close()
        return db, document

    def test_opens_with_the_answer_index(self, old_db):
        db, _ = old_db
        svc = EvalService(db, workers=0)
        conn = svc.store.connection()
        columns = {row["name"] for row in conn.execute("PRAGMA table_info(jobs)")}
        indexes = {row["name"] for row in conn.execute("PRAGMA index_list(jobs)")}
        assert "answer_key" in columns
        assert "jobs_answer" in indexes
        EvalService(db, workers=0)  # a second open migrates nothing

    def test_old_ids_still_answer_get(self, old_db):
        db, document = old_db
        with serving(db) as (_, _, url):
            client = ServiceClient(url)
            assert client.job("executed").result == document
            assert client.job("answered").result == document
            assert client.job("failed").error == "RuntimeError('boom')"
            assert {job.id for job in client.jobs()} == {
                "executed", "answered", "failed"
            }

    def test_answers_after_upgrade(self, old_db):
        db, document = old_db
        with serving(db) as (svc, _, url):
            client = ServiceClient(url)
            client.wait(client.submit(sweep_spec()), timeout=60)
            first = client.submit_job(sweep_spec())
            assert first.state == "done"
            assert first.id not in ("executed", "answered", "failed")
            assert [d["misses"] for d in first.result["results"]] == [
                d["misses"] for d in document["results"]
            ]
            rows = job_rows(svc)
            assert client.submit(sweep_spec()) == first.id
            assert job_rows(svc) == rows


class TestOneRoundTrip:
    def test_all_hit_submit_is_one_request_and_no_run(self, served):
        svc, client = served
        first = client.wait(client.submit(sweep_spec()), timeout=60)
        assert first.result["simulated"] == 4
        before = svc.http_requests
        job_id = client.submit(sweep_spec())
        record = client.wait(job_id, timeout=60)
        assert svc.http_requests - before == 1
        assert record.state == "done"
        assert record.result["from_store"] == 4
        assert record.result["simulated"] == 0
        assert job_id not in {run["id"] for run in list_runs(svc.store)}
        assert first.id in {run["id"] for run in list_runs(svc.store)}
        counts = svc.queue.counts()
        assert (counts["queued"], counts["running"]) == (0, 0)

    def test_submit_response_carries_the_record(self, served):
        _, client = served
        queued = client.submit_job(sweep_spec())
        assert queued.state == "queued"
        client.wait(queued.id, timeout=60)
        answered = client.submit_job(sweep_spec())
        assert answered.state == "done"
        assert answered.result == client.job(answered.id).result

    def test_cli_submit_prints_server_state(self, served, tmp_path, capsys):
        _, client = served
        client.wait(client.submit(sweep_spec()), timeout=60)
        spec_path = tmp_path / "job.json"
        spec_path.write_text(json.dumps(sweep_spec()))
        argv = ["submit", "--url", client.base_url, "--spec", str(spec_path)]
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["state"] == "done"


class TestMalformedTraceSpecs:
    @pytest.mark.parametrize(
        "trace",
        [
            {**SYNTH, "seed": -1},
            {**SYNTH, "seed": "x"},
            {**SYNTH, "footprint": "big"},
            {"kind": "ranges", "starts": [1, "a"], "sizes": [4, 4]},
        ],
        ids=["negative-seed", "string-seed", "string-footprint", "string-start"],
    )
    def test_http_400(self, served, trace):
        svc, client = served
        with pytest.raises(ServiceError, match="HTTP 400"):
            client.submit(sweep_spec(trace))
        assert svc.http_errors == 1


class TestMalformedKnobs:
    @pytest.mark.parametrize(
        "knob",
        [{"job_retries": "x"}, {"max_workers": 0}, {"visits": "500"}],
        ids=repr,
    )
    def test_http_400_and_no_job(self, served, knob):
        svc, client = served
        before = svc.queue.counts()
        with pytest.raises(ServiceError, match="HTTP 400"):
            client.submit(sweep_spec(**knob))
        assert svc.queue.counts() == before
        assert svc.http_errors == 1


class TestFleetLookup:
    def test_remote_get_many_is_one_request(self, served):
        svc, client = served
        store = RemoteStore(client)
        store.put_many({"a": 1, "b": None})
        before = svc.http_requests
        assert store.get_many(["a", "b", "c"]) == {"a": 1, "b": None}
        assert svc.http_requests - before == 1
        assert (store.hits, store.misses) == (2, 1)

    def test_remote_sweep_dedup_is_one_request(self, served):
        svc, client = served
        client.wait(client.submit(sweep_spec()), timeout=60)
        before = svc.http_requests
        result = execute_job(sweep_spec(), RemoteStore(client), record=False)
        assert result["from_store"] == 4
        assert svc.http_requests - before == 1


class TestKeepAlive:
    def test_requests_share_one_connection(self, tmp_path):
        with serving(tmp_path / "service.sqlite") as (_, server, url):
            accepted = []
            process = server.process_request

            def counting(request, address):
                accepted.append(address)
                process(request, address)

            server.process_request = counting
            client = ServiceClient(url)
            for _ in range(5):
                assert client.health()
        assert len(accepted) == 1

    def test_survives_server_restart(self, tmp_path):
        db = tmp_path / "service.sqlite"
        with serving(db) as (_, server, url):
            port = server.server_address[1]
            client = ServiceClient(url)
            job_id = client.submit(sweep_spec())
            client.wait(job_id, timeout=60)
        with serving(db, port=port) as (svc, _, _):
            assert client.job(job_id).state == "done"
            # Answered by the new server, not by a thread of the old one
            # still holding the kept-alive connection.
            assert svc.http_requests == 1

    def test_survives_idle_close(self, served, monkeypatch):
        monkeypatch.setattr(_Handler, "timeout", 0.2)
        _, client = served
        client.close()
        assert client.health()
        time.sleep(0.6)  # the server drops the idle connection
        assert client.health()

    def test_unreachable_server_is_service_error(self, tmp_path):
        with serving(tmp_path / "service.sqlite") as (_, _, url):
            client = ServiceClient(url)
            assert client.health()
        with pytest.raises(ServiceError, match="cannot reach"):
            client.health()
