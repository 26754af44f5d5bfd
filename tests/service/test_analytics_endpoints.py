"""End-to-end tests for the analytics endpoints on the eval service."""

import csv
import io
import json
import threading
import urllib.error
import urllib.request
from contextlib import contextmanager

import pytest

from repro.errors import ServiceError
from repro.service.client import ServiceClient
from repro.service.server import EvalService, make_server

SYNTH = {
    "kind": "synthetic",
    "seed": 7,
    "ranges": 120,
    "footprint": 4096,
    "max_size": 32,
}


def sweep_spec(sets):
    return {
        "kind": "sweep",
        "trace": SYNTH,
        "configs": {"sets": sets, "assocs": [1, 2], "line_sizes": [16]},
    }


@contextmanager
def serving(db):
    with EvalService(db, workers=1) as svc:
        server = make_server(svc)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address
        try:
            yield svc, ServiceClient(f"http://{host}:{port}")
        finally:
            server.shutdown()
            server.server_close()


@pytest.fixture
def service(tmp_path):
    with serving(tmp_path / "service.sqlite") as served:
        yield served


POSTED_RUN = {"id": "posted-bad", "kind": "explore", "started": 1.0}


def post_raw(client, path, body):
    """POST ``body`` as JSON, bypassing the client's argument shaping;
    returns the HTTP status."""
    request = urllib.request.Request(
        client.base_url + path,
        data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status
    except urllib.error.HTTPError as exc:
        return exc.code


def run_job(client, spec):
    job_id = client.submit(spec)
    record = client.wait(job_id, timeout=60.0)
    assert record.finished_ok, record.error
    return job_id


class TestRunsEndpoints:
    def test_job_execution_records_a_run(self, service):
        _, client = service
        job_id = run_job(client, sweep_spec([64, 128]))
        runs = client.runs()
        assert any(r["id"] == job_id for r in runs)
        doc = client.run(job_id)
        assert doc["run"]["kind"] == "sweep"
        assert doc["run"]["state"] == "done"
        # 2 sets x 2 assocs x 1 line size = 4 design rows.
        assert len(doc["rows"]) == 4
        for row in doc["rows"]:
            assert row["misses"] is not None
            assert row["wall_s"] is not None

    def test_runs_filtering(self, service):
        _, client = service
        run_job(client, sweep_spec([64]))
        assert client.runs(kind="sweep")
        assert client.runs(kind="explore") == []
        assert client.runs(state="failed") == []

    def test_table_csv_endpoint(self, service):
        _, client = service
        job_id = run_job(client, sweep_spec([64, 128]))
        text = client.run_table_csv(job_id)
        parsed = list(csv.DictReader(io.StringIO(text)))
        doc = client.run(job_id)
        assert len(parsed) == len(doc["rows"]) == 4
        stored = {r["design"]: r for r in doc["rows"]}
        for line in parsed:
            assert line["run_id"] == job_id
            assert float(line["misses"]) == stored[line["design"]]["misses"]

    def test_compare_identical_reruns(self, service, tmp_path):
        _, client = service
        first = run_job(client, sweep_spec([64, 128]))
        # The rerun is answered from the result store at submit: its
        # job record says so, and it executes nothing, so it records
        # no run.
        second = run_job(client, sweep_spec([64, 128]))
        rerun = client.job(second)
        assert rerun.result["from_store"] == 4
        assert rerun.result["simulated"] == 0
        assert second not in {r["id"] for r in client.runs()}
        # The same grid executed by a second service on a fresh store
        # records a run identical to the first.
        shipped = client.run(first)
        with serving(tmp_path / "other.sqlite") as (_, other):
            again = run_job(other, sweep_spec([64, 128]))
            other.record_run(shipped["run"], shipped["rows"])
            doc = other.compare(first, again)
        assert doc["rows"]["common"] == 4
        assert doc["rows"]["identical"]
        assert doc["frontier"]["identical"]

    def test_compare_requires_both_ids(self, service):
        _, client = service
        with pytest.raises(ServiceError):
            client.compare("", "x")

    def test_unknown_run_is_http_404(self, service):
        _, client = service
        with pytest.raises(ServiceError, match="404"):
            client.run("not-a-run")
        with pytest.raises(ServiceError, match="404"):
            client.run_table_csv("not-a-run")

    def test_post_run_round_trips(self, service):
        _, client = service
        run = {
            "id": "posted-1",
            "kind": "explore",
            "state": "done",
            "started": 1.0,
            "finished": 2.0,
            "wall_s": 1.0,
            "rows": 1,
            "journal": {"passes": 3},
        }
        rows = [{"design": "d1", "cost": 10.0, "cycles": 100.0}]
        client.record_run(run, rows)
        doc = client.run("posted-1")
        assert doc["run"]["journal"]["passes"] == 3
        assert doc["rows"][0]["cost"] == 10.0

    def test_post_run_without_id_is_http_400(self, service):
        _, client = service
        with pytest.raises(ServiceError, match="400"):
            client.record_run({"kind": "explore"}, [])

    @pytest.mark.parametrize(
        "body",
        [
            {"run": ["x"]},
            {"run": POSTED_RUN, "rows": [1, 2]},
            {"run": POSTED_RUN, "rows": {"a": 1}},
            {"run": {**POSTED_RUN, "started": "yesterday"}},
            {"run": {**POSTED_RUN, "finished": "later"}},
            {"run": {**POSTED_RUN, "wall_s": [1.0]}},
        ],
        ids=[
            "run-not-object", "rows-not-objects", "rows-an-object",
            "started", "finished", "wall_s",
        ],
    )
    def test_malformed_post_run_is_http_400(self, service, body):
        _, client = service
        assert post_raw(client, "/runs", body) == 400
        assert client.runs() == []

    @pytest.mark.parametrize(
        "row",
        [
            {"design": "d", "sets": "x", "misses": "lots"},
            {"design": "d", "misses": "lots"},
            {"design": "d", "wall_s": {"s": 1}},
        ],
        ids=["sets", "misses", "wall_s"],
    )
    def test_non_numeric_row_column_is_http_400(self, service, row):
        _, client = service
        with pytest.raises(ServiceError, match="400"):
            client.record_run(POSTED_RUN, [row])
        with pytest.raises(ServiceError, match="404"):
            client.run(POSTED_RUN["id"])


class TestMetricsHistoryAndDashboard:
    def test_metrics_history_accumulates(self, service):
        svc, client = service
        run_job(client, sweep_spec([64]))
        svc._sample_metrics()
        doc = client.metrics_history()
        assert doc["capacity"] >= 1
        assert doc["total"] >= 1
        assert doc["samples"]
        assert "queued" in doc["samples"][-1]

    def test_dashboard_lists_runs(self, service):
        _, client = service
        job_id = run_job(client, sweep_spec([64]))
        page = client.dashboard()
        assert page.lstrip().startswith("<!DOCTYPE html>")
        assert job_id in page
