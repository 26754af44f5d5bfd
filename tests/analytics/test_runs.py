"""Unit tests for the run-table recorder and store accessors."""

import pytest

from repro.analytics.runs import (
    RunRecorder,
    delete_run,
    derive_journal_columns,
    design_label,
    gc_runs,
    get_run,
    get_run_rows,
    list_runs,
    record_run,
    supports_runs,
)
from repro.errors import ServiceError
from repro.runtime.journal import RunJournal
from repro.service.store import ResultStore


@pytest.fixture
def store(tmp_path):
    s = ResultStore(tmp_path / "runs.sqlite")
    try:
        yield s
    finally:
        s.close()


def make_run(run_id="run-1", kind="sweep", started=100.0, **extra):
    return {
        "id": run_id,
        "kind": kind,
        "state": "done",
        "started": started,
        "finished": started + 1.0,
        "wall_s": 1.0,
        "rows": 1,
        "journal": {"passes": 1},
        **extra,
    }


class TestRecordAndFetch:
    def test_round_trip_one_run(self, store):
        rows = [
            {
                "design": "s64/a2/l16",
                "benchmark": "epic",
                "sets": 64,
                "assoc": 2,
                "line_size": 16,
                "misses": 123.0,
                "accesses": 1000,
            }
        ]
        record_run(store, make_run(benchmark="epic"), rows)
        run = get_run(store, "run-1")
        assert run["kind"] == "sweep"
        assert run["benchmark"] == "epic"
        assert run["journal"] == {"passes": 1}
        got = get_run_rows(store, "run-1")
        assert len(got) == 1
        assert got[0]["design"] == "s64/a2/l16"
        assert got[0]["misses"] == 123.0
        assert got[0]["sets"] == 64

    def test_rerecord_same_id_replaces(self, store):
        record_run(store, make_run(), [{"design": "a", "misses": 1.0}])
        record_run(
            store,
            make_run(),
            [{"design": "b", "misses": 2.0}, {"design": "c", "misses": 3.0}],
        )
        assert len(list_runs(store)) == 1
        rows = get_run_rows(store, "run-1")
        assert [r["design"] for r in rows] == ["b", "c"]

    def test_run_without_id_rejected(self, store):
        with pytest.raises(ServiceError, match="id"):
            record_run(store, {"kind": "sweep"})

    def test_unknown_run_raises(self, store):
        with pytest.raises(ServiceError, match="unknown run id"):
            get_run(store, "nope")

    def test_list_filters(self, store):
        record_run(store, make_run("r1", kind="sweep", started=1.0))
        record_run(store, make_run("r2", kind="explore", started=2.0))
        record_run(
            store, make_run("r3", kind="explore", started=3.0, state="failed")
        )
        assert {r["id"] for r in list_runs(store)} == {"r1", "r2", "r3"}
        assert {r["id"] for r in list_runs(store, kind="explore")} == {
            "r2",
            "r3",
        }
        assert [r["id"] for r in list_runs(store, state="failed")] == ["r3"]
        # Newest first, limited.
        assert [r["id"] for r in list_runs(store, limit=2)] == ["r3", "r2"]


class TestRecorder:
    def test_records_rows_and_journal_window(self, store):
        journal = RunJournal()
        journal.record("pass", line_size=16, wall_s=1.0, kernel_s=0.25)
        with RunRecorder(
            store, "sweep", journal=journal, benchmark="epic"
        ) as rec:
            journal.record("pass", line_size=16, wall_s=0.5, kernel_s=0.5)
            journal.record("checkpoint", action="store", key="k")
            rec.add_row(
                sets=64, assoc=1, line_size=16, misses=9.0, benchmark="epic"
            )
        run = get_run(store, rec.run_id)
        # The pre-enter pass is outside the recorder's window.
        assert run["journal"]["passes"] == 1
        assert run["journal"]["wall_s"] == 0.5
        assert run["journal"]["checkpoint_stores"] == 1
        (row,) = get_run_rows(store, rec.run_id)
        assert row["wall_s"] == 0.5
        assert row["kernel_s"] == 0.5
        assert row["cache_hits"] == 0

    def test_window_outlives_a_bounded_journal(self, store):
        journal = RunJournal(keep=2)
        with RunRecorder(store, "sweep", journal=journal) as rec:
            for _ in range(10):
                journal.record("pass", line_size=16, wall_s=0.5)
        run = get_run(store, rec.run_id)
        assert run["journal"]["passes"] == 10
        assert run["journal"]["wall_s"] == 5.0

    def test_wall_split_across_rows_sharing_line_size(self, store):
        journal = RunJournal()
        with RunRecorder(store, "sweep", journal=journal) as rec:
            journal.record("pass", line_size=16, wall_s=1.0, kernel_s=0.4)
            rec.add_row(sets=64, assoc=1, line_size=16, misses=1.0)
            rec.add_row(sets=128, assoc=1, line_size=16, misses=2.0)
        rows = get_run_rows(store, rec.run_id)
        assert [r["wall_s"] for r in rows] == [0.5, 0.5]
        assert sum(r["kernel_s"] for r in rows) == pytest.approx(0.4)

    def test_exception_records_failed_state(self, store):
        journal = RunJournal()
        with pytest.raises(RuntimeError):
            with RunRecorder(store, "sweep", journal=journal) as rec:
                rec.add_row(sets=1, assoc=1, line_size=16, misses=0.0)
                raise RuntimeError("boom")
        run = get_run(store, rec.run_id)
        assert run["state"] == "failed"
        assert "boom" in run["error"]

    def test_finish_is_idempotent(self, store):
        with RunRecorder(store, "sweep", journal=RunJournal()) as rec:
            pass
        first = rec.finish()
        assert rec.finish() is first
        assert len(list_runs(store)) == 1

    def test_bad_state_rejected(self, store):
        rec = RunRecorder(store, "sweep", journal=RunJournal())
        with pytest.raises(ServiceError, match="unknown run state"):
            rec.finish(state="exploded")

    def test_custom_sink_store(self):
        class Sink:
            def __init__(self):
                self.calls = []

            def record_run(self, run, rows):
                self.calls.append((run, rows))

        sink = Sink()
        assert supports_runs(sink)
        with RunRecorder(sink, "explore", journal=RunJournal()) as rec:
            rec.add_row(misses=1.0, line_size=32)
        assert len(sink.calls) == 1
        run, rows = sink.calls[0]
        assert run["id"] == rec.run_id
        assert len(rows) == 1

    def test_sink_rows_record_like_local_rows(self, store, tmp_path):
        shipped = []

        class Sink:
            def record_run(self, run, rows):
                shipped.append((run, rows))

        def record(target):
            journal = RunJournal()
            with RunRecorder(
                target, "sweep", journal=journal, run_id="same"
            ) as rec:
                journal.record("pass", line_size=16, wall_s=0.5, kernel_s=0.25)
                journal.record("retry", attempt=1)
                rec.add_row(
                    sets=64, assoc=2, line_size=16, accesses=10, misses=3.0,
                    estimated=True, dilation=1.5,
                )
                rec.add_row(design="system", cycles=7.0, source="frontier")

        record(store)
        record(Sink())
        other = ResultStore(tmp_path / "other.sqlite")
        record_run(other, *shipped[0])
        assert get_run_rows(other, "same") == get_run_rows(store, "same")

    def test_plain_object_not_supported(self):
        assert not supports_runs(object())
        with pytest.raises(ServiceError, match="record_run"):
            RunRecorder(object(), "sweep")


class TestDeriveJournalColumns:
    def test_empty_window(self):
        cols = derive_journal_columns([])
        assert cols["events"] == 0
        assert cols["passes"] == 0
        assert cols["cache_hits"] == 0

    def test_mixed_vocabulary(self):
        events = [
            {"event": "pass", "line_size": 16, "wall_s": 1.0,
             "kernel_s": 0.5},
            {"event": "sampled_pass", "line_size": 32, "wall_s": 0.25},
            {"event": "retry", "attempt": 1},
            {"event": "timeout", "seconds": 5},
            {"event": "fallback", "to": "serial"},
            {"event": "checkpoint", "action": "hit"},
            {"event": "checkpoint", "action": "miss"},
            {"event": "checkpoint", "action": "store"},
            {"event": "service_dedup", "from_store": 3, "simulated": 2},
            {"event": "trace_shipping", "mode": "chunkpath", "jobs": 2,
             "bytes_shipped": 10, "bytes_mapped": 100},
            {"event": "job", "id": "j1"},
            {"event": "job_failed", "id": "j2"},
        ]
        cols = derive_journal_columns(events)
        assert cols["passes"] == 2
        assert cols["wall_s"] == pytest.approx(1.25)
        assert cols["kernel_s"] == pytest.approx(0.5)
        assert cols["retries"] == 1
        assert cols["timeouts"] == 1
        assert cols["fallbacks"] == 1
        assert cols["checkpoint_hits"] == 1
        assert cols["checkpoint_stores"] == 1
        assert cols["cache_hits"] == 1 + 3  # checkpoint hits + store dedup
        assert cols["cache_misses"] == 1 + 2
        assert cols["bytes_shipped"] == 10
        assert cols["jobs_completed"] == 1
        assert cols["jobs_failed"] == 1
        assert cols["by_line_size"]["16"]["passes"] == 1
        assert cols["by_line_size"]["32"]["passes"] == 1


class TestLifecycle:
    def test_delete_run(self, store):
        record_run(store, make_run(), [{"design": "a", "misses": 1.0}])
        assert delete_run(store, "run-1")
        assert not delete_run(store, "run-1")
        assert list_runs(store) == []

    def test_gc_noop_without_criteria(self, store):
        record_run(store, make_run("r1"))
        assert gc_runs(store) == 0
        assert len(list_runs(store)) == 1

    def test_gc_keep_protects_newest(self, store):
        for i in range(5):
            record_run(store, make_run(f"r{i}", started=float(i + 1)))
        assert gc_runs(store, keep=2) == 3
        assert {r["id"] for r in list_runs(store)} == {"r3", "r4"}

    def test_gc_older_than(self, store):
        import time

        now = time.time()
        record_run(store, make_run("old", started=now - 1000.0))
        record_run(store, make_run("new", started=now))
        assert gc_runs(store, older_than=500.0) == 1
        assert [r["id"] for r in list_runs(store)] == ["new"]

    def test_gc_keep_and_older_than_combined(self, store):
        import time

        now = time.time()
        record_run(store, make_run("ancient", started=now - 1000.0))
        record_run(store, make_run("older", started=now - 900.0))
        record_run(store, make_run("fresh", started=now))
        # keep=1 protects the newest; older_than dooms only aged rest.
        assert gc_runs(store, older_than=500.0, keep=1) == 2
        assert [r["id"] for r in list_runs(store)] == ["fresh"]


class TestDesignLabel:
    def test_cache_label(self):
        assert design_label(64, 2, 16) == "S64A2L16"
