"""Run journal: recording, persistence, summaries, active-journal scoping."""

import json

import pytest

from repro.errors import ReproError
from repro.runtime import (
    NullJournal,
    RunJournal,
    active_journal,
    resolve_journal,
    use_journal,
)


class TestRecording:
    def test_record_orders_events(self):
        journal = RunJournal()
        journal.record("pass", role="sweep", wall_s=0.5)
        journal.record("retry", key="a", attempt=0)
        assert [e["event"] for e in journal.events] == ["pass", "retry"]
        assert [e["seq"] for e in journal.events] == [0, 1]
        assert len(journal) == 2

    def test_timed_measures_and_merges(self):
        journal = RunJournal()
        with journal.timed("pass", role="sweep") as extra:
            extra["line_size"] = 32
        (event,) = journal.select("pass")
        assert event["role"] == "sweep"
        assert event["line_size"] == 32
        assert event["wall_s"] >= 0.0

    def test_observe_cache_prefers_stats(self):
        class FakeCache:
            hits = 3
            misses = 1

            def stats(self):
                return {"hits": 3, "misses": 1, "hit_rate": 0.75, "entries": 4}

        journal = RunJournal()
        journal.observe_cache(FakeCache(), label="sweep-checkpoint")
        (event,) = journal.select("cache")
        assert event["label"] == "sweep-checkpoint"
        assert event["hit_rate"] == 0.75


class TestKeep:
    def test_memory_holds_only_recent_events(self):
        journal = RunJournal(keep=3)
        for i in range(20):
            journal.record("pass", index=i)
        assert 3 <= len(journal.events) < 6
        # seq keeps counting every event ever recorded.
        assert [e["seq"] for e in journal.events] == [
            e["index"] for e in journal.events
        ]
        assert journal.events[-1]["seq"] == 19

    def test_file_keeps_every_event(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with RunJournal(path, keep=2) as journal:
            for i in range(10):
                journal.record("pass", index=i)
        assert len(RunJournal.load(path)) == 10

    def test_window_sees_every_event_while_open(self):
        journal = RunJournal(keep=2)
        journal.record("pass", index=-1)
        window = journal.open_window()
        for i in range(10):
            journal.record("pass", index=i)
        journal.close_window(window)
        journal.record("pass", index=10)
        assert [e["index"] for e in window] == list(range(10))

    def test_keep_must_be_positive(self):
        with pytest.raises(ReproError, match="keep"):
            RunJournal(keep=0)


class TestPersistence:
    def test_disk_round_trip(self, tmp_path):
        path = tmp_path / "run" / "journal.jsonl"
        with RunJournal(path) as journal:
            journal.record("pass", role="sweep", wall_s=0.25, trace_ranges=10)
            journal.record("retry", key="g32", attempt=0, error="boom")
        loaded = RunJournal.load(path)
        assert [e["event"] for e in loaded.events] == ["pass", "retry"]
        assert loaded.select("retry")[0]["key"] == "g32"

    def test_flushed_per_event(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = RunJournal(path)
        journal.record("pass", wall_s=0.1)
        # Readable before close: a killed run still leaves the event.
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["event"] == "pass"
        journal.close()

    def test_load_rejects_corrupt_lines(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text('{"event": "pass"}\nnot json\n')
        with pytest.raises(ReproError, match="line 2"):
            RunJournal.load(path)


class TestSummary:
    def build(self):
        journal = RunJournal()
        journal.record("pass", role="sweep", wall_s=0.5, trace_ranges=100,
                       where="worker")
        journal.record("pass", role="sweep", wall_s=0.25, trace_ranges=50,
                       where="serial")
        journal.record("job", key="a", attempts=1, wall_s=0.5, where="worker")
        journal.record("retry", key="b", attempt=0, error="x")
        journal.record("timeout", key="c", attempt=0, timeout_s=1.0)
        journal.record("job_failed", key="b", attempts=3, error="x")
        journal.record("fallback", reason="broken_pool", remaining=2)
        journal.record("checkpoint", action="hit", key="k1")
        journal.record("checkpoint", action="store", key="k2")
        journal.record("cache", label="sweep-checkpoint", hits=1, misses=2,
                       hit_rate=1 / 3, entries=2)
        journal.record("worker_util", workers=4, busy_s=2.0, wall_s=1.0,
                       utilization=0.5)
        return journal

    def test_summary_aggregates(self):
        s = self.build().summary()
        assert s["passes"]["count"] == 2
        assert s["passes"]["trace_ranges"] == 150
        assert s["passes"]["by_where"] == {"worker": 1, "serial": 1}
        assert s["jobs"] == {
            "completed": 1,
            "failed": 1,
            "retries": 1,
            "timeouts": 1,
            "wall_s": 0.5,
        }
        assert s["fallbacks"] == {"broken_pool": 1}
        assert s["checkpoints"] == {"hit": 1, "store": 1}
        assert s["caches"]["sweep-checkpoint"]["hits"] == 1
        assert s["worker_util"]["utilization"] == 0.5

    def test_summary_text_mentions_everything(self):
        text = self.build().summary_text(title="Journal")
        assert text.startswith("Journal\n=======")
        for needle in (
            "simulation passes: 2",
            "1 retries",
            "1 timeouts",
            "broken_pool x1",
            "hit=1",
            "sweep-checkpoint: hits=1",
            "worker utilization: 50.0%",
        ):
            assert needle in text, text


class TestFullVocabularySummary:
    """One journal carrying every event the codebase records: summary()
    must aggregate each family and summary_text() must mention each
    section — guarding against a new event family being silently
    dropped from the report."""

    def build(self):
        j = RunJournal()
        # Simulation passes (serial + worker + chunked) and sampling.
        j.record("pass", role="sweep", line_size=16, where="serial",
                 trace_ranges=100, wall_s=0.5, kernel_s=0.2)
        j.record("pass", role="sweep", line_size=32, where="worker",
                 trace_ranges=100, wall_s=0.25, chunks=4,
                 resumed_at_chunk=2)
        j.record("sampled_pass", role="sampled-sweep", line_size=16,
                 intervals=3, sampled_ranges=120, trace_ranges=1200,
                 wall_s=0.05)
        # Stack-distance kernel: one event per family.
        j.record("stackdist", line_size=16, refs=500, wall_s=0.1,
                 path="kernel", residues=2)
        # Design-space tower: one expansion serving three line sizes.
        j.record("designspace", line_sizes=[16, 32, 64], refs=900,
                 wall_s=0.12)
        # Executor lifecycle: jobs, faults, retries, fallback.
        j.record("job", key="a", attempts=1, wall_s=0.5, where="worker")
        j.record("job_failed", key="b", attempts=3, error="boom")
        j.record("retry", key="b", attempt=0, error="boom")
        j.record("timeout", key="c", attempt=0, timeout_s=1.0)
        j.record("fallback", reason="broken_pool", remaining=2)
        # Checkpointing and cache snapshots.
        j.record("checkpoint", action="hit", key="k1")
        j.record("checkpoint", action="miss", key="k2")
        j.record("checkpoint", action="store", key="k2")
        j.record("cache", label="sweep-checkpoint", hits=1, misses=1,
                 hit_rate=0.5, entries=2)
        # Trace shipping: jobs carry a chunked trace file's handle.
        j.record("trace_shipping", mode="chunkpath", jobs=2,
                 trace_ranges=1000, chunks=4, bytes_shipped=100,
                 bytes_mapped=1 << 20)
        # Worker pool utilization.
        j.record("worker_util", workers=4, busy_s=2.0, wall_s=1.0,
                 utilization=0.5)
        # Service fleet protocol: leases, workers, fencing, dedup.
        j.record("lease", action="grant", id="job-1", owner="w1", token=1)
        j.record("lease", action="expired", id="job-2", where="reaper")
        j.record("worker", action="register", id="w1", tags=[])
        j.record("worker", action="reaped", id="w2")
        j.record("fence_rejected", id="job-2", where="http",
                 detail="stale token")
        j.record("service_dedup", kind="sweep", trace_key="t",
                 from_store=3, simulated=1)
        j.record("service_job", id="job-1", state="done", attempt=1)
        j.record("http", client="127.0.0.1", line="GET /runs 200")
        # Memory accounting.
        j.record("linestream_evict", entries=2, bytes=4096)
        j.record("rss", max_rss_bytes=1 << 24, budget_bytes=1 << 26)
        # Analytics run recording (the subsystem's own breadcrumb).
        j.record("analytics_run", id="run-x", kind="sweep", state="done",
                 rows=4, wall_s=0.75)
        return j

    def test_summary_covers_every_family(self):
        s = self.build().summary()
        assert s["events"] == 27
        assert s["passes"]["count"] == 2
        assert s["passes"]["by_where"] == {"serial": 1, "worker": 1}
        assert s["stackdist"]["count"] == 1
        assert "stackdist_fused" not in s
        assert s["designspace"] == {
            "towers": 1,
            "line_sizes": 3,
            "wall_s": 0.12,
        }
        assert s["jobs"] == {
            "completed": 1,
            "failed": 1,
            "retries": 1,
            "timeouts": 1,
            "wall_s": 0.5,
        }
        assert s["fallbacks"] == {"broken_pool": 1}
        assert s["checkpoints"] == {"hit": 1, "miss": 1, "store": 1}
        assert s["caches"]["sweep-checkpoint"]["hit_rate"] == 0.5
        assert s["trace_shipping"]["bytes_shipped"] == 100
        assert s["trace_shipping"]["bytes_saved"] == (1 << 20) - 100
        assert s["trace_shipping"]["jobs"] == 2
        assert s["worker_util"]["utilization"] == 0.5
        assert s["fleet"]["leases"] == {"grant": 1, "expired": 1}
        assert s["fleet"]["workers"] == {"register": 1, "reaped": 1}
        assert s["fleet"]["fence_rejections"] == 1
        assert s["streaming"]["chunked_passes"] == 1
        assert s["streaming"]["resumed_passes"] == 1
        assert s["streaming"]["chunkpath_jobs"] == 2
        assert s["sampling"] == {
            "passes": 1,
            "intervals": 3,
            "sampled_ranges": 120,
            "trace_ranges": 1200,
        }
        assert s["memory"]["linestream_evictions"] == 2
        assert s["memory"]["max_rss_bytes"] == 1 << 24
        assert s["memory"]["rss_budget_bytes"] == 1 << 26

    def test_summary_text_mentions_every_section(self):
        text = self.build().summary_text(title="Everything")
        for needle in (
            "simulation passes: 2",
            "stack-distance kernel: 1 families",
            "jobs: 1 completed, 1 failed, 1 retries, 1 timeouts",
            "design-space towers: 1 (3 line sizes, 0.120 s)",
            "trace shipping: 2 jobs, 100 B shipped",
            "fallbacks: broken_pool x1",
            "checkpoints: hit=1, miss=1, store=1",
            "sweep-checkpoint: hits=1",
            "worker utilization: 50.0%",
            "fleet: leases expired=1, grant=1; "
            "workers reaped=1, register=1; 1 fence rejections",
            "streaming: 1 chunked passes",
            "sampling: 1 sampled passes",
            "memory: 2 linestream evictions",
        ):
            assert needle in text, f"missing {needle!r} in:\n{text}"


class TestActiveJournal:
    def test_default_is_null(self):
        assert isinstance(active_journal(), NullJournal)
        assert isinstance(resolve_journal(None), NullJournal)

    def test_use_journal_scopes(self):
        journal = RunJournal()
        with use_journal(journal):
            assert active_journal() is journal
            assert resolve_journal(None) is journal
            explicit = RunJournal()
            assert resolve_journal(explicit) is explicit
        assert isinstance(active_journal(), NullJournal)

    def test_null_journal_drops_everything(self):
        null = NullJournal()
        null.record("pass", wall_s=1.0)
        with null.timed("pass") as extra:
            extra["x"] = 1
        null.observe_cache(object())
        assert len(null) == 0
