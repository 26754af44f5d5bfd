"""Sweep fault tolerance: retries, fallback, partial results, checkpoints."""

import pytest

from repro.cache.config import CacheConfig
from repro.cache.sweep import CHECKPOINT_NAMESPACE, sweep_design_space
from repro.errors import ConfigurationError, RuntimeExecutionError
from repro.runtime import ExecutorPolicy, FaultPlan, RunJournal
from repro.service.store import ResultStore

CONFIGS = [
    CacheConfig(8, 1, 16),
    CacheConfig(8, 2, 16),
    CacheConfig(16, 1, 16),
    CacheConfig(8, 1, 32),
    CacheConfig(4, 4, 32),
    CacheConfig(16, 2, 64),
]


def trace():
    starts = [0, 32, 64, 0, 128, 256, 32, 512, 0, 96, 72, 8]
    sizes = [16, 16, 32, 16, 64, 16, 16, 16, 16, 4, 4, 40]
    return starts, sizes


BASELINE = sweep_design_space(CONFIGS, trace())


class TestFaultInjection:
    def test_worker_raise_mid_sweep_is_retried(self):
        journal = RunJournal()
        policy = ExecutorPolicy(
            max_workers=2,
            retries=2,
            backoff=0.0,
            fault=FaultPlan("raise", match="32", times=1),
        )
        results = sweep_design_space(
            CONFIGS, trace, policy=policy, journal=journal
        )
        assert results == BASELINE
        retries = journal.select("retry")
        assert len(retries) == 1
        assert retries[0]["key"] == "32"

    def test_worker_death_falls_back_and_matches(self):
        journal = RunJournal()
        policy = ExecutorPolicy(
            max_workers=2,
            retries=2,
            backoff=0.0,
            fault=FaultPlan("exit", match="16", times=1),
        )
        results = sweep_design_space(
            CONFIGS, trace, policy=policy, journal=journal
        )
        assert results == BASELINE
        assert journal.select("fallback")

    def test_group_failure_fails_only_its_configs(self):
        journal = RunJournal()
        policy = ExecutorPolicy(
            max_workers=2,
            retries=1,
            backoff=0.0,
            fault=FaultPlan("raise", match="64", times=99),
        )
        results = sweep_design_space(
            CONFIGS,
            trace,
            policy=policy,
            journal=journal,
            on_error="partial",
        )
        survivors = {c for c in CONFIGS if c.line_size != 64}
        assert set(results) == survivors
        for config in survivors:
            assert results[config] == BASELINE[config]
        (failed,) = journal.select("group_failed")
        assert failed["line_size"] == 64
        assert failed["configs"] == 1

    def test_group_failure_raises_by_default(self):
        policy = ExecutorPolicy(
            max_workers=2,
            retries=0,
            backoff=0.0,
            serial_fallback=True,
            fault=FaultPlan("raise", match="64", times=99),
        )
        with pytest.raises(RuntimeExecutionError, match="line 64"):
            sweep_design_space(CONFIGS, trace, policy=policy)

    def test_bad_on_error_rejected(self):
        with pytest.raises(ConfigurationError, match="on_error"):
            sweep_design_space(CONFIGS, trace(), on_error="ignore")

    def test_serial_fault_injection_also_works(self):
        # No workers: injected faults degrade to in-process raises, so the
        # retry budget still gets exercised without a pool.
        journal = RunJournal()
        policy = ExecutorPolicy(
            retries=2,
            backoff=0.0,
            fault=FaultPlan("raise", match="32", times=1),
        )
        results = sweep_design_space(
            CONFIGS, trace, policy=policy, journal=journal
        )
        assert results == BASELINE
        assert len(journal.select("retry")) == 1


class TestCheckpointResume:
    def test_second_run_simulates_nothing(self, checkpoint_store):
        cache = checkpoint_store
        journal = RunJournal()
        first = sweep_design_space(
            CONFIGS, trace(), checkpoint=cache, journal=journal
        )
        assert first == BASELINE
        stores = journal.select("checkpoint")
        assert sum(e["action"] == "store" for e in stores) == 3

        rerun_journal = RunJournal()
        second = sweep_design_space(
            CONFIGS, trace(), checkpoint=cache, journal=rerun_journal
        )
        assert second == BASELINE
        assert not rerun_journal.select("pass")  # zero simulation passes
        hits = rerun_journal.select("checkpoint")
        assert all(e["action"] == "hit" for e in hits)
        assert len(hits) == 3

    def test_kill_and_resume(self, tmp_path):
        """A run killed mid-sweep resumes from its completed groups."""
        path = tmp_path / "checkpoint.sqlite"
        cache = ResultStore(path, namespace=CHECKPOINT_NAMESPACE)
        policy = ExecutorPolicy(
            retries=0, fault=FaultPlan("raise", match="64", times=99)
        )
        # First run dies on the line-64 group ("kill"): earlier groups
        # were checkpointed durably before the failure.
        with pytest.raises(RuntimeExecutionError):
            sweep_design_space(
                CONFIGS, trace(), policy=policy, checkpoint=cache
            )
        # Groups 16 and 32 survived.
        assert len(ResultStore(path, namespace=CHECKPOINT_NAMESPACE)) == 2

        # Resume with a fresh process (fresh store handle on the file) and
        # no fault: only the missing group simulates.
        resumed_cache = ResultStore(path, namespace=CHECKPOINT_NAMESPACE)
        journal = RunJournal()
        results = sweep_design_space(
            CONFIGS, trace(), checkpoint=resumed_cache, journal=journal
        )
        assert results == BASELINE
        passes = journal.select("pass")
        assert len(passes) == 1
        assert passes[0]["line_size"] == 64

    def test_trace_key_avoids_digest(self, checkpoint_store):
        calls = []

        def factory():
            calls.append(1)
            return trace()

        cache = checkpoint_store
        first = sweep_design_space(
            CONFIGS, factory, checkpoint=cache, trace_key="tiny-trace"
        )
        materialized_first = len(calls)
        second = sweep_design_space(
            CONFIGS, factory, checkpoint=cache, trace_key="tiny-trace"
        )
        assert first == second == BASELINE
        # The fully-warm rerun never needed the trace at all.
        assert len(calls) == materialized_first

    def test_checkpoints_are_parallel_serial_compatible(
        self, checkpoint_store
    ):
        cache = checkpoint_store
        first = sweep_design_space(
            CONFIGS,
            trace(),
            policy=ExecutorPolicy(max_workers=2),
            checkpoint=cache,
        )
        journal = RunJournal()
        second = sweep_design_space(
            CONFIGS, trace(), checkpoint=cache, journal=journal
        )
        assert first == second == BASELINE
        assert not journal.select("pass")

    def test_snapshot_counts_only_checkpoint_lookups(self, checkpoint_store):
        checkpoint_store.put("unrelated", 1, namespace="metrics")
        journal = RunJournal()
        sweep_design_space(
            CONFIGS, trace(), checkpoint=checkpoint_store, journal=journal
        )
        checkpoint_store.get("unrelated", namespace="metrics")
        sweep_design_space(
            CONFIGS, trace(), checkpoint=checkpoint_store, journal=journal
        )
        snapshots = [
            e for e in journal.select("cache")
            if e["label"] == "sweep-checkpoint"
        ]
        assert [(e["hits"], e["misses"]) for e in snapshots] == [
            (0, 3),
            (3, 0),
        ]
        assert snapshots[-1]["entries"] == 3

    def test_distinct_traces_do_not_collide(self, checkpoint_store):
        cache = checkpoint_store
        sweep_design_space(CONFIGS, trace(), checkpoint=cache)

        starts, sizes = trace()
        other = (starts, [s * 2 for s in sizes])
        journal = RunJournal()
        sweep_design_space(CONFIGS, other, checkpoint=cache, journal=journal)
        # Different trace, different digest: no checkpoint hits, all three
        # groups re-simulated, stored under their own keys.
        assert len(journal.select("pass")) == 3
        assert len(cache) == 6  # 3 groups per trace


class TestTraceResidency:
    def test_unpicklable_factory_materialized_once_into_spill(self):
        """An unpicklable factory runs once; workers read one spill file."""
        calls = []

        def factory():
            calls.append(1)
            return trace()

        results = sweep_design_space(
            CONFIGS, factory, policy=ExecutorPolicy(max_workers=2)
        )
        assert results == BASELINE
        assert len(calls) == 1

    def test_picklable_factory_ships_to_workers(self):
        results = sweep_design_space(
            CONFIGS, trace, policy=ExecutorPolicy(max_workers=2)
        )
        assert results == BASELINE

    def test_journal_shows_chunkpath_shipping(self):
        journal = RunJournal()

        def factory():
            return trace()

        sweep_design_space(
            CONFIGS,
            factory,
            policy=ExecutorPolicy(max_workers=2),
            journal=journal,
        )
        events = journal.select("trace_materialized")
        assert len(events) == 1 and events[0]["line_size"] == "all"
        shipping = journal.select("trace_shipping")
        assert len(shipping) == 1
        event = shipping[0]
        assert event["mode"] == "chunkpath"
        assert event["jobs"] == 3
        assert event["chunks"] == 1  # one-chunk spill file
        assert event["bytes_mapped"] > event["bytes_shipped"] > 0
