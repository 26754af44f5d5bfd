"""Fault-tolerant executor: retries, timeouts, fallback, accounting."""

import pytest

from repro.errors import ConfigurationError, RuntimeExecutionError
from repro.runtime import (
    ExecutorPolicy,
    FaultPlan,
    Job,
    RunJournal,
    run_jobs,
)


def square(x):
    return x * x


def boom(x):
    raise ValueError(f"bad input {x}")


def make_jobs(n=6):
    return [Job(key=i, fn=square, args=(i,)) for i in range(n)]


def values(results):
    return {key: r.value for key, r in results.items()}


EXPECTED = {i: i * i for i in range(6)}


class TestPolicyValidation:
    @pytest.mark.parametrize(
        "knobs",
        [
            {"max_workers": 0},
            {"max_workers": -3},
            {"max_workers": True},
            {"max_workers": 2.0},
            {"max_workers": "2"},
            {"timeout": 0},
            {"timeout": -1},
            {"timeout": float("inf")},
            {"timeout": float("nan")},
            {"timeout": "soon"},
            {"retries": -1},
            {"retries": 1.5},
            {"retries": None},
            {"backoff": -0.1},
        ],
        ids=repr,
    )
    def test_out_of_range_knobs_rejected(self, knobs):
        with pytest.raises(ConfigurationError):
            ExecutorPolicy(**knobs)

    def test_defaults_and_edges_accepted(self):
        ExecutorPolicy()
        ExecutorPolicy(max_workers=1, timeout=0.5, retries=0, backoff=0)

    @pytest.mark.parametrize(
        "max_workers, n_units, fans_out",
        [(None, 8, False), (1, 8, False), (2, 1, False), (2, 2, True)],
    )
    def test_fans_out(self, max_workers, n_units, fans_out):
        policy = ExecutorPolicy(max_workers=max_workers)
        assert policy.fans_out(n_units) is fans_out


class TestSerial:
    def test_serial_results(self):
        results = run_jobs(make_jobs())
        assert values(results) == EXPECTED
        assert all(r.where == "serial" for r in results.values())
        assert all(r.attempts == 1 for r in results.values())

    def test_single_job_stays_serial(self):
        results = run_jobs(
            [Job(key="only", fn=square, args=(3,))],
            ExecutorPolicy(max_workers=8),
        )
        assert results["only"].value == 9
        assert results["only"].where == "serial"

    def test_empty(self):
        assert run_jobs([]) == {}

    def test_duplicate_keys_rejected(self):
        jobs = [Job(key="k", fn=square, args=(1,))] * 2
        with pytest.raises(RuntimeExecutionError, match="unique"):
            run_jobs(jobs)

    def test_serial_failure_after_retries(self):
        journal = RunJournal()
        results = run_jobs(
            [Job(key="bad", fn=boom, args=(1,))],
            ExecutorPolicy(retries=2, backoff=0.0),
            journal,
        )
        assert not results["bad"].ok
        assert results["bad"].attempts == 3
        assert "bad input" in results["bad"].error
        assert len(journal.select("retry")) == 2
        assert len(journal.select("job_failed")) == 1


class TestParallel:
    def test_parallel_matches_serial(self):
        results = run_jobs(make_jobs(), ExecutorPolicy(max_workers=3))
        assert values(results) == EXPECTED
        assert all(r.where == "worker" for r in results.values())

    def test_worker_raise_is_retried(self):
        journal = RunJournal()
        fault = FaultPlan("raise", match="2", times=1)
        results = run_jobs(
            make_jobs(),
            ExecutorPolicy(max_workers=3, retries=2, backoff=0.01, fault=fault),
            journal,
        )
        assert values(results) == EXPECTED
        assert results[2].attempts == 2
        retries = journal.select("retry")
        assert len(retries) == 1
        assert retries[0]["key"] == "2"
        assert "InjectedWorkerFault" in retries[0]["error"]

    def test_worker_raise_exhausts_retries(self):
        journal = RunJournal()
        fault = FaultPlan("raise", match="4", times=99)
        results = run_jobs(
            make_jobs(),
            ExecutorPolicy(max_workers=3, retries=1, backoff=0.0, fault=fault),
            journal,
        )
        assert not results[4].ok
        assert results[4].attempts == 2
        # The failure is isolated: every other job still succeeded.
        good = {k: r.value for k, r in results.items() if r.ok}
        assert good == {k: v for k, v in EXPECTED.items() if k != 4}
        assert len(journal.select("job_failed")) == 1

    def test_worker_death_falls_back_to_serial(self):
        journal = RunJournal()
        fault = FaultPlan("exit", match="3", times=1)
        results = run_jobs(
            make_jobs(),
            ExecutorPolicy(max_workers=2, retries=2, backoff=0.0, fault=fault),
            journal,
        )
        assert values(results) == EXPECTED
        fallbacks = journal.select("fallback")
        assert len(fallbacks) == 1
        assert fallbacks[0]["reason"] == "broken_pool"
        # The crashing job was re-run in-process (fault degraded to raise,
        # then retried) and still produced its value.
        assert results[3].where == "serial-fallback"

    def test_fallback_disabled_raises(self):
        fault = FaultPlan("exit", match="3", times=1)
        with pytest.raises(RuntimeExecutionError, match="broken_pool"):
            run_jobs(
                make_jobs(),
                ExecutorPolicy(
                    max_workers=2,
                    retries=2,
                    backoff=0.0,
                    serial_fallback=False,
                    fault=fault,
                ),
            )

    def test_hung_worker_times_out_and_retries(self):
        journal = RunJournal()
        fault = FaultPlan("hang", match="1", times=1)
        results = run_jobs(
            make_jobs(),
            ExecutorPolicy(
                max_workers=2, timeout=0.5, retries=2, backoff=0.0, fault=fault
            ),
            journal,
        )
        assert values(results) == EXPECTED
        timeouts = journal.select("timeout")
        assert len(timeouts) == 1
        assert timeouts[0]["key"] == "1"
        assert journal.select("pool_restart")
        assert results[1].attempts == 2

    def test_pool_start_failure_degrades(self, monkeypatch):
        import repro.runtime.executor as executor_module

        def refuse(*args, **kwargs):
            raise OSError("no more processes")

        monkeypatch.setattr(
            executor_module, "ProcessPoolExecutor", refuse
        )
        journal = RunJournal()
        results = run_jobs(
            make_jobs(), ExecutorPolicy(max_workers=3), journal
        )
        assert values(results) == EXPECTED
        assert journal.select("pool_start_failed")
        fallbacks = journal.select("fallback")
        assert fallbacks and fallbacks[0]["reason"] == "pool_start_failed"

    def test_worker_utilization_recorded(self):
        journal = RunJournal()
        run_jobs(make_jobs(), ExecutorPolicy(max_workers=2), journal)
        utils = journal.select("worker_util")
        assert len(utils) == 1
        assert utils[0]["workers"] == 2
        assert 0.0 <= utils[0]["utilization"] <= 1.0


class TestFaultPlan:
    def test_match_and_times(self):
        plan = FaultPlan("raise", match="ic", times=2)
        assert plan.fires(("icache", 32), 0)
        assert plan.fires(("icache", 32), 1)
        assert not plan.fires(("icache", 32), 2)
        assert not plan.fires(("dcache", 32), 0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(RuntimeExecutionError, match="fault kind"):
            FaultPlan("segv")
