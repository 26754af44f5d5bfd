"""Acceptance: recording never perturbs results, even under faults.

Reuses the fault-injection machinery from ``scripts/ci_fault_sweep.py``
(same configs, trace, and fault plan): a fault-injected sweep must
produce a run whose retry/fallback columns match its journal window,
and ``compare_runs`` between the faulty and fault-free runs must report
identical rows and identical Pareto frontiers — bit-identity preserved.
"""

import sys
from pathlib import Path

import pytest

from repro.analytics.compare import compare_runs
from repro.analytics.runs import RunRecorder, get_run, get_run_rows
from repro.cache.sweep import sweep_design_space
from repro.runtime import ExecutorPolicy, FaultPlan, RunJournal
from repro.service.store import ResultStore

SCRIPTS = Path(__file__).resolve().parents[2] / "scripts"
sys.path.insert(0, str(SCRIPTS))

from ci_fault_sweep import SWEEP_CONFIGS, sweep_trace  # noqa: E402


@pytest.fixture
def store(tmp_path):
    s = ResultStore(tmp_path / "fault_runs.sqlite")
    try:
        yield s
    finally:
        s.close()


def record_sweep(store, run_id, policy=ExecutorPolicy()):
    journal = RunJournal()
    with RunRecorder(
        store, "sweep", journal=journal, run_id=run_id, benchmark="synthetic"
    ) as rec:
        results = sweep_design_space(
            SWEEP_CONFIGS,
            sweep_trace if policy.fault is not None else sweep_trace(),
            policy=policy,
            journal=journal,
        )
        rec.add_sweep_results(results, benchmark="synthetic")
    return results, journal


class TestFaultInjectedRecording:
    def test_faulty_run_matches_clean_run(self, store):
        clean, _ = record_sweep(store, "clean")
        policy = ExecutorPolicy(
            max_workers=2,
            retries=2,
            backoff=0.0,
            fault=FaultPlan("exit", match="32", times=1),
        )
        faulty, journal = record_sweep(store, "faulty", policy=policy)

        # Bit-identity first: recording and faults perturbed nothing.
        assert faulty == clean

        # The faulty run's columns must match its journal window.
        run = get_run(store, "faulty")
        retries = len(journal.select("retry"))
        fallbacks = len(journal.select("fallback"))
        assert retries + fallbacks > 0, "fault plan injected nothing"
        assert run["journal"]["retries"] == retries
        assert run["journal"]["fallbacks"] == fallbacks
        for row in get_run_rows(store, "faulty"):
            assert row["retries"] == retries
            assert row["fallbacks"] == fallbacks

        # The clean run saw no recovery events.
        clean_run = get_run(store, "clean")
        assert clean_run["journal"]["retries"] == 0
        assert clean_run["journal"]["fallbacks"] == 0

        # And the comparison document agrees: identical rows, identical
        # frontiers, no metric drift.
        doc = compare_runs(store, "clean", "faulty")
        assert doc["rows"]["identical"]
        assert all(v == 0.0 for v in doc["rows"]["max_abs_delta"].values())
        assert doc["frontier"]["identical"]
        assert doc["frontier"]["a"], "frontier unexpectedly empty"

    def test_recording_is_observational(self, store):
        """The same sweep, recorded and unrecorded, yields equal maps."""
        unrecorded = sweep_design_space(SWEEP_CONFIGS, sweep_trace())
        recorded, _ = record_sweep(store, "observed")
        assert recorded == unrecorded
