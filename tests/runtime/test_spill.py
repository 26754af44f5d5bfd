"""Worker trace shipping through temporary chunked spill files.

The contract under test: a trace reaches a worker only as the
``(path, digest)`` of a chunked trace file.  An in-memory trace is
spilled to a one-chunk raw file that the parent unlinks on every exit
path — clean runs, killed workers, serial fallback and failed sweeps —
and results are bit-identical to the in-process simulation.
"""

import pickle
import tempfile

import numpy as np
import pytest

from repro.analytics.runs import derive_journal_columns
from repro.cache.config import CacheConfig
from repro.cache.cheetah import CheetahSimulator
from repro.cache.sweep import simulate_group_from_chunks, sweep_design_space
from repro.errors import RuntimeExecutionError
from repro.explore.evaluators import MemoryEvaluator
from repro.runtime.executor import ExecutorPolicy, FaultPlan
from repro.runtime.journal import RunJournal
from repro.trace.chunkstore import spilled_trace, write_chunked
from repro.trace.ranges import KIND_DATA, KIND_INSTR, RangeTrace

CONFIGS = [
    CacheConfig(8, 1, 16),
    CacheConfig(16, 2, 16),
    CacheConfig(8, 1, 32),
    CacheConfig(4, 4, 32),
    CacheConfig(16, 2, 64),
]


def trace():
    rng = np.random.default_rng(2)
    return rng.integers(0, 1 << 12, 300), rng.integers(1, 48, 300)


@pytest.fixture
def spill_dir(tmp_path, monkeypatch):
    """Route temporary files into an empty directory the test inspects."""
    path = tmp_path / "spill"
    path.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(path))
    return path


def assert_empty(path):
    leftovers = sorted(p.name for p in path.iterdir())
    assert leftovers == [], f"spill files survived: {leftovers}"


class TestSpilledTrace:
    def test_in_memory_trace_spills_to_one_raw_chunk(self, spill_dir):
        starts, sizes = trace()
        with spilled_trace((starts, sizes)) as ctrace:
            assert ctrace.path.parent == spill_dir
            assert ctrace.n_chunks == 1
            assert ctrace.codec == "raw"
            got_starts, got_sizes = ctrace.materialize()
            assert got_starts.tolist() == starts.tolist()
            assert got_sizes.tolist() == sizes.tolist()
        assert_empty(spill_dir)

    def test_empty_trace(self, spill_dir):
        with spilled_trace(([], [])) as ctrace:
            assert ctrace.n_ranges == 0
        assert_empty(spill_dir)

    def test_spill_file_unlinked_on_exception(self, spill_dir):
        with pytest.raises(KeyError):
            with spilled_trace(trace()):
                raise KeyError("boom")
        assert_empty(spill_dir)

    def test_chunked_trace_passes_through_unchanged(self, tmp_path):
        ctrace = write_chunked(tmp_path / "t.rcht", *trace(), chunk_ranges=64)
        with spilled_trace(ctrace) as shipped:
            assert shipped is ctrace
        assert ctrace.path.exists()
        ctrace.close()

    def test_handle_round_trip_through_pickle(self, spill_dir):
        starts, sizes = trace()
        with spilled_trace((starts, sizes)) as ctrace:
            handle = (str(ctrace.path), ctrace.digest)
            assert len(pickle.dumps(handle)) < 4096 < ctrace.path.stat().st_size
            state = simulate_group_from_chunks(
                16, [8, 16], 4, *pickle.loads(pickle.dumps(handle))
            )
        reference = CheetahSimulator(16, [8, 16], 4)
        reference.simulate(starts, sizes)
        assert state == reference.state()

    def test_digest_mismatch_rejected(self, spill_dir):
        with spilled_trace(trace()) as ctrace:
            with pytest.raises(RuntimeExecutionError, match="digest"):
                simulate_group_from_chunks(
                    16, [8], 2, str(ctrace.path), "0" * 32
                )


class TestSweepHygiene:
    def baseline(self):
        return sweep_design_space(CONFIGS, trace(), strategy="perline")

    def test_clean_parallel_sweep_no_leak(self, spill_dir):
        results = sweep_design_space(
            CONFIGS, trace(), policy=ExecutorPolicy(max_workers=2)
        )
        assert results == self.baseline()
        assert_empty(spill_dir)

    def test_worker_kill_no_leak(self, spill_dir):
        """A worker dying mid-sweep must not orphan the spill file."""
        journal = RunJournal()
        policy = ExecutorPolicy(
            max_workers=2,
            retries=2,
            backoff=0.0,
            fault=FaultPlan(kind="exit", match="32", times=1),
        )
        results = sweep_design_space(
            CONFIGS, trace(), policy=policy, journal=journal
        )
        assert results == self.baseline()
        assert journal.select("retry") or journal.select("fallback")
        assert_empty(spill_dir)

    def test_broken_pool_serial_fallback_no_leak(self, spill_dir):
        """Every attempt dies -> serial fallback reads the spill file
        in-process (the parent still holds it) and unlinks after."""
        journal = RunJournal()
        policy = ExecutorPolicy(
            max_workers=2,
            retries=1,
            backoff=0.0,
            fault=FaultPlan(kind="exit", match="", times=1),
        )
        results = sweep_design_space(
            CONFIGS, trace(), policy=policy, journal=journal
        )
        assert results == self.baseline()
        assert journal.select("fallback")
        assert_empty(spill_dir)

    def test_failed_sweep_still_unlinks(self, spill_dir):
        policy = ExecutorPolicy(
            max_workers=2,
            retries=0,
            backoff=0.0,
            fault=FaultPlan(kind="raise", match="", times=99),
        )
        with pytest.raises(RuntimeExecutionError):
            sweep_design_space(CONFIGS, trace(), policy=policy)
        assert_empty(spill_dir)

    def test_journal_counts_bytes_saved(self, spill_dir):
        journal = RunJournal()
        sweep_design_space(
            CONFIGS, trace(), policy=ExecutorPolicy(max_workers=2), journal=journal
        )
        summary = journal.summary()["trace_shipping"]
        assert summary["jobs"] == 3  # one per distinct line size
        assert summary["bytes_mapped"] > summary["bytes_shipped"] > 0
        assert summary["bytes_saved"] > 0
        text = journal.summary_text()
        assert "trace shipping: 3 jobs" in text

    def test_chunked_sweep_records_bytes_shipped(self, tmp_path):
        ctrace = write_chunked(tmp_path / "t.rcht", *trace(), chunk_ranges=64)
        journal = RunJournal()
        results = sweep_design_space(
            CONFIGS, ctrace, policy=ExecutorPolicy(max_workers=2), journal=journal
        )
        assert results == self.baseline()
        cols = derive_journal_columns(journal.events)
        assert cols["bytes_mapped"] > cols["bytes_shipped"] > 0
        ctrace.close()


class TestPrimeShipping:
    def test_prime_parallel_spills_and_cleans_up(self, spill_dir):
        rng = np.random.default_rng(9)
        n = 200
        instr = RangeTrace.build(
            rng.integers(0, 4096, n).tolist(),
            rng.integers(1, 32, n).tolist(),
            KIND_INSTR,
        )
        data = RangeTrace.build(
            rng.integers(0, 4096, n).tolist(),
            rng.integers(1, 32, n).tolist(),
            KIND_DATA,
        )
        unified = RangeTrace.concatenate([instr, data])
        configs = [CacheConfig(8, 1, 16), CacheConfig(8, 1, 32)]

        def build(policy=ExecutorPolicy()):
            ev = MemoryEvaluator(
                instr, data, unified, params=None, max_assoc=2, policy=policy
            )
            for role in ("icache", "dcache"):
                ev.register(role, configs)
            return ev

        journal = RunJournal()
        parallel = build(
            ExecutorPolicy(
                max_workers=2,
                retries=2,
                backoff=0.0,
                fault=FaultPlan(kind="exit", match="icache", times=1),
            )
        )
        assert parallel.prime(journal=journal) == 4
        assert_empty(spill_dir)
        shipping = journal.select("trace_shipping")
        assert len(shipping) == 1
        # One spill file per role, shared by both line sizes' jobs.
        assert shipping[0]["jobs"] == 4
        assert shipping[0]["trace_ranges"] == len(instr) + len(data)
        assert shipping[0]["chunks"] == 2

        serial = build()
        serial.prime()
        for role in ("icache", "dcache"):
            for config in configs:
                assert parallel.simulated_misses(role, config) == (
                    serial.simulated_misses(role, config)
                )
