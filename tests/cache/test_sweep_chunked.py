"""Chunked-trace sweeps: bit-identity, resume, sampling, shipping."""

import json

import numpy as np
import pytest

from repro.cache.cheetah import CheetahSimulator
from repro.cache.config import CacheConfig
from repro.cache.simulator import simulate_trace
from repro.cache.designspace import DesignSpaceSimulator
from repro.cache.linestream import (
    clear_line_stream_cache,
    line_stream_cache_stats,
)
from repro.cache.sweep import (
    CHECKPOINT_NAMESPACE,
    _feed_chunks,
    decode_chunk_state,
    encode_chunk_state,
    group_state_key,
    sampled_sweep_design_space,
    sweep_design_space,
)
from repro.errors import ConfigurationError
from repro.runtime.executor import ExecutorPolicy
from repro.runtime.journal import RunJournal
from repro.service.store import ResultStore
from repro.trace.chunkstore import ChunkedTrace, write_chunked
from repro.trace.sampling import SamplePlan


CONFIGS = [
    CacheConfig(8, 1, 16),
    CacheConfig(8, 2, 16),
    CacheConfig(16, 1, 16),
    CacheConfig(8, 1, 32),
    CacheConfig(16, 2, 32),
]


def make_trace(n=5000, seed=0):
    rng = np.random.default_rng(seed)
    starts = rng.integers(0, 1 << 14, n, dtype=np.int64)
    sizes = rng.integers(1, 64, n, dtype=np.int64)
    return starts, sizes


@pytest.fixture(scope="module")
def arrays():
    return make_trace()


@pytest.fixture(scope="module")
def exact(arrays):
    return sweep_design_space(CONFIGS, arrays)


class TestBitIdentity:
    def test_serial_chunked_matches_in_memory(self, tmp_path, arrays, exact):
        starts, sizes = arrays
        with write_chunked(
            tmp_path / "t.rct", starts, sizes, chunk_ranges=777
        ) as trace:
            got = sweep_design_space(CONFIGS, trace)
        assert set(got) == set(exact)
        for config in CONFIGS:
            assert got[config].misses == exact[config].misses
            assert got[config].accesses == exact[config].accesses
            assert not got[config].estimated

    def test_parallel_chunked_matches_in_memory(self, tmp_path, arrays, exact):
        starts, sizes = arrays
        journal = RunJournal()
        with write_chunked(
            tmp_path / "t.rct", starts, sizes, chunk_ranges=777
        ) as trace:
            got = sweep_design_space(
                CONFIGS,
                trace,
                policy=ExecutorPolicy(max_workers=2),
                journal=journal,
            )
        for config in CONFIGS:
            assert got[config].misses == exact[config].misses
        shipping = [
            e for e in journal.events if e["event"] == "trace_shipping"
        ]
        assert shipping and shipping[0]["mode"] == "chunkpath"

    def test_single_chunk_degenerate(self, tmp_path, arrays, exact):
        starts, sizes = arrays
        with write_chunked(tmp_path / "one.rct", starts, sizes) as trace:
            assert trace.n_chunks == 1
            got = sweep_design_space(CONFIGS, trace)
        for config in CONFIGS:
            assert got[config].misses == exact[config].misses


class TestChunkReads:
    def test_each_chunk_read_once_for_every_line_size(
        self, tmp_path, arrays, monkeypatch
    ):
        starts, sizes = arrays
        configs = [
            CacheConfig(sets, 2, line_size)
            for line_size in (16, 32, 64, 128)
            for sets in (8, 32)
        ]
        reads = []
        original = ChunkedTrace.chunk

        def counting_chunk(self, index):
            reads.append(index)
            return original(self, index)

        monkeypatch.setattr(ChunkedTrace, "chunk", counting_chunk)
        with write_chunked(
            tmp_path / "t.rct", starts, sizes, chunk_ranges=1000
        ) as trace:
            got = sweep_design_space(configs, trace)
            assert reads == list(range(trace.n_chunks))
        assert got == sweep_design_space(configs, arrays)


class TestChunkMemory:
    def test_chunk_streams_stay_out_of_the_memo(self, tmp_path, arrays):
        starts, sizes = arrays
        clear_line_stream_cache()
        with write_chunked(
            tmp_path / "t.rct", starts, sizes, chunk_ranges=1000
        ) as trace:
            sweep_design_space(CONFIGS, trace)
        assert line_stream_cache_stats()["resident_entries"] == 0
        # A one-chunk in-memory sweep still memoizes its streams.
        sweep_design_space(CONFIGS, arrays)
        assert line_stream_cache_stats()["resident_entries"] > 0
        clear_line_stream_cache()

    def test_carry_is_bounded_at_every_boundary(self, tmp_path, arrays):
        starts, sizes = arrays
        space = DesignSpaceSimulator.from_configs(CONFIGS)
        carries = []

        def boundary(next_chunk):
            for sim in space.simulators.values():
                carry = sim.full_state()[2]
                bound = max(sim.set_counts) * sim.max_assoc
                carries.append((next_chunk, len(carry), bound))

        with write_chunked(
            tmp_path / "t.rct", starts, sizes, chunk_ranges=1000
        ) as trace:
            _feed_chunks(space, trace, boundary=boundary)
            n_chunks = trace.n_chunks
        assert [chunk for chunk, _, _ in carries] == [
            chunk for chunk in range(1, n_chunks) for _ in space.simulators
        ]
        assert all(0 < size <= bound for _, size, bound in carries)
        # The last chunk was final: nothing is carried past it.
        for sim in space.simulators.values():
            with pytest.raises(ConfigurationError):
                sim.full_state()
        reference = DesignSpaceSimulator.from_configs(CONFIGS)
        reference.simulate(starts, sizes)
        assert space.results() == reference.results()


class TestFullStateRoundTrip:
    def test_resumed_simulator_matches_straight_run(self, arrays):
        starts, sizes = arrays
        sets = [8, 16]
        straight = CheetahSimulator(16, sets, 2)
        straight.simulate(starts, sizes)

        half = CheetahSimulator(16, sets, 2)
        half.simulate(starts[:2500], sizes[:2500])
        accesses, hists, carry = half.full_state()
        assert 0 < len(carry) <= 16 * 2
        resumed = CheetahSimulator.from_full_state(
            16, 2, accesses, hists, carry
        )
        resumed.simulate(starts[2500:], sizes[2500:])

        for nsets in sets:
            for assoc in (1, 2):
                assert resumed.misses(nsets, assoc) == straight.misses(
                    nsets, assoc
                )

    def test_snapshot_codec_round_trip(self, arrays):
        starts, sizes = arrays
        sim = CheetahSimulator(16, [8, 16], 2)
        sim.simulate(starts[:2500], sizes[:2500])
        state = sim.full_state()
        encoded = encode_chunk_state(3, state)
        assert len(encoded) == 4
        assert decode_chunk_state(json.loads(json.dumps(encoded))) == (
            3, *state
        )

    def test_rejects_an_impossible_carry(self):
        hists = {8: [0, 0, 0]}
        with pytest.raises(ConfigurationError):
            CheetahSimulator.from_full_state(16, 2, 0, hists, list(range(17)))
        with pytest.raises(ConfigurationError):
            CheetahSimulator.from_full_state(16, 2, 0, hists, [5, 5])


class TestChunkCheckpointResume:
    def test_sweep_resumes_from_mid_trace_snapshot(self, tmp_path, arrays,
                                                   exact):
        starts, sizes = arrays
        with write_chunked(
            tmp_path / "t.rct", starts, sizes, chunk_ranges=1000
        ) as trace:
            # Seed the cache with a genuine snapshot taken after 2 chunks,
            # as an interrupted sweep would have left it.
            cache = ResultStore(
                tmp_path / "ck.sqlite", namespace=CHECKPOINT_NAMESPACE
            )
            for line_size in (16, 32):
                group = [c for c in CONFIGS if c.line_size == line_size]
                set_counts = sorted({c.sets for c in group})
                max_assoc = max(c.assoc for c in group)
                sim = CheetahSimulator(line_size, set_counts, max_assoc)
                sim.simulate(starts[:2000], sizes[:2000])
                key = group_state_key(
                    trace.trace_id, line_size, set_counts, max_assoc,
                    prefix="sweepchunk",
                )
                cache.put(key, encode_chunk_state(2, sim.full_state()))
            journal = RunJournal()
            got = sweep_design_space(
                CONFIGS, trace, checkpoint=cache, journal=journal
            )
        for config in CONFIGS:
            assert got[config].misses == exact[config].misses
        resumed = [
            e
            for e in journal.events
            if e["event"] == "pass" and e.get("resumed_at_chunk") == 2
        ]
        assert len(resumed) == 2  # both line-size groups resumed

    def test_old_per_set_stack_snapshot_restarts_from_zero(
        self, tmp_path, arrays, exact
    ):
        """A 3-field snapshot (histograms plus per-set stacks, as earlier
        releases stored) decodes as foreign: the sweep starts over."""
        starts, sizes = arrays
        with write_chunked(
            tmp_path / "t.rct", starts, sizes, chunk_ranges=1000
        ) as trace:
            cache = ResultStore(
                tmp_path / "ck.sqlite", namespace=CHECKPOINT_NAMESPACE
            )
            for line_size in (16, 32):
                group = [c for c in CONFIGS if c.line_size == line_size]
                set_counts = sorted({c.sets for c in group})
                max_assoc = max(c.assoc for c in group)
                old = [
                    2,
                    123,
                    {
                        str(nsets): [[0] * (max_assoc + 1), [[]] * nsets]
                        for nsets in set_counts
                    },
                ]
                assert decode_chunk_state(old) is None
                key = group_state_key(
                    trace.trace_id, line_size, set_counts, max_assoc,
                    prefix="sweepchunk",
                )
                cache.put(key, old)
            journal = RunJournal()
            got = sweep_design_space(
                CONFIGS, trace, checkpoint=cache, journal=journal
            )
        for config in CONFIGS:
            assert got[config].misses == exact[config].misses
            assert got[config].accesses == exact[config].accesses
        passes = [e for e in journal.events if e["event"] == "pass"]
        assert len(passes) == 2
        assert not any(e.get("resumed_at_chunk") for e in passes)

    def test_snapshots_at_different_chunks_restart_from_zero(
        self, tmp_path, arrays, exact
    ):
        """Line-outer snapshots (one group further along) are not resumed."""
        starts, sizes = arrays
        with write_chunked(
            tmp_path / "t.rct", starts, sizes, chunk_ranges=1000
        ) as trace:
            cache = ResultStore(
                tmp_path / "ck.sqlite", namespace=CHECKPOINT_NAMESPACE
            )
            for line_size, done in ((16, 3), (32, 1)):
                group = [c for c in CONFIGS if c.line_size == line_size]
                set_counts = sorted({c.sets for c in group})
                max_assoc = max(c.assoc for c in group)
                sim = CheetahSimulator(line_size, set_counts, max_assoc)
                sim.simulate(starts[: done * 1000], sizes[: done * 1000])
                key = group_state_key(
                    trace.trace_id, line_size, set_counts, max_assoc,
                    prefix="sweepchunk",
                )
                cache.put(key, encode_chunk_state(done, sim.full_state()))
            journal = RunJournal()
            got = sweep_design_space(
                CONFIGS, trace, checkpoint=cache, journal=journal
            )
        for config in CONFIGS:
            assert got[config].misses == exact[config].misses
            assert got[config].accesses == exact[config].accesses
        passes = [e for e in journal.events if e["event"] == "pass"]
        assert len(passes) == 2
        assert not any(e.get("resumed_at_chunk") for e in passes)

    def test_boundary_snapshots_share_one_flush(self, tmp_path, arrays):
        starts, sizes = arrays
        cache = ResultStore(tmp_path / "ck.sqlite")
        blocks: list[list[tuple[str, int]]] = []
        original_put_many = cache.put_many

        def recording_put_many(items, namespace=None):
            blocks.append([(key, value[0]) for key, value in items.items()])
            original_put_many(items, namespace=namespace)

        cache.put_many = recording_put_many
        with write_chunked(
            tmp_path / "t.rct", starts, sizes, chunk_ranges=1000
        ) as trace:
            sweep_design_space(CONFIGS, trace, checkpoint=cache)
            n_chunks = trace.n_chunks
        boundaries = [
            block
            for block in blocks
            if any(key.startswith("sweepchunk:") for key, _ in block)
        ]
        assert len(boundaries) == n_chunks - 1
        for index, block in enumerate(boundaries, start=1):
            # Both line-size groups, snapshotted at the same boundary.
            assert sorted(key.split(":line=")[1][:2] for key, _ in block) == [
                "16",
                "32",
            ]
            assert {chunk for _, chunk in block} == {index}

    def test_killed_sweep_resumes_at_last_boundary(
        self, tmp_path, arrays, exact, monkeypatch
    ):
        starts, sizes = arrays
        path = tmp_path / "ck.sqlite"
        original = ChunkedTrace.chunk

        def failing_chunk(self, index):
            if index == 3:
                raise KeyboardInterrupt("killed")
            return original(self, index)

        with write_chunked(
            tmp_path / "t.rct", starts, sizes, chunk_ranges=1000
        ) as trace:
            monkeypatch.setattr(ChunkedTrace, "chunk", failing_chunk)
            with pytest.raises(KeyboardInterrupt):
                sweep_design_space(
                    CONFIGS, trace, checkpoint=ResultStore(path)
                )
            monkeypatch.setattr(ChunkedTrace, "chunk", original)
            journal = RunJournal()
            got = sweep_design_space(
                CONFIGS, trace, checkpoint=ResultStore(path),
                journal=journal,
            )
        for config in CONFIGS:
            assert got[config].misses == exact[config].misses
        passes = [e for e in journal.events if e["event"] == "pass"]
        assert [e.get("resumed_at_chunk") for e in passes] == [3, 3]

    def test_second_run_hits_group_checkpoint(self, tmp_path, arrays):
        starts, sizes = arrays
        cache = ResultStore(tmp_path / "ck.sqlite")
        with write_chunked(
            tmp_path / "t.rct", starts, sizes, chunk_ranges=1000
        ) as trace:
            first = sweep_design_space(CONFIGS, trace, checkpoint=cache)
            journal = RunJournal()
            second = sweep_design_space(
                CONFIGS, trace, checkpoint=cache, journal=journal
            )
        assert first == second
        passes = [e for e in journal.events if e["event"] == "pass"]
        assert passes == []  # everything came from the checkpoint


class TestSampledSweep:
    def test_error_bound_on_stationary_trace(self, tmp_path, arrays, exact):
        starts, sizes = arrays
        plan = SamplePlan(8, 400, warmup_ranges=100)
        for trace_arg in (
            (starts, sizes),
            write_chunked(tmp_path / "s.rct", starts, sizes,
                          chunk_ranges=600),
        ):
            got = sampled_sweep_design_space(CONFIGS, trace_arg, plan)
            for config in CONFIGS:
                result = got[config]
                assert result.estimated
                assert result.intervals == 8
                assert result.total_ranges == len(starts)
                assert 0 < result.sampled_fraction < 1
                true = exact[config].misses
                if true:
                    rel = abs(result.misses - true) / true
                    assert rel <= 0.10, (config, rel)

    def test_sampled_and_exact_results_are_distinct_types(self, arrays):
        starts, sizes = arrays
        plan = SamplePlan(4, 300)
        sampled = sampled_sweep_design_space(CONFIGS, (starts, sizes), plan)
        exact_one = simulate_trace(CONFIGS[0], starts, sizes)
        assert sampled[CONFIGS[0]].estimated
        assert not exact_one.estimated

    def test_simulate_trace_sampling(self, arrays, exact):
        starts, sizes = arrays
        plan = SamplePlan(8, 400, warmup_ranges=100)
        result = simulate_trace(CONFIGS[0], starts, sizes, sample=plan)
        assert result.estimated
        true = exact[CONFIGS[0]].misses
        assert abs(result.misses - true) / true <= 0.10

    def test_journal_records_sampling(self, arrays):
        starts, sizes = arrays
        journal = RunJournal()
        plan = SamplePlan(4, 300)
        sampled_sweep_design_space(
            CONFIGS, (starts, sizes), plan, journal=journal
        )
        events = [e for e in journal.events if e["event"] == "sampled_pass"]
        assert events
        summary = journal.summary()
        assert summary["sampling"]["passes"] == len(events)
        assert 0 < summary["sampling"]["sampled_ranges"]

    def test_empty_trace(self):
        plan = SamplePlan(4, 300)
        got = sampled_sweep_design_space(CONFIGS, ([], []), plan)
        for config in CONFIGS:
            assert got[config].misses == 0
            assert got[config].intervals == 0
