"""Parallel sweep_design_space must be result-identical to serial."""

from repro.cache.cheetah import CheetahSimulator
from repro.cache.config import CacheConfig
from repro.cache.sweep import simulate_group_from_chunks, sweep_design_space
from repro.runtime.executor import ExecutorPolicy
from repro.trace.chunkstore import spilled_trace

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


class TestParallelSweep:
    def test_parallel_equals_serial(self):
        serial = sweep_design_space(CONFIGS, trace())
        parallel = sweep_design_space(
            CONFIGS, trace(), policy=ExecutorPolicy(max_workers=2)
        )
        assert set(serial) == set(parallel)
        for config in CONFIGS:
            assert serial[config] == parallel[config]

    def test_parallel_with_trace_factory(self):
        calls = []

        def factory():
            calls.append(1)
            return trace()

        parallel = sweep_design_space(
            CONFIGS, factory, policy=ExecutorPolicy(max_workers=2)
        )
        serial = sweep_design_space(CONFIGS, trace())
        # The parent materializes the trace once and spills it to one
        # file that every group's worker reads.
        assert len(calls) == 1
        assert parallel == serial

    def test_single_group_stays_serial(self):
        configs = [CacheConfig(8, 1, 16), CacheConfig(16, 1, 16)]
        parallel = sweep_design_space(
            configs, trace(), policy=ExecutorPolicy(max_workers=4)
        )
        assert parallel == sweep_design_space(configs, trace())


class TestGroupStateUnit:
    def test_state_round_trip(self):
        starts, sizes = trace()
        with spilled_trace((starts, sizes)) as ctrace:
            accesses, hists = simulate_group_from_chunks(
                16, [8, 16], 4, str(ctrace.path), ctrace.digest
            )
        rebuilt = CheetahSimulator.from_state(16, 4, accesses, hists)
        direct = CheetahSimulator(16, [8, 16], max_assoc=4)
        direct.simulate(starts, sizes)
        for sets in (8, 16):
            for assoc in (1, 2, 4):
                assert rebuilt.misses(sets, assoc) == direct.misses(sets, assoc)
