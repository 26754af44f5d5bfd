"""Unit tests for repro.cache.sweep."""

import pytest

from repro.cache.config import CacheConfig
from repro.cache.simulator import simulate_trace
from repro.cache.sweep import simulation_passes_required, sweep_design_space
from repro.runtime.executor import ExecutorPolicy


def small_trace():
    starts = [0, 32, 64, 0, 128, 256, 32, 512, 0]
    sizes = [16, 16, 32, 16, 64, 16, 16, 16, 16]
    return starts, sizes


class TestSweep:
    def test_covers_all_configs(self):
        configs = [
            CacheConfig(8, 1, 16),
            CacheConfig(8, 2, 16),
            CacheConfig(16, 1, 32),
            CacheConfig(8, 1, 32),
        ]
        results = sweep_design_space(configs, small_trace())
        assert set(results) == set(configs)
        for config in configs:
            expected = simulate_trace(config, *small_trace())
            assert results[config].misses == expected.misses

    def test_trace_factory_called_once_for_design_space(self):
        calls = []

        def factory():
            calls.append(1)
            return small_trace()

        configs = [CacheConfig(8, 1, 16), CacheConfig(8, 1, 32)]
        sweep_design_space(configs, factory)
        # The whole-design-space kernel materializes the trace once and
        # derives every coarser line size from the finest stream.
        assert len(calls) == 1

    def test_trace_factory_called_once_with_perline(self):
        calls = []

        def factory():
            calls.append(1)
            return small_trace()

        configs = [CacheConfig(8, 1, 16), CacheConfig(8, 1, 32)]
        results = sweep_design_space(configs, factory, strategy="perline")
        # The reference producer reads the same one-chunk in-memory
        # trace as every other path; only the simulation is per line.
        assert len(calls) == 1
        assert results == sweep_design_space(configs, small_trace())

    @pytest.mark.parametrize(
        "line_sizes, max_workers",
        [((16, 32), None), ((16,), None), ((16, 32), 2)],
        ids=["in-process", "one-group", "workers"],
    )
    def test_checkpointed_sweep_calls_factory_once(
        self, line_sizes, max_workers, checkpoint_store
    ):
        """The checkpoint digest and the simulation share one read."""
        calls = []

        def factory():
            calls.append(1)
            return small_trace()

        configs = [CacheConfig(8, 1, line) for line in line_sizes]
        cache = checkpoint_store
        results = sweep_design_space(
            configs,
            factory,
            policy=ExecutorPolicy(max_workers=max_workers),
            checkpoint=cache,
        )
        assert len(calls) == 1
        assert results == sweep_design_space(configs, small_trace())
        assert len(cache) == len(line_sizes)

    def test_passes_required_counts_distinct_line_sizes(self):
        configs = [
            CacheConfig(8, 1, 16),
            CacheConfig(16, 2, 16),
            CacheConfig(8, 1, 32),
        ]
        assert simulation_passes_required(configs) == 2
        assert simulation_passes_required([]) == 0

    def test_order_of_magnitude_claim(self):
        """Section 1: 20 caches with 2 line sizes -> ~10x fewer passes."""
        configs = [
            CacheConfig(sets, assoc, line)
            for line in (16, 32)
            for sets in (16, 32, 64, 128, 256)
            for assoc in (1, 2)
        ]
        assert len(configs) == 20
        assert simulation_passes_required(configs) == 2
