"""Unit tests for repro.cache.cheetah (single-pass multi-config simulator)."""

import gc
import random

import pytest

from repro.cache.cheetah import CheetahSimulator, simulate_many
from repro.cache.config import CacheConfig
from repro.cache.simulator import simulate_trace
from repro.errors import ConfigurationError


def random_trace(n, seed=0, span=4096):
    rng = random.Random(seed)
    starts, sizes = [], []
    for _ in range(n):
        if rng.random() < 0.5:
            # Instruction-like range.
            starts.append(rng.randrange(0, span, 4))
            sizes.append(rng.choice([8, 16, 24, 40, 64]))
        else:
            starts.append(rng.randrange(0, span, 4))
            sizes.append(4)
    return starts, sizes


class TestCheetahVsDirect:
    @pytest.mark.parametrize("sets", [1, 8, 32])
    @pytest.mark.parametrize("assoc", [1, 2, 4])
    def test_matches_direct_simulator(self, sets, assoc):
        starts, sizes = random_trace(600, seed=sets * 10 + assoc)
        sim = CheetahSimulator(16, [sets], max_assoc=4)
        sim.simulate(starts, sizes)
        config = CacheConfig(sets, assoc, 16)
        direct = simulate_trace(config, starts, sizes)
        assert sim.misses(sets, assoc) == direct.misses
        assert sim.accesses == direct.accesses

    def test_multiple_set_counts_in_one_pass(self):
        starts, sizes = random_trace(500, seed=7)
        sim = CheetahSimulator(32, [8, 16, 64], max_assoc=8)
        sim.simulate(starts, sizes)
        for sets in (8, 16, 64):
            for assoc in (1, 3, 8):
                direct = simulate_trace(
                    CacheConfig(sets, assoc, 32), starts, sizes
                )
                assert sim.misses(sets, assoc) == direct.misses


class TestStackDistanceProperties:
    def test_misses_non_increasing_in_assoc(self):
        starts, sizes = random_trace(800, seed=3)
        sim = CheetahSimulator(16, [16], max_assoc=8)
        sim.simulate(starts, sizes)
        misses = [sim.misses(16, a) for a in range(1, 9)]
        assert misses == sorted(misses, reverse=True)

    def test_incremental_feeding_equals_single_shot(self):
        starts, sizes = random_trace(400, seed=5)
        whole = CheetahSimulator(16, [8], max_assoc=4)
        whole.simulate(starts, sizes)
        pieces = CheetahSimulator(16, [8], max_assoc=4)
        pieces.simulate(starts[:150], sizes[:150])
        pieces.simulate(starts[150:], sizes[150:])
        assert whole.misses(8, 2) == pieces.misses(8, 2)

    def test_reset(self):
        starts, sizes = random_trace(100)
        sim = CheetahSimulator(16, [8], max_assoc=2)
        sim.simulate(starts, sizes)
        sim.reset()
        assert sim.accesses == 0
        assert sim.misses(8, 1) == 0


class TestApi:
    def test_untracked_set_count_rejected(self):
        sim = CheetahSimulator(16, [8], max_assoc=2)
        with pytest.raises(ConfigurationError, match="not tracked"):
            sim.misses(16, 1)

    def test_assoc_out_of_range_rejected(self):
        sim = CheetahSimulator(16, [8], max_assoc=2)
        with pytest.raises(ConfigurationError, match="outside"):
            sim.misses(8, 3)

    def test_construction_allocates_no_per_set_objects(self):
        # Histograms only: LRU state lives in one carried array, so a
        # 1024-set family costs no per-set Python objects.
        gc.collect()
        before = len(gc.get_objects())
        sim = CheetahSimulator(64, [1024], 8)
        assert len(gc.get_objects()) - before < 16
        assert sim.misses(1024, 8) == 0

    def test_duplicate_set_counts_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicates"):
            CheetahSimulator(16, [8, 8], max_assoc=2)

    def test_result_checks_line_size(self):
        sim = CheetahSimulator(16, [8], max_assoc=2)
        with pytest.raises(ConfigurationError, match="line size"):
            sim.result(CacheConfig(8, 1, 32))

    def test_results_enumerates_grid(self):
        starts, sizes = random_trace(50)
        sim = CheetahSimulator(16, [4, 8], max_assoc=2)
        sim.simulate(starts, sizes)
        results = sim.results()
        assert len(results) == 4  # 2 set counts x 2 associativities
        for config, result in results.items():
            assert result.config == config
            assert 0 <= result.misses <= result.accesses


class TestSimulateMany:
    def test_mixed_line_sizes_rejected(self):
        configs = [CacheConfig(8, 1, 16), CacheConfig(8, 1, 32)]
        with pytest.raises(ConfigurationError, match="common line size"):
            simulate_many(configs, [0], [4])

    def test_empty_config_list(self):
        assert simulate_many([], [0], [4]) == {}

    def test_results_match_direct(self):
        starts, sizes = random_trace(300, seed=11)
        configs = [
            CacheConfig(8, 1, 32),
            CacheConfig(8, 2, 32),
            CacheConfig(32, 1, 32),
        ]
        results = simulate_many(configs, starts, sizes)
        for config in configs:
            direct = simulate_trace(config, starts, sizes)
            assert results[config].misses == direct.misses
