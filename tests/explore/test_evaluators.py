"""Unit tests for repro.explore.evaluators."""

import pytest

from repro.cache.config import CacheConfig
from repro.cache.sweep import CHECKPOINT_NAMESPACE
from repro.errors import ConfigurationError
from repro.explore.evaluators import (
    EvaluationCosts,
    MemoryEvaluator,
    exhaustive_evaluation_hours,
    hierarchical_evaluation_hours,
)
from repro.trace.ranges import KIND_DATA, KIND_INSTR, RangeTrace


def toy_traces():
    itrace = RangeTrace.build(
        [i % 7 * 64 for i in range(300)], [48] * 300, KIND_INSTR
    )
    dtrace = RangeTrace.build(
        [0x100000 + (i * 52) % 4096 for i in range(300)], [4] * 300, KIND_DATA
    )
    unified = RangeTrace.concatenate([itrace, dtrace])
    return itrace, dtrace, unified


def make_evaluator(params=None):
    itrace, dtrace, unified = toy_traces()
    return MemoryEvaluator(itrace, dtrace, unified, params)


class TestSimulationBatching:
    def test_one_pass_per_role_and_line_size(self):
        evaluator = make_evaluator()
        configs = [
            CacheConfig(8, 1, 32),
            CacheConfig(16, 1, 32),
            CacheConfig(8, 2, 32),
        ]
        evaluator.register("icache", configs)
        for config in configs:
            evaluator.simulated_misses("icache", config)
        assert evaluator.simulation_passes == 1

    def test_late_registration_redoes_pass(self):
        evaluator = make_evaluator()
        evaluator.simulated_misses("icache", CacheConfig(8, 1, 32))
        assert evaluator.simulation_passes == 1
        # New set count for the same line size forces one redo.
        evaluator.simulated_misses("icache", CacheConfig(64, 1, 32))
        assert evaluator.simulation_passes == 2
        # Both remain answerable without further passes.
        evaluator.simulated_misses("icache", CacheConfig(8, 1, 32))
        assert evaluator.simulation_passes == 2

    def test_distinct_line_sizes_distinct_passes(self):
        evaluator = make_evaluator()
        evaluator.simulated_misses("icache", CacheConfig(8, 1, 16))
        evaluator.simulated_misses("icache", CacheConfig(8, 1, 32))
        assert evaluator.simulation_passes == 2

    def test_unknown_role_rejected(self):
        evaluator = make_evaluator()
        with pytest.raises(ConfigurationError, match="role"):
            evaluator.misses("l3", CacheConfig(8, 1, 32))


class TestDilationDispatch:
    def test_dcache_is_dilation_independent(self):
        evaluator = make_evaluator()
        config = CacheConfig(8, 1, 32)
        assert evaluator.dcache_misses(config, 1.0) == evaluator.dcache_misses(
            config, 3.0
        )

    def test_estimation_without_params_raises(self):
        evaluator = make_evaluator(params=None)
        with pytest.raises(ConfigurationError, match="without trace"):
            evaluator.icache_misses(CacheConfig(8, 1, 32), 2.0)
        with pytest.raises(ConfigurationError, match="without trace"):
            evaluator.unified_misses(CacheConfig(8, 1, 32), 2.0)

    def test_simulation_queries_work_without_params(self):
        evaluator = make_evaluator(params=None)
        config = CacheConfig(8, 1, 32)
        assert evaluator.icache_misses(config, 1.0) >= 0
        assert evaluator.unified_misses(config, 1.0) >= 0


class TestCostArithmetic:
    def test_paper_466_days_example(self):
        hours = exhaustive_evaluation_hours(40, 20)
        assert hours == 40 * 20 * 14
        assert hours / 24 == pytest.approx(466, abs=1)

    def test_hierarchical_reduction(self):
        # Two line sizes per cache type, single reference processor.
        hours = hierarchical_evaluation_hours(
            {"icache": 2, "dcache": 2, "unified": 2}
        )
        assert hours == 2 * 5 + 2 * 2 + 2 * 7
        assert hours < exhaustive_evaluation_hours(40, 20) / 100

    def test_unknown_trace_type_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown"):
            hierarchical_evaluation_hours({"l3": 1})

    def test_costs_total(self):
        assert EvaluationCosts().total_hours == 14.0


def _checkpoint(path):
    """A handle on the sqlite store at ``path`` (``len`` counts checkpoints)."""
    from repro.service.store import ResultStore

    return ResultStore(path, namespace=CHECKPOINT_NAMESPACE)


class TestCheckpointAdoption:
    """attach_checkpoint: priming states survive across evaluators."""

    def _attached(self, tmp_path):
        cache = _checkpoint(tmp_path / "ckpt.sqlite")
        evaluator = make_evaluator()
        evaluator.attach_checkpoint(cache)
        return evaluator, cache

    def test_second_evaluator_adopts_instead_of_simulating(self, tmp_path):
        first, cache = self._attached(tmp_path)
        config = CacheConfig(8, 1, 32)
        misses = first.simulated_misses("icache", config)
        assert first.simulation_passes == 1
        assert len(cache) == 1

        second = make_evaluator()
        second.attach_checkpoint(cache)
        assert second.simulated_misses("icache", config) == misses
        assert second.simulation_passes == 0  # adopted, not re-simulated

    def test_prime_counts_adopted_units(self, tmp_path):
        first, cache = self._attached(tmp_path)
        first.register("icache", [CacheConfig(8, 1, 32)])
        first.register("dcache", [CacheConfig(16, 1, 16)])
        assert first.prime() == 2

        second = make_evaluator()
        second.attach_checkpoint(cache)
        second.register("icache", [CacheConfig(8, 1, 32)])
        second.register("dcache", [CacheConfig(16, 1, 16)])
        assert second.prime() == 2  # both adopted from the checkpoint
        assert second.simulation_passes == 0

    def test_reopened_store_adopts_too(self, tmp_path):
        first, cache = self._attached(tmp_path)
        config = CacheConfig(8, 1, 32)
        misses = first.simulated_misses("icache", config)

        second = make_evaluator()
        second.attach_checkpoint(_checkpoint(cache.path))
        assert second.simulated_misses("icache", config) == misses
        assert second.simulation_passes == 0

    def test_trace_keys_partition_the_namespace(self, tmp_path):
        first, cache = self._attached(tmp_path)
        # Distinct traces hash to distinct checkpoint keys: an evaluator
        # over different traces must NOT adopt the first one's states.
        other = MemoryEvaluator(*toy_traces()[::-1], None)
        other.attach_checkpoint(cache)
        first.simulated_misses("icache", CacheConfig(8, 1, 32))
        other.simulated_misses("icache", CacheConfig(8, 1, 32))
        assert other.simulation_passes == 1  # simulated, not adopted
