"""ExperimentPipeline.prime_actual: parallel priming == serial results."""

from repro.cache.config import CacheConfig
from repro.experiments.pipeline import ExperimentPipeline
from repro.machine.presets import P1111, P3221
from repro.runtime.executor import ExecutorPolicy

CONFIGS = [
    CacheConfig.from_size(512, 1, 16),
    CacheConfig.from_size(1024, 2, 16),
    CacheConfig.from_size(1024, 1, 32),
]
ROLE_CONFIGS = {"icache": CONFIGS, "dcache": CONFIGS}


def make_pipeline(tiny, policy=ExecutorPolicy()):
    return ExperimentPipeline(
        tiny, max_visits=2_000, i_granule=200, u_granule=800, policy=policy
    )


class TestPrimeActual:
    def test_serial_prime_then_lookup(self, tiny):
        pipeline = make_pipeline(tiny)
        passes = pipeline.prime_actual([P1111, P3221], ROLE_CONFIGS)
        # 2 processors x 2 roles x 2 line sizes.
        assert passes == 8
        # Everything below is answered from the primed banks.
        for processor in (P1111, P3221):
            for role in ("icache", "dcache"):
                misses = pipeline.actual_misses(processor, role, CONFIGS)
                assert set(misses) == set(CONFIGS)
        bank = pipeline._sim_banks[("actual", P1111)]
        assert bank.simulation_passes == 4

    def test_parallel_prime_matches_serial(self, tiny):
        serial = make_pipeline(tiny)
        parallel = make_pipeline(tiny, ExecutorPolicy(max_workers=2))
        serial.prime_actual([P1111, P3221], ROLE_CONFIGS)
        passes = parallel.prime_actual([P1111, P3221], ROLE_CONFIGS)
        assert passes == 8
        for processor in (P1111, P3221):
            for role in ("icache", "dcache"):
                assert parallel.actual_misses(processor, role, CONFIGS) == (
                    serial.actual_misses(processor, role, CONFIGS)
                )

    def test_second_prime_is_free(self, tiny):
        pipeline = make_pipeline(tiny)
        pipeline.prime_actual([P1111], ROLE_CONFIGS)
        assert pipeline.prime_actual([P1111], ROLE_CONFIGS) == 0
