"""Suite-fidelity tests: the paper's benchmark-selection criteria.

Section 6: "we choose benchmarks where instruction and unified cache
behavior have a significant effect on overall performance ... benchmarks
with the highest instruction cache miss rates."  These tests verify the
synthetic suite actually has that character (at reduced scale, so they
stay fast).
"""

import pytest

from repro.cache.config import CacheConfig
from repro.experiments.pipeline import ExperimentPipeline
from repro.workloads.suite import load_benchmark

SMALL_ICACHE = CacheConfig.from_size(1024, 1, 32)

# A representative cross-section: biggest (gcc), media (epic), crypto
# (pgpencode).  The full suite is exercised at paper scale by the bench
# harness.
PROBE = ("085.gcc", "epic", "pgpencode")


def line_accesses(trace, line_size):
    """Line touches a simulator with ``line_size``-byte lines performs."""
    first = trace.starts // line_size
    last = (trace.starts + trace.sizes - 1) // line_size
    return int((last - first + 1).sum())


@pytest.fixture(scope="module", params=PROBE)
def pipeline(request):
    # Full-scale code footprints (the selection criterion is about the
    # real working sets); a short execution sample keeps it fast.
    workload = load_benchmark(request.param, scale=1.0)
    return ExperimentPipeline(
        workload, max_visits=10_000, i_granule=500, u_granule=2_000
    )


class TestSelectionCriteria:
    def test_significant_small_icache_miss_rate(self, pipeline):
        """The 1KB instruction cache must genuinely hurt (>= 5% of line
        accesses missing), as the paper's selection demands."""
        art = pipeline.reference_artifacts()
        misses = pipeline.actual_misses(
            art.processor, "icache", [SMALL_ICACHE]
        )[SMALL_ICACHE]
        accesses = line_accesses(
            art.instruction_trace, SMALL_ICACHE.line_size
        )
        assert misses / accesses > 0.05

    def test_code_footprint_exceeds_small_cache(self, pipeline):
        art = pipeline.reference_artifacts()
        assert art.binary.text_size > 4 * SMALL_ICACHE.size_bytes

    def test_dynamic_execution_tours_most_of_the_code(self, pipeline):
        """The phase-loop structure revisits the whole footprint, keeping
        the instruction working set large."""
        art = pipeline.reference_artifacts()
        frequencies = art.events.visit_frequencies()
        touched = int((frequencies > 0).sum())
        assert touched / len(frequencies) > 0.6

    def test_memory_operations_present_in_hot_code(self, pipeline):
        art = pipeline.reference_artifacts()
        assert art.events.n_data_refs > art.events.n_visits  # >1 ref/visit
