"""Integration tests: the whole pipeline, cross-module consistency.

These tests stitch together workload generation, compilation, format
synthesis, linking, emulation, trace generation, simulation, the AHH
model and the dilation estimators — verifying the invariants that hold
*across* module boundaries.
"""

import numpy as np
import pytest

from repro.ahh.modeler import derive_trace_parameters
from repro.cache.config import CacheConfig
from repro.experiments.pipeline import ExperimentPipeline
from repro.machine.presets import P1111, P3221, P6332, TARGET_PROCESSORS
from repro.oracles import measured_unique_lines
from repro.workloads.suite import load_benchmark


@pytest.fixture(scope="module")
def pipeline():
    workload = load_benchmark("epic", scale=0.25)
    return ExperimentPipeline(
        workload, max_visits=8_000, i_granule=500, u_granule=2_000
    )


class TestTraceConsistency:
    def test_unified_is_instruction_plus_data(self, pipeline):
        art = pipeline.reference_artifacts()
        unified = art.unified_trace
        assert len(unified) == len(art.instruction_trace) + len(
            art.data_trace
        )
        assert np.array_equal(
            unified.instruction_component.starts,
            art.instruction_trace.starts,
        )
        assert np.array_equal(
            unified.data_component.starts, art.data_trace.starts
        )

    def test_instruction_addresses_within_text(self, pipeline):
        art = pipeline.reference_artifacts()
        itrace = art.instruction_trace
        assert int(itrace.starts.min()) >= art.binary.base
        ends = itrace.starts + itrace.sizes
        assert int(ends.max()) <= art.binary.text_end

    def test_trace_volume_scales_with_dilation_across_processors(
        self, pipeline
    ):
        """Wider processors' instruction traces carry ~d times the bytes."""
        ref_bytes = pipeline.reference_artifacts().instruction_trace.total_bytes
        for processor in (P3221, P6332):
            art = pipeline.artifacts(processor)
            dilation = pipeline.dilation(processor)
            ratio = art.instruction_trace.total_bytes / ref_bytes
            assert ratio == pytest.approx(dilation, rel=0.15)


class TestAhhAgainstMeasurement:
    def test_u_of_l_formula_tracks_measured_unique_lines(self, pipeline):
        """The AHH u(L) (per granule) must track the measured per-granule
        unique-line ratios across line sizes."""
        params = pipeline.trace_parameters().icache
        itrace = pipeline.reference_artifacts().instruction_trace
        measured = measured_unique_lines(itrace, [4, 8, 16, 32, 64])
        for line in (8, 16, 32, 64):
            measured_ratio = measured[line] / measured[4]
            model_ratio = params.unique_lines_bytes(
                line
            ) / params.unique_lines_bytes(4)
            # Whole-trace and per-granule ratios differ, but must agree
            # on the trend within a factor band.
            assert model_ratio == pytest.approx(measured_ratio, rel=0.6)

    def test_instruction_component_has_fewer_isolated_refs(self, pipeline):
        # Code is sequential within blocks, so isolated references are
        # rare; data mixes streaming and scattered accesses.  (epic's
        # sequential pixel streams make data *runs* long too, so lav is
        # not a reliable discriminator — p1 is.)
        params = pipeline.trace_parameters()
        assert params.unified_instr.p1 < params.unified_data.p1


class TestEstimationAgainstGroundTruth:
    CONFIGS = {
        "icache": CacheConfig.from_size(1024, 1, 32),
        "unified": CacheConfig.from_size(16 * 1024, 2, 64),
    }

    @pytest.mark.parametrize("processor", TARGET_PROCESSORS, ids=str)
    def test_icache_estimate_within_factor_two_of_actual(
        self, pipeline, processor
    ):
        config = self.CONFIGS["icache"]
        dilation = pipeline.dilation(processor)
        actual = pipeline.actual_misses(processor, "icache", [config])[
            config
        ]
        estimated = pipeline.estimated_misses(dilation, "icache", [config])[
            config
        ]
        assert 0.5 < estimated / actual < 2.0

    def test_normalized_misses_grow_with_width(self, pipeline):
        config = self.CONFIGS["icache"]
        ref = pipeline.actual_misses(P1111, "icache", [config])[config]
        previous = 0.9  # the 1111 point is 1.0 by construction
        for processor in TARGET_PROCESSORS:
            actual = pipeline.actual_misses(processor, "icache", [config])[
                config
            ]
            normalized = actual / ref
            assert normalized > previous * 0.85  # broadly increasing
            previous = max(previous, normalized)
        assert previous > 1.5  # the width effect is material

    def test_estimates_use_no_target_simulation(self, pipeline):
        """The estimator must be answerable from reference passes alone:
        a fresh pipeline that never built target artifacts can still
        estimate, given only the externally supplied dilation."""
        fresh = ExperimentPipeline(
            pipeline.workload, max_visits=8_000, i_granule=500,
            u_granule=2_000,
        )
        config = self.CONFIGS["unified"]
        value = fresh.estimated_misses(2.3, "unified", [config])[config]
        assert value > 0
        assert set(fresh._artifacts) == {fresh.reference}  # only the reference

