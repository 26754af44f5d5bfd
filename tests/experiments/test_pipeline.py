"""Unit tests for repro.experiments.pipeline."""

import pytest

from repro.cache.config import CacheConfig
from repro.core import hierarchy_eval
from repro.errors import ConfigurationError
from repro.experiments.pipeline import ExperimentPipeline
from repro.explore.spacewalker import Spacewalker
from repro.explore.spec import SystemDesignSpace
from repro.machine.presets import P1111, P3221
from repro.machine.processor import make_processor
from repro.trace.emulator import Emulator
from repro.workloads.suite import load_benchmark


class TestArtifacts:
    def test_artifacts_are_cached(self, tiny_pipeline):
        a = tiny_pipeline.artifacts(P3221)
        b = tiny_pipeline.artifacts(P3221)
        assert a is b

    def test_reference_artifacts(self, tiny_pipeline):
        art = tiny_pipeline.reference_artifacts()
        assert art.processor.name == "1111"
        assert art.events.n_visits > 0
        assert len(art.instruction_trace) == art.events.n_visits

    def test_incompatible_features_rejected(self, tiny_pipeline):
        predicated = make_processor(2, 1, 1, 1, has_predication=True)
        with pytest.raises(ConfigurationError, match="predication"):
            tiny_pipeline.artifacts(predicated)
        with pytest.raises(ConfigurationError, match="predication"):
            tiny_pipeline.dilation(predicated)
        with pytest.raises(ConfigurationError, match="predication"):
            tiny_pipeline.processor_cycles(predicated)

    def test_predicated_namesake_of_built_processor_rejected(self, tiny):
        # One pipeline: once the plain 2111 is built, a predicated
        # processor of the same name must still be checked, not served
        # the plain one's memoized binary, dilation or cycles.
        pipeline = ExperimentPipeline(tiny, max_visits=2_000)
        plain = make_processor(2, 1, 1, 1)
        predicated = make_processor(2, 1, 1, 1, has_predication=True)
        assert predicated.name == plain.name
        pipeline.processor_binary(plain)
        pipeline.dilation(plain)
        pipeline.processor_cycles(plain)
        with pytest.raises(ConfigurationError, match="predication"):
            pipeline.processor_binary(predicated)
        with pytest.raises(ConfigurationError, match="predication"):
            pipeline.artifacts(predicated)
        with pytest.raises(ConfigurationError, match="predication"):
            pipeline.dilation(predicated)
        with pytest.raises(ConfigurationError, match="predication"):
            pipeline.processor_cycles(predicated)

    def test_binary_part_is_shared_with_artifacts(self, tiny_pipeline):
        part = tiny_pipeline.processor_binary(P3221)
        assert tiny_pipeline.processor_binary(P3221) is part
        art = tiny_pipeline.artifacts(P3221)
        assert art.compiled is part.compiled
        assert art.binary is part.binary

    def test_trace_role_accessor(self, tiny_pipeline):
        art = tiny_pipeline.reference_artifacts()
        assert art.trace("icache") is art.instruction_trace
        assert art.trace("dcache") is art.data_trace
        assert art.trace("unified") is art.unified_trace
        with pytest.raises(ConfigurationError):
            art.trace("l3")


class TestColdExplore:
    """A cold exploration emulates the reference only; every other
    processor is compiled, assembled and linked, never emulated."""

    def test_explore_emulates_once(self, monkeypatch):
        pipeline = ExperimentPipeline(
            load_benchmark("epic", scale=0.25), max_visits=2_000
        )
        runs = []
        run = Emulator.run

        def counting_run(self, *args, **kwargs):
            runs.append(args)
            return run(self, *args, **kwargs)

        monkeypatch.setattr(Emulator, "run", counting_run)
        Spacewalker(SystemDesignSpace(), pipeline).walk()
        assert len(runs) == 1
        assert set(pipeline._artifacts) == {pipeline.reference}
        for processor in SystemDesignSpace().processors:
            art = pipeline.artifacts(processor)
            assert pipeline.processor_cycles(
                processor
            ) == hierarchy_eval.processor_cycles(art.compiled, art.events), (
                processor.name
            )


class TestDilation:
    def test_reference_dilation_is_one(self, tiny_pipeline):
        assert tiny_pipeline.dilation(P1111) == 1.0

    def test_wider_processors_dilate(self, tiny_pipeline):
        assert tiny_pipeline.dilation(P3221) > 1.1

    def test_dilation_info_has_block_detail(self, tiny_pipeline):
        info = tiny_pipeline.dilation_info(P3221)
        assert len(info.block_keys) == len(info.block_dilations)
        assert info.text_dilation > 1.0


class TestTraceParameters:
    def test_cached_and_sane(self, tiny_pipeline):
        params = tiny_pipeline.trace_parameters()
        assert params is tiny_pipeline.trace_parameters()
        assert params.icache.u1 > 0
        assert params.icache.lav > 1.0  # code has runs
        assert params.unified_data.p1 >= 0.0


class TestMissMeasurements:
    CONFIG = CacheConfig.from_size(1024, 1, 32)

    def test_actual_misses_positive(self, tiny_pipeline):
        misses = tiny_pipeline.actual_misses(P1111, "icache", [self.CONFIG])
        assert misses[self.CONFIG] > 0

    def test_dilated_at_one_equals_reference_actual(self, tiny_pipeline):
        actual = tiny_pipeline.actual_misses(P1111, "icache", [self.CONFIG])
        dilated = tiny_pipeline.dilated_misses(1.0, "icache", [self.CONFIG])
        assert actual == dilated

    def test_estimated_at_one_equals_reference_actual(self, tiny_pipeline):
        actual = tiny_pipeline.actual_misses(P1111, "unified", [self.CONFIG])
        estimated = tiny_pipeline.estimated_misses(
            1.0, "unified", [self.CONFIG]
        )
        assert estimated[self.CONFIG] == pytest.approx(
            actual[self.CONFIG]
        )

    def test_dcache_dilated_is_reference(self, tiny_pipeline):
        ref = tiny_pipeline.actual_misses(P1111, "dcache", [self.CONFIG])
        dilated = tiny_pipeline.dilated_misses(2.5, "dcache", [self.CONFIG])
        assert ref == dilated

    def test_dilated_misses_grow_with_dilation(self, tiny_pipeline):
        small = tiny_pipeline.dilated_misses(1.0, "icache", [self.CONFIG])
        big = tiny_pipeline.dilated_misses(3.0, "icache", [self.CONFIG])
        assert big[self.CONFIG] > small[self.CONFIG]

    def test_estimated_misses_grow_with_dilation(self, tiny_pipeline):
        small = tiny_pipeline.estimated_misses(1.0, "icache", [self.CONFIG])
        big = tiny_pipeline.estimated_misses(3.0, "icache", [self.CONFIG])
        assert big[self.CONFIG] >= small[self.CONFIG]

    def test_lemma1_through_pipeline(self, tiny_pipeline):
        """Estimated misses at power-of-two dilation equal the dilated-
        trace simulation (Lemma 1 exactness, via the public API)."""
        config = CacheConfig.from_size(2048, 1, 32)
        estimated = tiny_pipeline.estimated_misses(2.0, "icache", [config])
        dilated = tiny_pipeline.dilated_misses(2.0, "icache", [config])
        assert estimated[config] == pytest.approx(dilated[config])

    def test_processor_cycles_provider(self, tiny_pipeline):
        narrow = tiny_pipeline.processor_cycles(P1111)
        wide = tiny_pipeline.processor_cycles(P3221)
        assert narrow > 0
        assert wide <= narrow
