"""Unit tests for repro.machine.accelerator."""

import pytest

from repro.core.hierarchy_eval import processor_cycles
from repro.errors import ConfigurationError
from repro.isa.operations import OpClass
from repro.machine.accelerator import (
    SystolicArray,
    accelerated_cycles,
    accelerator_cost,
)
from repro.explore.spec import SystemDesignSpace
from repro.machine.mdes import MachineDescription
from repro.machine.presets import P1111
from repro.oracles.compiler import compile_program as oracle_compile
from repro.trace.emulator import emulate
from repro.vliwcomp.compile import BlockMemo, compile_program
from repro.workloads.suite import load_benchmark


class TestSystolicArray:
    def test_geometry(self):
        array = SystolicArray("mac8x4", OpClass.FLOAT, rows=8, cols=4)
        assert array.processing_elements == 32
        assert array.pipeline_depth == 8

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="dimensions"):
            SystolicArray("bad", OpClass.INT, rows=0)
        with pytest.raises(ConfigurationError, match="interval"):
            SystolicArray("bad", OpClass.INT, initiation_interval=0)
        with pytest.raises(ConfigurationError, match="fraction"):
            SystolicArray("bad", OpClass.INT, offload_fraction=1.5)


class TestCost:
    def test_scales_with_pe_count(self):
        small = SystolicArray("s", OpClass.INT, rows=2, cols=2)
        big = SystolicArray("b", OpClass.INT, rows=8, cols=8)
        assert accelerator_cost(big) > accelerator_cost(small) > 0

    def test_float_arrays_cost_more(self):
        int_array = SystolicArray("i", OpClass.INT, rows=4, cols=4)
        fp_array = SystolicArray("f", OpClass.FLOAT, rows=4, cols=4)
        assert accelerator_cost(fp_array) > accelerator_cost(int_array)


class TestAcceleratedCycles:
    @pytest.fixture(scope="class")
    def workload_run(self, tiny):
        compiled = compile_program(tiny.program, MachineDescription(P1111))
        events = emulate(
            tiny.program, tiny.streams, seed=1, max_visits=1500,
            compiled=compiled,
        )
        return compiled, events

    def test_zero_offload_matches_plain_cycles(self, workload_run):
        compiled, events = workload_run
        array = SystolicArray(
            "noop", OpClass.INT, offload_fraction=0.0
        )
        assert accelerated_cycles(compiled, events, array) == (
            processor_cycles(compiled, events)
        )

    def test_offload_reduces_cycles(self, workload_run):
        compiled, events = workload_run
        array = SystolicArray(
            "int16", OpClass.INT, rows=4, cols=4, offload_fraction=0.6
        )
        accelerated = accelerated_cycles(compiled, events, array)
        plain = processor_cycles(compiled, events)
        assert accelerated < plain

    def test_never_slower_than_plain(self, workload_run):
        """The mapper keeps losing blocks on the processor, so any array
        configuration is at worst neutral."""
        compiled, events = workload_run
        plain = processor_cycles(compiled, events)
        for fraction in (0.3, 0.6, 0.9):
            for rows, cols, ii in ((1, 1, 8), (2, 2, 1), (8, 8, 1)):
                array = SystolicArray(
                    "a",
                    OpClass.INT,
                    rows=rows,
                    cols=cols,
                    initiation_interval=ii,
                    offload_fraction=fraction,
                )
                assert accelerated_cycles(compiled, events, array) <= plain

    def test_tiny_array_can_bottleneck(self, workload_run):
        """A 1x1 array with a slow initiation interval caps the win."""
        compiled, events = workload_run
        tiny_array = SystolicArray(
            "slow", OpClass.INT, rows=1, cols=1,
            initiation_interval=8, offload_fraction=0.9,
        )
        big_array = SystolicArray(
            "fast", OpClass.INT, rows=8, cols=8, offload_fraction=0.9
        )
        assert accelerated_cycles(
            compiled, events, tiny_array
        ) >= accelerated_cycles(compiled, events, big_array)


class TestOnDemandBlocks:
    """``accelerated_cycles`` reads each visited block through
    ``compiled.block(...)``; the array-backed compiled program gives the
    values the per-block one gave."""

    #: (processor, plain cycles, FLOAT 8x4 array, INT 2x2 half-offload
    #: array) on epic at scale 0.5, emulation seed 5, 4,000 visits, as
    #: computed when every compiled block was stored as a record.
    PINNED = [
        ("1111", 38429, 35026, 34156), ("1121", 38439, 35039, 34197),
        ("1211", 38434, 35034, 34206), ("1221", 38424, 35024, 34197),
        ("2111", 38334, 34956, 34115), ("2121", 38309, 34931, 34090),
        ("2211", 38319, 34941, 34115), ("2221", 41458, 38083, 37245),
        ("4111", 41512, 38137, 37284), ("4121", 41473, 38098, 37260),
        ("4211", 41497, 38122, 37269), ("4221", 42996, 39631, 38794),
    ]
    ARRAYS = (
        SystolicArray("f", OpClass.FLOAT, rows=8, cols=4),
        SystolicArray("i", OpClass.INT, rows=2, cols=2, offload_fraction=0.5),
    )

    def test_epic_design_space_unchanged(self):
        workload = load_benchmark("epic", scale=0.5)
        events = emulate(workload.program, workload.streams, seed=5, max_visits=4000)
        memo = BlockMemo(workload.program)
        got = []
        for processor in SystemDesignSpace().processors:
            compiled = compile_program(
                workload.program, MachineDescription(processor), memo=memo
            )
            got.append((
                processor.name,
                processor_cycles(compiled, events),
                *(accelerated_cycles(compiled, events, a) for a in self.ARRAYS),
            ))
        assert got == self.PINNED

    def test_matches_the_oracle_compiled_program(self, tiny):
        events = emulate(tiny.program, tiny.streams, seed=1, max_visits=1500)
        mdes = MachineDescription(P1111)
        compiled = compile_program(tiny.program, mdes)
        oracle = oracle_compile(tiny.program, mdes)
        for array in self.ARRAYS:
            assert accelerated_cycles(compiled, events, array) == (
                accelerated_cycles(oracle, events, array)
            )
