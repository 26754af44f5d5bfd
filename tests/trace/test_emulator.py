"""Unit tests for repro.trace.emulator."""

import dataclasses

import numpy as np
import pytest

from repro.errors import TraceError
from repro.explore.spec import SystemDesignSpace
from repro.machine.mdes import MachineDescription
from repro.machine.presets import P1111, P3221, P6332, REFERENCE_PROCESSOR
from repro.machine.processor import make_processor
from repro.oracles.compiler import compiled_from_blocks
from repro.oracles.emulator import ScalarEmulator
from repro.trace.emulator import Emulator, emulate
from repro.vliwcomp.compile import BlockMemo, compile_program
from repro.vliwcomp.regalloc import SPILL_STREAM
from repro.workloads.suite import BENCHMARK_NAMES, load_benchmark


class TestDeterminism:
    def test_same_seed_same_trace(self, tiny):
        a = emulate(tiny.program, tiny.streams, seed=5, max_visits=500)
        b = emulate(tiny.program, tiny.streams, seed=5, max_visits=500)
        assert np.array_equal(a.visit_blocks, b.visit_blocks)
        assert np.array_equal(a.data_addrs, b.data_addrs)

    def test_different_seed_different_trace(self, tiny):
        a = emulate(tiny.program, tiny.streams, seed=5, max_visits=500)
        b = emulate(tiny.program, tiny.streams, seed=6, max_visits=500)
        assert not np.array_equal(a.visit_blocks, b.visit_blocks)

    def test_budget_respected(self, tiny):
        events = emulate(tiny.program, tiny.streams, seed=1, max_visits=37)
        assert events.n_visits <= 37

    def test_bad_budget(self, tiny):
        with pytest.raises(TraceError, match="max_visits"):
            emulate(tiny.program, tiny.streams, max_visits=0)

    def test_entry_block_is_first_visit(self, tiny):
        events = emulate(tiny.program, tiny.streams, seed=1, max_visits=10)
        proc_name, block_id = events.blocks[events.visit_blocks[0]]
        assert proc_name == tiny.program.entry
        assert block_id == tiny.program.entry_procedure.entry.block_id


class TestProcessorIndependence:
    """The paper's step-1 foundation: base traces match across machines."""

    def test_block_sequence_identical_across_processors(self, tiny):
        traces = []
        for processor in (P1111, P3221, P6332):
            compiled = compile_program(
                tiny.program, MachineDescription(processor)
            )
            events = emulate(
                tiny.program,
                tiny.streams,
                seed=3,
                max_visits=800,
                compiled=compiled,
            )
            traces.append(events)
        ref = traces[0]
        for other in traces[1:]:
            assert ref.blocks == other.blocks
            assert np.array_equal(ref.visit_blocks, other.visit_blocks)

    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_visit_sequence_is_the_references_on_every_processor(
        self, name
    ):
        """Every design-space processor visits the reference's blocks in
        the reference's order.  This is what lets the pipeline take every
        processor's cycle profile from the one reference emulation; it
        breaks if decoration ever draws from the path RNG.  The design
        space speculates but never spills, so an 8-register machine
        adds spill decoration."""
        workload = load_benchmark(name, scale=0.25)
        memo = BlockMemo(workload.program)

        def events_on(processor):
            compiled = compile_program(
                workload.program, MachineDescription(processor), memo=memo
            )
            return emulate(
                workload.program,
                workload.streams,
                seed=7,
                max_visits=2_000,
                compiled=compiled,
            )

        ref = events_on(REFERENCE_PROCESSOR)
        spilling = make_processor(2, 1, 1, 1, int_registers=8, name="2111r8")
        for processor in [*SystemDesignSpace().processors, spilling]:
            events = events_on(processor)
            assert events.blocks == ref.blocks, processor.name
            assert np.array_equal(events.visit_blocks, ref.visit_blocks), (
                processor.name
            )

    def test_base_data_addresses_are_subset_preserved(self, tiny):
        """Non-spill, non-speculative refs are identical across machines."""
        base = emulate(tiny.program, tiny.streams, seed=3, max_visits=800)
        compiled = compile_program(tiny.program, MachineDescription(P6332))
        decorated = emulate(
            tiny.program,
            tiny.streams,
            seed=3,
            max_visits=800,
            compiled=compiled,
        )
        # Per visit, the decorated ref list starts with the base refs.
        for i in range(base.n_visits):
            b0, b1 = base.data_offsets[i], base.data_offsets[i + 1]
            d0 = decorated.data_offsets[i]
            base_refs = base.data_addrs[b0:b1]
            decorated_refs = decorated.data_addrs[d0 : d0 + (b1 - b0)]
            assert np.array_equal(base_refs, decorated_refs)

    def test_decoration_adds_spill_and_spec_refs(self, tiny):
        base = emulate(tiny.program, tiny.streams, seed=3, max_visits=800)
        compiled = compile_program(tiny.program, MachineDescription(P6332))
        decorated = emulate(
            tiny.program,
            tiny.streams,
            seed=3,
            max_visits=800,
            compiled=compiled,
        )
        assert decorated.n_data_refs > base.n_data_refs

    def test_reference_machine_gets_no_decoration(self, tiny):
        base = emulate(tiny.program, tiny.streams, seed=3, max_visits=800)
        compiled = compile_program(tiny.program, MachineDescription(P1111))
        decorated = emulate(
            tiny.program,
            tiny.streams,
            seed=3,
            max_visits=800,
            compiled=compiled,
        )
        # 1111 has no speculation capacity and (with 32 regs) no spills
        # on the tiny workload, so the traces are byte-identical.
        assert np.array_equal(base.data_addrs, decorated.data_addrs)


class TestValidationPath:
    def test_emulator_validates_program(self, tiny):
        from repro.isa.program import Program

        broken = Program(name="broken", entry="ghost")
        with pytest.raises(Exception, match="entry"):
            Emulator(broken, tiny.streams)

    def test_compiled_program_lacking_a_visited_block(self, tiny):
        """Decoration needs every visited block's compiled form; the
        error names the block that has none."""
        full = compile_program(tiny.program, MachineDescription(P6332))
        events = emulate(tiny.program, tiny.streams, seed=3, max_visits=800)
        # The block table is in first-visit order: take the latest newcomer.
        proc_name, block_id = events.blocks[-1]
        # A compiled program holds only compiled blocks, so the blocks
        # predicting the dropped one predict nothing.
        blocks = {
            key: block if (key[0], block.predicted_successor) != (
                proc_name, block_id
            ) else dataclasses.replace(block, predicted_successor=None)
            for key, block in full.blocks.items()
            if key != (proc_name, block_id)
        }
        compiled = compiled_from_blocks(tiny.program, full.mdes, blocks)
        first = int(np.argmax(events.visit_blocks == len(events.blocks) - 1))
        assert first > 0
        expected = f"lacks block \\({proc_name!r}, {block_id}\\)"
        with pytest.raises(TraceError, match=expected):
            emulate(
                tiny.program,
                tiny.streams,
                seed=3,
                max_visits=800,
                compiled=compiled,
            )
        with pytest.raises(TraceError, match=expected):
            ScalarEmulator(tiny.program, tiny.streams, seed=3).run(
                800, compiled
            )
        # A budget that stops before the block's first visit never
        # needs it.
        emulate(
            tiny.program,
            tiny.streams,
            seed=3,
            max_visits=first,
            compiled=compiled,
        )
