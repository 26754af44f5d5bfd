"""Unit tests for repro.trace.generator."""

import numpy as np
import pytest

from repro.cache.config import WORD_BYTES
from repro.errors import TraceError
from repro.iformat.assembler import assemble
from repro.iformat.linker import link
from repro.machine.mdes import MachineDescription
from repro.machine.presets import P1111
from repro.trace.emulator import emulate
from repro.trace.generator import TraceGenerator
from repro.trace.ranges import KIND_DATA, KIND_INSTR, KIND_WRITE
from repro.vliwcomp.compile import compile_program
import pytest


@pytest.fixture(scope="module")
def bound(tiny_module):
    workload = tiny_module
    compiled = compile_program(workload.program, MachineDescription(P1111))
    binary = link(
        workload.program,
        assemble(compiled),
        packet_bytes=16,
        processor_name="1111",
    )
    events = emulate(
        workload.program, workload.streams, seed=2, max_visits=600
    )
    return binary, events, TraceGenerator(binary, events)


@pytest.fixture(scope="module")
def tiny_module():
    from repro.workloads.suite import tiny_workload

    return tiny_workload()


class TestInstructionTrace:
    def test_one_range_per_visit(self, bound):
        binary, events, generator = bound
        itrace = generator.instruction_trace()
        assert len(itrace) == events.n_visits
        assert (itrace.kinds == KIND_INSTR).all()

    def test_ranges_match_binary_placement(self, bound):
        binary, events, generator = bound
        itrace = generator.instruction_trace()
        for i in range(min(50, events.n_visits)):
            proc, block_id = events.blocks[events.visit_blocks[i]]
            start, size = binary.block_range(proc, block_id)
            assert itrace.starts[i] == start
            assert itrace.sizes[i] == size


class TestDataTrace:
    def test_word_sized_ranges(self, bound):
        _, events, generator = bound
        dtrace = generator.data_trace()
        assert len(dtrace) == events.n_data_refs
        assert (dtrace.sizes == WORD_BYTES).all()
        # Reads and writes are tagged distinctly; both are data kinds.
        assert set(np.unique(dtrace.kinds)) <= {KIND_DATA, KIND_WRITE}
        assert np.array_equal(
            dtrace.kinds == KIND_WRITE, events.data_writes
        )
        assert np.array_equal(dtrace.starts, events.data_addrs)


class TestPipelineTraces:
    def test_real_data_trace_has_tagged_writes(self, tiny_pipeline):
        dtrace = tiny_pipeline.reference_artifacts().data_trace
        writes = int((dtrace.kinds == KIND_WRITE).sum())
        reads = int((dtrace.kinds == KIND_DATA).sum())
        assert writes > 0 and reads > 0
        assert reads > writes  # load_fraction > 0.5


class TestUnifiedTrace:
    def test_interleaving_structure(self, bound):
        _, events, generator = bound
        unified = generator.unified_trace()
        assert len(unified) == events.n_visits + events.n_data_refs
        # First range of each visit is the instruction range, followed by
        # exactly the visit's data references.
        cursor = 0
        for i in range(events.n_visits):
            assert unified.kinds[cursor] == KIND_INSTR
            n_data = int(
                events.data_offsets[i + 1] - events.data_offsets[i]
            )
            for k in range(n_data):
                assert unified.kinds[cursor + 1 + k] in (
                    KIND_DATA,
                    KIND_WRITE,
                )
            cursor += 1 + n_data

    def test_components_recover_parts(self, bound):
        _, events, generator = bound
        unified = generator.unified_trace()
        instr = unified.instruction_component
        data = unified.data_component
        assert np.array_equal(
            instr.starts, generator.instruction_trace().starts
        )
        assert np.array_equal(data.starts, events.data_addrs)

    def test_text_and_data_addresses_disjoint(self, bound):
        binary, events, generator = bound
        unified = generator.unified_trace()
        instr_max = int(
            (unified.instruction_component.starts
             + unified.instruction_component.sizes).max()
        )
        data_min = int(unified.data_component.starts.min())
        assert instr_max <= data_min


class TestErrors:
    def test_missing_block_in_binary(self, bound, tiny_module):
        binary, events, _ = bound
        from repro.iformat.linker import Binary

        empty = Binary(program_name="tiny", processor_name="x", base=0)
        with pytest.raises(TraceError, match="lacks block"):
            TraceGenerator(empty, events)
