"""Unit tests for repro.oracles.encoding (bit-level codec)."""

import pytest

from repro.errors import EncodingError
from repro.oracles.encoding import OPCODES, InstructionCodec
from repro.iformat.format_synth import synthesize_format
from repro.isa.operations import (
    OpClass,
    Operation,
    make_branch,
    make_float,
    make_int,
    make_load,
    make_store,
)
from repro.machine.mdes import MachineDescription
from repro.machine.presets import P1111, P6332
from repro.machine.processor import make_processor


@pytest.fixture(scope="module", params=["1111", "6332", "pred"])
def codec(request):
    if request.param == "pred":
        processor = make_processor(2, 1, 1, 1, has_predication=True)
    elif request.param == "1111":
        processor = P1111
    else:
        processor = P6332
    mdes = MachineDescription(processor)
    return InstructionCodec(mdes, synthesize_format(mdes))


SAMPLES = [
    [make_int(3, (1, 2))],
    [make_int(3, (1, 2)), make_load(4, addr_src=7, stream=2)],
    [make_float(5, (3, 4)), make_branch((5,))],
    [make_store(value_src=2, addr_src=9), make_int(1, (0, 0))],
    [
        make_int(1, (2, 3)),
        make_float(4, (5, 6)),
        make_load(7, addr_src=8),
        make_branch((1,)),
    ],
]


class TestRoundTrip:
    @pytest.mark.parametrize("ops", SAMPLES, ids=range(len(SAMPLES)))
    def test_fields_survive(self, codec, ops):
        data = codec.encode(ops, noop_run=2)
        decoded = codec.decode(data)
        assert decoded.noop_run == 2
        occupied = decoded.occupied_slots()
        assert len(occupied) == len(ops)
        by_class = {}
        for op in ops:
            by_class.setdefault(op.opclass, []).append(op)
        for slot in occupied:
            original = by_class[slot.opclass].pop(0)
            mask = (
                1 << codec.mdes.register_specifier_bits(slot.opclass)
            ) - 1
            assert slot.opcode == original.mnemonic()
            expected_dest = (
                original.dests[0] if original.dests else 0
            ) & mask
            assert slot.dest == expected_dest
            srcs = list(original.srcs) + [0, 0]
            assert slot.src1 == srcs[0] & mask
            assert slot.src2 == srcs[1] & mask

    def test_encoded_length_matches_assembler_accounting(self, codec):
        for ops in SAMPLES:
            counts = {}
            for op in ops:
                counts[op.opclass] = counts.get(op.opclass, 0) + 1
            template = codec.iformat.select_template(counts)
            data = codec.encode(ops)
            assert len(data) == codec.iformat.template_width_bytes(template)

    def test_speculative_tag_round_trips(self, codec):
        spec_load = Operation(
            OpClass.MEMORY,
            dests=(3,),
            srcs=(4,),
            is_load=True,
            speculative=True,
        )
        decoded = codec.decode(codec.encode([spec_load]))
        (slot,) = decoded.occupied_slots()
        if codec.mdes.processor.has_speculation:
            assert slot.speculative
        else:
            assert not slot.speculative

    def test_empty_instruction_is_all_nops(self, codec):
        decoded = codec.decode(codec.encode([]))
        assert decoded.occupied_slots() == []


class TestErrors:
    def test_noop_run_out_of_range(self, codec):
        with pytest.raises(EncodingError, match="noop run"):
            codec.encode([make_int(1)], noop_run=99)

    def test_truncated_bytes_rejected(self, codec):
        data = codec.encode(SAMPLES[4] if len(SAMPLES) > 4 else SAMPLES[0])
        with pytest.raises(EncodingError, match="truncated|range"):
            codec.decode(data[:1])


class TestDisassembly:
    def test_readable_output(self, codec):
        text = codec.disassemble(
            codec.decode(codec.encode([make_int(3, (1, 2))], noop_run=1))
        )
        assert "ADD r3, r1, r2" in text
        assert "+1 noops" in text

    def test_nop_instruction(self, codec):
        assert "NOP" in codec.disassemble(codec.decode(codec.encode([])))


class TestOpcodes:
    def test_opcode_space_consistent(self):
        assert OPCODES["NOP"] == 0
        assert len(set(OPCODES.values())) == len(OPCODES)
        assert all(0 <= v < 128 for v in OPCODES.values())
