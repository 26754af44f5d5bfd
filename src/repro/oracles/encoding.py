"""Bit-level instruction encoding and decoding, the reference for the
assembler's template widths.

The assembler (:mod:`repro.iformat.assembler`) sizes blocks; this module
produces the actual bits, making the "binary representation specified by
the instruction format" (Section 3.3) concrete:

* header — template selector + multi-no-op run length;
* dispersal field — routing bits, one group per machine issue slot
  (encoded as the slot-occupancy mask, zero-padded);
* one payload group per template slot — opcode, destination register,
  two source registers, optional predicate specifier, speculation tag.

Encoding and decoding round-trip exactly; :meth:`InstructionCodec.encode`
picks the assembler's template, so an encoded instruction is as long as
the assembler's width for it (asserted in the test suite).

Register operands must be *physical* (post-allocation) names; the
convenience wrapper maps oversized virtual registers with a modulo
stand-in allocation and records that in the decode result.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import EncodingError
from repro.iformat.format_synth import (
    NOOP_FIELD_BITS,
    InstructionFormat,
    Template,
)
from repro.isa.operations import OP_CLASSES, OpClass, Operation
from repro.machine.mdes import MachineDescription

#: Opcode numbers (7-bit space; 0 is reserved for NOP/empty slot).
OPCODES: dict[str, int] = {"NOP": 0, "ADD": 1, "FADD": 2, "LD": 3, "ST": 4,
                           "BR": 5, "MEM": 6}
_OPCODE_NAMES = {number: name for name, number in OPCODES.items()}

#: Bits of one opcode field (matches MachineDescription's accounting).
OPCODE_BITS = 7


@dataclass(frozen=True)
class DecodedSlot:
    """One decoded operation slot."""

    opclass: OpClass
    opcode: str
    dest: int
    src1: int
    src2: int
    predicate: int | None
    speculative: bool

    @property
    def is_nop(self) -> bool:
        return self.opcode == "NOP"


@dataclass(frozen=True)
class DecodedInstruction:
    """One decoded VLIW instruction."""

    template: Template
    noop_run: int
    slots: tuple[DecodedSlot, ...]

    def occupied_slots(self) -> list[DecodedSlot]:
        """Slots holding real operations (non-NOP)."""
        return [slot for slot in self.slots if not slot.is_nop]


class InstructionCodec:
    """Encode/decode instructions of one synthesized format."""

    def __init__(self, mdes: MachineDescription, iformat: InstructionFormat):
        self.mdes = mdes
        self.iformat = iformat
        self._template_bits = max(
            1, (len(iformat.templates) - 1).bit_length()
        )

    # ------------------------------------------------------------------
    # Field geometry.
    # ------------------------------------------------------------------

    def _slot_field_bits(self, opclass: OpClass) -> list[tuple[str, int]]:
        """(field name, width) pairs of one slot, in bit order."""
        reg = self.mdes.register_specifier_bits(opclass)
        fields = [
            ("opcode", OPCODE_BITS),
            ("dest", reg),
            ("src1", reg),
            ("src2", reg),
        ]
        if self.mdes.processor.has_predication:
            pred_bits = max(
                1, (self.mdes.processor.pred_registers - 1).bit_length()
            )
            fields.append(("predicate", pred_bits))
        if self.mdes.processor.has_speculation:
            fields.append(("speculative", 1))
        return fields

    def _reg_mask(self, opclass: OpClass) -> int:
        return (1 << self.mdes.register_specifier_bits(opclass)) - 1

    # ------------------------------------------------------------------
    # Encoding.
    # ------------------------------------------------------------------

    def encode(
        self, operations: list[Operation], noop_run: int = 0
    ) -> bytes:
        """Encode one instruction (concurrently issued operations)."""
        if not 0 <= noop_run <= self.iformat.max_noop_run:
            raise EncodingError(
                f"noop run {noop_run} outside the field's "
                f"0..{self.iformat.max_noop_run}"
            )
        counts: dict[OpClass, int] = {}
        for op in operations:
            counts[op.opclass] = counts.get(op.opclass, 0) + 1
        template = self.iformat.select_template(counts)

        bits = 0
        width = 0

        def put(value: int, nbits: int) -> None:
            nonlocal bits, width
            bits |= (value & ((1 << nbits) - 1)) << width
            width += nbits

        template_index = self.iformat.templates.index(template)
        put(template_index, self._template_bits)
        put(noop_run, NOOP_FIELD_BITS)
        # Remaining header bits (if the synthesized header reserves more
        # than selector+noop) are zero padding.
        spare = self.iformat.header_bits - self._template_bits - NOOP_FIELD_BITS
        if spare > 0:
            put(0, spare)
        # Dispersal: occupancy mask over machine issue slots, padded.
        put(
            (1 << len(operations)) - 1,
            self.iformat.dispersal_bits,
        )
        # Payload: fill each class's slots in order.
        pending: dict[OpClass, list[Operation]] = {}
        for op in operations:
            pending.setdefault(op.opclass, []).append(op)
        for slot_index, opclass in enumerate(OP_CLASSES):
            for _ in range(template.slots[slot_index]):
                ops_left = pending.get(opclass, [])
                op = ops_left.pop(0) if ops_left else None
                self._put_slot(put, opclass, op)
        for opclass, leftover in pending.items():
            if leftover:
                raise EncodingError(  # pragma: no cover - covers() guards
                    f"template {template} cannot hold all "
                    f"{opclass.value} operations"
                )
        n_bytes = self.iformat.template_width_bytes(template)
        return bits.to_bytes(n_bytes, "little")

    def _put_slot(self, put, opclass: OpClass, op: Operation | None) -> None:
        mask = self._reg_mask(opclass)
        if op is None:
            values = {"opcode": OPCODES["NOP"], "dest": 0, "src1": 0,
                      "src2": 0, "predicate": 0, "speculative": 0}
        else:
            srcs = list(op.srcs) + [0, 0]
            values = {
                "opcode": OPCODES[op.mnemonic()],
                "dest": (op.dests[0] if op.dests else 0) & mask,
                "src1": srcs[0] & mask,
                "src2": srcs[1] & mask,
                "predicate": 0,
                "speculative": int(op.speculative),
            }
        for name, nbits in self._slot_field_bits(opclass):
            put(values[name], nbits)

    # ------------------------------------------------------------------
    # Decoding.
    # ------------------------------------------------------------------

    def decode(self, data: bytes) -> DecodedInstruction:
        """Decode one instruction previously produced by :meth:`encode`."""
        bits = int.from_bytes(data, "little")
        cursor = 0

        def take(nbits: int) -> int:
            nonlocal cursor
            value = (bits >> cursor) & ((1 << nbits) - 1)
            cursor += nbits
            return value

        template_index = take(self._template_bits)
        if template_index >= len(self.iformat.templates):
            raise EncodingError(
                f"template selector {template_index} out of range"
            )
        template = self.iformat.templates[template_index]
        expected = self.iformat.template_width_bytes(template)
        if len(data) < expected:
            raise EncodingError(
                f"instruction truncated: {len(data)} bytes, template "
                f"{template} needs {expected}"
            )
        noop_run = take(NOOP_FIELD_BITS)
        spare = self.iformat.header_bits - self._template_bits - NOOP_FIELD_BITS
        if spare > 0:
            take(spare)
        take(self.iformat.dispersal_bits)
        slots: list[DecodedSlot] = []
        has_pred = self.mdes.processor.has_predication
        has_spec = self.mdes.processor.has_speculation
        for slot_index, opclass in enumerate(OP_CLASSES):
            for _ in range(template.slots[slot_index]):
                fields = {
                    name: take(nbits)
                    for name, nbits in self._slot_field_bits(opclass)
                }
                opcode = _OPCODE_NAMES.get(fields["opcode"])
                if opcode is None:
                    raise EncodingError(
                        f"unknown opcode {fields['opcode']} in slot"
                    )
                slots.append(
                    DecodedSlot(
                        opclass=opclass,
                        opcode=opcode,
                        dest=fields["dest"],
                        src1=fields["src1"],
                        src2=fields["src2"],
                        predicate=fields.get("predicate") if has_pred else None,
                        speculative=bool(fields.get("speculative", 0))
                        if has_spec
                        else False,
                    )
                )
        return DecodedInstruction(
            template=template, noop_run=noop_run, slots=tuple(slots)
        )

    # ------------------------------------------------------------------
    # Block-level convenience.
    # ------------------------------------------------------------------

    def disassemble(self, instruction: DecodedInstruction) -> str:
        """One-line textual form, e.g. ``[I1/M1] ADD r3, r1, r2 | LD r4, r9``."""
        parts = []
        for slot in instruction.occupied_slots():
            parts.append(
                f"{slot.opcode} r{slot.dest}, r{slot.src1}, r{slot.src2}"
                + (" !s" if slot.speculative else "")
            )
        body = " | ".join(parts) if parts else "NOP"
        suffix = f" ;; +{instruction.noop_run} noops" if instruction.noop_run else ""
        return f"[{instruction.template}] {body}{suffix}"
