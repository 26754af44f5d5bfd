"""Assembler: encode scheduled blocks, producing per-block byte sizes.

For each VLIW instruction the assembler greedily selects the smallest
covering template (Section 3.3).  Stall cycles between instructions are
absorbed by the previous instruction's multi-no-op field; runs of empty
cycles longer than the field encodes become explicit no-op instructions.

The output — a relocatable object per procedure with per-block sizes — is
what the linker lays out and what the dilation measurement compares
across processors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.iformat.format_synth import InstructionFormat, synthesize_format
from repro.isa.operations import OP_CLASSES
from repro.vliwcomp.compile import CompiledBlock, CompiledProgram


@dataclass(frozen=True)
class AssembledBlock:
    """Encoded size of one basic block."""

    block_id: int
    size_bytes: int
    instructions: int
    explicit_noops: int


@dataclass
class AssembledProgram:
    """All procedures of a program, assembled for one processor."""

    iformat: InstructionFormat
    # (procedure name, block id) -> AssembledBlock, in layout order.
    blocks: dict[tuple[str, int], AssembledBlock] = field(default_factory=dict)

    @property
    def text_bytes(self) -> int:
        """Total encoded text size (pre-linking, no alignment padding)."""
        return sum(b.size_bytes for b in self.blocks.values())


def assemble(
    compiled: CompiledProgram, iformat: InstructionFormat | None = None
) -> AssembledProgram:
    """Assemble every block of a compiled program.

    ``iformat`` defaults to the format co-synthesized for the compiled
    program's processor.
    """
    if iformat is None:
        iformat = synthesize_format(compiled.mdes)
    assembled = AssembledProgram(iformat=iformat)
    for (proc_name, block_id), cblock in compiled.blocks.items():
        assembled.blocks[(proc_name, block_id)] = _assemble_block(
            cblock, iformat
        )
    return assembled


def _assemble_block(
    cblock: CompiledBlock, iformat: InstructionFormat
) -> AssembledBlock:
    schedule = cblock.schedule
    size = 0
    noops = 0
    # Empty (stall) cycles are distributed across the block; model them as
    # evenly interleaved so each instruction's multi-no-op field absorbs
    # its share and only long runs need explicit no-ops.
    n_instr = schedule.num_instructions
    stalls = schedule.stall_cycles
    per_gap = stalls // n_instr if n_instr else 0
    remainder = stalls - per_gap * n_instr if n_instr else 0
    for ordinal, instr in enumerate(schedule.instructions):
        counts = [0] * len(OP_CLASSES)
        for op_index in instr:
            counts[OP_CLASSES.index(cblock.operations[op_index].opclass)] += 1
        template = iformat.template_for(tuple(counts))
        size += iformat.template_width_bytes(template)
        gap = per_gap + (1 if ordinal < remainder else 0)
        overflow = max(0, gap - iformat.max_noop_run)
        if overflow:
            noops += overflow
            size += overflow * iformat.noop_instruction_bytes()
    if size == 0:
        # An empty block (no operations) still occupies one no-op so that
        # it has a distinct address.
        size = iformat.noop_instruction_bytes()
    return AssembledBlock(
        block_id=cblock.block_id,
        size_bytes=size,
        instructions=n_instr,
        explicit_noops=noops,
    )
