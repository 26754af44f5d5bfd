"""The per-instruction assembler, the reference for
:func:`repro.iformat.assembler.assemble`.

Each instruction's per-class op counts are taken from its operations,
its template is selected and its width added one instruction at a time;
the stall cycles are spread gap by gap, and each gap longer than the
multi-no-op field adds explicit no-ops.  Production sizes a block from
its schedule's instruction mix and the no-op overflow in closed form.
"""

from __future__ import annotations

import numpy as np

from repro.iformat.assembler import AssembledBlock, AssembledProgram
from repro.iformat.format_synth import InstructionFormat, synthesize_format
from repro.isa.operations import OP_CLASSES
from repro.vliwcomp.compile import CompiledBlock, CompiledProgram


def assemble(
    compiled: CompiledProgram, iformat: InstructionFormat | None = None
) -> AssembledProgram:
    """Assemble every block of ``compiled``, one instruction at a time."""
    if iformat is None:
        iformat = synthesize_format(compiled.mdes)
    return assembled_from_blocks(
        iformat,
        {
            key: assemble_block(cblock, iformat)
            for key, cblock in compiled.blocks.items()
        },
    )


def assemble_block(
    cblock: CompiledBlock, iformat: InstructionFormat
) -> AssembledBlock:
    """One block's size, instruction by instruction."""
    schedule = cblock.schedule
    size = 0
    noops = 0
    # Stall cycles are spread evenly over the gaps after instructions.
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
        # An empty block still occupies one no-op.
        size = iformat.noop_instruction_bytes()
    return AssembledBlock(
        block_id=cblock.block_id,
        size_bytes=size,
        instructions=n_instr,
        explicit_noops=noops,
    )


def assembled_from_blocks(
    iformat: InstructionFormat,
    blocks: dict[tuple[str, int], AssembledBlock],
) -> AssembledProgram:
    """The arrays of assembled blocks given one by one, in the mapping's
    order."""
    keys = list(blocks)
    table = np.array(
        [(b.size_bytes, b.instructions, b.explicit_noops)
         for b in blocks.values()],
        dtype=np.int64,
    ).reshape(-1, 3)
    return AssembledProgram(
        iformat=iformat,
        keys=keys,
        index={key: k for k, key in enumerate(keys)},
        sizes=table[:, 0],
        instructions=table[:, 1],
        explicit_noops=table[:, 2],
    )
