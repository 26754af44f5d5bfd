"""Assembler: encode scheduled blocks, producing per-block byte sizes.

For each VLIW instruction the assembler greedily selects the smallest
covering template (Section 3.3).  Stall cycles between instructions are
absorbed by the previous instruction's multi-no-op field; runs of empty
cycles longer than the field encodes become explicit no-op instructions.
Blocks are sized from their schedule's instruction *mix* (each distinct
per-class op count and how many instructions issue it) and the no-ops
in closed form; the per-instruction assembler is the oracle in
:mod:`repro.oracles.assembler`.

The output — a relocatable object per procedure with per-block sizes — is
what the linker lays out and what the dilation measurement compares
across processors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import mul
from typing import NamedTuple

from repro.iformat.format_synth import InstructionFormat, synthesize_format
from repro.isa.operations import unpack_mix
from repro.vliwcomp.compile import CompiledProgram


class AssembledBlock(NamedTuple):
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

    A block's size is the sum over its schedule's instruction mix of
    count x template width.  Its stall cycles are spread evenly over
    the gaps after its ``n`` instructions, so the gaps differ by at most
    one cycle and each multi-no-op field absorbs up to ``max_noop_run``
    of them: the explicit no-ops come to ``max(0, stalls - n *
    max_noop_run)``.
    """
    if iformat is None:
        iformat = synthesize_format(compiled.mdes)
    width_of = _MixWidths(iformat).__getitem__
    noop_bytes = iformat.noop_instruction_bytes()
    noop_run = iformat.max_noop_run
    blocks = {}
    for key, cblock in compiled.blocks.items():
        schedule = cblock.schedule
        mix = schedule.mix
        n_instr = schedule.num_instructions
        noops = max(0, schedule.cycles - n_instr * (1 + noop_run))
        size = sum(map(mul, mix.values(), map(width_of, mix)))
        size += noops * noop_bytes
        if not size:
            # An empty block (no operations) still occupies one no-op
            # so that it has a distinct address.
            size = noop_bytes
        blocks[key] = AssembledBlock(cblock.block_id, size, n_instr, noops)
    return AssembledProgram(iformat=iformat, blocks=blocks)


class _MixWidths(dict):
    """One format's table of instruction width in bytes per packed mix
    (:func:`~repro.isa.operations.pack_mix`), filled as mixes are first
    looked up."""

    def __init__(self, iformat: InstructionFormat):
        super().__init__()
        self._iformat = iformat

    def __missing__(self, mix: int) -> int:
        iformat = self._iformat
        width = iformat.template_width_bytes(
            iformat.template_for(unpack_mix(mix))
        )
        self[mix] = width
        return width
