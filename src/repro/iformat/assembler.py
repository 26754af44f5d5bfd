"""Assembler: encode scheduled blocks, producing per-block byte sizes.

For each VLIW instruction the assembler greedily selects the smallest
covering template (Section 3.3).  Stall cycles between instructions are
absorbed by the previous instruction's multi-no-op field; runs of empty
cycles longer than the field encodes become explicit no-op instructions.
Blocks are sized from their schedule's instruction *mix* (each distinct
per-class op count and how many instructions issue it) and the no-ops
in closed form, all blocks of a program at once: one template is
selected per distinct packed mix of the compiled program's mix runs,
and the widths are summed per block with one ``add.at``.  The
per-instruction assembler is the oracle in :mod:`repro.oracles.assembler`.

The output — per-block sizes, instruction counts and no-op counts as
arrays in layout order, with :class:`AssembledBlock` records made on
demand — is what the linker lays out and what the dilation measurement
compares across processors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.iformat.format_synth import InstructionFormat, synthesize_format
from repro.vliwcomp.compile import CompiledProgram


class AssembledBlock(NamedTuple):
    """Encoded size of one basic block."""

    block_id: int
    size_bytes: int
    instructions: int
    explicit_noops: int


@dataclass(eq=False)
class AssembledProgram:
    """All procedures of a program, assembled for one processor.

    Block ``k`` is ``keys[k]`` (layout order; ``index`` maps each key
    back to its ``k``): ``sizes[k]`` bytes, ``instructions[k]``
    instructions and ``explicit_noops[k]`` explicit no-ops.
    :class:`AssembledBlock` records are made on demand by
    :attr:`blocks`.
    """

    iformat: InstructionFormat
    keys: list[tuple[str, int]]
    index: dict[tuple[str, int], int]
    sizes: np.ndarray
    instructions: np.ndarray
    explicit_noops: np.ndarray

    @property
    def blocks(self) -> dict[tuple[str, int], AssembledBlock]:
        """Every block's record by key, in layout order, made on demand
        (a new dict on each call)."""
        return {
            key: AssembledBlock(key[1], size, instructions, noops)
            for key, size, instructions, noops in zip(
                self.keys,
                self.sizes.tolist(),
                self.instructions.tolist(),
                self.explicit_noops.tolist(),
            )
        }

    @property
    def text_bytes(self) -> int:
        """Total encoded text size (pre-linking, no alignment padding)."""
        return int(self.sizes.sum())


def assemble(
    compiled: CompiledProgram, iformat: InstructionFormat | None = None
) -> AssembledProgram:
    """Assemble every block of a compiled program.

    ``iformat`` defaults to the format co-synthesized for the compiled
    program's processor.

    A block's size is the sum over its schedule's instruction mix of
    count x template width: the width is looked up once per distinct
    packed mix of the program, and every block summed at once.  Its
    stall cycles are spread evenly over the gaps after its ``n``
    instructions, so the gaps differ by at most one cycle and each
    multi-no-op field absorbs up to ``max_noop_run`` of them: the
    explicit no-ops come to ``max(0, stalls - n * max_noop_run)``.
    """
    if iformat is None:
        iformat = synthesize_format(compiled.mdes)
    noop_bytes = iformat.noop_instruction_bytes()
    mixes, which = np.unique(compiled.mix_packed, return_inverse=True)
    widths = iformat.mix_widths_bytes(mixes)
    n_blocks = len(compiled.keys)
    sizes = np.zeros(n_blocks, dtype=np.int64)
    np.add.at(sizes, compiled.mix_block, compiled.mix_count * widths[which])
    instructions = compiled.num_instructions
    noops = np.maximum(
        0, compiled.cycles - instructions * (1 + iformat.max_noop_run)
    )
    sizes += noops * noop_bytes
    # An empty block (no operations) still occupies one no-op so that
    # it has a distinct address.
    sizes[sizes == 0] = noop_bytes
    return AssembledProgram(
        iformat=iformat,
        keys=compiled.keys,
        index=compiled.index,
        sizes=sizes,
        instructions=instructions,
        explicit_noops=noops,
    )
