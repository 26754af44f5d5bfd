"""Instruction format synthesis, assembly and linking (Section 3.3).

The paper co-synthesizes a variable-length multi-template instruction
format with each VLIW processor [15]; the assembler greedily picks the
smallest template covering each instruction's operations, and the linker
lays blocks out, aligns branch targets to fetch-packet boundaries and
assigns final addresses.  The per-block byte sizes this chain produces on
each processor are the raw material of the dilation model: text dilation
is the ratio of linked text sizes (Section 4.1).
"""

from repro.iformat.assembler import AssembledBlock, AssembledProgram, assemble
from repro.iformat.format_synth import InstructionFormat, Template, synthesize_format
from repro.iformat.layout import Profile, layout_program, profile_from_events
from repro.iformat.linker import Binary, BlockImage, link

__all__ = [
    "Template",
    "InstructionFormat",
    "synthesize_format",
    "AssembledBlock",
    "AssembledProgram",
    "assemble",
    "Binary",
    "BlockImage",
    "link",
    "Profile",
    "profile_from_events",
    "layout_program",
]
