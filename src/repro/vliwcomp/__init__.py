"""Compiler substrate: scheduling, register pressure and speculation.

Plays the role of the Trimaran/Elcor compiler in the paper's tool chain
(Section 3.2): it maps a program onto a particular VLIW processor,
producing per-block schedules (instructions = sets of concurrently issued
operations) plus the spill and speculation side effects that perturb the
data trace on wider machines (the error sources quantified in Table 2).
"""

from repro.vliwcomp.compile import (
    BlockMemo,
    CompiledBlock,
    CompiledProgram,
    compile_program,
)
from repro.vliwcomp.depgraph import DependenceGraph, build_dependence_graph
from repro.vliwcomp.regalloc import SPILL_STREAM, estimate_spills
from repro.vliwcomp.scheduler import BlockSchedule, schedule_block

__all__ = [
    "DependenceGraph",
    "build_dependence_graph",
    "BlockSchedule",
    "schedule_block",
    "estimate_spills",
    "SPILL_STREAM",
    "BlockMemo",
    "CompiledBlock",
    "CompiledProgram",
    "compile_program",
]
