"""Compiler substrate: scheduling, register pressure and speculation.

Plays the role of the Trimaran/Elcor compiler in the paper's tool chain
(Section 3.2): it maps a program onto a particular VLIW processor,
producing per-block schedules (instructions = sets of concurrently issued
operations) plus the spill and speculation side effects that perturb the
data trace on wider machines (the error sources quantified in Table 2).
Each processor is compiled in one array pass over all of a program's
blocks; the per-block compiler is the oracle in
:mod:`repro.oracles.compiler`.
"""

from repro.vliwcomp.compile import (
    BlockMemo,
    CompiledBlock,
    CompiledProgram,
    compile_program,
)
from repro.vliwcomp.depgraph import BlockGraphs, FlatOps, build_graphs
from repro.vliwcomp.regalloc import SPILL_STREAM, spill_ops
from repro.vliwcomp.scheduler import BlockSchedule, schedule_graphs

__all__ = [
    "BlockGraphs",
    "FlatOps",
    "build_graphs",
    "BlockSchedule",
    "schedule_graphs",
    "spill_ops",
    "SPILL_STREAM",
    "BlockMemo",
    "CompiledBlock",
    "CompiledProgram",
    "compile_program",
]
