"""Golden digest of every compiled block of the suite.

``GOLDEN_DIGEST`` is the sha256 of every :class:`CompiledBlock` that the
compiler produced, before the block memo existed, for every suite
benchmark (scale 0.25) on the processors below: operations, schedule,
spill-op count, speculative streams and predicted successor.  The test
recomputes it through one shared :class:`BlockMemo`, compiling the
processors in a shuffled order, so any schedule that a reused entry
gets wrong changes the digest.
"""

from __future__ import annotations

import hashlib
import random

from repro.explore.spec import SystemDesignSpace
from repro.isa.operations import OpClass
from repro.machine.mdes import MachineDescription
from repro.machine.presets import P3221, PAPER_PROCESSORS
from repro.machine.processor import make_processor
from repro.vliwcomp.compile import BlockMemo, compile_program
from repro.workloads.suite import BENCHMARK_NAMES, load_benchmark

GOLDEN_DIGEST = (
    "1254cb3217c69eb8be091769ac44ae2624a514a0e17cd137a941f5e7eef22313"
)

SCALE = 0.25


def digest_mdeses() -> list[MachineDescription]:
    """The machines the digest covers, in digest order."""
    processors = [
        *SystemDesignSpace().processors,
        *PAPER_PROCESSORS,
        make_processor(2, 1, 1, 1, int_registers=8),
        make_processor(4, 2, 2, 1, int_registers=8),
    ]
    mdeses = [MachineDescription(p) for p in processors]
    mdeses.append(
        MachineDescription(
            P3221,
            latencies={
                OpClass.INT: 2,
                OpClass.FLOAT: 4,
                OpClass.MEMORY: 3,
                OpClass.BRANCH: 1,
            },
        )
    )
    return mdeses


def _op_key(op) -> tuple:
    return (
        op.opclass.value,
        op.dests,
        op.srcs,
        op.is_load,
        op.is_store,
        op.stream,
        op.speculative,
    )


def suite_digest(compile_benchmark) -> str:
    """sha256 over every compiled block of every suite benchmark.

    ``compile_benchmark(program, mdeses)`` returns one compiled program
    per machine of ``mdeses``, in that order; it may compile them in
    any order it likes.
    """
    mdeses = digest_mdeses()
    h = hashlib.sha256()
    for name in BENCHMARK_NAMES:
        program = load_benchmark(name, scale=SCALE).program
        for index, compiled in enumerate(compile_benchmark(program, mdeses)):
            blocks = compiled.blocks
            for key in sorted(blocks):
                block = blocks[key]
                record = (
                    name,
                    index,
                    key,
                    block.block_id,
                    tuple(_op_key(op) for op in block.operations),
                    block.schedule.instructions,
                    block.schedule.cycles,
                    block.spill_ops,
                    block.speculative_streams,
                    block.predicted_successor,
                )
                h.update(repr(record).encode())
    return h.hexdigest()


def _compile_shuffled_through_one_memo(program, mdeses):
    memo = BlockMemo(program)
    order = list(range(len(mdeses)))
    random.Random(2024).shuffle(order)
    compiled = {
        i: compile_program(program, mdeses[i], memo=memo) for i in order
    }
    return [compiled[i] for i in range(len(mdeses))]


def test_shared_memo_reproduces_golden_digest():
    assert suite_digest(_compile_shuffled_through_one_memo) == GOLDEN_DIGEST
