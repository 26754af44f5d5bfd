"""Golden digest of every assembled block and linked text of the suite.

``GOLDEN_DIGEST`` is the sha256 of every :class:`AssembledBlock` (block
id, size, instruction count, explicit no-ops) and of each program's
assembled and linked text size, as the per-instruction assembler
produced them before blocks were sized from instruction mixes, for every
suite benchmark (scale 0.25) on the machines of the golden compile
digest (``tests/vliwcomp/test_golden_digest.py``).  The test recomputes
it with the production :func:`~repro.iformat.assembler.assemble`.
"""

from __future__ import annotations

import hashlib
import importlib.util
from pathlib import Path

from repro.cache.config import WORD_BYTES
from repro.iformat.assembler import assemble
from repro.iformat.linker import link
from repro.vliwcomp.compile import BlockMemo, compile_program
from repro.workloads.suite import BENCHMARK_NAMES, load_benchmark

GOLDEN_DIGEST = (
    "78d73d005378babad8704e53331e421baadb9c9108c826a57146e558cc8a16fa"
)

SCALE = 0.25


def _compile_digest_module():
    path = Path(__file__).resolve().parent.parent / "vliwcomp" / (
        "test_golden_digest.py"
    )
    spec = importlib.util.spec_from_file_location("_golden_compile", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def suite_digest(assemble_program) -> str:
    """sha256 over every assembled block and linked text of the suite.

    ``assemble_program(compiled)`` returns the
    :class:`~repro.iformat.assembler.AssembledProgram` of one compiled
    program.
    """
    mdeses = _compile_digest_module().digest_mdeses()
    h = hashlib.sha256()
    for name in BENCHMARK_NAMES:
        program = load_benchmark(name, scale=SCALE).program
        memo = BlockMemo(program)
        for index, mdes in enumerate(mdeses):
            compiled = compile_program(program, mdes, memo=memo)
            assembled = assemble_program(compiled)
            blocks = assembled.blocks
            for key in sorted(blocks):
                block = blocks[key]
                record = (
                    name,
                    index,
                    key,
                    block.block_id,
                    block.size_bytes,
                    block.instructions,
                    block.explicit_noops,
                )
                h.update(repr(record).encode())
            binary = link(
                program,
                assembled,
                packet_bytes=mdes.processor.issue_width * WORD_BYTES,
            )
            record = (name, index, assembled.text_bytes, binary.text_size)
            h.update(repr(record).encode())
    return h.hexdigest()


def test_assembler_reproduces_golden_digest():
    assert suite_digest(assemble) == GOLDEN_DIGEST
