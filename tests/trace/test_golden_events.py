"""Golden digest of the event traces of the suite.

``GOLDEN_DIGEST`` is the sha256 of the block table and all five arrays
of every :class:`~repro.trace.events.EventTrace` that the frame-walking
emulator (:class:`repro.oracles.emulator.ScalarEmulator`) produced,
before the batch emulator existed, for every suite benchmark at scale
0.25, seeds 1 and 5, in four forms: undecorated, and decorated for the
reference processor, for a speculative, predicated ``6331`` and for an
8-register ``2111``.  The wide machine hoists loads, so its traces
carry peeks and wrong-path reads; the narrow one spills.  The test
recomputes the digest with the production
:class:`~repro.trace.emulator.Emulator`.
"""

from __future__ import annotations

import hashlib

from repro.machine.mdes import MachineDescription
from repro.machine.presets import REFERENCE_PROCESSOR
from repro.machine.processor import make_processor
from repro.trace.emulator import Emulator
from repro.vliwcomp.compile import BlockMemo, compile_program
from repro.workloads.suite import BENCHMARK_NAMES, load_benchmark

GOLDEN_DIGEST = (
    "d42857285b876b2d7288c1c4666f639590b3259e9832e191b3ec26e61e6250c7"
)

SCALE = 0.25
SEEDS = (1, 5)
MAX_VISITS = 6_000


def digest_processors() -> list:
    """The decorating machines, in digest order."""
    return [
        REFERENCE_PROCESSOR,
        make_processor(
            6, 3, 3, 1, has_speculation=True, has_predication=True
        ),
        make_processor(2, 1, 1, 1, int_registers=8),
    ]


def trace_record(events) -> bytes:
    """The bytes of one trace the digest covers."""
    parts = [repr(events.blocks).encode()]
    for array, dtype in (
        (events.visit_blocks, "<i4"),
        (events.data_addrs, "<i8"),
        (events.data_streams, "<i4"),
        (events.data_offsets, "<i8"),
        (events.data_writes, "?"),
    ):
        parts.append(array.astype(dtype).tobytes())
    return b"|".join(parts)


def suite_digest(emulator_class) -> str:
    """sha256 over every digest trace, emulated by ``emulator_class``."""
    h = hashlib.sha256()
    for name in BENCHMARK_NAMES:
        workload = load_benchmark(name, scale=SCALE)
        memo = BlockMemo(workload.program)
        compiled = [
            compile_program(
                workload.program, MachineDescription(processor), memo=memo
            )
            for processor in digest_processors()
        ]
        for seed in SEEDS:
            emulator = emulator_class(
                workload.program, workload.streams, seed=seed
            )
            for form in (None, *compiled):
                h.update(trace_record(emulator.run(MAX_VISITS, form)))
    return h.hexdigest()


def test_emulator_reproduces_golden_digest():
    assert suite_digest(Emulator) == GOLDEN_DIGEST
