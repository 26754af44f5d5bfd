"""Reference engines that tests and benchmarks check production against.

Every fast path keeps a slow oracle, and the oracles live here rather
than behind production mode switches:

* :class:`~repro.oracles.legacy.LegacyCheetahSimulator` — the seed
  single-pass simulator, one Python ``_touch`` per line per family;
* :class:`~repro.oracles.scalar.ScalarCheetahSimulator` — the
  pre-kernel engine, vectorized pre-passes feeding a per-reference LRU
  loop over its own per-set stacks;
* :func:`~repro.oracles.scalar.access_line` — one line touch, as a
  one-line batch, on any :class:`~repro.cache.cheetah.CheetahSimulator`;
* :class:`~repro.oracles.emulator.ScalarEmulator` — the frame-walking
  emulator, one block lookup and one data address at a time, with its
  :class:`~repro.oracles.emulator.EventTraceBuilder` and the
  per-reference :class:`~repro.oracles.emulator.ScalarDataAddressModel`;
* :func:`~repro.oracles.synth.generate_workload` — the per-op workload
  generator, one :class:`~repro.isa.operations.Operation` at a time
  from the same random draws as the array generator;
* :func:`~repro.oracles.compiler.compile_program` — the per-block
  compiler: one dependence graph, list schedule and spill sweep per
  block, with :func:`~repro.oracles.compiler.build_dependence_graph`,
  :func:`~repro.oracles.compiler.list_schedule` and
  :func:`~repro.oracles.compiler.schedule_block` as its parts, and
  :func:`~repro.oracles.compiler.compiled_from_blocks` turning its
  block records into a compiled program's arrays;
* :func:`~repro.oracles.assembler.assemble` — the per-instruction
  assembler, one template selection per VLIW instruction and the stall
  cycles spread gap by gap (its records become arrays through
  :func:`~repro.oracles.assembler.assembled_from_blocks`);
* :func:`~repro.oracles.granules.derive_trace_parameters` — the AHH
  parameters word by word: the streaming
  :class:`~repro.oracles.granules.GranuleAccumulator` and the
  range-by-range :class:`~repro.oracles.granules.UnifiedModeler`, each
  granule measured as it closes;
* :class:`~repro.oracles.encoding.InstructionCodec` — the bit-level
  instruction encoder/decoder, whose encoded lengths check the
  assembler's template widths;
* :func:`~repro.oracles.unique_lines.measured_unique_lines` — unique
  lines counted on a whole trace, the measured reference for the AHH
  u(L) formula.

No production module imports this package (a test pins that).
"""

from repro.oracles.emulator import (
    EventTraceBuilder,
    ScalarDataAddressModel,
    ScalarEmulator,
)
from repro.oracles.encoding import (
    DecodedInstruction,
    DecodedSlot,
    InstructionCodec,
)
from repro.oracles.legacy import LegacyCheetahSimulator
from repro.oracles.scalar import ScalarCheetahSimulator, access_line
from repro.oracles.unique_lines import measured_unique_lines

__all__ = [
    "DecodedInstruction",
    "DecodedSlot",
    "EventTraceBuilder",
    "InstructionCodec",
    "LegacyCheetahSimulator",
    "ScalarCheetahSimulator",
    "ScalarDataAddressModel",
    "ScalarEmulator",
    "access_line",
    "measured_unique_lines",
]
