"""The frame-walking emulator, kept as the batch emulator's reference.

Before the flat block plan (:mod:`repro.trace.emulator`), the emulator
walked a stack of procedure frames, looked every visited block up by id
and drew each data address one reference at a time.  That engine lives
on here, unchanged:

* :class:`ScalarEmulator` walks the frames and appends every visit and
  reference to an :class:`EventTraceBuilder`;
* :class:`ScalarDataAddressModel` is a
  :class:`~repro.trace.datamodel.DataAddressModel` with per-stream state
  that advances one reference at a time (``next_address``,
  ``peek_next_address``, ``wrong_path_address``), on the production
  model's own specs and regions;
* :class:`_Lcg` is the per-stream generator whose closed form the batch
  address method evaluates.

``benchmarks/bench_explore_perf.py`` times the production emulator
against this one (``emulate_suite``).  Do not optimize it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from repro.cache.config import WORD_BYTES
from repro.errors import TraceError
from repro.isa.program import Program
from repro.isa.validate import validate_program
from repro.trace.datamodel import DataAddressModel, StreamSpec
from repro.trace.events import EventTrace
from repro.vliwcomp.compile import CompiledBlock, CompiledProgram
from repro.vliwcomp.regalloc import SPILL_STREAM

__all__ = [
    "EventTraceBuilder",
    "ScalarDataAddressModel",
    "ScalarEmulator",
]


class EventTraceBuilder:
    """Incremental builder used by the scalar emulator."""

    def __init__(self) -> None:
        self._block_index: dict[tuple[str, int], int] = {}
        self._blocks: list[tuple[str, int]] = []
        self._visits: list[int] = []
        self._addrs: list[int] = []
        self._streams: list[int] = []
        self._writes: list[bool] = []
        self._offsets: list[int] = [0]

    def global_index(self, proc_name: str, block_id: int) -> int:
        """Block-table index for a block, interning it on first use."""
        key = (proc_name, block_id)
        index = self._block_index.get(key)
        if index is None:
            index = len(self._blocks)
            self._block_index[key] = index
            self._blocks.append(key)
        return index

    def begin_visit(self, proc_name: str, block_id: int) -> None:
        """Open a block-visit record."""
        self._visits.append(self.global_index(proc_name, block_id))

    def add_data_ref(
        self, addr: int, stream: int, is_write: bool = False
    ) -> None:
        """Append one data reference to the open visit."""
        self._addrs.append(addr)
        self._streams.append(stream)
        self._writes.append(is_write)

    def end_visit(self) -> None:
        """Close the open visit's data-reference window."""
        self._offsets.append(len(self._addrs))

    @property
    def n_visits(self) -> int:
        return len(self._visits)

    def build(self) -> EventTrace:
        """Freeze the accumulated events into an immutable trace."""
        if len(self._offsets) != len(self._visits) + 1:
            raise TraceError(
                "unbalanced begin_visit/end_visit calls in builder"
            )
        return EventTrace(
            blocks=tuple(self._blocks),
            visit_blocks=np.asarray(self._visits, dtype=np.int32),
            data_addrs=np.asarray(self._addrs, dtype=np.int64),
            data_streams=np.asarray(self._streams, dtype=np.int32),
            data_offsets=np.asarray(self._offsets, dtype=np.int64),
            data_writes=np.asarray(self._writes, dtype=bool),
        )


class _Lcg:
    """Tiny deterministic generator (numerical recipes constants)."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = (seed * 2654435761 + 1) & 0xFFFFFFFF

    def next_u32(self) -> int:
        self.state = (self.state * 1664525 + 1013904223) & 0xFFFFFFFF
        return self.state


class ScalarDataAddressModel(DataAddressModel):
    """A :class:`DataAddressModel` that advances one reference at a time."""

    def __init__(self, streams: dict[int, StreamSpec], seed: int = 1):
        super().__init__(streams, seed)
        self._positions: dict[int, int] = {sid: 0 for sid in self._specs}
        self._rngs: dict[int, _Lcg] = {
            sid: _Lcg(seed ^ (sid & 0xFFFF)) for sid in self._specs
        }
        self._last: dict[int, int] = {}

    def next_address(self, stream: int) -> int:
        """Advance the stream and return the next byte address."""
        spec = self.spec(stream)
        base = self._bases[stream]
        words = spec.region_bytes // WORD_BYTES
        if spec.pattern in ("sequential", "strided"):
            pos = self._positions[stream]
            addr = base + (pos % spec.region_bytes)
            self._positions[stream] = (
                pos + spec.stride_bytes
            ) % spec.region_bytes
        elif spec.pattern == "random":
            word = self._rngs[stream].next_u32() % words
            addr = base + word * WORD_BYTES
        elif spec.pattern == "zipf":
            addr = base + _zipf_word(self._rngs[stream], words) * WORD_BYTES
        else:  # stack
            # Top-of-stack random walk over a hot window of ~32 words.
            window = min(32, words)
            rng = self._rngs[stream]
            step = (rng.next_u32() % 3) - 1  # -1, 0, +1
            pos = (self._positions[stream] + step) % max(1, words - window)
            self._positions[stream] = pos
            offset = rng.next_u32() % window
            addr = base + (pos + offset) * WORD_BYTES
        addr &= ~(WORD_BYTES - 1)
        self._last[stream] = addr
        return addr

    def last_address(self, stream: int) -> int:
        """Most recent address of the stream, without advancing.

        Falls back to the region base before any reference occurs.
        """
        return self._last.get(stream, self.region_base(stream))

    def peek_next_address(self, stream: int) -> int:
        """The address :meth:`next_address` *would* return, without
        advancing any stream state."""
        spec = self.spec(stream)
        base = self._bases[stream]
        words = spec.region_bytes // WORD_BYTES
        if spec.pattern in ("sequential", "strided"):
            addr = base + (self._positions[stream] % spec.region_bytes)
        elif spec.pattern == "random":
            shadow = _Lcg(0)
            shadow.state = self._rngs[stream].state
            addr = base + (shadow.next_u32() % words) * WORD_BYTES
        elif spec.pattern == "zipf":
            shadow = _Lcg(0)
            shadow.state = self._rngs[stream].state
            addr = base + _zipf_word(shadow, words) * WORD_BYTES
        else:  # stack
            window = min(32, words)
            shadow = _Lcg(0)
            shadow.state = self._rngs[stream].state
            step = (shadow.next_u32() % 3) - 1
            pos = (self._positions[stream] + step) % max(1, words - window)
            offset = shadow.next_u32() % window
            addr = base + (pos + offset) * WORD_BYTES
        return addr & ~(WORD_BYTES - 1)

    def wrong_path_address(self, stream: int) -> int:
        """An address a *mispredicted* speculative load would touch,
        without advancing any stream state."""
        spec = self.spec(stream)
        base = self._bases[stream]
        words = spec.region_bytes // WORD_BYTES
        if spec.pattern in ("sequential", "strided"):
            offset = (
                self._positions[stream] + 64 * spec.stride_bytes
            ) % spec.region_bytes
            addr = base + offset
        elif spec.pattern in ("random", "zipf"):
            shadow = _Lcg(0)
            shadow.state = (self._rngs[stream].state ^ 0x9E3779B9) & 0xFFFFFFFF
            if spec.pattern == "zipf":
                addr = base + _zipf_word(shadow, words) * WORD_BYTES
            else:
                addr = base + (shadow.next_u32() % words) * WORD_BYTES
        else:  # stack: the not-taken path still works near the top
            return self.peek_next_address(stream)
        return addr & ~(WORD_BYTES - 1)


def _zipf_word(rng: _Lcg, words: int) -> int:
    """A zipf-like word index: square a uniform draw to skew toward 0."""
    u = rng.next_u32() / 0x1_0000_0000
    return int(u * u * words) % max(1, words)


#: Visit states of an execution frame.
_VISIT, _CALLS, _BRANCH = 0, 1, 2


@dataclass
class _Frame:
    proc_name: str
    block_id: int
    state: int = _VISIT
    call_index: int = 0
    #: Successor chosen at visit time (consumed in the _BRANCH state);
    #: None for return blocks.
    chosen_successor: int | None = None


class ScalarEmulator:
    """Seeded control-flow execution, one frame and reference at a time."""

    def __init__(
        self,
        program: Program,
        streams: dict[int, StreamSpec],
        seed: int = 1,
    ):
        validate_program(program)
        self.program = program
        self.streams = streams
        self.seed = seed

    def run(
        self,
        max_visits: int,
        compiled: CompiledProgram | None = None,
    ) -> EventTrace:
        """Execute until the entry procedure returns or the visit budget."""
        if max_visits < 1:
            raise TraceError(f"max_visits must be >= 1, got {max_visits}")
        rng = random.Random(self.seed)
        data = ScalarDataAddressModel(self.streams, seed=self.seed)
        builder = EventTraceBuilder()
        program = self.program
        # The compiled blocks, each made once.
        blocks = None if compiled is None else compiled.blocks

        stack = [_Frame(program.entry, program.entry_procedure.entry.block_id)]
        while stack and builder.n_visits < max_visits:
            frame = stack[-1]
            proc = program.procedure(frame.proc_name)
            block = proc.block(frame.block_id)
            if frame.state == _VISIT:
                edges = proc.successors(frame.block_id)
                frame.chosen_successor = (
                    _choose(edges, rng) if edges else None
                )
                builder.begin_visit(frame.proc_name, frame.block_id)
                for op in block.operations:
                    if op.is_memory:
                        builder.add_data_ref(
                            data.next_address(op.stream),
                            op.stream,
                            is_write=op.is_store,
                        )
                if blocks is not None:
                    self._decorate(builder, data, blocks, frame)
                builder.end_visit()
                frame.state = _CALLS
                frame.call_index = 0
            elif frame.state == _CALLS:
                if frame.call_index < len(block.calls):
                    callee = block.calls[frame.call_index]
                    frame.call_index += 1
                    entry_block = program.procedure(callee).entry.block_id
                    stack.append(_Frame(callee, entry_block))
                else:
                    frame.state = _BRANCH
            else:  # _BRANCH
                if frame.chosen_successor is None:
                    stack.pop()
                    continue
                frame.block_id = frame.chosen_successor
                frame.state = _VISIT
        return builder.build()

    def _decorate(
        self,
        builder: EventTraceBuilder,
        data: ScalarDataAddressModel,
        blocks: dict[tuple[str, int], CompiledBlock],
        frame: _Frame,
    ) -> None:
        """Append spill and speculative references for this visit."""
        cblock = blocks.get((frame.proc_name, frame.block_id))
        if cblock is None:
            raise TraceError(
                f"compiled program lacks block "
                f"({frame.proc_name!r}, {frame.block_id})"
            )
        for index in range(cblock.spill_ops):
            # Spill ops alternate store/load pairs (see _spill_ops).
            builder.add_data_ref(
                data.next_address(SPILL_STREAM),
                SPILL_STREAM,
                is_write=index % 2 == 0,
            )
        wrong_path = (
            cblock.predicted_successor is not None
            and frame.chosen_successor != cblock.predicted_successor
        )
        for index, stream in enumerate(cblock.speculative_streams):
            if wrong_path and index % 2 == 0:
                builder.add_data_ref(
                    data.wrong_path_address(stream), stream
                )
            else:
                builder.add_data_ref(
                    data.peek_next_address(stream), stream
                )


def _choose(edges, rng: random.Random) -> int:
    """Pick a successor block id according to edge probabilities."""
    point = rng.random()
    acc = 0.0
    for edge in edges:
        acc += edge.probability
        if point < acc:
            return edge.dst
    return edges[-1].dst

