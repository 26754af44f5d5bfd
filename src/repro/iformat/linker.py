"""Linker: code layout, packet alignment and address assignment.

The linker combines the assembled procedures into one text image
(Section 3.3): procedures are laid out in program order, blocks in layout
order within each procedure.  Blocks that are branch targets — procedure
entries and destinations of non-fall-through edges — are aligned to fetch
*packet* boundaries "to avoid instruction cache fetch stalls for branch
targets at the expense of slightly larger code size".  The packet is the
bits fetched per cycle: ``issue_width`` words.

The resulting :class:`Binary` is the address map the trace generator and
the dilation measurement consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cache.config import WORD_BYTES
from repro.errors import TraceError
from repro.iformat.assembler import AssembledProgram
from repro.isa.program import Program, branch_targets

#: Base address of the text segment; word aligned and far below the data
#: segment base so instruction and data addresses never collide.
TEXT_BASE = 0x0001_0000


@dataclass(frozen=True)
class BlockImage:
    """Placement of one block in the linked text image."""

    proc_name: str
    block_id: int
    start: int
    size: int

    @property
    def end(self) -> int:
        return self.start + self.size


@dataclass
class Binary:
    """A linked executable's text map for one processor.

    Block ``i`` in emission order starts at ``starts[i]`` and spans
    ``sizes[i]`` bytes; ``index`` maps each block's (procedure name,
    block id) key to its ``i``, in emission order.  A binary linked in
    layout order shares its program's index
    (:meth:`~repro.isa.program.Program.block_index`), so it holds only
    the two int lists; placement records are made on demand.
    """

    program_name: str
    processor_name: str
    base: int
    index: dict[tuple[str, int], int] = field(default_factory=dict)
    starts: list[int] = field(default_factory=list)
    sizes: list[int] = field(default_factory=list)

    def add(self, image: BlockImage) -> None:
        """Register a block placement on a binary built block by block
        (duplicates rejected)."""
        key = (image.proc_name, image.block_id)
        if key in self.index:
            raise TraceError(f"duplicate block image {key}")
        self.index[key] = len(self.starts)
        self.starts.append(image.start)
        self.sizes.append(image.size)

    @property
    def images(self) -> list[BlockImage]:
        """Every block's placement record, in emission order."""
        return [
            BlockImage(name, block_id, start, size)
            for (name, block_id), start, size in zip(
                self.index, self.starts, self.sizes
            )
        ]

    def block_image(self, proc_name: str, block_id: int) -> BlockImage:
        """The placement record of one block."""
        start, size = self.block_range(proc_name, block_id)
        return BlockImage(proc_name, block_id, start, size)

    def block_range(self, proc_name: str, block_id: int) -> tuple[int, int]:
        """(start address, size in bytes) of a block."""
        i = self.index[(proc_name, block_id)]
        return self.starts[i], self.sizes[i]

    @property
    def text_size(self) -> int:
        """Linked text size in bytes, including alignment padding."""
        if not self.starts:
            return 0
        return self.starts[-1] + self.sizes[-1] - self.base

    @property
    def text_end(self) -> int:
        return self.base + self.text_size


def link(
    program: Program,
    assembled: AssembledProgram,
    packet_bytes: int,
    base: int = TEXT_BASE,
    processor_name: str = "",
    layout: dict[str, list[int]] | None = None,
) -> Binary:
    """Lay out the assembled program and assign final addresses.

    ``packet_bytes`` is the fetch-packet size used for branch-target
    alignment (``issue_width * WORD_BYTES`` for the owning processor).

    ``layout`` optionally overrides the emission order: a mapping from
    procedure name to its block-id order, iterated in procedure emission
    order (see :func:`repro.iformat.layout.layout_program` for the
    profile-guided producer).  It must cover every procedure and every
    block exactly once.
    """
    if packet_bytes < WORD_BYTES or packet_bytes % WORD_BYTES:
        raise TraceError(
            f"packet size must be a positive multiple of {WORD_BYTES}, "
            f"got {packet_bytes}"
        )
    index = program.block_index()
    # Program order with no repeated key: share the program's index and
    # its branch targets.
    shared = layout is None and len(index) == program.num_blocks
    binary = Binary(
        program_name=program.name,
        processor_name=processor_name,
        base=base,
        index=index if shared else {},
    )
    # Entries and branch targets start on a packet boundary.
    if shared:
        aligned = program.branch_targets()
    else:
        plan = _emission_plan(program, layout)
        aligned = [
            flag
            for name, order in plan
            for flag in branch_targets(program.procedure(name), order)
        ]
        for proc_name, block_order in plan:
            for block_id in block_order:
                key = (proc_name, block_id)
                if key in binary.index:
                    raise TraceError(f"duplicate block image {key}")
                binary.index[key] = len(binary.index)
    if shared and assembled.index is index:
        rows = np.arange(len(index))
    else:
        position = assembled.index
        rows = np.fromiter(
            (position[key] for key in binary.index), np.int64, len(binary.index)
        )
    sizes = _aligned(assembled.sizes[rows], WORD_BYTES)
    if not len(sizes):
        return binary
    # Every size is whole words, so only the packet-aligned blocks pad:
    # each starts a segment laid out back to back.
    first = np.flatnonzero(aligned)
    cursor = base
    segment_starts = []
    for size in np.add.reduceat(sizes, first).tolist():
        cursor = _align(cursor, packet_bytes)
        segment_starts.append(cursor)
        cursor += size
    before = np.cumsum(sizes) - sizes
    lengths = np.diff(first, append=len(sizes))
    starts = np.repeat(np.array(segment_starts) - before[first], lengths) + before
    binary.starts[:] = starts.tolist()
    binary.sizes[:] = sizes.tolist()
    return binary


def _emission_plan(
    program: Program, layout: dict[str, list[int]] | None
) -> list[tuple[str, list[int]]]:
    """Resolve and validate the (procedure, block order) emission plan."""
    if layout is None:
        return [
            (proc.name, [blk.block_id for blk in proc.blocks])
            for proc in program.procedures.values()
        ]
    if set(layout) != set(program.procedures):
        raise TraceError(
            "layout must cover exactly the program's procedures; "
            f"missing {sorted(set(program.procedures) - set(layout))}, "
            f"extra {sorted(set(layout) - set(program.procedures))}"
        )
    plan = []
    for proc_name, block_order in layout.items():
        expected = sorted(
            blk.block_id for blk in program.procedure(proc_name).blocks
        )
        if sorted(block_order) != expected:
            raise TraceError(
                f"layout for {proc_name!r} is not a permutation of its "
                "blocks"
            )
        plan.append((proc_name, list(block_order)))
    return plan


def _align(value: int, quantum: int) -> int:
    return (value + quantum - 1) // quantum * quantum


def _aligned(values: np.ndarray, quantum: int) -> np.ndarray:
    return (values + quantum - 1) // quantum * quantum
