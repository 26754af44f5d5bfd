"""Constructing the dilated reference trace (Section 4.1, step 2).

"A trace, dilated by d, is derived from Tref as follows.  The length of
each basic block in Tref is increased by a multiplicative factor d.
Additionally, the starting address of each basic block is adjusted to
ensure that the dilated basic blocks do not overlap in the dilated trace
... the start address of the basic block in the dilated trace is changed
from B + O to B + d*O.  The lengths and offsets of basic blocks are
rounded to the nearest word so that contiguous basic blocks in the
original trace remain contiguous but do not overlap."

Implemented as a *binary* transformation: dilating the reference binary's
block placements by d and replaying the same event trace through the
dilated binary yields exactly the dilated address trace, so the ordinary
:class:`~repro.trace.generator.TraceGenerator` needs no special cases.
"""

from __future__ import annotations

from repro.cache.config import WORD_BYTES
from repro.errors import ModelError
from repro.iformat.linker import Binary


def dilate_binary(binary: Binary, dilation: float) -> Binary:
    """Stretch every block of ``binary`` by ``dilation``.

    Offsets from the text base and block sizes are scaled by ``dilation``
    and rounded to the nearest word; a block's start is clamped to the
    previous block's end so rounding never makes dilated blocks overlap
    (contiguity is preserved up to word rounding, as in the paper).
    """
    if dilation <= 0:
        raise ModelError(f"dilation must be positive, got {dilation}")
    base = binary.base
    starts, sizes = binary.starts, binary.sizes
    order = sorted(range(len(starts)), key=starts.__getitem__)
    if order == list(range(len(starts))):
        index = binary.index
    else:
        keys = list(binary.index)
        index = {keys[i]: position for position, i in enumerate(order)}
    dilated = Binary(
        program_name=binary.program_name,
        processor_name=f"{binary.processor_name}*d={dilation:g}",
        base=base,
        index=index,
    )
    prev_end = base
    for i in order:
        start = max(base + _round_word(dilation * (starts[i] - base)), prev_end)
        size = max(WORD_BYTES, _round_word(dilation * sizes[i]))
        dilated.starts.append(start)
        dilated.sizes.append(size)
        prev_end = start + size
    return dilated


def _round_word(value: float) -> int:
    """Round a byte count to the nearest whole word."""
    return int(round(value / WORD_BYTES)) * WORD_BYTES
