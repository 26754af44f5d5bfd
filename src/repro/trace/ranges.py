"""Range traces: the compact address-trace representation.

A range trace is a sequence of byte ranges ``[start, start + size)``, each
tagged as an instruction or data access.  An instruction basic-block visit
is one range covering the block's bytes; a data reference is a one-word
range.  Touching the lines a range overlaps once each, in order, is
miss-equivalent to touching every word (consecutive words of a line hit
the already-most-recently-used line without changing LRU state), so the
cache simulators consume ranges directly — orders of magnitude fewer
Python-level iterations than a word-by-word trace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cache.config import WORD_BYTES
from repro.cache.linestream import LineStream, expand_lines, line_stream
from repro.errors import TraceError

#: Kind tags.  Data reads and writes are distinct kinds so the trace
#: keeps which references are stores; consumers that only care about
#: the instruction/data split treat every non-instruction kind as data.
KIND_INSTR: int = 0
KIND_DATA: int = 1
KIND_WRITE: int = 2


@dataclass(frozen=True)
class RangeTrace:
    """An immutable range trace.

    Attributes
    ----------
    starts / sizes:
        Parallel int64 arrays of byte offsets and byte lengths.
    kinds:
        Parallel uint8 array of :data:`KIND_INSTR` / :data:`KIND_DATA`
        tags.  Homogeneous traces (instruction-only, data-only) still
        carry the array so consumers never special-case.
    """

    starts: np.ndarray
    sizes: np.ndarray
    kinds: np.ndarray

    def __post_init__(self) -> None:
        if not (len(self.starts) == len(self.sizes) == len(self.kinds)):
            raise TraceError("starts, sizes and kinds must be equal length")
        if len(self.sizes) and int(self.sizes.min()) <= 0:
            raise TraceError("all range sizes must be positive")

    @classmethod
    def build(
        cls,
        starts: list[int] | np.ndarray,
        sizes: list[int] | np.ndarray,
        kinds: list[int] | np.ndarray | int,
    ) -> "RangeTrace":
        """Construct from lists; ``kinds`` may be a scalar tag."""
        starts_arr = np.asarray(starts, dtype=np.int64)
        sizes_arr = np.asarray(sizes, dtype=np.int64)
        if isinstance(kinds, (int, np.integer)):
            kinds_arr = np.full(len(starts_arr), kinds, dtype=np.uint8)
        else:
            kinds_arr = np.asarray(kinds, dtype=np.uint8)
        return cls(starts_arr, sizes_arr, kinds_arr)

    @classmethod
    def empty(cls) -> "RangeTrace":
        return cls.build([], [], [])

    def __len__(self) -> int:
        return len(self.starts)

    @property
    def total_bytes(self) -> int:
        """Sum of range sizes (the trace 'volume')."""
        return int(self.sizes.sum()) if len(self) else 0

    def component(self, kind: int) -> "RangeTrace":
        """Sub-trace of one exact kind, order preserved."""
        mask = self.kinds == kind
        return RangeTrace(
            self.starts[mask], self.sizes[mask], self.kinds[mask]
        )

    @property
    def instruction_component(self) -> "RangeTrace":
        return self.component(KIND_INSTR)

    @property
    def data_component(self) -> "RangeTrace":
        """Every data access — reads and writes alike."""
        mask = self.kinds != KIND_INSTR
        return RangeTrace(
            self.starts[mask], self.sizes[mask], self.kinds[mask]
        )

    def word_addresses(self) -> np.ndarray:
        """Expand to the full word-address stream (AHH parameter input).

        Memory-proportional to the expanded length; intended for granule
        processing, not for cache simulation.  Delegates to the
        vectorized expansion kernel shared with the cache simulators.
        """
        if not len(self):
            return np.empty(0, dtype=np.int64)
        return expand_lines(self.starts, self.sizes, WORD_BYTES)

    def line_stream(self, line_size: int) -> LineStream:
        """Memoized expanded + MRU-collapsed line stream for this trace.

        One expansion per (trace, line size) is shared by every consumer
        (all stack families of a single-pass simulation, repeated sweep
        passes, the direct simulator).
        """
        return line_stream(self.starts, self.sizes, line_size)

    @staticmethod
    def concatenate(traces: list["RangeTrace"]) -> "RangeTrace":
        if not traces:
            return RangeTrace.empty()
        return RangeTrace(
            np.concatenate([t.starts for t in traces]),
            np.concatenate([t.sizes for t in traces]),
            np.concatenate([t.kinds for t in traces]),
        )
