"""Event traces: the dynamic program behaviour record (Figure 3).

An event trace records "the dynamic program behavior as a high level
sequence of tokens": basic blocks entered and the data addresses of the
load/store operations each visit performs.  Crucially (Section 3.3), the
event trace depends on the scheduled code but *not* on the instruction
format or binary layout — the same event trace is replayed through
different processors' binaries by the trace generator.

Storage is CSR-style: one int32 per block visit plus flat arrays of data
addresses (and their stream ids, kept for trace decoration) indexed by a
per-visit offset array.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.errors import TraceError


class EventKind(enum.Enum):
    """Token kinds of the event trace."""

    BLOCK_ENTER = "block"
    DATA_ADDRESS = "data"


@dataclass(frozen=True)
class EventTrace:
    """An immutable event trace.

    Attributes
    ----------
    blocks:
        Block table: global index -> (procedure name, block id).
    visit_blocks:
        int32 array of global block indexes, one per visit, in order.
    data_addrs / data_streams / data_writes:
        Flat int64 / int32 / bool arrays of the data byte addresses, the
        stream each came from, and whether the access is a store, across
        all visits.
    data_offsets:
        int64 array of length ``n_visits + 1``; visit ``i``'s data
        references are ``data_addrs[data_offsets[i]:data_offsets[i+1]]``.
    """

    blocks: tuple[tuple[str, int], ...]
    visit_blocks: np.ndarray
    data_addrs: np.ndarray
    data_streams: np.ndarray
    data_offsets: np.ndarray
    data_writes: np.ndarray

    def __post_init__(self) -> None:
        if len(self.data_offsets) != len(self.visit_blocks) + 1:
            raise TraceError("data_offsets must have n_visits + 1 entries")
        if not (
            len(self.data_addrs)
            == len(self.data_streams)
            == len(self.data_writes)
        ):
            raise TraceError(
                "data_addrs, data_streams and data_writes length mismatch"
            )
        if len(self.data_offsets) and int(self.data_offsets[-1]) != len(
            self.data_addrs
        ):
            raise TraceError("data_offsets does not cover data_addrs")

    @property
    def n_visits(self) -> int:
        return len(self.visit_blocks)

    @property
    def n_data_refs(self) -> int:
        return len(self.data_addrs)

    def visit_frequencies(self) -> np.ndarray:
        """Execution count of every block-table entry (dynamic weights)."""
        return np.bincount(self.visit_blocks, minlength=len(self.blocks))

    def block_key(self, global_index: int) -> tuple[str, int]:
        """(procedure name, block id) of a block-table entry."""
        return self.blocks[global_index]

    def iter_visits(self):
        """Yield (proc_name, block_id, data_addrs_view) per visit.

        A convenience for tests and small analyses; the trace generator
        uses the raw arrays directly.
        """
        offsets = self.data_offsets
        for i, gidx in enumerate(self.visit_blocks.tolist()):
            proc_name, block_id = self.blocks[gidx]
            yield proc_name, block_id, self.data_addrs[
                offsets[i] : offsets[i + 1]
            ]
