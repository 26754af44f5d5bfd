"""Operations: the atoms scheduled onto VLIW function units.

The paper's design space has four function-unit types (integer, float,
memory, branch); a processor named ``3221`` has three integer units, two
float units, two memory units and one branch unit.  Every operation in a
program belongs to exactly one :class:`OpClass` and executes on one unit of
the matching type.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from repro.errors import ConfigurationError


class OpClass(enum.Enum):
    """Function-unit class an operation executes on."""

    INT = "int"
    FLOAT = "float"
    MEMORY = "memory"
    BRANCH = "branch"

    @property
    def short(self) -> str:
        """One-letter mnemonic used in dumps (``I``, ``F``, ``M``, ``B``)."""
        return self.value[0].upper()


#: Canonical ordering of classes, matching the digit order in processor
#: names such as ``3221`` (int, float, memory, branch).
OP_CLASSES: tuple[OpClass, ...] = (
    OpClass.INT,
    OpClass.FLOAT,
    OpClass.MEMORY,
    OpClass.BRANCH,
)

#: Bits per class of a packed instruction mix (see :func:`pack_mix`).
MIX_FIELD_BITS = 16


def pack_mix(counts: Sequence[int]) -> int:
    """One int for an instruction's per-class op counts, indexed like
    :data:`OP_CLASSES`: ``MIX_FIELD_BITS`` bits per class, the first
    class lowest.  Each count must be below ``2**MIX_FIELD_BITS``."""
    mix = 0
    for index, count in enumerate(counts):
        mix |= count << (MIX_FIELD_BITS * index)
    return mix


def unpack_mix(mix: int) -> tuple[int, ...]:
    """The per-class op counts :func:`pack_mix` packed into ``mix``."""
    mask = (1 << MIX_FIELD_BITS) - 1
    return tuple(
        (mix >> (MIX_FIELD_BITS * index)) & mask
        for index in range(len(OP_CLASSES))
    )


@dataclass(frozen=True)
class Operation:
    """A single scheduled operation.

    Parameters
    ----------
    opclass:
        Function-unit class the operation requires.
    dests:
        Virtual register numbers written (0 or 1 for our IR).
    srcs:
        Virtual register numbers read.
    is_load / is_store:
        Memory direction; only meaningful for ``OpClass.MEMORY``.
    stream:
        For memory operations, index of the data stream (see
        :mod:`repro.trace.datamodel`) this operation draws addresses from.
    speculative:
        Marked by the speculation model; speculative loads contribute extra
        data references on processors that support speculation.
    """

    opclass: OpClass
    dests: tuple[int, ...] = field(default=())
    srcs: tuple[int, ...] = field(default=())
    is_load: bool = False
    is_store: bool = False
    stream: int = 0
    speculative: bool = False

    def __post_init__(self) -> None:
        if (self.is_load or self.is_store) and self.opclass is not OpClass.MEMORY:
            raise ValueError("load/store flags require OpClass.MEMORY")
        if self.is_load and self.is_store:
            raise ValueError("an operation cannot be both load and store")

    @property
    def is_memory(self) -> bool:
        return self.opclass is OpClass.MEMORY

    def mnemonic(self) -> str:
        """Human-readable mnemonic, e.g. ``LD``, ``ST``, ``ADD``."""
        if self.is_load:
            return "LD"
        if self.is_store:
            return "ST"
        return {
            OpClass.INT: "ADD",
            OpClass.FLOAT: "FADD",
            OpClass.MEMORY: "MEM",
            OpClass.BRANCH: "BR",
        }[self.opclass]


def make_int(dest: int, srcs: tuple[int, ...] = ()) -> Operation:
    """Convenience constructor for an integer ALU operation."""
    return Operation(OpClass.INT, dests=(dest,), srcs=srcs)


def make_float(dest: int, srcs: tuple[int, ...] = ()) -> Operation:
    """Convenience constructor for a floating-point operation."""
    return Operation(OpClass.FLOAT, dests=(dest,), srcs=srcs)


def make_load(dest: int, addr_src: int = 0, stream: int = 0) -> Operation:
    """Convenience constructor for a load."""
    return Operation(
        OpClass.MEMORY, dests=(dest,), srcs=(addr_src,), is_load=True, stream=stream
    )


def make_store(value_src: int, addr_src: int = 0, stream: int = 0) -> Operation:
    """Convenience constructor for a store."""
    return Operation(
        OpClass.MEMORY, srcs=(value_src, addr_src), is_store=True, stream=stream
    )


def make_branch(srcs: tuple[int, ...] = ()) -> Operation:
    """Convenience constructor for a branch."""
    return Operation(OpClass.BRANCH, srcs=srcs)


#: Load/store kind of a flat op (:attr:`FlatOps.kind`).
NO_ACCESS, LOAD, STORE = 0, 1, 2


class FlatOps(NamedTuple):
    """Operations of consecutive blocks, one array per field.

    Block ``k`` holds ops ``bounds[k]:bounds[k + 1]``.  ``opclass`` is
    an index into :data:`OP_CLASSES` and ``kind`` one of
    :data:`NO_ACCESS`, :data:`LOAD` and :data:`STORE`; ``dests`` and
    ``srcs`` hold one row of registers per op, in operand order, padded
    with -1.  :class:`Operation` records are made only on demand, by
    :meth:`operations`.
    """

    opclass: np.ndarray
    stream: np.ndarray
    kind: np.ndarray
    dests: np.ndarray
    srcs: np.ndarray
    bounds: np.ndarray

    def take(self, positions: np.ndarray, bounds: np.ndarray) -> "FlatOps":
        """The ops at ``positions``, grouped into blocks by ``bounds``."""
        return FlatOps(
            self.opclass[positions],
            self.stream[positions],
            self.kind[positions],
            self.dests[positions],
            self.srcs[positions],
            bounds,
        )

    def operations(
        self, k: int, speculative: range = range(0)
    ) -> tuple[Operation, ...]:
        """Block ``k``'s operations as records, made on demand; those at
        the in-block positions ``speculative`` are marked speculative."""
        lo, hi = self.bounds[k: k + 2].tolist()
        rows = zip(*(field[lo:hi].tolist() for field in self[:5]))
        return tuple(
            Operation(
                OP_CLASSES[opclass],
                dests=tuple(r for r in dests if r >= 0),
                srcs=tuple(r for r in srcs if r >= 0),
                is_load=kind == LOAD,
                is_store=kind == STORE,
                stream=stream,
                speculative=i in speculative,
            )
            for i, (opclass, stream, kind, dests, srcs) in enumerate(rows)
        )


def flat_ops(blocks: Sequence[Sequence[Operation]]) -> FlatOps:
    """Flatten the operation lists of ``blocks``, in order."""
    ops = [op for block in blocks for op in block]
    classes = [op.opclass for op in ops]
    bounds = np.zeros(len(blocks) + 1, dtype=np.int64)
    np.cumsum([len(block) for block in blocks], out=bounds[1:])
    return FlatOps(
        np.fromiter(map(OP_CLASSES.index, classes), np.int64, len(ops)),
        np.fromiter((op.stream for op in ops), np.int64, len(ops)),
        np.fromiter(
            (LOAD * op.is_load + STORE * op.is_store for op in ops),
            np.int64,
            len(ops),
        ),
        _padded([op.dests for op in ops]),
        _padded([op.srcs for op in ops]),
        bounds,
    )


def _padded(rows: list[tuple[int, ...]]) -> np.ndarray:
    counts = np.fromiter(map(len, rows), np.int64, len(rows))
    registers = [r for row in rows for r in row]
    if min(registers, default=0) < 0:
        raise ConfigurationError("register numbers must be non-negative")
    out = np.full((len(rows), int(counts.max(initial=0))), -1, dtype=np.int64)
    out[np.repeat(np.arange(len(rows)), counts), ranks(counts)] = registers
    return out


def ranks(counts: np.ndarray) -> np.ndarray:
    """``0..c-1`` for each count ``c``, concatenated: each row's position
    in its group, for consecutive groups of the given sizes."""
    total = int(counts.sum())
    return np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
