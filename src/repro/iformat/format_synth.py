"""Multi-template instruction format synthesis.

A template is a set of class-specific operation slots; an instruction is
encoded by the cheapest template whose slots cover its operations.  The
synthesized library contains:

* one single-op template per function-unit class,
* all two-slot class combinations the machine supports,
* a halving chain from the full machine width down (full, half, quarter,
  ...), mirroring the power-of-two template families of real multi-template
  formats.

Every instruction additionally carries a header (template selector plus
multi-no-op bits, Section 3.3) and a *dispersal field* of one bit per
issue slot that routes operations to units — the EPIC-style overhead that
makes wide formats intrinsically less dense and is, per Section 4.1, "the
dominant factor in the code size increase".
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.errors import EncodingError
from repro.isa.operations import MIX_FIELD_BITS, OP_CLASSES, OpClass
from repro.machine.mdes import MachineDescription

#: Multi-no-op field width: up to 2**value - 1 empty cycles encoded free.
NOOP_FIELD_BITS = 2

#: Dispersal (routing) bits per machine issue slot, on every instruction.
DISPERSAL_BITS_PER_SLOT = 2.5

#: Machines wider than this lose the dense two-slot templates: template
#: libraries are kept small (the paper's formats have a fixed template
#: budget), and on wide machines that budget goes to the halving chain,
#: leaving short instructions to pay for wide templates — the format
#: inefficiency Section 4.1 identifies as the dominant dilation source.
MAX_WIDTH_WITH_PAIR_TEMPLATES = 6

#: Instructions are padded to a whole number of bytes.
INSTRUCTION_QUANTUM_BITS = 8


@dataclass(frozen=True)
class Template:
    """One instruction template: a count of slots per operation class."""

    slots: tuple[int, int, int, int]  # indexed like OP_CLASSES

    def slot_count(self, opclass: OpClass) -> int:
        """Slots available for operations of ``opclass``."""
        return self.slots[OP_CLASSES.index(opclass)]

    @property
    def total_slots(self) -> int:
        return sum(self.slots)

    def covers(self, op_counts: dict[OpClass, int]) -> bool:
        """True if an instruction with these op counts fits the template."""
        return all(
            op_counts.get(cls, 0) <= self.slots[i]
            for i, cls in enumerate(OP_CLASSES)
        )

    def __str__(self) -> str:
        return "/".join(
            f"{cls.short}{n}" for cls, n in zip(OP_CLASSES, self.slots) if n
        )


@dataclass(frozen=True)
class InstructionFormat:
    """A synthesized format: the template library plus width bookkeeping."""

    templates: tuple[Template, ...]
    slot_bits: dict[OpClass, int]
    header_bits: int
    dispersal_bits: int

    def template_width_bits(self, template: Template) -> int:
        """Total encoded width of an instruction using ``template``."""
        payload = sum(
            template.slots[i] * self.slot_bits[cls]
            for i, cls in enumerate(OP_CLASSES)
        )
        return self.header_bits + self.dispersal_bits + payload

    def template_width_bytes(self, template: Template) -> int:
        """Encoded width rounded up to the instruction quantum, in bytes."""
        width = self._width_bytes.get(template)
        if width is None:
            bits = self.template_width_bits(template)
            quantum = INSTRUCTION_QUANTUM_BITS
            width = (bits + quantum - 1) // quantum * (quantum // 8)
            self._width_bytes[template] = width
        return width

    def select_template(self, op_counts: dict[OpClass, int]) -> Template:
        """Greedy selection: the covering template with the fewest bits
        (memoized, see :meth:`template_for`)."""
        return self.template_for(
            tuple(op_counts.get(cls, 0) for cls in OP_CLASSES)
        )

    def template_for(self, counts: tuple[int, ...]) -> Template:
        """:meth:`select_template` for op counts indexed like
        ``OP_CLASSES``.

        Memoized on the 4-tuple: the assembler asks for the same few
        hundred counts tens of thousands of times per program.  A count
        no template covers is not memoized, so it raises
        :class:`EncodingError` on every call.
        """
        template = self._selected.get(counts)
        if template is None:
            template = self.scan_template(dict(zip(OP_CLASSES, counts)))
            self._selected[counts] = template
        return template

    def scan_template(self, op_counts: dict[OpClass, int]) -> Template:
        """The linear scan behind :meth:`select_template` (no memo).

        Ties break toward more total slots (more multi-no-op headroom),
        then deterministic template order — the paper's two greedy
        criteria (Section 3.3).
        """
        best: Template | None = None
        best_key: tuple[int, int, int] | None = None
        for index, template in enumerate(self.templates):
            if not template.covers(op_counts):
                continue
            key = (
                self.template_width_bits(template),
                -template.total_slots,
                index,
            )
            if best_key is None or key < best_key:
                best, best_key = template, key
        if best is None:
            raise EncodingError(
                f"no template covers operation counts "
                f"{ {c.value: n for c, n in op_counts.items() if n} }"
            )
        return best

    def mix_widths_bytes(self, mixes: np.ndarray) -> np.ndarray:
        """Byte width of the template :meth:`template_for` selects for
        each packed instruction mix (see
        :func:`~repro.isa.operations.pack_mix`), all at once: the first
        covering template in selection order.  A mix no template covers
        raises :class:`EncodingError`, as :meth:`template_for` does."""
        mixes = np.asarray(mixes, dtype=np.uint64)
        shifts = np.arange(len(OP_CLASSES), dtype=np.uint64) * np.uint64(
            MIX_FIELD_BITS
        )
        counts = (mixes[:, None] >> shifts) & np.uint64((1 << MIX_FIELD_BITS) - 1)
        slots, widths = self._by_preference
        covers = (counts[:, None, :] <= slots[None, :, :]).all(axis=2)
        covered = covers.any(axis=1)
        if not covered.all():
            self.template_for(tuple(counts[np.argmin(covered)].tolist()))
        return widths[covers.argmax(axis=1)]

    @cached_property
    def _by_preference(self) -> tuple[np.ndarray, np.ndarray]:
        """Every template's slots and byte width, in selection order:
        fewest bits, then most slots, then library order."""
        order = sorted(
            range(len(self.templates)),
            key=lambda i: (
                self.template_width_bits(self.templates[i]),
                -self.templates[i].total_slots,
                i,
            ),
        )
        ranked = [self.templates[i] for i in order]
        return (
            np.array([t.slots for t in ranked], dtype=np.uint64).reshape(
                -1, len(OP_CLASSES)
            ),
            np.array([self.template_width_bytes(t) for t in ranked], dtype=np.int64),
        )

    @cached_property
    def _selected(self) -> dict[tuple[int, ...], Template]:
        return {}

    @cached_property
    def _width_bytes(self) -> dict[Template, int]:
        return {}

    @property
    def max_noop_run(self) -> int:
        """Empty cycles one instruction's multi-no-op field can absorb."""
        return 2**NOOP_FIELD_BITS - 1

    def noop_instruction_bytes(self) -> int:
        """Size of an explicit no-op (smallest template, empty slots)."""
        smallest = min(self.templates, key=self.template_width_bits)
        return self.template_width_bytes(smallest)


def synthesize_format(mdes: MachineDescription) -> InstructionFormat:
    """Co-synthesize the instruction format for ``mdes.processor``."""
    processor = mdes.processor
    units = tuple(processor.units[cls] for cls in OP_CLASSES)

    library: set[tuple[int, int, int, int]] = set()
    # Single-op templates.
    for i in range(len(OP_CLASSES)):
        single = [0, 0, 0, 0]
        single[i] = 1
        library.add(tuple(single))
    # Two-slot combinations (pairs of classes, and doubled classes where
    # the machine has two or more units) — narrow machines only; see
    # MAX_WIDTH_WITH_PAIR_TEMPLATES.
    if processor.issue_width <= MAX_WIDTH_WITH_PAIR_TEMPLATES:
        for i, j in itertools.combinations_with_replacement(
            range(len(OP_CLASSES)), 2
        ):
            pair = [0, 0, 0, 0]
            pair[i] += 1
            pair[j] += 1
            if all(pair[k] <= units[k] for k in range(4)):
                library.add(tuple(pair))
    # Halving chain: full width, then ceil-half per class, down to all-ones.
    shape = units
    while True:
        library.add(shape)
        if all(s <= 1 for s in shape):
            break
        shape = tuple(max(1, (s + 1) // 2) for s in shape)

    templates = tuple(
        Template(slots)
        for slots in sorted(library, key=lambda s: (sum(s), s))
    )
    slot_bits = {
        cls: mdes.operation_encoding_bits(cls) for cls in OP_CLASSES
    }
    header_bits = (
        max(1, math.ceil(math.log2(len(templates)))) + NOOP_FIELD_BITS
    )
    dispersal_bits = math.ceil(
        DISPERSAL_BITS_PER_SLOT * processor.issue_width
    )
    return InstructionFormat(
        templates=templates,
        slot_bits=slot_bits,
        header_bits=header_bits,
        dispersal_bits=dispersal_bits,
    )
