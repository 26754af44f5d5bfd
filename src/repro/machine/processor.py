"""VLIW processor specification.

The paper names processors by their function-unit counts: ``3221`` has
3 integer, 2 float, 2 memory and 1 branch unit.  Issue width is the sum of
the unit counts *plus* the paper's convention that the reference 1111
machine "can issue up to 4 operations per cycle" — i.e. issue width equals
the total number of units (one operation per unit per cycle).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.isa.operations import OP_CLASSES, OpClass


@dataclass(frozen=True)
class VliwProcessor:
    """A point in the VLIW processor design space.

    Parameters
    ----------
    name:
        Display name; conventionally the four unit-count digits
        (``"1111"``, ``"6332"``).
    units:
        Mapping from :class:`OpClass` to the number of function units of
        that class.  Every class must be present with a count >= 1 so that
        any program can execute.
    int_registers / fp_registers / pred_registers:
        Architectural register-file sizes.  Operand encodings take
        ``ceil(log2(size))`` bits each, so bigger files widen the
        instruction format (a dilation source, Section 4.1).
    has_predication / has_speculation:
        Feature flags.  The dilation model requires the reference and
        target processors to share these flags (Section 4.1, step 1).
    """

    name: str
    units: dict[OpClass, int] = field(
        default_factory=lambda: {cls: 1 for cls in OP_CLASSES}
    )
    int_registers: int = 32
    fp_registers: int = 32
    pred_registers: int = 32
    has_predication: bool = False
    has_speculation: bool = True

    def __post_init__(self) -> None:
        for cls in OP_CLASSES:
            count = self.units.get(cls, 0)
            if count < 1:
                raise ConfigurationError(
                    f"processor {self.name!r} needs at least one "
                    f"{cls.value} unit (got {count})"
                )
        for label, size in (
            ("int_registers", self.int_registers),
            ("fp_registers", self.fp_registers),
            ("pred_registers", self.pred_registers),
        ):
            if size < 2 or size & (size - 1):
                raise ConfigurationError(
                    f"processor {self.name!r}: {label} must be a power of "
                    f"two >= 2 (got {size})"
                )

    @property
    def issue_width(self) -> int:
        """Maximum operations issued per cycle (one per function unit)."""
        return sum(self.units[cls] for cls in OP_CLASSES)

    def unit_count(self, opclass: OpClass) -> int:
        """Number of function units of class ``opclass``."""
        return self.units[opclass]

    @property
    def digit_name(self) -> str:
        """Four-digit name derived from the unit counts (``"3221"``)."""
        return "".join(str(self.units[cls]) for cls in OP_CLASSES)

    def compatible_reference(self, other: "VliwProcessor") -> bool:
        """True if ``other`` may serve as this processor's reference.

        The dilation model's first assumption requires matching
        predication and speculation features (Section 4.1, step 1).
        """
        return (
            self.has_predication == other.has_predication
            and self.has_speculation == other.has_speculation
        )

    def __hash__(self) -> int:
        # ``units`` is a dict, so the dataclass cannot hash the fields
        # itself; equal processors (every field equal) hash equal, so a
        # processor keys a memo by its full description, not its name.
        return hash(
            (
                self.name,
                tuple(self.units[cls] for cls in OP_CLASSES),
                self.int_registers,
                self.fp_registers,
                self.pred_registers,
                self.has_predication,
                self.has_speculation,
            )
        )

    def __str__(self) -> str:
        return self.name


def make_processor(
    n_int: int,
    n_float: int,
    n_memory: int,
    n_branch: int,
    *,
    name: str | None = None,
    **kwargs: object,
) -> VliwProcessor:
    """Build a processor from the four unit counts.

    ``make_processor(3, 2, 2, 1)`` is the paper's ``3221`` machine.
    Register-file sizes default to scaling with issue width: wider machines
    need more registers to feed their units, which is one of the paper's
    stated reasons wider formats dilate code.
    """
    units = {
        OpClass.INT: n_int,
        OpClass.FLOAT: n_float,
        OpClass.MEMORY: n_memory,
        OpClass.BRANCH: n_branch,
    }
    width = n_int + n_float + n_memory + n_branch
    defaults: dict[str, object] = {}
    if "int_registers" not in kwargs:
        defaults["int_registers"] = _scaled_regfile(width)
    if "fp_registers" not in kwargs:
        defaults["fp_registers"] = _scaled_regfile(width)
    label = name if name is not None else f"{n_int}{n_float}{n_memory}{n_branch}"
    return VliwProcessor(name=label, units=units, **defaults, **kwargs)  # type: ignore[arg-type]


def _scaled_regfile(issue_width: int) -> int:
    """Register-file size heuristic: wider machines need more registers.

    4-wide -> 32, 5..8-wide -> 64, 9..10-wide -> 128, wider -> 256.
    Matches the paper's observation that operand formats of wider
    processors are "typically larger due to larger register files" (each
    doubling adds one bit to every register specifier).
    """
    if issue_width <= 4:
        return 32
    if issue_width <= 8:
        return 64
    if issue_width <= 10:
        return 128
    return 256
