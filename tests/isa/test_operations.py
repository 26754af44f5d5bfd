"""Unit tests for repro.isa.operations."""

import pytest

from repro.isa.operations import (
    OP_CLASSES,
    OpClass,
    Operation,
    make_branch,
    make_float,
    make_int,
    make_load,
    make_store,
)


class TestOpClass:
    def test_four_classes_in_digit_order(self):
        assert OP_CLASSES == (
            OpClass.INT,
            OpClass.FLOAT,
            OpClass.MEMORY,
            OpClass.BRANCH,
        )

    def test_short_mnemonics(self):
        assert [c.short for c in OP_CLASSES] == ["I", "F", "M", "B"]


class TestOperation:
    def test_load_requires_memory_class(self):
        with pytest.raises(ValueError, match="MEMORY"):
            Operation(OpClass.INT, is_load=True)

    def test_store_requires_memory_class(self):
        with pytest.raises(ValueError, match="MEMORY"):
            Operation(OpClass.FLOAT, is_store=True)

    def test_load_and_store_mutually_exclusive(self):
        with pytest.raises(ValueError, match="both"):
            Operation(OpClass.MEMORY, is_load=True, is_store=True)

    def test_is_memory(self):
        assert make_load(0).is_memory
        assert not make_branch().is_memory
        assert not make_int(0).is_memory

    def test_operations_are_hashable_and_frozen(self):
        op = make_int(3, (1, 2))
        assert op in {op}
        with pytest.raises(AttributeError):
            op.dests = (9,)  # type: ignore[misc]


class TestConstructors:
    def test_make_int_wires_registers(self):
        op = make_int(7, (1, 2))
        assert op.opclass is OpClass.INT
        assert op.dests == (7,)
        assert op.srcs == (1, 2)

    def test_make_float(self):
        op = make_float(4)
        assert op.opclass is OpClass.FLOAT
        assert op.dests == (4,)

    def test_make_load_carries_stream(self):
        op = make_load(2, addr_src=9, stream=3)
        assert op.is_load and not op.is_store
        assert op.stream == 3
        assert op.srcs == (9,)

    def test_make_store_sources(self):
        op = make_store(value_src=5, addr_src=6, stream=1)
        assert op.is_store and not op.is_load
        assert op.srcs == (5, 6)
        assert op.dests == ()

    def test_mnemonics(self):
        assert make_load(0).mnemonic() == "LD"
        assert make_store(0).mnemonic() == "ST"
        assert make_int(0).mnemonic() == "ADD"
        assert make_float(0).mnemonic() == "FADD"
        assert make_branch().mnemonic() == "BR"
