"""Unit tests for repro.trace.ranges."""

import numpy as np
import pytest

from repro.errors import TraceError
from repro.trace.ranges import KIND_DATA, KIND_INSTR, RangeTrace


class TestConstruction:
    def test_build_with_scalar_kind(self):
        trace = RangeTrace.build([0, 64], [32, 16], KIND_INSTR)
        assert len(trace) == 2
        assert (trace.kinds == KIND_INSTR).all()

    def test_build_with_kind_array(self):
        trace = RangeTrace.build([0, 64], [32, 4], [KIND_INSTR, KIND_DATA])
        assert trace.kinds.tolist() == [KIND_INSTR, KIND_DATA]

    def test_length_mismatch_rejected(self):
        with pytest.raises(TraceError, match="equal length"):
            RangeTrace.build([0, 1], [4], KIND_DATA)

    def test_non_positive_sizes_rejected(self):
        with pytest.raises(TraceError, match="positive"):
            RangeTrace.build([0], [0], KIND_DATA)

    def test_empty(self):
        trace = RangeTrace.empty()
        assert len(trace) == 0
        assert trace.total_bytes == 0


class TestDerivedQuantities:
    def test_total_bytes(self):
        trace = RangeTrace.build([0, 100], [32, 8], KIND_INSTR)
        assert trace.total_bytes == 40

    def test_word_addresses_expansion(self):
        trace = RangeTrace.build([4, 100], [8, 4], KIND_INSTR)
        assert trace.word_addresses().tolist() == [1, 2, 25]


class TestComponents:
    def make_mixed(self):
        return RangeTrace.build(
            [0, 1000, 32, 2000],
            [32, 4, 32, 4],
            [KIND_INSTR, KIND_DATA, KIND_INSTR, KIND_DATA],
        )

    def test_component_split_preserves_order(self):
        mixed = self.make_mixed()
        instr = mixed.instruction_component
        data = mixed.data_component
        assert instr.starts.tolist() == [0, 32]
        assert data.starts.tolist() == [1000, 2000]

    def test_concatenate(self):
        mixed = self.make_mixed()
        double = RangeTrace.concatenate([mixed, mixed])
        assert len(double) == 8
        assert double.total_bytes == 2 * mixed.total_bytes

    def test_concatenate_empty_list(self):
        assert len(RangeTrace.concatenate([])) == 0
