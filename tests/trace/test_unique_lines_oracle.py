"""Unit tests for repro.oracles.unique_lines."""

import pytest

from repro.errors import TraceError
from repro.oracles import measured_unique_lines
from repro.trace.ranges import KIND_INSTR, RangeTrace


def looping_trace(n_blocks=8, repeats=20, block_bytes=64):
    """A loop over n_blocks contiguous blocks, visited repeatedly."""
    starts = [
        0x1000 + (i % n_blocks) * block_bytes
        for i in range(n_blocks * repeats)
    ]
    return RangeTrace.build(
        starts, [block_bytes] * len(starts), KIND_INSTR
    )


class TestMeasuredUniqueLines:
    def test_decreases_with_line_size(self):
        trace = looping_trace()
        lines = measured_unique_lines(trace, [4, 8, 16, 32, 64])
        values = [lines[k] for k in (4, 8, 16, 32, 64)]
        assert values == sorted(values, reverse=True)
        assert lines[4] == 8 * 16
        assert lines[64] == 8

    def test_bad_line_size(self):
        with pytest.raises(TraceError, match="multiple"):
            measured_unique_lines(looping_trace(), [6])
