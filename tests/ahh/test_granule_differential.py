"""The one-pass AHH parameters equal the word-at-a-time accumulators of
repro.oracles.granules, exactly (``==``, not approximately).

A hypothesis matrix of random unified range traces (instruction, data
and write ranges over a small address space, so granules repeat words,
hold runs and isolated words, and ranges straddle granule boundaries)
with granule sizes 2-64, fed to the modelers in 1-4 cuts; plus explicit
cases for tails of exactly ``G//2`` and ``G//2 - 1`` words, a granule
with no data words, a granule with a single address, a range straddling
a granule boundary and addresses too far apart for packed keys.
"""

from __future__ import annotations

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.ahh.granules import GranuleAccumulator
from repro.ahh.modeler import (
    ItraceModeler,
    UtraceModeler,
    derive_trace_parameters,
)
from repro.errors import ModelError
from repro.oracles import granules as oracle
from repro.trace.ranges import KIND_DATA, KIND_INSTR, KIND_WRITE, RangeTrace


@st.composite
def range_traces(draw, max_ranges: int = 60) -> RangeTrace:
    """Ranges of 1-40 bytes at byte offsets in a 1 KiB window per kind,
    aligned or not."""
    n = draw(st.integers(0, max_ranges))
    kinds = draw(
        st.lists(
            st.sampled_from([KIND_INSTR, KIND_DATA, KIND_WRITE]),
            min_size=n,
            max_size=n,
        )
    )
    starts = draw(st.lists(st.integers(0, 1023), min_size=n, max_size=n))
    sizes = draw(st.lists(st.integers(1, 40), min_size=n, max_size=n))
    bases = {KIND_INSTR: 0x1_0000, KIND_DATA: 0x40_0000, KIND_WRITE: 0x40_0000}
    return RangeTrace.build(
        [bases[kind] + start for kind, start in zip(kinds, starts)],
        sizes,
        kinds,
    )


def cut(trace: RangeTrace, points: list[int]) -> list[RangeTrace]:
    """``trace`` split at the given range positions."""
    bounds = [0, *sorted(p % (len(trace) + 1) for p in points), len(trace)]
    return [
        RangeTrace(
            trace.starts[lo:hi], trace.sizes[lo:hi], trace.kinds[lo:hi]
        )
        for lo, hi in zip(bounds, bounds[1:])
    ]


def outcome(run):
    """``run()``'s result, or the ModelError type when it raises one."""
    try:
        return run()
    except ModelError:
        return ModelError


def assert_unified_matches(trace: RangeTrace, granule: int, pieces=None):
    want = oracle.UnifiedModeler(granule)
    got = UtraceModeler(granule)
    for piece in pieces or [trace]:
        want.process_trace(piece)
        got.process_trace(piece)
    expected = outcome(want.finalize)
    assert outcome(got.finalize) == expected
    return expected


def assert_words_match(words: np.ndarray, granule: int, cuts=()):
    want = oracle.GranuleAccumulator(granule)
    want.feed(words)
    got = GranuleAccumulator(granule)
    for piece in np.split(words, sorted(c % (len(words) + 1) for c in cuts)):
        got.feed(piece)
    assert got.complete_granules == want.complete_granules
    assert got.references == want.references
    expected = outcome(want.finalize)
    assert outcome(got.finalize) == expected
    return expected


@given(
    trace=range_traces(),
    i_granule=st.integers(2, 64),
    u_granule=st.integers(2, 64),
)
@settings(max_examples=150, deadline=None)
def test_derive_trace_parameters_equals_oracle(trace, i_granule, u_granule):
    itrace = trace.instruction_component
    args = (itrace, trace, i_granule, u_granule)
    assert outcome(lambda: derive_trace_parameters(*args)) == outcome(
        lambda: oracle.derive_trace_parameters(*args)
    )


@given(
    trace=range_traces(),
    granule=st.integers(2, 64),
    points=st.lists(st.integers(0, 60), max_size=3),
)
@settings(max_examples=150, deadline=None)
def test_cut_traces_equal_one_call_and_the_oracle(trace, granule, points):
    pieces = cut(trace, points)
    whole = UtraceModeler(granule)
    whole.process_trace(trace)
    assert assert_unified_matches(trace, granule, pieces) == outcome(
        whole.finalize
    )
    itrace = ItraceModeler(granule)
    for piece in pieces:
        itrace.process_trace(piece)
    one = ItraceModeler(granule)
    one.process_trace(trace)
    assert outcome(itrace.finalize) == outcome(one.finalize)


@given(
    words=st.lists(st.integers(0, 300), max_size=400),
    granule=st.integers(2, 64),
    cuts=st.lists(st.integers(0, 400), max_size=3),
)
@settings(max_examples=150, deadline=None)
def test_accumulator_equals_oracle(words, granule, cuts):
    assert_words_match(np.array(words, dtype=np.int64), granule, cuts)


def one_word_ranges(words, kinds) -> RangeTrace:
    """One 4-byte range per word address."""
    return RangeTrace.build([4 * w for w in words], [4] * len(words), kinds)


@pytest.mark.parametrize("granule", [2, 3, 8, 9, 64])
@pytest.mark.parametrize("short", [0, 1])
def test_tail_of_half_a_granule(granule, short):
    """A tail of ``G//2`` words is a granule; ``G//2 - 1`` is not."""
    tail = granule // 2 - short
    n = 3 * granule + tail
    rng = np.random.default_rng(granule)
    words = rng.integers(0, 50, size=n)
    stats = assert_words_match(words, granule)
    kept = 3 + (tail > 0 and short == 0)
    assert stats.granules == kept
    kinds = rng.choice([KIND_INSTR, KIND_DATA], size=n)
    instr, data = assert_unified_matches(one_word_ranges(words, kinds), granule)
    assert instr.granules == data.granules == kept


def test_granule_with_no_data_words():
    """The second granule is all instructions: its data u(1) is 0."""
    words = list(range(100, 108)) + list(range(200, 208)) + [5, 9, 6, 7] * 2
    kinds = [KIND_DATA] * 4 + [KIND_INSTR] * 12 + [KIND_DATA] * 8
    instr, data = assert_unified_matches(one_word_ranges(words, kinds), 8)
    assert data.granules == 3
    assert data.u1 == pytest.approx((4 + 0 + 4) / 3)


def test_granule_with_a_single_address():
    words = [42] * 8 + [1, 2, 3, 10, 11, 30, 50, 51]
    stats = assert_words_match(np.array(words), 8)
    assert stats.u1 == pytest.approx((1 + 8) / 2)
    kinds = [KIND_INSTR] * 16
    instr, _ = assert_unified_matches(one_word_ranges(words, kinds), 8)
    assert instr.u1 == stats.u1


def test_range_straddling_a_granule_boundary():
    """A unified granule closes at the first *range* reaching the size:
    a 6-word range starting 2 words before the boundary stays whole."""
    trace = RangeTrace.build(
        [0x1000, 0x4000, 0x1020, 0x4100, 0x1040],
        [8, 16, 24, 8, 12],
        [KIND_INSTR, KIND_DATA, KIND_INSTR, KIND_DATA, KIND_INSTR],
    )
    # Words per range: 2, 4, 6, 2, 3; granule 8 closes after range 2
    # (12 words), then the tail holds 5 >= 4.
    instr, data = assert_unified_matches(trace, 8)
    assert instr.granules == 2
    assert instr.u1 == (8 + 3) / 2
    assert data.u1 == (4 + 2) / 2


def test_addresses_too_far_apart_for_packed_keys():
    """Word addresses spread over most of the int64 range are still
    counted exactly (neighbours, repeats and gaps)."""
    far = 1 << 60
    words = np.array(
        [0, 1, far, far + 1, far + 2, 3 * far, 3 * far, 7, 2 * far, 5,
         6, far + 1, 3 * far + 1, 0, 9, 8],
        dtype=np.int64,
    )
    for granule in (2, 3, 4, 8):
        assert_words_match(words, granule)
