"""Property tests: the vectorized engine against two independent oracles.

On random range traces, the vectorized :class:`CheetahSimulator` must
produce miss counts identical to

* the direct :class:`CacheSimulator` (stateful, per-access, untouched by
  the vectorization work), and
* the preserved seed stack-family path
  (:class:`repro.oracles.LegacyCheetahSimulator`),

for every (sets, assoc, line_size) in a sampled grid — including under
incremental trace feeding, which exercises the engine's cross-batch
stack-state handoff.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.cache.cheetah import CheetahSimulator
from repro.cache.config import CacheConfig
from repro.cache.simulator import CacheSimulator
from repro.oracles import LegacyCheetahSimulator, access_line
from repro.oracles.legacy import _touch

line_sizes = st.sampled_from([4, 8, 16, 32, 64])
assoc_grid = (1, 2, 3, 4)


@st.composite
def range_traces(draw, max_len=120):
    n = draw(st.integers(min_value=1, max_value=max_len))
    starts = draw(
        st.lists(
            st.integers(min_value=0, max_value=1024).map(lambda v: v * 4),
            min_size=n,
            max_size=n,
        )
    )
    sizes = draw(
        st.lists(
            st.integers(min_value=1, max_value=40).map(lambda v: v * 4),
            min_size=n,
            max_size=n,
        )
    )
    return starts, sizes


@st.composite
def set_count_grids(draw):
    return draw(
        st.lists(
            st.sampled_from([1, 2, 4, 8, 16, 32, 64]),
            min_size=1,
            max_size=3,
            unique=True,
        )
    )


@given(trace=range_traces(), set_counts=set_count_grids(), line=line_sizes)
@settings(max_examples=60, deadline=None)
def test_vectorized_engine_matches_both_oracles(trace, set_counts, line):
    starts, sizes = trace
    vec = CheetahSimulator(line, set_counts, max_assoc=4)
    vec.simulate(starts, sizes)
    legacy = LegacyCheetahSimulator(line, set_counts, max_assoc=4)
    legacy.simulate(starts, sizes)
    for sets in set_counts:
        for assoc in assoc_grid:
            direct = CacheSimulator(CacheConfig(sets, assoc, line))
            for start, size in zip(starts, sizes):
                direct.access_range(start, size)
            assert (
                vec.misses(sets, assoc)
                == legacy.misses(sets, assoc)
                == direct.misses
            ), (sets, assoc, line)
            assert vec.accesses == legacy.accesses == direct.accesses


@given(
    trace=range_traces(),
    set_counts=set_count_grids(),
    line=line_sizes,
    cut_frac=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=40, deadline=None)
def test_incremental_feeding_matches_legacy(trace, set_counts, line, cut_frac):
    """Batch boundaries must not change stack state or histograms."""
    starts, sizes = trace
    cut = int(len(starts) * cut_frac)
    vec = CheetahSimulator(line, set_counts, max_assoc=4)
    vec.simulate(starts[:cut], sizes[:cut])
    vec.simulate(starts[cut:], sizes[cut:])
    legacy = LegacyCheetahSimulator(line, set_counts, max_assoc=4)
    legacy.simulate(starts, sizes)
    for sets in set_counts:
        for assoc in assoc_grid:
            assert vec.misses(sets, assoc) == legacy.misses(sets, assoc)


@given(trace=range_traces(max_len=60), line=line_sizes)
@settings(max_examples=30, deadline=None)
def test_scalar_access_line_interleaves_with_batches(trace, line):
    """Mixing access_line() and simulate() stays consistent with legacy."""
    starts, sizes = trace
    vec = CheetahSimulator(line, [8], max_assoc=4)
    legacy = LegacyCheetahSimulator(line, [8], max_assoc=4)
    cut = len(starts) // 2
    vec.simulate(starts[:cut], sizes[:cut])
    legacy.simulate(starts[:cut], sizes[:cut])
    for extra_line in (0, 1, 9, 1, 0):
        access_line(vec, extra_line)
        for fam in legacy._families:
            _touch(fam, extra_line)
        legacy.accesses += 1
    vec.simulate(starts[cut:], sizes[cut:])
    legacy.simulate(starts[cut:], sizes[cut:])
    for assoc in assoc_grid:
        assert vec.misses(8, assoc) == legacy.misses(8, assoc)
