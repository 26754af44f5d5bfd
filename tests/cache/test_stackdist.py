"""Property and unit tests for the offline stack-distance kernel.

The kernel (:mod:`repro.cache.stackdist`) replaces the scalar survivor
loop; its correctness contract is *bit-identical histograms*.  Two
oracles pin it down:

* a direct per-segment Python LRU stack (the `_touch` algorithm,
  inlined here so the oracle stays independent of the engine code), for
  :func:`stack_distances` on explicit partitions, and
* the scalar survivor-loop engine
  (:class:`repro.oracles.ScalarCheetahSimulator`) through the full
  ``line_stream -> simulate`` path, for whole-simulator equivalence on
  adversarial traces.

Forced-parameter tests drive every internal tier (tail scan, staged
expansion, bit-sliced dominance) over the same inputs, so tier
selection can never change results.
"""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.cache.cheetah import CheetahSimulator
from repro.cache.stackdist import (
    count_left_less,
    partition_by_set,
    refine_partition,
    stack_distances,
)
from repro.oracles import ScalarCheetahSimulator

assoc_grid = (1, 2, 4, 8)


def oracle_hist(part, seg_lens, max_assoc):
    """Truncated per-segment LRU stacks, exactly the scalar `_touch`."""
    hist = [0] * (max_assoc + 1)
    pos = 0
    for length in np.asarray(seg_lens).tolist():
        stack = []
        for line in np.asarray(part[pos : pos + length]).tolist():
            if line in stack:
                depth = stack.index(line)
                hist[depth] += 1
                stack.insert(0, stack.pop(depth))
            else:
                hist[max_assoc] += 1
                stack.insert(0, line)
                del stack[max_assoc:]
        pos += length
    return hist


def kernel_hist(lines, nsets, max_assoc, **kernel_kwargs):
    part, seg_lens, _, _ = partition_by_set(lines, nsets)
    dist, info = stack_distances(part, seg_lens, max_assoc, **kernel_kwargs)
    return np.bincount(dist, minlength=max_assoc + 1).tolist(), info


@st.composite
def alternating_streams(draw):
    """Alternation-heavy streams: tiny pools revisited constantly.

    These defeat windowed scanning (the previous occurrence is near, but
    the *distinct* count between occurrences is what matters) and are
    what the scalar engine's period-2 pre-pass was built for.
    """
    pool = draw(st.integers(min_value=2, max_value=5))
    lines = draw(
        st.lists(
            st.integers(min_value=0, max_value=pool - 1),
            min_size=2,
            max_size=300,
        )
    )
    stride = draw(st.sampled_from([1, 3, 64]))
    return np.asarray(lines, dtype=np.int64) * stride


@st.composite
def general_streams(draw):
    span = draw(st.integers(min_value=1, max_value=400))
    lines = draw(
        st.lists(
            st.integers(min_value=0, max_value=span),
            min_size=1,
            max_size=400,
        )
    )
    return np.asarray(lines, dtype=np.int64)


line_streams = st.one_of(alternating_streams(), general_streams())


@given(lines=line_streams, nsets=st.sampled_from([1, 2, 8, 32]))
@settings(max_examples=80, deadline=None)
def test_kernel_matches_lru_oracle(lines, nsets):
    part, seg_lens, _, _ = partition_by_set(lines, nsets)
    for max_assoc in assoc_grid:
        dist, _ = stack_distances(part, seg_lens, max_assoc)
        got = np.bincount(dist, minlength=max_assoc + 1).tolist()
        assert got == oracle_hist(part, seg_lens, max_assoc)


@given(lines=line_streams)
@settings(max_examples=40, deadline=None)
def test_direct_mapped_shared_bucket_edge(lines):
    # max_assoc=1: hist[0] is "hit at depth 0", hist[1] is *everything*
    # else (misses and truncated survivors share one bucket).
    got, _ = kernel_hist(lines, 4, 1)
    part, seg_lens, _, _ = partition_by_set(lines, 4)
    assert got == oracle_hist(part, seg_lens, 1)
    assert sum(got) == len(lines)


@given(lines=general_streams())
@settings(max_examples=40, deadline=None)
def test_forced_tiers_agree(lines):
    # Starve the scan window and the expansion budget so the same
    # stream runs through ever-deeper tiers; distances must not move.
    baseline, _ = kernel_hist(lines, 2, 4)
    tiny_scan, _ = kernel_hist(lines, 2, 4, base_window=1, max_window=2)
    forced_dom, info = kernel_hist(
        lines, 2, 4, base_window=1, max_window=1, expand_budget=1
    )
    assert tiny_scan == baseline
    assert forced_dom == baseline


def test_dominance_tier_actually_engages():
    rng = np.random.default_rng(0)
    lines = rng.integers(0, 5_000, 20_000)
    baseline, _ = kernel_hist(lines, 4, 8)
    forced, info = kernel_hist(
        lines, 4, 8, base_window=1, max_window=1, expand_budget=1
    )
    assert forced == baseline
    assert "dominance" in info["path"]


@st.composite
def range_traces(draw):
    n = draw(st.integers(min_value=1, max_value=120))
    starts = draw(
        st.lists(
            st.integers(min_value=0, max_value=2048).map(lambda v: v * 4),
            min_size=n,
            max_size=n,
        )
    )
    sizes = draw(
        st.lists(st.integers(min_value=1, max_value=160), min_size=n, max_size=n)
    )
    return starts, sizes


@given(trace=range_traces(), line=st.sampled_from([16, 32, 64]))
@settings(max_examples=60, deadline=None)
def test_kernel_engine_matches_scalar_engine_full_path(trace, line):
    # Full line_stream -> simulate path on short traces — exactly the
    # stream-shorter-than-pre-pass-window regime.
    starts, sizes = trace
    sets = [1, 4, 16]
    kernel = CheetahSimulator(line, sets, max_assoc=8)
    scalar = ScalarCheetahSimulator(line, sets, max_assoc=8)
    kernel.simulate(starts, sizes)
    scalar.simulate(starts, sizes)
    assert kernel.state() == scalar.state()


@pytest.mark.parametrize(
    "lines",
    [
        np.zeros(5_000, dtype=np.int64),  # one line forever: all dups
        np.repeat(np.arange(2_000), 3),  # every line thrice in a row
        np.tile(np.array([0, 64, 0, 64, 7]), 1_000),  # dup-free alternation
    ],
    ids=["all-dups", "triple-runs", "alternation"],
)
def test_dup_compaction_and_ladder_adoption_edges(lines):
    # Streams dense or empty in immediate repeats, long enough to drive
    # the kernel's dup-compaction + survivor ladder; the scalar engine
    # is the oracle.
    starts = lines * 64
    sizes = np.ones(len(lines), dtype=np.int64)
    sets = [1, 2, 4, 8, 16]
    kernel = CheetahSimulator(64, sets, max_assoc=4)
    scalar = ScalarCheetahSimulator(64, sets, max_assoc=4)
    kernel.simulate(starts, sizes)
    scalar.simulate(starts, sizes)
    assert kernel.state() == scalar.state()


# ----------------------------------------------------------------------
# Unit tests for the kernel's building blocks.
# ----------------------------------------------------------------------


def brute_count_left_less(v, g0, gnext):
    out = np.zeros(len(v), dtype=np.int64)
    for i in range(len(v)):
        lo = g0[i]
        out[i] = int(np.sum(v[lo:i] < v[i]))
    return out


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_count_left_less_matches_brute_force(data):
    ngroups = data.draw(st.integers(min_value=1, max_value=4))
    v_parts, g0_parts, gnext_parts = [], [], []
    pos = 0
    for _ in range(ngroups):
        size = data.draw(st.integers(min_value=1, max_value=60))
        # Distinct within the group, as stack_distances guarantees.
        values = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=500),
                min_size=size,
                max_size=size,
                unique=True,
            )
        )
        v_parts.extend(values)
        g0_parts.extend([pos] * size)
        gnext_parts.extend([pos + size] * size)
        pos += size
    v = np.asarray(v_parts, dtype=np.int64)
    g0 = np.asarray(g0_parts, dtype=np.intp)
    gnext = np.asarray(gnext_parts, dtype=np.intp)
    want = brute_count_left_less(v, g0, gnext).tolist()
    # Default cutoff and a cutoff of 1 (forces the radix splits deep).
    assert count_left_less(v, g0, gnext).tolist() == want
    assert count_left_less(v, g0, gnext, brute_below=1).tolist() == want


def test_partition_by_set_contract():
    rng = np.random.default_rng(1)
    lines = rng.integers(0, 1_000, 500)
    part, seg_lens, seg_sets, order = partition_by_set(lines, 8)
    assert int(seg_lens.sum()) == len(lines)
    assert np.array_equal(part, lines[order])
    ends = np.cumsum(seg_lens)
    for seg, (lo, hi) in enumerate(zip(ends - seg_lens, ends)):
        assert np.all(part[lo:hi] & 7 == seg_sets[seg])
        # Stability: within-set order is stream order.
        src = order[lo:hi]
        assert np.all(np.diff(src) > 0)

    # nsets=1 is the identity partition: no permutation materialized.
    part1, lens1, sets1, order1 = partition_by_set(lines, 1)
    assert part1 is lines and order1 is None
    assert lens1.tolist() == [len(lines)] and sets1.tolist() == [0]


@pytest.mark.parametrize("old,new", [(1, 2), (2, 8), (4, 64)])
def test_refine_partition_matches_fresh_partition(old, new):
    rng = np.random.default_rng(2)
    lines = rng.integers(0, 4_096, 2_000)
    part, seg_lens, seg_sets, order = partition_by_set(lines, old)
    if order is None:
        order = np.arange(len(lines), dtype=np.intp)
    rpart, rlens, rsets, rorder = refine_partition(
        part, seg_lens, seg_sets, old, new, order
    )
    assert int(rlens.sum()) == len(lines)
    # The carried permutation must keep mapping the stream into the
    # refined layout (this is what shared occurrence links ride on).
    assert np.array_equal(rpart, lines[rorder])
    # Segment *order* differs from a fresh sort, but per-set contents
    # (and their within-set stream order) must be identical.
    fpart, flens, fsets, forder = partition_by_set(lines, new)
    fends = np.cumsum(flens)
    fresh = {
        int(s): fpart[lo:hi]
        for s, lo, hi in zip(fsets, fends - flens, fends)
    }
    rends = np.cumsum(rlens)
    for s, lo, hi in zip(rsets, rends - rlens, rends):
        assert np.array_equal(rpart[lo:hi], fresh[int(s)])


def test_refine_partition_rejects_non_multiple():
    part, seg_lens, seg_sets, _ = partition_by_set(np.arange(16), 4)
    with pytest.raises(ValueError):
        refine_partition(part, seg_lens, seg_sets, 4, 6)


def test_stack_distances_links_shortcut_matches_internal_sort():
    rng = np.random.default_rng(3)
    lines = rng.integers(0, 300, 3_000).astype(np.int64)
    part, seg_lens, _, order = partition_by_set(lines, 4)
    # Stream-level links: consecutive occurrences of equal values.
    order_v = np.argsort(lines, kind="stable")
    sv = lines[order_v]
    eq = np.flatnonzero(sv[1:] == sv[:-1])
    inv = np.empty(len(lines), dtype=np.int64)
    inv[order] = np.arange(len(lines))
    links = (inv[order_v[eq]], inv[order_v[eq + 1]])
    for max_assoc in (1, 4):
        with_links, _ = stack_distances(part, seg_lens, max_assoc, links=links)
        without, _ = stack_distances(part, seg_lens, max_assoc)
        assert np.array_equal(with_links, without)
