"""Incremental feeding vs one batch pass: the engines must agree exactly.

The stack-distance kernel carries LRU state across ``consume`` calls as
one carried prefix per line size (the finest family's truncated stacks,
oldest first) that the next batch prepends to its stream; these tests
pin the regression surface: any interleaving of single-line touches
(:func:`repro.oracles.access_line`), ``simulate`` and ``consume`` over a
trace must produce state bit-identical to one pure batch ``simulate``
over the concatenation — and the scalar survivor-loop oracle
(:class:`repro.oracles.ScalarCheetahSimulator`) must agree with the
kernel batch for batch.
"""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.cache.cheetah import CheetahSimulator
from repro.cache.linestream import line_stream
from repro.errors import ConfigurationError
from repro.oracles import ScalarCheetahSimulator, access_line

LINE = 32
SETS = [1, 4, 16, 64]
ASSOC = 4


def random_batches(seed, nbatches, *, span=20_000):
    """Range-trace batches of varied size and density.

    Mixes small and large batches, and alternates dup-heavy sequential
    scans with dup-light uniform sprays so both the dup compaction and
    the native depth-0 scoring see batch boundaries.
    """
    rng = np.random.default_rng(seed)
    batches = []
    for i in range(nbatches):
        if i % 3 == 2:
            # Dup-heavy: sequential scan, every line hit twice in a row.
            base = int(rng.integers(0, span))
            n = int(rng.integers(50, 4_000))
            starts = np.repeat(np.arange(base, base + n * LINE, LINE), 2)
            sizes = np.full(len(starts), 4)
        else:
            n = int(rng.integers(10, 5_000))
            starts = rng.integers(0, span * LINE, n)
            sizes = rng.integers(1, 3 * LINE, n)
        batches.append((starts, sizes))
    return batches


def concat(batches):
    starts = np.concatenate([np.asarray(s, dtype=np.int64) for s, _ in batches])
    sizes = np.concatenate([np.asarray(z, dtype=np.int64) for _, z in batches])
    return starts, sizes


def batch_state(batches):
    starts, sizes = concat(batches)
    sim = CheetahSimulator(LINE, SETS, max_assoc=ASSOC)
    sim.simulate(starts, sizes)
    return sim.state()


@pytest.mark.parametrize(
    "engine",
    [CheetahSimulator, ScalarCheetahSimulator],
    ids=["kernel", "scalar"],
)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_batched_simulate_equals_one_pass(engine, seed):
    batches = random_batches(seed, 6)
    sim = engine(LINE, SETS, max_assoc=ASSOC)
    for starts, sizes in batches:
        sim.simulate(starts, sizes)
    assert sim.state() == batch_state(batches)


@pytest.mark.parametrize("seed", [3, 4])
def test_access_line_interleaved_with_batches(seed):
    rng = np.random.default_rng(seed)
    batches = random_batches(seed, 4)
    sim = CheetahSimulator(LINE, SETS, max_assoc=ASSOC)
    reference = []
    for starts, sizes in batches:
        # A burst of one-line batches between larger ones: every batch
        # starts from the carry the previous one left.
        for line in rng.integers(0, 2_000, 20).tolist():
            access_line(sim, line)
            reference.append((line * LINE, 1))
        sim.simulate(starts, sizes)
        reference.append((starts, sizes))
    normalized = [
        (np.atleast_1d(np.asarray(s)), np.atleast_1d(np.asarray(z)))
        for s, z in reference
    ]
    assert sim.state() == batch_state(normalized)


def test_forced_kernel_on_tiny_batches_matches_scalar():
    # The kernel counts every batch, however small; on tiny batches it
    # must agree with the scalar survivor loop.
    batches = random_batches(5, 8)
    tiny = [(s[:100], z[:100]) for s, z in batches]
    kernel = CheetahSimulator(LINE, SETS, max_assoc=ASSOC)
    scalar = ScalarCheetahSimulator(LINE, SETS, max_assoc=ASSOC)
    for starts, sizes in tiny:
        kernel.simulate(starts, sizes)
        scalar.simulate(starts, sizes)
    assert kernel.state() == scalar.state()


def test_consume_prebuilt_streams_equals_batch():
    batches = random_batches(6, 5)
    sim = CheetahSimulator(LINE, SETS, max_assoc=ASSOC)
    for starts, sizes in batches:
        sim.consume(line_stream(starts, sizes, LINE))
    assert sim.state() == batch_state(batches)


def test_state_round_trip_answers_identical_queries():
    batches = random_batches(7, 5)
    sim = CheetahSimulator(LINE, SETS, max_assoc=ASSOC)
    for starts, sizes in batches:
        sim.simulate(starts, sizes)
    accesses, hists = sim.state()
    rebuilt = CheetahSimulator.from_state(LINE, ASSOC, accesses, hists)
    assert rebuilt.state() == (accesses, hists)
    for nsets in SETS:
        for assoc in (1, 2, ASSOC):
            assert rebuilt.misses(nsets, assoc) == sim.misses(nsets, assoc)
    with pytest.raises(ConfigurationError):
        access_line(rebuilt, 0)
    with pytest.raises(ConfigurationError):
        rebuilt.simulate([0], [1])


@st.composite
def dup_heavy_lines(draw):
    """Line streams dominated by cross-set alternations.

    An alternation ``a b a b ...`` pairs ``a`` with ``b = a ^ 2**bit``:
    the two share a set in every family of at most ``2**bit`` sets and
    sit in sibling sets above that, so finer families see long runs of
    within-set repeats (and compact them) that span references of the
    sibling set.  Short sprays of scattered lines separate them.
    """
    segments = draw(
        st.lists(
            st.one_of(
                st.tuples(
                    st.integers(0, 2047),
                    st.integers(0, 11),
                    st.integers(2, 16),
                ).map(lambda t: [t[0], t[0] ^ (1 << t[1])] * t[2]),
                st.lists(st.integers(0, 4095), min_size=1, max_size=12),
            ),
            min_size=1,
            max_size=24,
        )
    )
    return [line for segment in segments for line in segment]


@given(
    lines=dup_heavy_lines(),
    set_counts=st.sampled_from([[1, 2, 8, 64], [64, 256, 1024], [4, 8, 16]]),
    max_assoc=st.integers(1, 8),
    data=st.data(),
)
@settings(max_examples=80, deadline=None)
def test_random_batch_cuts_equal_one_pass(lines, set_counts, max_assoc, data):
    """2-6 batches cut anywhere (optionally resumed through a snapshot at
    every cut) equal one pass and the scalar oracle."""
    starts = np.asarray(lines, dtype=np.int64) * LINE
    sizes = np.ones(len(starts), dtype=np.int64)
    cuts = data.draw(
        st.lists(st.integers(0, len(starts)), min_size=1, max_size=5)
    )
    resume = data.draw(st.booleans())
    bounds = [0, *sorted(cuts), len(starts)]
    whole = CheetahSimulator(LINE, set_counts, max_assoc)
    whole.simulate(starts, sizes, final=True)
    scalar = ScalarCheetahSimulator(LINE, set_counts, max_assoc)
    sim = CheetahSimulator(LINE, set_counts, max_assoc)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if resume and lo:
            sim = CheetahSimulator.from_full_state(
                LINE, max_assoc, *sim.full_state()
            )
        sim.simulate(starts[lo:hi], sizes[lo:hi])
        scalar.simulate(starts[lo:hi], sizes[lo:hi])
    assert sim.state() == whole.state() == scalar.state()


def test_scalar_oracle_neither_exports_nor_resumes_a_carry():
    # Its own per-set stacks are not the carry, so a snapshot round trip
    # would silently restart it from cold stacks.
    scalar = ScalarCheetahSimulator(LINE, [1, 2], max_assoc=2)
    scalar.simulate(np.arange(4) * LINE, np.ones(4, dtype=np.int64))
    with pytest.raises(TypeError):
        scalar.full_state()
    with pytest.raises(TypeError):
        ScalarCheetahSimulator.from_full_state(
            LINE, 2, 4, {1: [0, 0, 4], 2: [0, 0, 4]}, [2, 3]
        )


def test_compacted_run_takes_its_last_position():
    # For 2 sets, lines 0 1 0 hold a within-set run of line 0 (set 0)
    # around the set-1 reference, and the dup-heavy partition is
    # compacted.  The single-set family saw line 1 *inside* that run, so
    # the carry must order line 0 after line 1; ordering the run by its
    # first reference would make the next batch's touch of line 1 a
    # depth-0 hit instead of depth 1.
    first, second = [0, 1, 0], [1]
    sim = CheetahSimulator(LINE, [1, 2], max_assoc=2)
    sim.simulate(np.asarray(first) * LINE, np.ones(3, dtype=np.int64))
    assert sim.full_state()[2] == [1, 0]
    sim.simulate(np.asarray(second) * LINE, [1])
    whole = CheetahSimulator(LINE, [1, 2], max_assoc=2)
    whole.simulate(
        np.asarray(first + second) * LINE, np.ones(4, dtype=np.int64)
    )
    assert sim.state() == whole.state()
    assert sim.misses(1, 1) == 4 and sim.misses(1, 2) == 2
