"""Incremental feeding vs one batch pass: the engines must agree exactly.

The stack-distance kernel carries LRU state across ``consume`` calls
through lazily rebuilt truncated stacks and synthetic-prefix splicing;
these tests pin the regression surface: any interleaving of scalar
single-line touches (:func:`repro.oracles.access_line`), ``simulate``
and ``consume`` over a trace must produce state bit-identical to one
pure batch ``simulate`` over the concatenation — and the scalar
survivor-loop oracle (:class:`repro.oracles.ScalarCheetahSimulator`)
must agree with the kernel batch for batch.
"""

import numpy as np
import pytest

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
        # A burst of single-line touches between batches: the kernel
        # must fold the scalar stacks in as a synthetic prefix, then
        # hand updated stacks back for the next scalar burst.
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
