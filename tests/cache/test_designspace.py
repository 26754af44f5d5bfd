"""DesignSpaceSimulator vs the scalar and seed oracles.

The whole-design-space simulator shares one range expansion across every
line size and counts each size's derived stream on
the stack-distance kernel; these tests pin that its miss counts are
*bit-identical* to independent per-line-size passes of the oracles in
:mod:`repro.oracles` — across random traces, line-size ladders
(including wide gaps between sizes), chunked feeding with carried LRU
state, and checkpoint round-trips.
"""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.cache.cheetah import CheetahSimulator
from repro.cache.config import CacheConfig
from repro.cache.designspace import DesignSpaceSimulator
from repro.cache.linestream import clear_line_stream_cache
from repro.cache.sweep import sweep_design_space
from repro.errors import ConfigurationError
from repro.oracles import LegacyCheetahSimulator, ScalarCheetahSimulator
from repro.runtime.journal import RunJournal, use_journal
from repro.service.store import ResultStore

ALL_LINE_SIZES = [4, 8, 16, 32, 64, 128, 256]


@st.composite
def range_traces(draw, max_len=150):
    n = draw(st.integers(min_value=1, max_value=max_len))
    starts = draw(
        st.lists(
            st.integers(min_value=0, max_value=1 << 14),
            min_size=n,
            max_size=n,
        )
    )
    sizes = draw(
        st.lists(
            st.integers(min_value=1, max_value=96), min_size=n, max_size=n
        )
    )
    return np.asarray(starts, dtype=np.int64), np.asarray(
        sizes, dtype=np.int64
    )


@st.composite
def ladders(draw):
    """A random subset of line sizes (1..5 of them, any gap pattern)."""
    sizes = draw(
        st.lists(
            st.sampled_from(ALL_LINE_SIZES),
            min_size=1,
            max_size=5,
            unique=True,
        )
    )
    return sorted(sizes)


def per_line_oracle(
    ladder, spec, starts, sizes, oracle=ScalarCheetahSimulator
):
    sims = {}
    for line_size in ladder:
        set_counts, max_assoc = spec[line_size]
        clear_line_stream_cache()  # no sharing with the simulator under test
        sim = oracle(line_size, set_counts, max_assoc)
        sim.simulate(starts, sizes)
        sims[line_size] = sim
    clear_line_stream_cache()
    return sims


def feed(space, starts, sizes, bounds, resume):
    """Feed ``space`` one chunk per ``bounds`` interval, as a sweep does:
    a lone chunk goes through the memo, several chunks stay out of it and
    settle (or round-trip through a checkpoint snapshot) at every
    boundary."""
    memoize = len(bounds) == 2
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if lo and resume:
            for line_size, sim in list(space.simulators.items()):
                accesses, families = sim.full_state()
                space.simulators[line_size] = CheetahSimulator.from_full_state(
                    line_size, sim.max_assoc, accesses, families
                )
        space.simulate(starts[lo:hi], sizes[lo:hi], memoize=memoize)
        for sim in space.simulators.values():
            sim.settle()


class TestEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(
        trace=range_traces(),
        ladder=ladders(),
        seed=st.integers(min_value=0, max_value=2**16),
        data=st.data(),
    )
    def test_misses_identical_to_per_line_size_passes(
        self, trace, ladder, seed, data
    ):
        """The bit-identity property: fed whole (in memory) or in random
        chunks carrying LRU state, the design-space simulator matches the
        scalar survivor-loop and seed oracles at every grid point."""
        starts, sizes = trace
        n = len(starts)
        cuts = data.draw(
            st.lists(st.integers(min_value=1, max_value=n), max_size=4)
        )
        bounds = sorted({0, n, *cuts})
        resume = data.draw(st.booleans())
        rng = np.random.default_rng(seed)
        spec = {
            line_size: (
                sorted(
                    {
                        int(s)
                        for s in rng.choice([1, 4, 8, 16, 64, 256], size=3)
                    }
                ),
                int(rng.integers(1, 9)),
            )
            for line_size in ladder
        }
        clear_line_stream_cache()
        space = DesignSpaceSimulator(spec)
        feed(space, starts, sizes, bounds, resume)
        scalar = per_line_oracle(ladder, spec, starts, sizes)
        legacy = per_line_oracle(
            ladder, spec, starts, sizes, oracle=LegacyCheetahSimulator
        )
        for line_size in ladder:
            set_counts, max_assoc = spec[line_size]
            assert space.simulators[line_size].accesses == (
                legacy[line_size].accesses
            )
            for sets in set_counts:
                for assoc in range(1, max_assoc + 1):
                    want = legacy[line_size].misses(sets, assoc)
                    assert space.misses(line_size, sets, assoc) == want, (
                        line_size, sets, assoc, bounds
                    )
                    assert scalar[line_size].misses(sets, assoc) == want

    @settings(max_examples=15, deadline=None)
    @given(trace=range_traces(max_len=80), ladder=ladders())
    def test_incremental_feeding_matches_single_batch(self, trace, ladder):
        starts, sizes = trace
        spec = {line_size: ([8, 64], 4) for line_size in ladder}
        clear_line_stream_cache()
        whole = DesignSpaceSimulator(spec)
        whole.simulate(starts, sizes)
        clear_line_stream_cache()
        split = DesignSpaceSimulator(spec)
        cut = len(starts) // 2
        split.simulate(starts[:cut], sizes[:cut])
        # Second batch hits the carrying-state streams path.
        split.simulate(starts[cut:], sizes[cut:])
        clear_line_stream_cache()
        for line_size in ladder:
            for sets in (8, 64):
                for assoc in (1, 2, 4):
                    assert whole.misses(line_size, sets, assoc) == (
                        split.misses(line_size, sets, assoc)
                    )

    def test_empty_trace_is_a_noop(self):
        space = DesignSpaceSimulator({16: ([8], 2), 32: ([8], 2)})
        space.simulate([], [])
        assert space.misses(16, 8, 1) == 0
        assert space.misses(32, 8, 2) == 0


def tower_events(spec, starts, sizes):
    """The ``designspace`` events of one simulate call, and the space."""
    journal = RunJournal()
    clear_line_stream_cache()
    with use_journal(journal):
        space = DesignSpaceSimulator(spec)
        space.simulate(starts, sizes)
    return journal.select("designspace"), space


class TestTowers:
    """Every ladder is one tower: one range expansion per batch, every
    coarser size derived from the next finer one at any ratio."""

    def trace(self):
        rng = np.random.default_rng(3)
        return rng.integers(0, 1 << 13, 500), rng.integers(1, 80, 500)

    def test_contiguous_ladder_is_one_tower(self):
        events, _ = tower_events(
            {ls: ([8], 2) for ls in (16, 32, 64, 128)}, *self.trace()
        )
        assert [e["line_sizes"] for e in events] == [[16, 32, 64, 128]]

    def test_wide_gap_stays_in_one_tower(self):
        # 4 -> 64 is a factor-16 jump: coarsening the 4-byte stream still
        # costs less than re-expanding the ranges at 64.
        events, _ = tower_events(
            {ls: ([8], 2) for ls in (4, 64, 128)}, *self.trace()
        )
        assert [e["line_sizes"] for e in events] == [[4, 64, 128]]

    def test_gap_results_still_identical(self):
        starts, sizes = self.trace()
        ladder = [4, 64, 256]  # factor-16 and factor-4 derivations
        spec = {ls: ([16, 128], 4) for ls in ladder}
        events, space = tower_events(spec, starts, sizes)
        assert len(events) == 1
        oracle = per_line_oracle(ladder, spec, starts, sizes)
        for line_size in ladder:
            for sets in (16, 128):
                for assoc in (1, 4):
                    assert space.misses(line_size, sets, assoc) == oracle[
                        line_size
                    ].misses(sets, assoc)


class TestModes:
    """There is one plan: no mode or engine knob, one event per tower."""

    def trace(self):
        rng = np.random.default_rng(7)
        return (
            rng.integers(0, 1 << 13, 600),
            rng.integers(1, 64, 600),
        )

    def test_tower_is_journaled(self):
        starts, sizes = self.trace()
        spec = {ls: ([8], 2) for ls in (16, 32, 64)}
        journal = RunJournal()
        clear_line_stream_cache()
        with use_journal(journal):
            space = DesignSpaceSimulator(spec)
            space.simulate(starts, sizes)
        events = journal.select("designspace")
        assert len(events) == 1
        assert events[0]["line_sizes"] == [16, 32, 64]
        assert events[0]["refs"] > 0 and events[0]["wall_s"] >= 0
        assert set(events[0]) >= {"line_sizes", "refs", "wall_s"}
        assert not {"mode", "sorts", "splits"} & set(events[0])
        # Each line size counts its own stream: one kernel event apiece.
        kernels = journal.select("stackdist")
        assert sorted(e["line_size"] for e in kernels) == [16, 32, 64]
        assert all(space.kernel_seconds[ls] > 0 for ls in spec)

    def test_bad_mode_rejected(self):
        with pytest.raises(TypeError, match="mode"):
            DesignSpaceSimulator({16: ([8], 2)}, mode="streams")
        with pytest.raises(TypeError, match="engine"):
            DesignSpaceSimulator({16: ([8], 2)}, engine="scalar")
        with pytest.raises(TypeError, match="engine"):
            CheetahSimulator(16, [8], 2, engine="scalar")


class TestStateAndConfigs:
    def test_from_configs_groups_like_a_sweep(self):
        configs = [
            CacheConfig(8, 1, 16),
            CacheConfig(16, 2, 16),
            CacheConfig(8, 4, 32),
        ]
        space = DesignSpaceSimulator.from_configs(configs)
        assert space.line_sizes == [16, 32]
        space.simulate([0, 40, 8], [16, 8, 64])
        results = space.results()
        for config in configs:
            assert space.result(config) == results[config]

    def test_states_round_trip(self):
        rng = np.random.default_rng(11)
        starts = rng.integers(0, 4096, 300)
        sizes = rng.integers(1, 64, 300)
        spec = {16: ([8, 32], 4), 32: ([8, 32], 4)}
        space = DesignSpaceSimulator(spec)
        space.simulate(starts, sizes)
        rebuilt = DesignSpaceSimulator.from_states(space.states())
        for line_size in (16, 32):
            for sets in (8, 32):
                for assoc in (1, 2, 4):
                    assert rebuilt.misses(line_size, sets, assoc) == (
                        space.misses(line_size, sets, assoc)
                    )

    def test_untracked_line_size_rejected(self):
        space = DesignSpaceSimulator({16: ([8], 2)})
        with pytest.raises(ConfigurationError, match="not tracked"):
            space.misses(32, 8, 1)

    def test_empty_spec_rejected(self):
        with pytest.raises(ConfigurationError, match="empty"):
            DesignSpaceSimulator({})
        with pytest.raises(ConfigurationError, match="empty"):
            DesignSpaceSimulator.from_states({})


class TestSweepInterop:
    """Checkpoints written by either strategy resume under the other."""

    def trace(self):
        rng = np.random.default_rng(5)
        return (
            rng.integers(0, 1 << 12, 400),
            rng.integers(1, 48, 400),
        )

    def configs(self):
        return [
            CacheConfig(sets, assoc, line_size)
            for line_size in (16, 32, 64)
            for sets in (8, 64)
            for assoc in (1, 2)
        ]

    def test_strategies_bit_identical(self):
        configs, trace = self.configs(), self.trace()
        clear_line_stream_cache()
        ds = sweep_design_space(configs, trace, strategy="designspace")
        clear_line_stream_cache()
        perline = sweep_design_space(configs, trace, strategy="perline")
        assert ds == perline

    def test_checkpoint_round_trip_across_strategies(self, tmp_path):
        configs, trace = self.configs(), self.trace()
        cache = ResultStore(tmp_path / "ck.sqlite")
        first = sweep_design_space(
            configs, trace, checkpoint=cache, strategy="designspace"
        )
        # Resume from the same store with the per-line-size oracle: all
        # groups adopted, zero re-simulation, identical results.
        resumed = ResultStore(tmp_path / "ck.sqlite")
        second = sweep_design_space(
            configs, trace, checkpoint=resumed, strategy="perline"
        )
        assert first == second
        assert resumed.hits > 0 and resumed.misses == 0

    def test_bad_strategy_rejected(self):
        with pytest.raises(ConfigurationError, match="strategy"):
            sweep_design_space(self.configs(), self.trace(), strategy="bogus")
