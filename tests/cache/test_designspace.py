"""DesignSpaceSimulator vs independent per-line-size passes.

The whole-design-space kernel shares one expansion and one value sort
across every line size in a derivation tower; these tests pin that its
miss counts are *bit-identical* to independent
:class:`~repro.cache.cheetah.CheetahSimulator` passes — across random
traces, line-size ladders (including gaps that force a fresh sort),
engines, incremental feeding and checkpoint round-trips.
"""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.cache.cheetah import CheetahSimulator
from repro.cache.config import CacheConfig
from repro.cache.designspace import (
    MAX_DERIVE_FACTOR,
    DesignSpaceSimulator,
    _build_towers,
)
from repro.cache.linestream import clear_line_stream_cache
from repro.cache.sweep import sweep_design_space
from repro.errors import ConfigurationError
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


def per_line_oracle(ladder, spec, starts, sizes, engine="auto"):
    sims = {}
    for line_size in ladder:
        set_counts, max_assoc = spec[line_size]
        clear_line_stream_cache()  # no sharing with the kernel under test
        sim = CheetahSimulator(
            line_size, set_counts, max_assoc, engine=engine
        )
        sim.simulate(starts, sizes)
        sims[line_size] = sim
    clear_line_stream_cache()
    return sims


class TestEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(
        trace=range_traces(),
        ladder=ladders(),
        engine=st.sampled_from(["auto", "kernel", "scalar"]),
        mode=st.sampled_from(["auto", "links", "streams"]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_misses_identical_to_per_line_size_passes(
        self, trace, ladder, engine, mode, seed
    ):
        starts, sizes = trace
        rng = np.random.default_rng(seed)
        spec = {
            line_size: (
                sorted(
                    {int(s) for s in rng.choice([4, 8, 16, 64, 256], size=3)}
                ),
                int(rng.integers(1, 9)),
            )
            for line_size in ladder
        }
        clear_line_stream_cache()
        space = DesignSpaceSimulator(spec, engine=engine, mode=mode)
        space.simulate(starts, sizes)
        oracle = per_line_oracle(ladder, spec, starts, sizes, engine=engine)
        for line_size in ladder:
            set_counts, max_assoc = spec[line_size]
            for sets in set_counts:
                for assoc in range(1, max_assoc + 1):
                    assert space.misses(line_size, sets, assoc) == oracle[
                        line_size
                    ].misses(sets, assoc), (line_size, sets, assoc)

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


class TestTowers:
    def test_contiguous_ladder_is_one_tower(self):
        space = DesignSpaceSimulator(
            {ls: ([8], 2) for ls in (16, 32, 64, 128)}
        )
        assert space.towers == [[16, 32, 64, 128]]

    def test_wide_gap_starts_a_fresh_tower(self):
        # 4 -> 64 is a factor-16 jump: deriving would cost four splits,
        # a fresh (smaller) sort costs about two.
        space = DesignSpaceSimulator({ls: ([8], 2) for ls in (4, 64, 128)})
        assert space.towers == [[4], [64, 128]]

    def test_max_derive_factor_gap_stays_in_tower(self):
        space = DesignSpaceSimulator({ls: ([8], 2) for ls in (16, 64)})
        assert 64 // 16 == MAX_DERIVE_FACTOR
        assert space.towers == [[16, 64]]

    def test_build_towers_unit(self):
        assert _build_towers([4, 8, 32, 128, 512]) == [
            [4, 8, 32, 128, 512]
        ]
        assert _build_towers([4, 64]) == [[4], [64]]
        assert _build_towers([8]) == [[8]]

    def test_gap_results_still_identical(self):
        rng = np.random.default_rng(3)
        starts = rng.integers(0, 1 << 13, 500)
        sizes = rng.integers(1, 80, 500)
        ladder = [4, 64, 256]  # two towers
        spec = {ls: ([16, 128], 4) for ls in ladder}
        clear_line_stream_cache()
        space = DesignSpaceSimulator(spec)
        space.simulate(starts, sizes)
        assert len(space.towers) == 2
        oracle = per_line_oracle(ladder, spec, starts, sizes)
        for line_size in ladder:
            for sets in (16, 128):
                for assoc in (1, 4):
                    assert space.misses(line_size, sets, assoc) == oracle[
                        line_size
                    ].misses(sets, assoc)


class TestModes:
    """The per-tower plan is a measured choice, never a semantic one."""

    def trace(self):
        rng = np.random.default_rng(7)
        return (
            rng.integers(0, 1 << 13, 600),
            rng.integers(1, 64, 600),
        )

    def test_forced_modes_bit_identical(self):
        starts, sizes = self.trace()
        spec = {ls: ([8, 64], 4) for ls in (16, 32, 64)}
        results = {}
        for mode in ("links", "streams"):
            clear_line_stream_cache()
            space = DesignSpaceSimulator(spec, engine="kernel", mode=mode)
            space.simulate(starts, sizes)
            results[mode] = {
                (ls, sets, assoc): space.misses(ls, sets, assoc)
                for ls in spec
                for sets in (8, 64)
                for assoc in (1, 2, 4)
            }
        assert results["links"] == results["streams"]

    def test_auto_mode_is_journaled(self):
        from repro.runtime.journal import RunJournal, use_journal

        starts, sizes = self.trace()
        spec = {ls: ([8], 2) for ls in (16, 32, 64)}
        journal = RunJournal()
        clear_line_stream_cache()
        with use_journal(journal):
            space = DesignSpaceSimulator(spec, engine="kernel")
            space.simulate(starts, sizes)
        events = journal.select("designspace")
        assert len(events) == 1
        # auto mode fuses the tower's counting into one dispatch
        assert events[0]["mode"] in ("fused-links", "fused-streams")
        fused = journal.select("stackdist_fused")
        assert len(fused) == 1
        assert fused[0]["problems"] == 3

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigurationError, match="mode"):
            DesignSpaceSimulator({16: ([8], 2)}, mode="telepathy")


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
