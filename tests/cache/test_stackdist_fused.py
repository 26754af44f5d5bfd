"""Property tests for fused cross-size counting.

The fused kernel's contract is *bit-identical distances*: for any list
of counting problems, :func:`stack_distances_fused` must return exactly
what one :func:`stack_distances` call per problem returns — across
forced tiers (scan / expansion / dominance fallback), mixed ``vmax``
towers sharing one fused sort, precomputed links, empty and
single-segment problems.  On top of the kernel,
:class:`DesignSpaceSimulator` in ``mode="fused"`` must match the
per-size serial simulators state-for-state.
"""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.cache.cheetah import CheetahSimulator
from repro.cache.designspace import DesignSpaceSimulator
from repro.cache.linestream import clear_line_stream_cache
from repro.cache.stackdist import (
    CountProblem,
    partition_by_set,
    radix_argsort,
    stack_distances,
    stack_distances_fused,
)

#: Kernel knobs forcing each tier (applied to fused and per-size alike).
TIER_KWARGS = (
    {},                                              # adaptive default
    {"base_window": 1, "max_window": 1},             # heavy expansion
    {"base_window": 1, "max_window": 1, "expand_budget": 8},  # dominance
    {"base_window": 2, "max_window": 4, "expand_budget": 64},
)


@st.composite
def count_problems(draw):
    """One counting problem plus its linking flavor.

    Flavors: ``vmax`` (joins the fused sort), ``links`` (precomputed,
    as the design-space tower derivation ships them), ``None`` (sorts
    alone inside the fused kernel, exercising the unknown-range path).
    """
    n = draw(st.integers(min_value=0, max_value=120))
    pool = draw(st.integers(min_value=1, max_value=24))
    lines = np.asarray(
        draw(
            st.lists(
                st.integers(min_value=0, max_value=pool - 1),
                min_size=n,
                max_size=n,
            )
        ),
        dtype=np.int64,
    ) * draw(st.sampled_from([1, 8]))
    nsets = draw(st.sampled_from([1, 2, 8]))
    max_assoc = draw(st.sampled_from([1, 2, 4, 8]))
    part, seg_lens, _, _ = partition_by_set(lines, nsets)
    vmax = int(lines.max()) if n else 0
    flavor = draw(st.sampled_from(["vmax", "links", "none"]))
    if flavor == "links":
        order = radix_argsort(part, vmax)
        pv = part[order]
        eq = np.flatnonzero(pv[1:] == pv[:-1])
        return CountProblem(
            part, seg_lens, max_assoc, links=(order[eq], order[eq + 1])
        )
    if flavor == "vmax":
        return CountProblem(part, seg_lens, max_assoc, vmax=vmax)
    return CountProblem(part, seg_lens, max_assoc)


class TestFusedKernel:
    @settings(max_examples=60, deadline=None)
    @given(
        problems=st.lists(count_problems(), min_size=1, max_size=5),
        tier=st.sampled_from(TIER_KWARGS),
    )
    def test_fused_matches_per_problem(self, problems, tier):
        results, fused_info = stack_distances_fused(problems, **tier)
        assert len(results) == len(problems)
        assert fused_info["refs"] == sum(len(p.part) for p in problems)
        for problem, (dist, info) in zip(problems, results):
            expect, einfo = stack_distances(
                problem.part,
                problem.seg_lens,
                problem.max_assoc,
                vmax=problem.vmax,
                links=problem.links,
                **tier,
            )
            assert np.array_equal(dist, expect)
            # recurs_idx is consumed as a membership mask; compare as sets
            assert set(np.asarray(info["recurs_idx"]).tolist()) == set(
                np.asarray(einfo["recurs_idx"]).tolist()
            )

    def test_no_problems(self):
        results, fused_info = stack_distances_fused([])
        assert results == []
        assert fused_info["refs"] == 0

    def test_all_empty_problems(self):
        empty = CountProblem(
            np.empty(0, np.int64), np.array([0], dtype=np.intp), 4, vmax=0
        )
        results, fused_info = stack_distances_fused([empty, empty])
        assert fused_info["refs"] == 0
        for dist, info in results:
            assert len(dist) == 0
            assert info["path"] == "scan"

    def test_single_reference_problems(self):
        one = CountProblem(
            np.array([7], dtype=np.int64),
            np.array([1], dtype=np.intp),
            2,
            vmax=7,
        )
        results, _ = stack_distances_fused([one, one])
        for dist, _info in results:
            assert dist.tolist() == [2]  # cold miss

    def test_mixed_vmax_ranges_share_one_sort(self):
        # Same value appearing in different problems must never link
        # across the problem boundary despite the shared sort.
        lines = np.array([3, 1, 3, 1, 3], dtype=np.int64)
        seg = np.array([5], dtype=np.intp)
        problems = [
            CountProblem(lines, seg, 4, vmax=3),
            CountProblem(lines, seg, 4, vmax=3),
            CountProblem(lines * 100, seg, 4, vmax=300),
        ]
        results, fused_info = stack_distances_fused(problems)
        assert fused_info["sorted_refs"] == 15
        for problem, (dist, _info) in zip(problems, results):
            expect, _ = stack_distances(
                problem.part, problem.seg_lens, 4, vmax=problem.vmax
            )
            assert np.array_equal(dist, expect)


def _spec():
    return {16: ([8, 32], 8), 32: ([8, 32], 8), 64: ([16], 4)}


def _trace(seed=5, n=4000):
    rng = np.random.default_rng(seed)
    return (
        rng.integers(0, 1 << 18, size=n),
        rng.integers(1, 64, size=n),
    )


def _reference_states(starts, sizes, spec):
    out = {}
    for line_size, (set_counts, max_assoc) in spec.items():
        sim = CheetahSimulator(line_size, set_counts, max_assoc)
        sim.simulate(starts, sizes)
        out[line_size] = sim.state()
    return out


class TestDesignSpaceFused:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_fused_mode_matches_per_size(self, seed):
        starts, sizes = _trace(seed=seed, n=600)
        spec = _spec()
        clear_line_stream_cache()
        reference = _reference_states(starts, sizes, spec)
        for mode in ("fused", "auto"):
            space = DesignSpaceSimulator(spec, engine="kernel", mode=mode)
            space.simulate(starts, sizes)
            assert space.states() == reference

    def test_auto_spills_to_per_size_above_ceiling(self, monkeypatch):
        # Above FUSE_MAX_REFS the auto cost model keeps per-family
        # dispatch (journaled as plain stackdist events); mode="fused"
        # ignores the ceiling.  Results identical either way.
        import repro.cache.designspace as ds_mod
        from repro.runtime.journal import RunJournal, use_journal

        monkeypatch.setattr(ds_mod, "FUSE_MAX_REFS", 64)
        starts, sizes = _trace(seed=9, n=800)
        spec = _spec()
        clear_line_stream_cache()
        reference = _reference_states(starts, sizes, spec)
        journal = RunJournal()
        clear_line_stream_cache()
        with use_journal(journal):
            space = DesignSpaceSimulator(spec, engine="kernel")
            space.simulate(starts, sizes)
        assert space.states() == reference
        assert not journal.select("stackdist_fused")
        assert journal.select("stackdist")
        assert all(
            not event["mode"].startswith("fused-")
            for event in journal.select("designspace")
        )
        forced = RunJournal()
        clear_line_stream_cache()
        with use_journal(forced):
            space = DesignSpaceSimulator(spec, engine="kernel", mode="fused")
            space.simulate(starts, sizes)
        assert space.states() == reference
        assert forced.select("stackdist_fused")

    def test_fused_mode_appendable(self):
        starts, sizes = _trace()
        spec = _spec()
        clear_line_stream_cache()
        reference = _reference_states(starts, sizes, spec)
        space = DesignSpaceSimulator(spec, mode="fused")
        space.simulate(starts[:2000], sizes[:2000])
        space.simulate(starts[2000:], sizes[2000:])
        assert space.states() == reference
