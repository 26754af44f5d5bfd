"""Single-pass multi-configuration cache simulation (the Cheetah role).

The paper (Sections 1 and 3.3) relies on the Cheetah simulator [17] to
evaluate *every* cache with a common line size in one pass over the trace.
This module implements the same capability with the classic
all-associativity algorithm: for each set-mapping, per-set LRU stacks
record the *stack distance* of every reference, and the misses of an
A-way cache are exactly the references whose distance is >= A (plus cold
references).  Maintaining one stack family per candidate set count still
requires only a single pass over the trace.

The stacks are truncated at the maximum associativity of interest, so
memory stays bounded regardless of trace length.

Engine
------
Every batch (:meth:`CheetahSimulator.simulate` /
:meth:`CheetahSimulator.consume`) runs the vectorized stack-distance
kernel; there is no other engine.  Per trace it runs one memoized numpy
expansion of byte ranges into a line stream with immediate repeats
removed (:mod:`repro.cache.linestream`); per batch it value-sorts the
stream *once* to link every reference to its previous occurrence
(occurrence order of a line is identical in every set partition, because
equal lines share a set and partitioning keeps within-set order); per
family it:

1. radix-partitions the stream by the family's set bits — refining the
   previous family's partition by one stable per-bit split when the set
   counts double (the set bits of family ``2k`` extend those of family
   ``k``), re-sorting across wider jumps where the chain of splits
   would cost more than one fresh 16-bit radix sort;
2. maps the shared occurrence links into the partition and hands the
   partitioned stream to the offline stack-distance kernel
   (:mod:`repro.cache.stackdist`), which resolves every reference's
   clamped LRU stack distance in O(n log n) whole-array operations
   (within-set immediate repeats simply come out at depth 0);
3. bin-counts the distances into the family's depth histogram, less one
   cold reference per line of the carry (below).

Between batches the simulator carries LRU state as one line array, the
*carry*: the lines of the finest family's truncated per-set stacks,
ordered by last-occurrence time.  Set counts are powers of two, so each
set of family ``k`` is a union of sets of family ``2k``, and a line in
the top ``max_assoc`` of a coarse set is also in the top
``max_assoc`` of its finer set: the carry holds every family's stack
lines.  The next batch prepends the carry to its line stream and runs
exactly like a first batch (one shared value sort, the same partition
ladder).  In every family a set's carry lines, oldest first, leave that
set's stack top exactly as a scalar replay would, and lines below it
are older than every stack line, so they only ever score as
deeper-or-absent.  Carry lines are distinct, so each is a cold first
occurrence in every family; the histograms subtract them again.  The
carry's time order comes from stream positions threaded through the
partition ladder (a compacted run of within-set repeats takes the
position of its *last* reference), and only when another batch follows
(``final=False``, the default).

Per-family kernel timings are recorded into the active
:class:`~repro.runtime.journal.RunJournal` (event ``stackdist``), so
``repro report --journal`` shows where pass time goes.

``docs/PERFORMANCE.md`` documents the design and its invariants.  The
engines this kernel replaced — the seed per-line ``_touch`` simulator
and the scalar survivor loop — are kept in :mod:`repro.oracles` as the
benchmark baselines and property-test oracles.
"""

from __future__ import annotations

import time
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.cache._util import as_int64_array
from repro.cache.config import CacheConfig
from repro.cache.linestream import LineStream, line_stream
from repro.cache.simulator import MissResult
from repro.cache.stackdist import (
    partition_by_set,
    radix_argsort,
    refine_partition,
    stack_distances,
)
from repro.errors import ConfigurationError, TraceError
from repro.runtime.journal import active_journal

#: Refine an existing partition only across this factor (one doubling);
#: wider jumps re-sort from scratch — a fresh 16-bit radix sort costs
#: about as much as two single-bit split passes.
_MAX_REFINE_FACTOR = 2

#: Compact within-set immediate repeats before the kernel when they
#: exceed 1/16 of the partitioned stream; below that the kernel scores
#: them as depth-0 hits at no extra cost.
_DUP_COMPACT_DIVISOR = 16

#: The carry of a simulator that has seen no references.
_NO_CARRY = np.empty(0, dtype=np.int32)
_NO_CARRY.flags.writeable = False


class CheetahSimulator:
    """Simulate all caches of one line size in a single trace pass.

    Parameters
    ----------
    line_size:
        Common line size in bytes of every simulated configuration.
    set_counts:
        The distinct set counts to track (each a power of two).  Any
        iterable is accepted, including one-shot iterators.
    max_assoc:
        Largest associativity of interest.  After a pass,
        :meth:`misses` answers for any ``A <= max_assoc``.
    """

    def __init__(
        self, line_size: int, set_counts: Sequence[int] | Iterable[int],
        max_assoc: int = 8,
    ):
        if max_assoc < 1:
            raise ConfigurationError(f"max_assoc must be >= 1, got {max_assoc}")
        # Materialize once so one-shot iterables are safe.
        counts = [int(nsets) for nsets in set_counts]
        # CacheConfig validates line size / set count feasibility for us.
        for nsets in counts:
            CacheConfig(nsets, 1, line_size)
        if len(set(counts)) != len(counts):
            raise ConfigurationError("set_counts contains duplicates")
        self.line_size = line_size
        self.max_assoc = max_assoc
        # Depth histogram per set count, keyed for O(1) lookup in
        # :meth:`misses`: hist[k] = number of references found at stack
        # depth k (0 = MRU); hist[max_assoc] accumulates "deeper than we
        # track, or absent".
        self._hists: dict[int, list[int]] = {
            nsets: [0] * (max_assoc + 1) for nsets in counts
        }
        # LRU state carried into the next batch (see the module notes).
        self._carry = _NO_CARRY
        self.accesses = 0
        #: Wall seconds spent counting stack families on the kernel
        #: (cumulative; each family's staging, kernel call and fold).
        self.kernel_seconds = 0.0
        self._sealed = False

    def _load_hists(
        self, accesses: int, hists: Mapping[int, Sequence[int]]
    ) -> None:
        self.accesses = accesses
        for nsets, hist in hists.items():
            if len(hist) != self.max_assoc + 1:
                raise ConfigurationError(
                    f"histogram for {nsets} sets has {len(hist)} buckets, "
                    f"expected {self.max_assoc + 1}"
                )
            self._hists[nsets][:] = [int(h) for h in hist]

    @classmethod
    def from_state(
        cls,
        line_size: int,
        max_assoc: int,
        accesses: int,
        hists: Mapping[int, Sequence[int]],
    ) -> "CheetahSimulator":
        """Rebuild a query-only simulator from exported :meth:`state`.

        Used to merge results simulated in worker processes back into
        the parent's API objects.  The rebuilt simulator answers
        :meth:`misses`/:meth:`result` queries but refuses further trace
        feeding (its LRU state was not shipped along).
        """
        sim = cls(line_size, list(hists), max_assoc)
        sim._load_hists(accesses, hists)
        sim._sealed = True
        return sim

    def state(self) -> tuple[int, dict[int, list[int]]]:
        """Exportable (accesses, {set count: depth histogram}) snapshot."""
        return self.accesses, {
            nsets: list(hist) for nsets, hist in self._hists.items()
        }

    def full_state(self) -> tuple[int, dict[int, list[int]], list[int]]:
        """Exportable mid-trace snapshot: :meth:`state` plus the carry.

        Unlike :meth:`state`, a simulator rebuilt from this snapshot
        (:meth:`from_full_state`) can keep consuming references — the
        hook chunk-at-a-time sweeps use to checkpoint between chunks.
        The carry holds at most ``max(set_counts) * max_assoc`` lines,
        so the snapshot is bounded by the design space, not the trace.
        """
        self._check_unsealed()
        accesses, hists = self.state()
        return accesses, hists, self._carry.tolist()

    @classmethod
    def from_full_state(
        cls,
        line_size: int,
        max_assoc: int,
        accesses: int,
        hists: Mapping[int, Sequence[int]],
        carry: Sequence[int],
    ) -> "CheetahSimulator":
        """Rebuild a *resumable* simulator from :meth:`full_state`."""
        sim = cls(line_size, list(hists), max_assoc)
        sim._load_hists(accesses, hists)
        lines = as_int64_array(carry)
        bound = max(sim._hists, default=0) * max_assoc
        if (
            lines.ndim != 1
            or len(lines) > bound
            or len(np.unique(lines)) != len(lines)
        ):
            raise ConfigurationError(
                f"snapshot carry must hold at most {bound} distinct lines"
            )
        if len(lines) and -(2**31) <= lines.min() and lines.max() < 2**31:
            lines = lines.astype(np.int32)
        sim._carry = lines
        return sim

    @property
    def set_counts(self) -> list[int]:
        return list(self._hists)

    def reset(self) -> None:
        """Forget all LRU state and zero the counters."""
        for hist in self._hists.values():
            hist[:] = [0] * len(hist)
        self._carry = _NO_CARRY
        self.accesses = 0
        self.kernel_seconds = 0.0
        self._sealed = False

    def _check_unsealed(self) -> None:
        if self._sealed:
            raise ConfigurationError(
                "this CheetahSimulator is query-only (rebuilt from "
                "exported state, or past its final batch); it cannot "
                "consume further references"
            )

    def simulate(
        self,
        starts: Sequence[int] | Iterable[int],
        sizes: Sequence[int] | Iterable[int],
        *,
        final: bool = False,
    ) -> None:
        """Feed a whole range trace (may be called repeatedly to append;
        see :meth:`consume` for ``final``)."""
        self._check_unsealed()
        starts_arr = as_int64_array(starts)
        sizes_arr = as_int64_array(sizes)
        if len(starts_arr) != len(sizes_arr):
            raise TraceError("starts and sizes must have equal length")
        stream = line_stream(starts_arr, sizes_arr, self.line_size)
        self.consume(stream, final=final)

    def consume(self, stream: LineStream, *, final: bool = False) -> None:
        """Feed a pre-expanded line stream to every stack family.

        ``final=True`` promises that no batch follows: the simulator
        skips building the carry for a next batch and becomes
        query-only.
        """
        self._check_unsealed()
        self.accesses += stream.accesses
        self._sealed = final
        if len(stream.lines) == 0:
            return
        carry = self._carry
        ncarry = len(carry)
        lines = stream.lines
        vmax = stream.max_line if stream.min_line >= 0 else None
        if ncarry:
            # Carry lines come first, oldest first: each family's sets
            # start from their carried LRU state.
            lines = np.concatenate((carry, lines))
            if vmax is not None and int(carry.min()) >= 0:
                vmax = max(vmax, int(carry.max()))
            else:
                vmax = None
        # Building the next carry needs the stream position of each
        # reference of the finest family's partition.
        track = not final
        # One value sort can serve every family: link each reference to
        # its previous occurrence in *stream* coordinates, and families
        # map the links into their own partition through ``order`` (the
        # stream position of each partition element; None: identity).
        # The sort runs on the first family that uses it; it is never
        # needed once a family has compacted the stream.
        linkable = True
        stream_links: tuple[np.ndarray, np.ndarray] | None = None
        # Walk families by ascending set count so each partition can
        # refine the previous one (a stable per-bit split) when the set
        # counts double; wider jumps re-sort from scratch.  When a
        # family compacts within-set repeats out of the stream, the
        # compacted survivors become the ladder stream for every finer
        # family (their repeats are a superset of the coarser ones), and
        # the much smaller survivor stream re-links inside the kernel.
        ladder = lines
        ladder_pos: np.ndarray | None = None  # stream positions; None: identity
        ladder_dups = 0  # repeats compacted out of the adopted stream
        part: np.ndarray | None = None
        seg_lens = seg_sets = order = None
        prev_nsets = 0
        A = self.max_assoc
        journal = active_journal()
        for nsets in sorted(self._hists):
            hist = self._hists[nsets]
            if (
                part is None
                or nsets % prev_nsets
                or nsets // prev_nsets > _MAX_REFINE_FACTOR
            ):
                part, seg_lens, seg_sets, order = partition_by_set(
                    ladder, nsets, vmax
                )
                if not (linkable or track):
                    order = None
                elif ladder_pos is not None:
                    order = ladder_pos[order]
            else:
                if order is None and (linkable or track):
                    # Identity layout from an nsets==1 parent: make the
                    # stream permutation explicit before refining it.
                    order = np.arange(len(ladder), dtype=np.intp)
                part, seg_lens, seg_sets, order = refine_partition(
                    part, seg_lens, seg_sets, prev_nsets, nsets, order
                )
            prev_nsets = nsets
            t0 = time.perf_counter()
            with journal.timed(
                "stackdist", line_size=self.line_size, nsets=nsets
            ) as extra:
                hist[0] += stream.repeats + ladder_dups
                links = None
                compacted = _compact_repeats(part, seg_lens, track)
                if compacted is not None:
                    # Adopt the survivors as the ladder stream, crediting
                    # their removed repeats to finer families' depth-0
                    # buckets (a within-set repeat for k sets is also one
                    # for 2k sets: the finer set class is a subset, so
                    # the two references stay adjacent).  A survivor
                    # takes the position of its run's last reference: a
                    # coarser set can see a sibling-set reference inside
                    # the run, so the run's line was last used at its end.
                    survivors, seg_lens, run_last = compacted
                    ndup = len(part) - len(survivors)
                    hist[0] += ndup
                    ladder_dups += ndup
                    if track:
                        order = run_last if order is None else order[run_last]
                    else:
                        order = None
                    ladder = part = survivors
                    ladder_pos = order
                    linkable = False
                    stream_links = None
                elif linkable:
                    if stream_links is None:
                        stream_links = _link_occurrences(lines, vmax)
                    links = _map_links(stream_links, order)
                dist, info = stack_distances(
                    part, seg_lens, A, vmax=vmax, links=links
                )
                counts = np.bincount(dist, minlength=A + 1)
                for depth, cnt in enumerate(counts.tolist()):
                    if cnt:
                        hist[depth] += cnt
                hist[A] -= ncarry
                extra.update(
                    refs=int(info["refs"]),
                    path=info["path"],
                    window=int(info["window"]),
                    residues=int(info["residues"]),
                )
            self.kernel_seconds += time.perf_counter() - t0
        if track and part is not None:
            self._carry = _next_carry(
                part, seg_lens, info["recurs_idx"], order, A
            )

    def misses(self, sets: int, assoc: int) -> int:
        """Misses of cache C(sets, assoc, line_size) on the trace seen so far.

        A reference hits an A-way LRU cache iff its per-set stack distance
        is < A, so misses = accesses - sum(hist[0:A]).
        """
        if assoc < 1 or assoc > self.max_assoc:
            raise ConfigurationError(
                f"assoc {assoc} outside tracked range 1..{self.max_assoc}"
            )
        hist = self._hists.get(sets)
        if hist is None:
            raise ConfigurationError(f"set count {sets} was not tracked")
        return self.accesses - sum(hist[:assoc])

    def result(self, config: CacheConfig) -> MissResult:
        """Miss result for one tracked configuration."""
        if config.line_size != self.line_size:
            raise ConfigurationError(
                f"config line size {config.line_size} != simulator "
                f"line size {self.line_size}"
            )
        return MissResult(
            config, self.accesses, self.misses(config.sets, config.assoc)
        )

    def results(self) -> dict[CacheConfig, MissResult]:
        """Miss results for every tracked (sets, assoc) combination."""
        out: dict[CacheConfig, MissResult] = {}
        for nsets in self._hists:
            for assoc in range(1, self.max_assoc + 1):
                config = CacheConfig(nsets, assoc, self.line_size)
                out[config] = self.result(config)
        return out


def _compact_repeats(
    part: np.ndarray, seg_lens: np.ndarray, track: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None] | None:
    """Drop the within-set immediate repeats of a dup-heavy partition.

    Within-set immediate repeats are depth-0 hits that leave LRU state
    unchanged (equal adjacent values are always in the same segment,
    since equal values share a set).  The kernel scores them exactly as
    depth 0, so dup-light streams go straight through (None); dup-heavy
    streams (loop-dominated code touches one hot line for most of a
    basic block) are compacted — shrinking the kernel's input beats
    sharing the stream links, and the survivors re-link cheaply inside
    the kernel.  Returns ``(survivors, seg_lens, run_last)``: the
    compacted partition, its segment lengths, and (when ``track``) the
    index in ``part`` of each survivor's run's last reference.
    """
    m = len(part)
    dup = part[1:] == part[:-1]
    ndup = int(np.count_nonzero(dup))
    if ndup * _DUP_COMPACT_DIVISOR <= m:
        return None
    keep = np.empty(m, dtype=bool)
    keep[0] = True
    np.logical_not(dup, out=keep[1:])
    keep_idx = np.flatnonzero(keep)
    run_last = None
    if track:
        run_last = np.empty_like(keep_idx)
        run_last[:-1] = keep_idx[1:] - 1
        run_last[-1] = m - 1
    if len(seg_lens) > 1:
        # Survivors per segment.
        segi = np.searchsorted(np.cumsum(seg_lens), keep_idx, side="right")
        seg_lens = np.bincount(segi, minlength=len(seg_lens)).astype(np.intp)
    else:
        seg_lens = np.array([len(keep_idx)], dtype=np.intp)
    return part[keep_idx], seg_lens, run_last


def _next_carry(
    part: np.ndarray,
    seg_lens: np.ndarray,
    recurs_idx: np.ndarray,
    positions: np.ndarray | None,
    max_assoc: int,
) -> np.ndarray:
    """The carry after a batch, from the finest family's partition.

    A set's truncated LRU stack is its ``max_assoc`` latest distinct
    lines, i.e. the segment's last ``max_assoc`` last occurrences; a
    position is a last occurrence iff the kernel linked no later
    occurrence to it (``recurs_idx``).  The stack lines of every set,
    ordered by stream position (``positions``; None: identity), oldest
    first.
    """
    last = np.ones(len(part), dtype=bool)
    last[recurs_idx] = False
    lastpos = np.flatnonzero(last)  # within each segment: time order
    seg = np.searchsorted(np.cumsum(seg_lens), lastpos, side="right")
    seg_end = np.cumsum(np.bincount(seg, minlength=len(seg_lens)))
    depth = seg_end[seg] - np.arange(1, len(lastpos) + 1)  # 0 = MRU
    stack = lastpos[depth < max_assoc]
    when = stack if positions is None else positions[stack]
    return part[stack[np.argsort(when)]]


def _link_occurrences(
    lines: np.ndarray, vmax: int | None
) -> tuple[np.ndarray, np.ndarray]:
    """Consecutive occurrence pairs ``(link_from, link_to)`` of a stream,
    from one stable value sort."""
    order = radix_argsort(lines, vmax)
    sv = lines[order]
    # Mask-compress instead of materializing the (nearly full-length)
    # index array of equal-value adjacencies.
    same = sv[1:] == sv[:-1]
    return order[:-1][same], order[1:][same]


def _map_links(
    links: tuple[np.ndarray, np.ndarray], order: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """Stream-coordinate links in the partition ``part == lines[order]``
    (``order`` None: the identity partition)."""
    if order is None:
        return links
    m = len(order)
    inv = np.empty(m, dtype=np.int32)
    inv[order] = np.arange(m, dtype=np.int32)
    return inv[links[0]], inv[links[1]]


def simulate_many(
    configs: Sequence[CacheConfig],
    starts: Sequence[int] | Iterable[int],
    sizes: Sequence[int] | Iterable[int],
) -> dict[CacheConfig, MissResult]:
    """Simulate several same-line-size configurations in one pass.

    Convenience wrapper used when the caller already knows all configs
    share a line size; :func:`repro.cache.sweep.sweep_design_space`
    handles the general mixed-line-size case.
    """
    if not configs:
        return {}
    line_sizes = {c.line_size for c in configs}
    if len(line_sizes) != 1:
        raise ConfigurationError(
            "simulate_many requires a common line size; got "
            f"{sorted(line_sizes)} (use sweep_design_space instead)"
        )
    set_counts = sorted({c.sets for c in configs})
    max_assoc = max(c.assoc for c in configs)
    sim = CheetahSimulator(configs[0].line_size, set_counts, max_assoc)
    sim.simulate(starts, sizes, final=True)
    return {c: sim.result(c) for c in configs}
