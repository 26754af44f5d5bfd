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
   clamped LRU stack distance in O(n log n) whole-array operations, and
   bin-counts the distances into the depth histogram (within-set
   immediate repeats simply come out at depth 0);
3. prepends the family's carried per-set LRU stacks as synthetic
   references (deepest first) when the simulator already consumed
   earlier batches — each synthetic is cold by construction, so its
   histogram contribution is known and subtracted afterwards, and the
   batch references then see exactly the stack state they would have
   seen scalar-stepped.

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


class _Family:
    """Per-set-count truncated LRU stacks plus the depth histogram."""

    __slots__ = ("nsets", "max_assoc", "stacks", "hist", "pending")

    def __init__(self, nsets: int, max_assoc: int):
        self.nsets = nsets
        self.max_assoc = max_assoc
        self.stacks: list[list[int]] = [[] for _ in range(nsets)]
        # hist[k] = number of references found at stack depth k (0 = MRU).
        # hist[max_assoc] accumulates "deeper than we track, or absent".
        self.hist: list[int] = [0] * (max_assoc + 1)
        # Deferred stack materialization after a kernel batch: the
        # partitioned stream plus which positions recur later.  Most
        # simulations never read the stacks again, so the rebuild only
        # happens when another batch or a snapshot needs them.
        self.pending: tuple | None = None


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
        # Keyed by set count for O(1) lookup in :meth:`misses`.
        self._families: dict[int, _Family] = {
            nsets: _Family(nsets, max_assoc) for nsets in counts
        }
        self.accesses = 0
        #: Wall seconds spent counting stack families on the kernel
        #: (cumulative; each family's staging, kernel call and fold).
        self.kernel_seconds = 0.0
        self._sealed = False

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
        feeding (its LRU stacks were not shipped along).
        """
        sim = cls(line_size, list(hists), max_assoc)
        sim.accesses = accesses
        for nsets, hist in hists.items():
            if len(hist) != max_assoc + 1:
                raise ConfigurationError(
                    f"histogram for {nsets} sets has {len(hist)} buckets, "
                    f"expected {max_assoc + 1}"
                )
            sim._families[nsets].hist = [int(h) for h in hist]
        sim._sealed = True
        return sim

    def state(self) -> tuple[int, dict[int, list[int]]]:
        """Exportable (accesses, {set count: depth histogram}) snapshot."""
        return self.accesses, {
            nsets: list(fam.hist) for nsets, fam in self._families.items()
        }

    def full_state(self) -> tuple[int, dict[int, dict]]:
        """Exportable mid-trace snapshot including the LRU stacks.

        Unlike :meth:`state`, a simulator rebuilt from this snapshot
        (:meth:`from_full_state`) can keep consuming references — the
        hook chunk-at-a-time sweeps use to checkpoint between chunks.
        Deferred stacks are materialized first, so this is not free;
        call it at chunk boundaries, not per batch.
        """
        out: dict[int, dict] = {}
        for nsets, fam in self._families.items():
            _ensure_stacks(fam)
            out[nsets] = {
                "hist": list(fam.hist),
                "stacks": [list(stack) for stack in fam.stacks],
            }
        return self.accesses, out

    def settle(self) -> None:
        """Materialize deferred LRU stacks, dropping the partitioned
        stream a kernel batch keeps for them."""
        for fam in self._families.values():
            _ensure_stacks(fam)

    @classmethod
    def from_full_state(
        cls,
        line_size: int,
        max_assoc: int,
        accesses: int,
        families: Mapping[int, Mapping],
    ) -> "CheetahSimulator":
        """Rebuild a *resumable* simulator from :meth:`full_state`."""
        sim = cls(line_size, list(families), max_assoc)
        sim.accesses = accesses
        for nsets, snap in families.items():
            fam = sim._families[nsets]
            hist = list(snap["hist"])
            if len(hist) != max_assoc + 1:
                raise ConfigurationError(
                    f"histogram for {nsets} sets has {len(hist)} buckets, "
                    f"expected {max_assoc + 1}"
                )
            stacks = snap["stacks"]
            if len(stacks) != nsets:
                raise ConfigurationError(
                    f"snapshot for {nsets} sets carries {len(stacks)} "
                    "stacks"
                )
            fam.hist = [int(h) for h in hist]
            fam.stacks = [[int(line) for line in stack] for stack in stacks]
        return sim

    @property
    def set_counts(self) -> list[int]:
        return list(self._families)

    def carrying_state(self) -> bool:
        """Whether any stack family holds LRU state from earlier batches.

        A carrying simulator splices its stacks into the next batch as
        synthetic references, so each family re-links its own spliced
        stream instead of sharing one value sort of the batch.
        """
        return any(
            fam.pending is not None or any(fam.stacks)
            for fam in self._families.values()
        )

    def reset(self) -> None:
        """Empty every stack family and zero the counters."""
        self._families = {
            nsets: _Family(nsets, fam.max_assoc)
            for nsets, fam in self._families.items()
        }
        self.accesses = 0
        self.kernel_seconds = 0.0
        self._sealed = False

    def _check_unsealed(self) -> None:
        if self._sealed:
            raise ConfigurationError(
                "this CheetahSimulator was rebuilt from exported state and "
                "is query-only; it cannot consume further references"
            )

    def simulate(
        self,
        starts: Sequence[int] | Iterable[int],
        sizes: Sequence[int] | Iterable[int],
    ) -> None:
        """Feed a whole range trace (may be called repeatedly to append)."""
        self._check_unsealed()
        starts_arr = as_int64_array(starts)
        sizes_arr = as_int64_array(sizes)
        if len(starts_arr) != len(sizes_arr):
            raise TraceError("starts and sizes must have equal length")
        stream = line_stream(starts_arr, sizes_arr, self.line_size)
        self.consume(stream)

    def consume(self, stream: LineStream) -> None:
        """Feed a pre-expanded line stream to every stack family."""
        self._check_unsealed()
        self.accesses += stream.accesses
        if len(stream.lines) == 0:
            return
        lines = stream.lines
        vmax = stream.max_line if stream.min_line >= 0 else None
        # One value sort can serve every family: link each reference to
        # its previous occurrence in *stream* coordinates, and families
        # map the links into their own partition via the partition
        # permutation.  The sort runs on the first family that uses it;
        # it is never needed when families carry LRU state from earlier
        # batches (they splice in synthetic references and re-link
        # internally), nor once a family has compacted the stream.
        linkable = not self.carrying_state()
        stream_links: tuple[np.ndarray, np.ndarray] | None = None
        # Walk families by ascending set count so each partition can
        # refine the previous one (a stable per-bit split) when the set
        # counts double; wider jumps re-sort from scratch.  When a
        # family compacts within-set repeats out of the stream, the
        # compacted survivors become the ladder stream for every finer
        # family (their repeats are a superset of the coarser ones), and
        # the much smaller survivor stream re-links inside the kernel.
        ladder = lines
        ladder_dups = 0  # repeats compacted out of the adopted stream
        part: np.ndarray | None = None
        seg_lens = seg_sets = order = None
        prev_nsets = 0
        journal = active_journal()
        for fam in sorted(self._families.values(), key=lambda f: f.nsets):
            nsets = fam.nsets
            if (
                part is None
                or nsets % prev_nsets
                or nsets // prev_nsets > _MAX_REFINE_FACTOR
            ):
                part, seg_lens, seg_sets, order = partition_by_set(
                    ladder, nsets, vmax
                )
                if not linkable:
                    order = None  # it only maps the shared stream links
            elif nsets > prev_nsets:
                if order is None and linkable:
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
                fpart, flens, fvmax, nsyn, ncompacted = _splice_and_compact(
                    fam, part, seg_lens, seg_sets,
                    stream.repeats + ladder_dups, vmax,
                )
                links = None
                if ncompacted and not nsyn:
                    # Adopt the survivors as the ladder stream, crediting
                    # their removed repeats to finer families' depth-0
                    # buckets (a within-set repeat for k sets is also one
                    # for 2k sets: the finer set class is a subset, so
                    # the two references stay adjacent).
                    ladder = part = fpart
                    seg_lens = flens
                    ladder_dups += ncompacted
                    linkable = False
                    order = stream_links = None
                elif linkable and not ncompacted:
                    if stream_links is None:
                        stream_links = _link_occurrences(lines, vmax)
                    links = _map_links(stream_links, order)
                _count_family(
                    fam, fpart, flens, seg_sets, links, fvmax, nsyn, extra
                )
            self.kernel_seconds += time.perf_counter() - t0

    def misses(self, sets: int, assoc: int) -> int:
        """Misses of cache C(sets, assoc, line_size) on the trace seen so far.

        A reference hits an A-way LRU cache iff its per-set stack distance
        is < A, so misses = accesses - sum(hist[0:A]).
        """
        if assoc < 1 or assoc > self.max_assoc:
            raise ConfigurationError(
                f"assoc {assoc} outside tracked range 1..{self.max_assoc}"
            )
        fam = self._families.get(sets)
        if fam is None:
            raise ConfigurationError(f"set count {sets} was not tracked")
        return self.accesses - sum(fam.hist[:assoc])

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
        for nsets in self._families:
            for assoc in range(1, self.max_assoc + 1):
                config = CacheConfig(nsets, assoc, self.line_size)
                out[config] = self.result(config)
        return out


def _ensure_stacks(fam: _Family) -> None:
    """Materialize per-set LRU stacks deferred by a kernel batch.

    The truncated LRU stack of a set after a batch is its ``max_assoc``
    most-recently-used distinct lines, MRU first — i.e. the *last*
    occurrences of the segment's lines, latest first.  The kernel's
    next-occurrence links identify them for free: a position is a last
    occurrence iff it has no later occurrence (``recurs_idx``).
    """
    pending = fam.pending
    if pending is None:
        return
    fam.pending = None
    part, seg_lens, seg_sets, recurs_idx = pending
    m = len(part)
    if m == 0:
        return
    has_next = np.zeros(m, dtype=bool)
    has_next[recurs_idx] = True
    lastpos = np.flatnonzero(~has_next)        # ascending == time order
    ends = np.cumsum(seg_lens)
    segi = np.searchsorted(ends, lastpos, side="right")
    cnt = np.bincount(segi, minlength=len(seg_lens))
    vals = part[lastpos]
    A = fam.max_assoc
    stacks = fam.stacks
    sets_list = seg_sets.tolist()
    pos = 0
    for j, c in enumerate(cnt.tolist()):
        if c:
            lo = pos + (c - A if c > A else 0)
            stacks[sets_list[j]] = vals[lo : pos + c][::-1].tolist()
            pos += c


def _splice_and_compact(
    fam: _Family,
    part: np.ndarray,
    seg_lens: np.ndarray,
    seg_sets: np.ndarray,
    repeats: int,
    vmax: int | None,
) -> tuple[np.ndarray, np.ndarray, int | None, int, int]:
    """Stage one family's partitioned batch for the kernel.

    ``part``/``seg_lens``/``seg_sets`` describe the batch partitioned by
    this family's set bits (shared across families via the refinement
    ladder, so this function never mutates them).  Credits ``repeats``
    to depth 0, splices carried LRU state in as synthetic references and
    compacts dup-heavy streams.  Returns ``(part, seg_lens, vmax, nsyn,
    ncompacted)``: the family's counting problem, its synthetic count
    and the number of within-set repeats compacted out (0 when none
    were).
    """
    hist = fam.hist
    hist[0] += repeats
    nseg = len(seg_lens)

    # Carried state from earlier batches enters as synthetic references:
    # each touched set's stack, deepest line first, prepended to the
    # set's segment.  Stack lines are distinct and a line value
    # determines its set, so each synthetic is the first occurrence of
    # its line in the spliced stream: it lands in the cold bucket
    # (subtracted after counting) and the batch references then see
    # exactly the LRU state a scalar replay would have left.  (A batch
    # reference of the set's MRU line comes out at depth 0, just as one
    # LRU step would score it.)
    nsyn = 0
    if fam.pending is not None or any(fam.stacks):
        _ensure_stacks(fam)
        stacks = fam.stacks
        ins_pos: list[int] = []
        ins_vals: list[int] = []
        syn_per_seg = np.zeros(nseg, dtype=np.intp)
        starts_list = (np.cumsum(seg_lens) - seg_lens).tolist()
        lens_list = seg_lens.tolist()
        for j, sset in enumerate(seg_sets.tolist()):
            if not lens_list[j]:
                continue
            stack = stacks[sset]
            if stack:
                ins_pos.extend([starts_list[j]] * len(stack))
                ins_vals.extend(reversed(stack))
                syn_per_seg[j] = len(stack)
        nsyn = len(ins_vals)
        if nsyn:
            vals_arr = np.asarray(ins_vals)
            dtype = np.promote_types(part.dtype, vals_arr.dtype)
            part = np.insert(part.astype(dtype, copy=False), ins_pos, vals_arr)
            seg_lens = seg_lens + syn_per_seg
            if vmax is not None:
                vmax = max(vmax, int(vals_arr.max()))

    # Within-set immediate repeats are depth-0 hits that leave LRU state
    # unchanged (equal adjacent values are always in the same segment,
    # since equal values share a set).  The kernel scores them exactly
    # as depth 0, so dup-light streams go straight through; dup-heavy
    # streams (loop-dominated code touches one hot line for most of a
    # basic block) are compacted first — shrinking the kernel's input
    # beats sharing the stream links, and the survivors re-link
    # cheaply inside the kernel.
    m = len(part)
    dup = part[1:] == part[:-1]
    ndup = int(np.count_nonzero(dup))
    if ndup * _DUP_COMPACT_DIVISOR <= m:
        return part, seg_lens, vmax, nsyn, 0
    hist[0] += ndup
    keep = np.empty(m, dtype=bool)
    keep[0] = True
    np.logical_not(dup, out=keep[1:])
    keep_idx = np.flatnonzero(keep)
    part = part[keep_idx]
    if nseg > 1:
        ends = np.cumsum(seg_lens)
        segi = np.searchsorted(ends, keep_idx, side="right")
        seg_lens = np.bincount(segi, minlength=nseg).astype(np.intp)
    else:
        seg_lens = np.array([len(part)], dtype=np.intp)
    return part, seg_lens, vmax, nsyn, ndup


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


def _count_family(
    fam: _Family,
    part: np.ndarray,
    seg_lens: np.ndarray,
    seg_sets: np.ndarray,
    links: tuple[np.ndarray, np.ndarray] | None,
    vmax: int | None,
    nsyn: int,
    telemetry: dict,
) -> None:
    """Run the kernel on one family's staged problem and fold it in.

    Bin-counts the distances into the histogram (less the ``nsyn``
    synthetic cold references), leaves the LRU stacks deferred
    (``fam.pending``) and puts the kernel's telemetry in ``telemetry``
    (the family's ``stackdist`` journal event).
    """
    A = fam.max_assoc
    dist, info = stack_distances(part, seg_lens, A, vmax=vmax, links=links)
    hist = fam.hist
    counts = np.bincount(dist, minlength=A + 1)
    for depth, cnt in enumerate(counts.tolist()):
        if cnt:
            hist[depth] += cnt
    hist[A] -= nsyn
    fam.pending = (part, seg_lens, seg_sets, info["recurs_idx"])
    telemetry.update(
        refs=int(info["refs"]),
        path=info["path"],
        window=int(info["window"]),
        residues=int(info["residues"]),
    )


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
    sim.simulate(starts, sizes)
    return {c: sim.result(c) for c in configs}
