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
The batch path (:meth:`CheetahSimulator.simulate`) is vectorized end to
end.  Per trace it runs one memoized numpy expansion of byte ranges into
a line stream with immediate repeats removed
(:mod:`repro.cache.linestream`); per batch it value-sorts the stream
*once* to link every reference to its previous occurrence (occurrence
order of a line is identical in every set partition, because equal
lines share a set and partitioning keeps within-set order); per family
it:

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

Small batches (and explicit ``engine="scalar"``) take the previous
generation of the engine instead: vectorized dedup + period-2
alternation pre-passes feeding a per-reference Python LRU loop.  That
scalar path and the per-line :func:`_touch` are kept as the property
-test oracle alongside :mod:`repro.cache._legacy`, and as the baseline
the benchmarks measure the kernel against.

Per-family kernel timings are recorded into the active
:class:`~repro.runtime.journal.RunJournal` (event ``stackdist``), so
``repro report --journal`` shows where pass time goes.

``docs/PERFORMANCE.md`` documents the design and its invariants; the
seed implementation is preserved in :mod:`repro.cache._legacy` as the
benchmark baseline and property-test oracle.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Sequence

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

#: Batches at or below this many references take the scalar survivor
#: loop under ``engine="auto"`` — the kernel's fixed vectorization
#: overhead only pays for itself on larger streams.
SCALAR_BATCH_LIMIT = 2048

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
        # happens when another batch or access_line() needs them.
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
    engine:
        ``"auto"`` (default) uses the vectorized stack-distance kernel
        for batches larger than :data:`SCALAR_BATCH_LIMIT` and the
        scalar survivor loop otherwise; ``"kernel"`` / ``"scalar"``
        force one path.  All three produce bit-identical histograms.
    """

    def __init__(
        self, line_size: int, set_counts: Sequence[int] | Iterable[int],
        max_assoc: int = 8, engine: str = "auto",
    ):
        if max_assoc < 1:
            raise ConfigurationError(f"max_assoc must be >= 1, got {max_assoc}")
        if engine not in ("auto", "kernel", "scalar"):
            raise ConfigurationError(
                f"engine must be 'auto', 'kernel' or 'scalar', got {engine!r}"
            )
        # Materialize once so one-shot iterables are safe.
        counts = [int(nsets) for nsets in set_counts]
        # CacheConfig validates line size / set count feasibility for us.
        for nsets in counts:
            CacheConfig(nsets, 1, line_size)
        if len(set(counts)) != len(counts):
            raise ConfigurationError("set_counts contains duplicates")
        self.line_size = line_size
        self.max_assoc = max_assoc
        self.engine = engine
        # Keyed by set count for O(1) lookup in :meth:`misses`.
        self._families: dict[int, _Family] = {
            nsets: _Family(nsets, max_assoc) for nsets in counts
        }
        self.accesses = 0
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
        engine: str = "auto",
    ) -> "CheetahSimulator":
        """Rebuild a *resumable* simulator from :meth:`full_state`."""
        sim = cls(line_size, list(families), max_assoc, engine=engine)
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
        synthetic references and re-links internally, so precomputed
        stream links (``consume(..., links=...)``) would be ignored.
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
        self._sealed = False

    def _check_unsealed(self) -> None:
        if self._sealed:
            raise ConfigurationError(
                "this CheetahSimulator was rebuilt from exported state and "
                "is query-only; it cannot consume further references"
            )

    def access_line(self, line: int) -> None:
        """Feed one line reference to every stack family."""
        self._check_unsealed()
        self.accesses += 1
        for fam in self._families.values():
            _ensure_stacks(fam)
            _touch(fam, line)

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

    def consume(
        self,
        stream: LineStream,
        links: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> None:
        """Feed a pre-expanded line stream to every stack family.

        ``links``, when given, is the precomputed previous-occurrence
        linking ``(link_from, link_to)`` of ``stream.lines`` in stream
        coordinates — consecutive occurrence positions of each line,
        exactly what the batch's own value sort would produce.  The
        whole-design-space simulator derives these for every line size
        from one shared sort (:mod:`repro.cache.designspace`), skipping
        the per-simulator ``radix_argsort`` below.  Ignored when any
        family carries LRU state from earlier batches (carried state
        splices in synthetic references and re-links internally).
        """
        journal = active_journal()
        for prep in self.prepare_consume(stream, links):
            fam = prep.fam
            with journal.timed(
                "stackdist", line_size=self.line_size, nsets=fam.nsets
            ) as extra:
                dist, info = stack_distances(
                    prep.part, prep.seg_lens, fam.max_assoc,
                    vmax=prep.vmax, links=prep.links,
                )
                extra.update(prep.fold(dist, info))

    def prepare_consume(
        self,
        stream: LineStream,
        links: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> list["_PreparedFamily"]:
        """Stage a batch: per-family counting problems, kernels deferred.

        Runs everything in :meth:`consume` *except* the stack-distance
        kernels themselves — accesses accounting, the shared value sort,
        the partition-refinement ladder, synthetic-state splicing and
        dup compaction — and returns one :class:`_PreparedFamily` per
        family still awaiting its kernel.  The caller must then run
        :func:`repro.cache.stackdist.stack_distances` (or one fused
        dispatch over many simulators' problems, see
        :mod:`repro.cache.designspace`) on each problem and feed the
        result to :meth:`_PreparedFamily.fold`.  Small batches that take
        the scalar path are processed fully here and return ``[]``.
        Preparation never depends on any deferred fold: the ladder
        adopts *compacted* streams, which exist before the kernel runs.
        """
        self._check_unsealed()
        self.accesses += stream.accesses
        n = len(stream.lines)
        if n == 0:
            return []
        use_kernel = self.engine == "kernel" or (
            self.engine == "auto" and n > SCALAR_BATCH_LIMIT
        )
        if not use_kernel:
            for fam in self._families.values():
                _ensure_stacks(fam)
                _process_family(fam, stream)
            return []

        lines = stream.lines
        vmax = stream.max_line if stream.min_line >= 0 else None
        # One value sort serves every family: link each reference to its
        # previous occurrence in *stream* coordinates; families map the
        # links into their own partition via the partition permutation.
        # (Lazy: the links are useless to families carrying LRU state
        # from earlier batches, which splice in synthetic references and
        # re-link internally.)
        stream_links: tuple[np.ndarray, np.ndarray] | None = None
        if not self.carrying_state():
            if links is not None:
                stream_links = links
            else:
                order_v = radix_argsort(lines, vmax)
                sv = lines[order_v]
                # Mask-compress instead of materializing the (nearly
                # full-length) index array of equal-value adjacencies.
                same = sv[1:] == sv[:-1]
                stream_links = (order_v[:-1][same], order_v[1:][same])
        # Walk families by ascending set count so each partition can
        # refine the previous one (a stable per-bit split) when the set
        # counts double; wider jumps re-sort from scratch.  When a
        # family compacts within-set repeats out of the stream, the
        # compacted survivors become the ladder stream for every finer
        # family (their repeats are a superset of the coarser ones), at
        # the price of dropping the precomputed stream links — the much
        # smaller survivor stream re-links cheaply.
        ladder = lines
        ladder_dups = 0  # repeats compacted out of the adopted stream
        part: np.ndarray | None = None
        seg_lens = seg_sets = order = None
        prev_nsets = 0
        prepared: list[_PreparedFamily] = []
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
                if ladder is not lines:
                    order = None  # permutation is not stream-relative
            elif nsets > prev_nsets:
                if order is None and stream_links is not None:
                    # Identity layout from an nsets==1 parent: make the
                    # stream permutation explicit before refining it.
                    order = np.arange(len(ladder), dtype=np.intp)
                part, seg_lens, seg_sets, order = refine_partition(
                    part, seg_lens, seg_sets, prev_nsets, nsets, order
                )
            prev_nsets = nsets
            prep, adopted = _prepare_family_kernel(
                fam, part, seg_lens, seg_sets,
                order if ladder is lines else None,
                stream_links if ladder is lines else None,
                stream.repeats + ladder_dups, vmax,
            )
            prepared.append(prep)
            if adopted is not None:
                part, seg_lens, ndup = adopted
                ladder = part
                ladder_dups += ndup
                order = None
                stream_links = None
        return prepared

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


def _touch(fam: _Family, line: int) -> None:
    """Record one line touch in a stack family (scalar path)."""
    stack = fam.stacks[line % fam.nsets]
    try:
        depth = stack.index(line)
    except ValueError:
        fam.hist[fam.max_assoc] += 1
        stack.insert(0, line)
        if len(stack) > fam.max_assoc:
            stack.pop()
        return
    fam.hist[depth] += 1
    if depth:
        del stack[depth]
        stack.insert(0, line)


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


class _PreparedFamily:
    """One family's staged counting problem, awaiting its kernel result.

    Produced by :func:`_prepare_family_kernel`; carries exactly the
    argument tuple the family's :func:`stack_distances` call needs
    (``part``/``seg_lens`` post splice/compaction, the mapped ``links``
    or the ``vmax`` for a fresh sort) so callers can run the kernel
    however they like — per family, or fused across many simulators —
    and then :meth:`fold` the distances back into the family.
    """

    __slots__ = ("fam", "part", "seg_lens", "seg_sets", "links", "vmax", "nsyn")

    def __init__(
        self,
        fam: _Family,
        part: np.ndarray,
        seg_lens: np.ndarray,
        seg_sets: np.ndarray,
        links: tuple[np.ndarray, np.ndarray] | None,
        vmax: int | None,
        nsyn: int,
    ):
        self.fam = fam
        self.part = part
        self.seg_lens = seg_lens
        self.seg_sets = seg_sets
        self.links = links
        self.vmax = vmax
        self.nsyn = nsyn

    def fold(self, dist: np.ndarray, info: dict[str, Any]) -> dict[str, Any]:
        """Fold one kernel result into the family's histogram and state.

        Returns the telemetry dict journaled as the family's
        ``stackdist`` (or fused-dispatch per-problem) stats.
        """
        fam = self.fam
        A = fam.max_assoc
        hist = fam.hist
        counts = np.bincount(dist, minlength=A + 1)
        for depth, cnt in enumerate(counts.tolist()):
            if cnt:
                hist[depth] += cnt
        if self.nsyn:
            hist[A] -= self.nsyn
        fam.pending = (
            self.part, self.seg_lens, self.seg_sets, info["recurs_idx"]
        )
        return {
            "refs": int(info["refs"]),
            "path": info["path"],
            "window": int(info["window"]),
            "residues": int(info["residues"]),
        }


def _prepare_family_kernel(
    fam: _Family,
    part: np.ndarray,
    seg_lens: np.ndarray,
    seg_sets: np.ndarray,
    order: np.ndarray | None,
    stream_links: tuple[np.ndarray, np.ndarray] | None,
    repeats: int,
    vmax: int | None,
) -> tuple[_PreparedFamily, tuple[np.ndarray, np.ndarray, int] | None]:
    """Stage one family's batch for the offline stack-distance kernel.

    ``part``/``seg_lens``/``seg_sets``/``order`` describe the batch
    partitioned by this family's set bits (shared across families via
    the refinement ladder, so this function never mutates them);
    ``stream_links`` is the shared previous-occurrence linking in stream
    coordinates (``None`` when carried LRU state forces re-linking, or
    when a coarser family already compacted the ladder stream).

    Everything *except* the kernel itself happens here — repeat
    crediting, synthetic-state splicing, dup compaction, link mapping —
    so the returned :class:`_PreparedFamily` can be counted later (and
    jointly with other families' problems, see
    :func:`repro.cache.stackdist.stack_distances_fused`).

    Returns ``(prepared, adopted)``: the staged problem, and — when this
    family compacted within-set repeats out of a synthetic-free stream —
    the compacted ``(part, seg_lens, ndup)`` for the caller to adopt as
    the ladder stream for finer families, crediting the ``ndup`` removed
    repeats to their depth-0 buckets (a within-set repeat for ``k`` sets
    is also one for ``2k`` sets: the finer set class is a subset, so the
    two references stay adjacent).
    """
    hist = fam.hist
    hist[0] += repeats
    nseg = len(seg_lens)

    # Carried state from earlier batches/access_line() enters as
    # synthetic references: each touched set's stack, deepest line
    # first, prepended to the set's segment.  Stack lines are distinct
    # and a line value determines its set, so each synthetic is the
    # first occurrence of its line in the spliced stream: it lands in
    # the cold bucket (subtracted below) and the batch references then
    # see exactly the LRU state a scalar replay would have left.  (A
    # batch reference of the set's MRU line comes out at depth 0, just
    # as _touch would score it.)
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
    # beats keeping the precomputed links, and the survivors re-link
    # cheaply inside the kernel.
    m = len(part)
    dup = part[1:] == part[:-1]
    ndup = int(np.count_nonzero(dup))
    adopted: tuple[np.ndarray, np.ndarray, int] | None = None
    if ndup * _DUP_COMPACT_DIVISOR > m:
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
        links: tuple[np.ndarray, np.ndarray] | None = None
        if nsyn == 0:
            adopted = (part, seg_lens, ndup)
    elif nsyn == 0 and stream_links is not None:
        s_from, s_to = stream_links
        if order is None:
            links = (s_from, s_to)
        else:
            inv = np.empty(m, dtype=np.int32)
            inv[order] = np.arange(m, dtype=np.int32)
            links = (inv[s_from], inv[s_to])
    else:
        links = None

    return _PreparedFamily(
        fam, part, seg_lens, seg_sets, links, vmax, nsyn
    ), adopted


def _process_family(fam: _Family, stream: LineStream) -> None:
    """Batch-process one family: vectorized pre-passes + survivor loop."""
    hist = fam.hist
    hist[0] += stream.repeats
    lines = stream.lines
    n = len(lines)
    if n == 0:
        return
    nsets = fam.nsets

    if nsets == 1:
        # Already "partitioned": one set, stream order, repeats removed.
        part = lines
        setkeys = None
    else:
        sidx = lines & (nsets - 1)
        # Radix-sortable small dtype: integer stable argsort in numpy is
        # ~8x faster on uint16 keys than on int64.
        key = sidx.astype(np.uint16) if nsets <= (1 << 16) else sidx
        order = np.argsort(key, kind="stable")
        part = lines[order]
        setkeys = key[order]
        # Within-set immediate repeats are depth-0 hits with no state
        # change (the line is its set's MRU); count and drop vectorially.
        dup = (part[1:] == part[:-1]) & (setkeys[1:] == setkeys[:-1])
        ndup = int(dup.sum())
        if ndup:
            hist[0] += ndup
            keep = np.empty(n, dtype=bool)
            keep[0] = True
            np.logical_not(dup, out=keep[1:])
            part = part[keep]
            setkeys = setkeys[keep]

    # Period-2 alternation pre-pass: in a consecutive-duplicate-free
    # per-set sequence, a reference equal to the one two back sits at
    # stack depth exactly 1 (one distinct line touched in between).
    # Removing such references *in adjacent pairs* is state-neutral:
    # the pair swaps the set's top two stack entries twice.  For runs of
    # odd length the last alternating reference is kept for the loop.
    m = len(part)
    if m > 2:
        if setkeys is None:
            alt = part[2:] == part[:-2]
        else:
            alt = (part[2:] == part[:-2]) & (setkeys[2:] == setkeys[:-2])
        if alt.any():
            altf = np.zeros(m, dtype=bool)
            altf[2:] = alt
            idx = np.arange(m)
            # 1-based position of each reference within its run of
            # consecutive alternating references.
            pos = idx - np.maximum.accumulate(np.where(~altf, idx, -1))
            run_start = altf.copy()
            run_start[1:] &= ~altf[:-1]
            run_id = np.cumsum(run_start)
            run_len = np.bincount(run_id[altf], minlength=int(run_id[-1]) + 1)[
                run_id
            ]
            keep_last = altf & ((run_len & 1) == 1) & (pos == run_len)
            remove = altf & ~keep_last
            nremove = int(remove.sum())
            if nremove:
                hist[1] += nremove
                keepm = ~remove
                part = part[keepm]
                if setkeys is not None:
                    setkeys = setkeys[keepm]

    seq = part.tolist()
    m = len(seq)
    if m == 0:
        return

    # Per-set segment boundaries in the partitioned survivor stream.
    if setkeys is None:
        bounds = [0, m]
        segment_sets = [0]
    else:
        change = np.flatnonzero(setkeys[1:] != setkeys[:-1]) + 1
        bounds = [0, *change.tolist(), m]
        segment_sets = setkeys[
            np.concatenate((np.zeros(1, dtype=np.int64), change))
        ].tolist()

    stacks = fam.stacks
    max_assoc = fam.max_assoc
    for seg in range(len(segment_sets)):
        lo = bounds[seg]
        hi = bounds[seg + 1]
        stack = stacks[segment_sets[seg]]
        if stack:
            # Only the first reference of a segment can equal the MRU
            # left by a previous simulate()/access_line() call; later
            # ones differ from their predecessor by construction.
            line = seq[lo]
            if line == stack[0]:
                hist[0] += 1
            elif line in stack:
                depth = stack.index(line, 1)
                hist[depth] += 1
                stack.insert(0, stack.pop(depth))
            else:
                hist[max_assoc] += 1
                stack.insert(0, line)
                if len(stack) > max_assoc:
                    stack.pop()
            lo += 1
        index = stack.index
        insert = stack.insert
        pop = stack.pop
        depth_here = len(stack)
        for line in seq[lo:hi]:
            if line in stack:
                # Depth >= 1 always: the predecessor reference is the
                # current MRU and differs from this line.
                depth = index(line, 1)
                hist[depth] += 1
                insert(0, pop(depth))
            else:
                hist[max_assoc] += 1
                insert(0, line)
                depth_here += 1
                if depth_here > max_assoc:
                    pop()
                    depth_here = max_assoc


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
