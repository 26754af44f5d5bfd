"""Whole-design-space simulation: every line size from one sort.

:class:`~repro.cache.cheetah.CheetahSimulator` evaluates every cache of
*one* line size in a single trace pass; a design-space sweep still paid
one line-stream expansion plus one value sort per distinct line size.
Both costs are redundant: the line stream at size ``L`` is a
deterministic coarsening of the stream at any divisor of ``L``.

:class:`DesignSpaceSimulator` owns one :class:`CheetahSimulator` per
line size and feeds them all from shared work:

* **One expansion.**  Only the finest line size expands the byte ranges
  (memoized in :mod:`repro.cache.linestream`); every coarser stream is
  one floor division plus an MRU collapse of the finest stream.

* **One sort.**  With fine lines ``F`` and ``v_k = F >> k`` the values
  at granularity ``2^k``, the previous-occurrence links every simulator
  needs fall out of the order sorted by ``(v_k, time)``.  Since
  ``v_{k-1} = 2 v_k + bit``, stably splitting each equal-``v_k`` run by
  that next bit turns the ``(v_k, time)`` order into the
  ``(v_{k-1}, time)`` order — so one ``radix_argsort`` of the
  *coarsest* values plus one O(n) scatter per halving
  (:func:`~repro.cache.stackdist.split_value_groups`) yields every line
  size's sorted order.  (The reverse direction would be a k-way merge:
  fine-sorted runs are ``(fine value, time)``-ordered within a coarse
  value, not time-ordered.)

  Links extracted at granularity ``k`` are positions in ``F``; the
  coarse stream drops adjacent duplicates, so links map through the
  kept-position index (``cumsum(keep) - 1``).  A dropped occurrence's
  previous occurrence is exactly its predecessor — that's what made it
  a duplicate — so dropped links collapse onto their representative and
  the self-links are filtered out.

Line sizes whose ratio to the previous tower member exceeds
:data:`MAX_DERIVE_FACTOR` (or is not a power of two) start a fresh
*tower* with its own sort: a fresh 16-bit radix sort of the (smaller)
coarse stream costs about two bit-split passes over the fine stream, so
chaining splits across wide gaps would be slower than re-sorting.

Within a tower the simulator picks between two equivalent plans by a
measured cost model (``mode="auto"``):

* ``links`` — the one-sort derivation above.  Every split/remap pass
  runs at the *fine* stream's length, so its cost is
  ``levels x len(fine) x SPLIT_COST``.
* ``streams`` — derive each coarser stream through the
  :mod:`~repro.cache.linestream` memo (one shift + one collapse) and
  let each simulator's internal radix sort re-link the *collapsed*
  stream.  Cost is ``sum(len(coarse)) x sort passes``.

MRU-heavy traces collapse coarser streams far below the fine length,
making the small per-size sorts cheaper than full-length splits; the
linked plan wins when streams barely collapse and wide line indices
force multi-pass sorts.  Either plan is bit-identical — the choice is
journaled (``designspace`` event, ``mode`` field) and can be forced for
testing.  One trace fingerprint (:func:`~repro.cache.linestream.trace_digest`)
is shared across every line size of a batch either way.

Every per-line-size simulator stays a plain :class:`CheetahSimulator`
(same histograms, same :meth:`state` export, same checkpoint keys), so
results are bit-identical to independent per-line-size passes and
sweep checkpoints interoperate either way.
"""

from __future__ import annotations

import time
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.cache._util import as_int64_array
from repro.cache.cheetah import (
    SCALAR_BATCH_LIMIT,
    CheetahSimulator,
    _PreparedFamily,
)
from repro.cache.config import CacheConfig
from repro.cache.linestream import (
    LineStream,
    derive_stream,
    line_access_count,
    line_stream,
    trace_digest,
)
from repro.cache.simulator import MissResult
from repro.cache.stackdist import (
    CountProblem,
    radix_argsort,
    split_value_groups,
    stack_distances,
    stack_distances_fused,
)
from repro.errors import ConfigurationError, TraceError
from repro.runtime.journal import active_journal

__all__ = ["MAX_DERIVE_FACTOR", "TOWER_MODES", "DesignSpaceSimulator"]

#: Derive a line size from the previous tower member only across this
#: ratio; wider jumps (or non-power-of-two ratios) re-sort from scratch.
#: One fresh 16-bit radix sort costs about two single-bit split passes.
MAX_DERIVE_FACTOR = 4

#: Per-tower plan: ``auto``/``fused`` pick links-vs-streams derivation
#: by the cost model; ``links``/``streams`` force one derivation and
#: dispatch one stack-distance kernel per (line size, set count);
#: ``auto`` and ``fused`` additionally concatenate every family's
#: counting problem of a tower into one fused kernel dispatch
#: (:func:`repro.cache.stackdist.stack_distances_fused`) — ``auto``
#: only when the tower stays under :data:`FUSE_MAX_REFS`.
TOWER_MODES = ("auto", "links", "streams", "fused")

#: Fused-dispatch cost model: concatenating a tower's counting problems
#: saves one kernel dispatch per (line size, set count), but the scan
#: streams its uint8 working set once per window offset — and once the
#: concatenation outgrows the cache that per-problem blocks fit in, the
#: extra memory traffic outweighs every saved dispatch.  Measured
#: crossover on this class of machine is ~100k refs (1.7x fused below
#: 50k refs and 24 problems, 0.6x above 200k); ``auto`` fuses only
#: under this ceiling, ``fused`` always does.
FUSE_MAX_REFS = 96 * 1024

#: Cost of one split + link-extraction + remap pass per fine-stream
#: element, in units of one 16-bit radix-sort pass per element
#: (measured on the epic workload: ~79ns vs ~24ns).
_SPLIT_COST_PASSES = 3.0


class DesignSpaceSimulator:
    """Simulate caches of *every* line size in one pass over the trace.

    Parameters
    ----------
    spec:
        ``{line_size: (set_counts, max_assoc)}`` — the same per-group
        metadata a sweep derives from its configurations.
    engine:
        Passed through to every per-line-size
        :class:`~repro.cache.cheetah.CheetahSimulator`.
    mode:
        Tower plan selection — one of :data:`TOWER_MODES`.  ``auto``
        (default) weighs full-length split passes against per-size
        sorts of the collapsed streams, and fuses each tower's counting
        problems into one kernel dispatch when they stay under
        :data:`FUSE_MAX_REFS`; ``links``/``streams`` force one
        derivation plan with per-family dispatch; ``fused`` forces the
        fused dispatch at any size (results are bit-identical every
        way).
    """

    def __init__(
        self,
        spec: Mapping[int, tuple[Sequence[int], int]],
        engine: str = "auto",
        mode: str = "auto",
    ):
        if not spec:
            raise ConfigurationError("design-space spec is empty")
        if mode not in TOWER_MODES:
            raise ConfigurationError(
                f"unknown design-space mode {mode!r}; "
                f"expected one of {TOWER_MODES}"
            )
        self.engine = engine
        self.mode = mode
        self.simulators: dict[int, CheetahSimulator] = {
            int(line_size): CheetahSimulator(
                int(line_size), set_counts, max_assoc, engine=engine
            )
            for line_size, (set_counts, max_assoc) in spec.items()
        }
        self._towers = _build_towers(sorted(self.simulators))
        #: Wall seconds spent in each line size's consume (cumulative);
        #: shared derivation time is journaled per tower instead.
        self.consume_seconds: dict[int, float] = {
            line_size: 0.0 for line_size in self.simulators
        }
        #: The stack-distance *kernel* share of consume_seconds — what
        #: run recording reports as ``kernel_s`` per line size.
        self.kernel_seconds: dict[int, float] = {
            line_size: 0.0 for line_size in self.simulators
        }

    @classmethod
    def from_configs(
        cls,
        configs: Iterable[CacheConfig],
        engine: str = "auto",
        mode: str = "auto",
    ) -> "DesignSpaceSimulator":
        """Build from a configuration list (one group per line size)."""
        groups: dict[int, list[CacheConfig]] = {}
        for config in configs:
            groups.setdefault(config.line_size, []).append(config)
        return cls(
            {
                line_size: (
                    sorted({c.sets for c in group}),
                    max(c.assoc for c in group),
                )
                for line_size, group in groups.items()
            },
            engine=engine,
            mode=mode,
        )

    @classmethod
    def from_states(
        cls,
        states: Mapping[int, tuple[int, Mapping[int, Sequence[int]]]],
        engine: str = "auto",
    ) -> "DesignSpaceSimulator":
        """Rebuild a query-only simulator from exported :meth:`states`."""
        sim = cls.__new__(cls)
        sim.engine = engine
        sim.mode = "auto"
        sim.simulators = {
            int(line_size): CheetahSimulator.from_state(
                int(line_size),
                len(next(iter(hists.values()))) - 1,
                accesses,
                hists,
            )
            for line_size, (accesses, hists) in states.items()
        }
        if not sim.simulators:
            raise ConfigurationError("design-space state map is empty")
        sim._towers = _build_towers(sorted(sim.simulators))
        sim.consume_seconds = {ls: 0.0 for ls in sim.simulators}
        sim.kernel_seconds = {ls: 0.0 for ls in sim.simulators}
        return sim

    # ------------------------------------------------------------------
    # Simulation.
    # ------------------------------------------------------------------

    @property
    def line_sizes(self) -> list[int]:
        return sorted(self.simulators)

    @property
    def towers(self) -> list[list[int]]:
        """Line-size groups sharing one sort (diagnostics/tests)."""
        return [list(tower) for tower in self._towers]

    def simulate(
        self,
        starts: Sequence[int] | Iterable[int],
        sizes: Sequence[int] | Iterable[int],
        *,
        memoize: bool = True,
    ) -> None:
        """Feed a range trace to every line size (appendable).

        ``memoize=False`` keeps this batch's line streams out of the
        process-wide :mod:`~repro.cache.linestream` memo, for one chunk
        of a longer trace that will never be seen again.
        """
        starts_arr = as_int64_array(starts)
        sizes_arr = as_int64_array(sizes)
        if len(starts_arr) != len(sizes_arr):
            raise TraceError("starts and sizes must have equal length")
        digest = trace_digest(starts_arr, sizes_arr) if memoize else None
        for tower in self._towers:
            self._consume_tower(tower, starts_arr, sizes_arr, digest)

    def _consume_tower(
        self,
        tower: list[int],
        starts: np.ndarray,
        sizes: np.ndarray,
        digest: bytes | None,
    ) -> None:
        base = tower[0]
        memoize = digest is not None
        fine = line_stream(starts, sizes, base, memoize=memoize, digest=digest)

        def coarser(line_size: int) -> LineStream:
            if memoize:
                return line_stream(starts, sizes, line_size, digest=digest)
            factor = line_size // base
            return derive_stream(fine, factor, starts, sizes, line_size)

        n = len(fine.lines)
        if n == 0:
            return
        # Precomputed links only help fresh kernel batches: a carrying
        # simulator re-links internally, and the scalar path never
        # links.  Gate on the fine length (coarser streams only
        # shrink); an individual coarse stream that falls under the
        # scalar limit just ignores its links.
        can_link = (
            self.engine != "scalar"
            and (self.engine == "kernel" or n > SCALAR_BATCH_LIMIT)
            and not any(
                self.simulators[ls].carrying_state() for ls in tower
            )
        )
        use_links = can_link and self.mode != "streams"
        # Fused dispatch pools every family's counting problem of the
        # tower into one stack_distances_fused call (one scan/expand/
        # dominance pass and, for unlinked problems, one shared sort).
        # It composes with either derivation plan and is bit-identical.
        # Staging the problems is free (the prepare/fold split defers
        # the kernels either way), so auto mode collects them and lets
        # _finish_fused apply the FUSE_MAX_REFS cost model once the
        # real ref counts are known.
        fuse = self.mode in ("auto", "fused") and self.engine != "scalar"
        derive_auto = self.mode in ("auto", "fused")
        coarse: dict[int, LineStream] = {}
        if can_link and derive_auto and len(tower) > 1:
            # Deriving the coarse streams is a shift + collapse each
            # (memoized), so the cost model can weigh real collapsed
            # lengths: the linked plan splits at the fine length once
            # per level, the streams plan re-sorts each collapsed
            # stream inside its simulator.
            coarse = {ls: coarser(ls) for ls in tower[1:]}
            split_cost = (len(tower) - 1) * n * _SPLIT_COST_PASSES
            vmax = fine.max_line if fine.min_line >= 0 else None
            passes = 1 if vmax is not None and vmax < (1 << 16) else 2
            sort_cost = passes * sum(len(s) for s in coarse.values())
            use_links = split_cost < sort_cost
        elif can_link and derive_auto:
            use_links = False  # one size: its own sort is the shared sort
        journal = active_journal()
        collect: list[tuple[int, _PreparedFamily]] | None = (
            [] if fuse else None
        )
        with journal.timed(
            "designspace",
            line_sizes=list(tower),
            refs=n,
        ) as extra:
            # In the dict, not a timed() field: _finish_fused rewrites
            # it when the counting cost model rejects the fused plan.
            extra["mode"] = ("fused-" if fuse else "") + (
                "links" if use_links else "streams"
            )
            if use_links:
                self._consume_tower_linked(
                    tower, fine, starts, sizes, extra, coarse, collect
                )
            else:
                for line_size in tower:
                    stream = (
                        fine
                        if line_size == base
                        else coarse.get(line_size) or coarser(line_size)
                    )
                    self._consume(line_size, stream, None, collect)
            if collect:
                self._finish_fused(collect, extra)

    def _consume_tower_linked(
        self,
        tower: list[int],
        fine: LineStream,
        starts: np.ndarray,
        sizes: np.ndarray,
        extra: dict,
        coarse: Mapping[int, LineStream] | None = None,
        collect: list[tuple[int, _PreparedFamily]] | None = None,
    ) -> None:
        """One sort at the coarsest granularity, bit-splits downward."""
        base = tower[0]
        fine_lines = fine.lines
        n = len(fine_lines)
        wanted = {(ls // base).bit_length() - 1: ls for ls in tower}
        kmax = max(wanted)
        vmax = fine.max_line if fine.min_line >= 0 else None
        v = fine_lines if kmax == 0 else fine_lines >> kmax
        order = radix_argsort(v, (vmax >> kmax) if vmax is not None else None)
        vs = v[order]
        splits = 0
        for k in range(kmax, -1, -1):
            neq = vs[1:] != vs[:-1]
            line_size = wanted.get(k)
            if line_size is not None:
                # Adjacent sorted positions with equal values are
                # consecutive occurrences; compress by the mask instead
                # of materializing its (nearly n) indices.
                same = ~neq
                if k == 0:
                    self._consume(
                        line_size,
                        fine,
                        (order[:-1][same], order[1:][same]),
                        collect,
                    )
                else:
                    keep = np.empty(n, dtype=bool)
                    keep[0] = True
                    np.not_equal(v[1:], v[:-1], out=keep[1:])
                    # Map fine-position links onto the collapsed coarse
                    # stream: each position's representative is the
                    # kept position at or before it; links that fold
                    # onto one representative were adjacent duplicates.
                    posmap = np.cumsum(keep, dtype=np.int32)
                    posmap -= 1
                    mapped = posmap[order]
                    mapped_from = mapped[:-1]
                    mapped_to = mapped[1:]
                    keep_link = same & (mapped_from != mapped_to)
                    # The collapsed coarse stream equals the memoized
                    # derivation when the caller already built it.
                    stream = (coarse or {}).get(line_size)
                    if stream is None:
                        stream = LineStream(
                            lines=v[keep],
                            accesses=line_access_count(
                                starts, sizes, line_size
                            ),
                        )
                    # >> is monotone, so the extrema coarsen in place.
                    stream.__dict__["max_line"] = fine.max_line >> k
                    stream.__dict__["min_line"] = fine.min_line >> k
                    self._consume(
                        line_size,
                        stream,
                        (mapped_from[keep_link], mapped_to[keep_link]),
                        collect,
                    )
            if k > 0:
                finer = fine_lines if k == 1 else fine_lines >> (k - 1)
                bounds = np.concatenate(
                    (
                        np.zeros(1, dtype=np.intp),
                        np.flatnonzero(neq) + 1,
                        np.array([n], dtype=np.intp),
                    )
                )
                order = split_value_groups(
                    order, np.diff(bounds), (finer & 1).astype(bool)
                )
                v = finer
                vs = v[order]
                splits += 1
        extra["sorts"] = 1
        extra["splits"] = splits

    def _consume(
        self,
        line_size: int,
        stream: LineStream,
        links: tuple[np.ndarray, np.ndarray] | None,
        collect: list[tuple[int, _PreparedFamily]] | None = None,
    ) -> None:
        t0 = time.perf_counter()
        sim = self.simulators[line_size]
        if collect is None:
            sim.consume(stream, links=links)
        else:
            for prep in sim.prepare_consume(stream, links):
                collect.append((line_size, prep))
        self.consume_seconds[line_size] += time.perf_counter() - t0

    def _finish_fused(
        self, collect: list[tuple[int, _PreparedFamily]], extra: dict
    ) -> None:
        """Count every staged family of a tower in one fused dispatch.

        ``auto`` mode applies the :data:`FUSE_MAX_REFS` cost model here,
        where the real per-family ref counts are known: towers whose
        concatenated counting problems would outgrow cache fall back to
        per-family dispatch (bit-identical, journaled as ordinary
        ``stackdist`` events).  ``mode="fused"`` always fuses.
        """
        journal = active_journal()
        total_refs = sum(len(prep.part) for _, prep in collect)
        if self.mode != "fused" and total_refs > FUSE_MAX_REFS:
            extra["mode"] = str(extra["mode"]).replace("fused-", "", 1)
            for line_size, prep in collect:
                t0 = time.perf_counter()
                with journal.timed(
                    "stackdist", line_size=line_size, nsets=prep.fam.nsets
                ) as sx:
                    dist, info = stack_distances(
                        prep.part,
                        prep.seg_lens,
                        prep.fam.max_assoc,
                        vmax=prep.vmax,
                        links=prep.links,
                    )
                    sx.update(prep.fold(dist, info))
                elapsed = time.perf_counter() - t0
                self.consume_seconds[line_size] += elapsed
                self.kernel_seconds[line_size] += elapsed
            return
        with journal.timed(
            "stackdist_fused",
            line_sizes=sorted({ls for ls, _ in collect}),
        ) as fx:
            t0 = time.perf_counter()
            results, fused_info = stack_distances_fused(
                [
                    CountProblem(
                        prep.part,
                        prep.seg_lens,
                        prep.fam.max_assoc,
                        vmax=prep.vmax,
                        links=prep.links,
                    )
                    for _, prep in collect
                ]
            )
            by_path: dict[str, int] = {}
            for (_, prep), (dist, info) in zip(collect, results):
                prep.fold(dist, info)
                by_path[info["path"]] = by_path.get(info["path"], 0) + 1
            wall = time.perf_counter() - t0
            fx.update(fused_info)
            fx["by_path"] = by_path
        extra["fused_problems"] = len(collect)
        # The fused kernel ran outside the per-size _consume timers;
        # attribute its wall clock by each size's share of the refs.
        per_size: dict[int, int] = {}
        for line_size, prep in collect:
            per_size[line_size] = per_size.get(line_size, 0) + len(prep.part)
        total = sum(per_size.values()) or 1
        for line_size, refs in per_size.items():
            share = wall * refs / total
            self.consume_seconds[line_size] += share
            self.kernel_seconds[line_size] += share

    # ------------------------------------------------------------------
    # Queries and state export.
    # ------------------------------------------------------------------

    def _simulator(self, line_size: int) -> CheetahSimulator:
        sim = self.simulators.get(line_size)
        if sim is None:
            raise ConfigurationError(
                f"line size {line_size} was not tracked "
                f"(have {self.line_sizes})"
            )
        return sim

    def misses(self, line_size: int, sets: int, assoc: int) -> int:
        """Misses of cache C(sets, assoc, line_size) on the trace so far."""
        return self._simulator(line_size).misses(sets, assoc)

    def result(self, config: CacheConfig) -> MissResult:
        """Miss result for one tracked configuration."""
        return self._simulator(config.line_size).result(config)

    def results(self) -> dict[CacheConfig, MissResult]:
        """Miss results for every tracked combination, all line sizes."""
        out: dict[CacheConfig, MissResult] = {}
        for line_size in self.line_sizes:
            out.update(self.simulators[line_size].results())
        return out

    def state(self, line_size: int) -> tuple[int, dict[int, list[int]]]:
        """One line size's exportable state (sweep-checkpoint format)."""
        return self._simulator(line_size).state()

    def states(self) -> dict[int, tuple[int, dict[int, list[int]]]]:
        """Exportable per-line-size states (see :meth:`from_states`)."""
        return {ls: self.simulators[ls].state() for ls in self.line_sizes}


def _build_towers(line_sizes: list[int]) -> list[list[int]]:
    """Group ascending line sizes into derivation towers."""
    towers: list[list[int]] = []
    current: list[int] = []
    for line_size in line_sizes:
        if current:
            prev = current[-1]
            ratio = line_size // prev if line_size % prev == 0 else 0
            if 1 <= ratio <= MAX_DERIVE_FACTOR and (ratio & (ratio - 1)) == 0:
                current.append(line_size)
                continue
        if current:
            towers.append(current)
        current = [line_size]
    if current:
        towers.append(current)
    return towers
