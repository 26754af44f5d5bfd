"""The scalar survivor-loop engine, kept as the kernel's reference.

Before the offline stack-distance kernel (:mod:`repro.cache.stackdist`),
:class:`~repro.cache.cheetah.CheetahSimulator` counted every batch with
vectorized dedup and period-2 alternation pre-passes feeding a
per-reference Python LRU loop.  That engine lives on here, unchanged:

* :class:`ScalarCheetahSimulator` is a ``CheetahSimulator`` whose batches
  run the survivor loop instead of the kernel.  It shares the production
  simulator's stack families, so the two can be compared histogram for
  histogram and state for state;
* :func:`access_line` feeds one line reference to any
  ``CheetahSimulator`` through the per-line ``_touch`` step, so tests can
  interleave single touches with kernel batches.

``benchmarks/bench_cheetah_perf.py`` times the kernel against this
engine (``kernel_speedup``).  Do not optimize it.
"""

from __future__ import annotations

import numpy as np

from repro.cache.cheetah import CheetahSimulator, _ensure_stacks, _Family
from repro.cache.linestream import LineStream

__all__ = ["ScalarCheetahSimulator", "access_line"]


class ScalarCheetahSimulator(CheetahSimulator):
    """A :class:`CheetahSimulator` counting on the scalar survivor loop."""

    def consume(self, stream: LineStream) -> None:
        """Feed a pre-expanded line stream through the survivor loop."""
        self._check_unsealed()
        self.accesses += stream.accesses
        if len(stream.lines) == 0:
            return
        for fam in self._families.values():
            _ensure_stacks(fam)
            _process_family(fam, stream)


def access_line(sim: CheetahSimulator, line: int) -> None:
    """Feed one line reference to every stack family of ``sim``."""
    sim._check_unsealed()
    sim.accesses += 1
    for fam in sim._families.values():
        _ensure_stacks(fam)
        _touch(fam, line)


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
            # left by a previous batch or access_line() call; later
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
