"""The seed (pre-vectorization) single-pass simulator, kept verbatim.

This is the original per-line-reference ``_touch`` implementation of
:class:`repro.cache.cheetah.CheetahSimulator`.  It survives in
:mod:`repro.oracles` for two reasons:

* ``benchmarks/bench_cheetah_perf.py`` measures the vectorized engine's
  speedup against this exact code;
* the property tests cross-validate the vectorized engine against it
  (and against the direct :class:`~repro.cache.simulator.CacheSimulator`)
  so any divergence is caught three ways.

Do not optimize this module; its value is being the known-good baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.cache._util import as_int_list
from repro.errors import TraceError


@dataclass
class _StackFamily:
    """Per-set truncated LRU stacks for one set count."""

    nsets: int
    max_assoc: int
    stacks: list[list[int]]
    # hist[k] = number of references found at stack depth k (0 = MRU).
    # hist[max_assoc] accumulates "deeper than we track, or absent".
    hist: list[int]

    @classmethod
    def create(cls, nsets: int, max_assoc: int) -> "_StackFamily":
        return cls(
            nsets=nsets,
            max_assoc=max_assoc,
            stacks=[[] for _ in range(nsets)],
            hist=[0] * (max_assoc + 1),
        )


class LegacyCheetahSimulator:
    """Seed implementation: one ``_touch`` call per line per family."""

    def __init__(
        self, line_size: int, set_counts: Sequence[int], max_assoc: int = 8
    ):
        self.line_size = line_size
        self.max_assoc = max_assoc
        self._families = [
            _StackFamily.create(nsets, max_assoc) for nsets in set_counts
        ]
        self.accesses = 0

    def simulate(
        self,
        starts: Sequence[int] | Iterable[int],
        sizes: Sequence[int] | Iterable[int],
    ) -> None:
        starts_list = as_int_list(starts)
        sizes_list = as_int_list(sizes)
        if len(starts_list) != len(sizes_list):
            raise TraceError("starts and sizes must have equal length")
        line_size = self.line_size
        families = self._families
        accesses = 0
        for start, size in zip(starts_list, sizes_list):
            if size <= 0:
                raise TraceError(f"range size must be positive, got {size}")
            first = start // line_size
            last = (start + size - 1) // line_size
            accesses += last - first + 1
            for line in range(first, last + 1):
                for fam in families:
                    _touch(fam, line)
        self.accesses += accesses

    def misses(self, sets: int, assoc: int) -> int:
        for fam in self._families:
            if fam.nsets == sets:
                return self.accesses - sum(fam.hist[:assoc])
        raise KeyError(sets)


def _touch(fam: _StackFamily, line: int) -> None:
    """Record one line touch in a stack family (seed hot path)."""
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
