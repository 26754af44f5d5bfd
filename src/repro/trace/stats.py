"""Trace statistics: footprints, working sets and miss curves.

Analysis utilities a memory-hierarchy study needs around the core model:
address footprints, unique lines as a function of line size (the measured
counterpart of the AHH u(L) formula), working-set growth over granules,
and miss-rate-versus-capacity curves computed with the single-pass
simulator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cache.cheetah import CheetahSimulator
from repro.cache.config import WORD_BYTES, CacheConfig
from repro.errors import TraceError
from repro.trace.ranges import RangeTrace


@dataclass(frozen=True)
class TraceSummary:
    """Headline numbers of one range trace."""

    n_ranges: int
    total_words: int
    footprint_bytes: int
    unique_words: int

    @property
    def reuse_factor(self) -> float:
        """Word references per unique word (>= 1 for non-empty traces)."""
        if self.unique_words == 0:
            return 0.0
        return self.total_words / self.unique_words


def summarize(trace: RangeTrace) -> TraceSummary:
    """Compute the headline numbers of a trace."""
    if not len(trace):
        return TraceSummary(0, 0, 0, 0)
    words = trace.word_addresses()
    unique = np.unique(words)
    footprint = int((unique[-1] - unique[0] + 1) * WORD_BYTES)
    return TraceSummary(
        n_ranges=len(trace),
        total_words=int(words.size),
        footprint_bytes=footprint,
        unique_words=int(unique.size),
    )


def measured_unique_lines(
    trace: RangeTrace, line_sizes: list[int]
) -> dict[int, int]:
    """Unique cache lines touched, per line size.

    The whole-trace measured analogue of the AHH per-granule u(L); used
    to sanity-check the analytic formula against reality.
    """
    words = trace.word_addresses()
    out: dict[int, int] = {}
    for line_size in line_sizes:
        if line_size < WORD_BYTES or line_size % WORD_BYTES:
            raise TraceError(
                f"line size must be a multiple of {WORD_BYTES}, "
                f"got {line_size}"
            )
        line_words = line_size // WORD_BYTES
        out[line_size] = int(np.unique(words // line_words).size)
    return out


def working_set_curve(
    trace: RangeTrace, granule_words: int
) -> list[int]:
    """Unique words per granule of ``granule_words`` references.

    Section 5.2's granule-sizing guidance is about this curve flattening;
    the ablation bench sweeps it.
    """
    if granule_words < 1:
        raise TraceError("granule must be at least one reference")
    words = trace.word_addresses()
    out: list[int] = []
    for start in range(0, words.size, granule_words):
        chunk = words[start : start + granule_words]
        if chunk.size < granule_words // 2 and out:
            break  # drop a short tail, as the AHH accumulator does
        out.append(int(np.unique(chunk).size))
    return out


def miss_curve(
    trace: RangeTrace,
    line_size: int,
    assoc: int,
    sizes_kb: list[float],
) -> dict[float, float]:
    """Miss rate versus capacity, one single-pass simulation.

    All capacities share the line size and associativity, so a single
    Cheetah pass with the union of set counts answers every point.
    """
    set_counts = []
    for size_kb in sizes_kb:
        size = int(size_kb * 1024)
        if size % (assoc * line_size):
            raise TraceError(
                f"{size_kb}KB not divisible by assoc*line = "
                f"{assoc * line_size}"
            )
        sets = size // (assoc * line_size)
        CacheConfig(sets, assoc, line_size)  # validates power of two
        set_counts.append(sets)
    sim = CheetahSimulator(line_size, sorted(set(set_counts)), assoc)
    sim.simulate(trace.starts, trace.sizes, final=True)
    out: dict[float, float] = {}
    for size_kb, sets in zip(sizes_kb, set_counts):
        misses = sim.misses(sets, assoc)
        out[size_kb] = misses / sim.accesses if sim.accesses else 0.0
    return out
