"""Cache configurations and simulators.

Two independent simulators are provided, mirroring the paper's tooling:

* :class:`~repro.cache.simulator.CacheSimulator` — a direct set-associative
  LRU simulator (plays the role of the IMPACT simulator used for validation
  in Section 6.1).
* :class:`~repro.cache.cheetah.CheetahSimulator` — a single-pass
  multi-configuration simulator (plays the role of Cheetah [17]): one pass
  over a trace yields the misses of every cache with a common line size.

Traces are *range traces*: parallel arrays ``(starts, sizes)`` of byte
ranges.  A data reference is a one-word range; an instruction basic-block
visit is the block's whole byte range.  Touching each line of a range once,
in order, is miss-equivalent to touching every word: consecutive words of a
line hit the already-MRU line without changing LRU state.
"""

from repro.cache.area import cache_cost
from repro.cache.cheetah import CheetahSimulator, simulate_many
from repro.cache.config import CacheConfig
from repro.cache.inclusion import satisfies_inclusion
from repro.cache.linestream import (
    LineStream,
    clear_line_stream_cache,
    collapse_repeats,
    expand_lines,
    line_stream,
    line_stream_cache_stats,
    set_line_stream_cache_budget,
)
from repro.cache.simulator import (
    CacheSimulator,
    MissResult,
    SampledMissResult,
    simulate_trace,
)
from repro.cache.sweep import sampled_sweep_design_space, sweep_design_space

__all__ = [
    "CacheConfig",
    "CacheSimulator",
    "MissResult",
    "SampledMissResult",
    "simulate_trace",
    "CheetahSimulator",
    "simulate_many",
    "sweep_design_space",
    "sampled_sweep_design_space",
    "satisfies_inclusion",
    "cache_cost",
    "LineStream",
    "line_stream",
    "expand_lines",
    "collapse_repeats",
    "clear_line_stream_cache",
    "line_stream_cache_stats",
    "set_line_stream_cache_budget",
]
