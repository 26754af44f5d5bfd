"""Cache area/cost model ("CACTI-lite").

The paper notes that "the area cost of a particular cache configuration may
be readily computed from the cache parameters" inside the Evaluators module
(Section 5.1).  This transparent model captures the first-order effects the
spacewalker needs: cost grows with capacity, with associativity (extra tag
comparators and wider muxes), and quadratically with port count (each port
replicates wordlines/bitlines).
"""

from __future__ import annotations

import math
from functools import lru_cache

from repro.cache.config import CacheConfig

#: Cost units per kilobyte of data RAM.
_DATA_COST_PER_KB = 1.0

#: Cost units per kilobyte-equivalent of tag RAM.
_TAG_COST_PER_KB = 1.2

#: Address width assumed for tag sizing.
_ADDRESS_BITS = 32

#: Per-way comparator + mux overhead, in cost units.
_WAY_OVERHEAD = 0.15


@lru_cache(maxsize=4096)
def cache_cost(config: CacheConfig) -> float:
    """Area cost of a cache in the same arbitrary units as processor cost.

    tag bits per line = address bits - log2(sets) - log2(line size); the
    tag array is costed like RAM, associativity adds per-way overhead,
    and multi-porting multiplies the whole array cost by ``ports**1.8``
    (between linear replication and the quadratic worst case).
    """
    data_kb = config.size_bytes / 1024.0
    tag_bits = _ADDRESS_BITS - int(math.log2(config.sets)) - int(
        math.log2(config.line_size)
    )
    tag_bits = max(tag_bits, 1)
    lines = config.sets * config.assoc
    # +2 for valid and LRU state bits.
    tag_kb = lines * (tag_bits + 2) / 8.0 / 1024.0
    array_cost = _DATA_COST_PER_KB * data_kb + _TAG_COST_PER_KB * tag_kb
    way_cost = _WAY_OVERHEAD * config.assoc
    port_factor = config.ports ** 1.8
    return (array_cost + way_cost) * port_factor
