"""Reference simulators that tests and benchmarks check production against.

Every fast path in :mod:`repro.cache` keeps a slow oracle, and the
oracles live here rather than behind production mode switches:

* :class:`~repro.oracles.legacy.LegacyCheetahSimulator` — the seed
  single-pass simulator, one Python ``_touch`` per line per family;
* :class:`~repro.oracles.scalar.ScalarCheetahSimulator` — the
  pre-kernel engine, vectorized pre-passes feeding a per-reference LRU
  loop, on the production simulator's own stack families;
* :func:`~repro.oracles.scalar.access_line` — one scalar line touch on
  any :class:`~repro.cache.cheetah.CheetahSimulator`.

No production module imports this package (a test pins that).
"""

from repro.oracles.legacy import LegacyCheetahSimulator
from repro.oracles.scalar import ScalarCheetahSimulator, access_line

__all__ = ["LegacyCheetahSimulator", "ScalarCheetahSimulator", "access_line"]
