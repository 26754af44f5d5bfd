"""Measured unique lines: the reference for the AHH u(L) formula.

The AHH model estimates, per granule, how many distinct lines of each
size a trace touches (:meth:`repro.ahh.params.ComponentParameters.unique_lines_bytes`).
:func:`measured_unique_lines` counts them directly on a whole trace, so
tests can check the formula's trend across line sizes against reality.
"""

from __future__ import annotations

import numpy as np

from repro.cache.config import WORD_BYTES
from repro.errors import TraceError
from repro.trace.ranges import RangeTrace


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
