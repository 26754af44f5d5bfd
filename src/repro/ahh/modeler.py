"""TraceModeler: derive AHH parameters from range traces (Section 5.2).

The paper's TraceModeler has an ``ItraceModeler`` for the instruction-only
trace and a ``UtraceModeler`` for the unified trace.  The unified modeler
shares granule boundaries between the components — "we divide the unified
trace into fixed-size granules and then separately sort the instruction
and data addresses" — so a granule closes when the *combined* reference
count reaches the unified granule size.

Both modelers buffer the segments they are fed and measure every
granule at :meth:`finalize` in one array pass
(:func:`~repro.ahh.granules.granule_table`); the word-at-a-time
modelers they replace are the oracles in :mod:`repro.oracles.granules`.

Default granule sizes scale the paper's 10,000 / 200,000 down to match
the shorter synthetic traces (Section 4 scaling note in DESIGN.md).
"""

from __future__ import annotations

import numpy as np

from repro.ahh.granules import AverageStats, GranuleAccumulator, granule_table
from repro.ahh.params import ComponentParameters, TraceParameters
from repro.cache.config import WORD_BYTES
from repro.errors import ConfigurationError, ModelError
from repro.trace.ranges import KIND_INSTR, RangeTrace

#: Default instruction-trace granule, in word references.
DEFAULT_I_GRANULE = 2_000

#: Default unified-trace granule, in word references.
DEFAULT_U_GRANULE = 20_000


class ItraceModeler:
    """Measure (u(1), p1, lav) of an instruction range trace."""

    def __init__(self, granule_size: int = DEFAULT_I_GRANULE):
        self._acc = GranuleAccumulator(granule_size)

    def process_trace(self, trace: RangeTrace) -> None:
        """Feed a trace segment (may be called repeatedly)."""
        instr = trace.instruction_component
        if len(instr):
            self._acc.feed(instr.word_addresses())

    def finalize(self) -> ComponentParameters:
        """Average the accumulated granules into (u(1), p1, lav)."""
        return _parameters(self._acc.finalize(), self._acc.granule_size)


class UtraceModeler:
    """Measure per-component (u(1), p1, lav) of a unified range trace.

    Granule boundaries are shared: a granule closes at the first range
    that brings the combined instruction + data word-reference count to
    the granule size; the instruction and data address sets of that
    granule are then processed separately (Section 4.3).  Segments fed
    with :meth:`process_trace` are buffered and measured together by
    :meth:`finalize`, so any cut of a trace gives the same parameters.
    """

    def __init__(self, granule_size: int = DEFAULT_U_GRANULE):
        if granule_size < 2:
            raise ConfigurationError(
                f"granule size must be >= 2, got {granule_size}"
            )
        self.granule_size = granule_size
        self._segments: list[RangeTrace] = []

    def process_trace(self, trace: RangeTrace) -> None:
        """Feed a trace segment in event order."""
        self._segments.append(trace)

    def finalize(self) -> tuple[ComponentParameters, ComponentParameters]:
        """Return (instruction component, data component) parameters."""
        return unified_parameters(
            RangeTrace.concatenate(self._segments), self.granule_size
        )


def unified_parameters(
    trace: RangeTrace, granule_size: int
) -> tuple[ComponentParameters, ComponentParameters]:
    """(instruction, data) parameters of a unified trace, every granule
    measured in one array pass.

    The trace's words come from one ``repeat``/``arange`` expansion.
    Granule ends are found by a ``searchsorted`` walk over the
    cumulative word counts of the ranges: a granule ends at the first
    range whose words bring it to ``granule_size``, and a trailing
    granule counts when it holds at least half that.
    """
    first = trace.starts // WORD_BYTES
    counts = (trace.starts + trace.sizes - 1) // WORD_BYTES - first + 1
    total = np.cumsum(counts)
    ends: list[int] = []
    done = 0
    while True:
        end = int(np.searchsorted(total, done + granule_size))
        if end == len(total):
            break
        ends.append(end)
        done = int(total[end])
    if len(total) and int(total[-1]) - done >= granule_size // 2:
        ends.append(len(total) - 1)
    if not ends:
        raise ModelError(
            "no complete unified granule; trace shorter than half a "
            f"granule ({granule_size} references)"
        )
    kept = ends[-1] + 1
    counts = counts[:kept]
    granule = np.repeat(
        np.searchsorted(np.asarray(ends), np.arange(kept)), counts
    )
    words = np.repeat(first[:kept] - (total[:kept] - counts), counts)
    words += np.arange(len(words))
    instr = np.repeat(trace.kinds[:kept] == KIND_INSTR, counts)
    return (
        _parameters(
            granule_table(words[instr], granule[instr], len(ends)).averages(),
            granule_size,
        ),
        _parameters(
            granule_table(words[~instr], granule[~instr], len(ends)).averages(),
            granule_size,
        ),
    )


def _parameters(stats: AverageStats, granule_size: int) -> ComponentParameters:
    return ComponentParameters(
        u1=stats.u1,
        p1=stats.p1,
        lav=stats.lav,
        granule_size=granule_size,
        granules=stats.granules,
    )


def derive_trace_parameters(
    instruction_trace: RangeTrace,
    unified_trace: RangeTrace,
    i_granule: int = DEFAULT_I_GRANULE,
    u_granule: int = DEFAULT_U_GRANULE,
) -> TraceParameters:
    """The ``deriveTraceParms`` entry point: all nine parameters at once."""
    imod = ItraceModeler(i_granule)
    imod.process_trace(instruction_trace)
    umod = UtraceModeler(u_granule)
    umod.process_trace(unified_trace)
    u_instr, u_data = umod.finalize()
    return TraceParameters(
        icache=imod.finalize(), unified_instr=u_instr, unified_data=u_data
    )
