"""The word-at-a-time granule accumulators, the reference for the AHH
parameters of :mod:`repro.ahh.granules` and :mod:`repro.ahh.modeler`.

Addresses are appended one at a time, and each granule is measured by
:func:`~repro.ahh.granules.granule_statistics` the moment it closes:
:class:`GranuleAccumulator` when it holds ``granule_size`` words,
:class:`UnifiedModeler` at the first *range* that brings the combined
instruction + data word count to the granule size.  Production measures
every granule of a trace in one array pass.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.ahh.granules import AverageStats, GranuleStats, granule_statistics
from repro.ahh.params import ComponentParameters, TraceParameters
from repro.cache.config import WORD_BYTES
from repro.errors import ConfigurationError, ModelError
from repro.trace.ranges import KIND_INSTR, RangeTrace


class GranuleAccumulator:
    """Word addresses appended one at a time; a granule is measured
    whenever ``granule_size`` of them are buffered."""

    def __init__(self, granule_size: int):
        if granule_size < 2:
            raise ConfigurationError(
                f"granule size must be >= 2, got {granule_size}"
            )
        self.granule_size = granule_size
        self._buffer: list[int] = []
        self._granules: list[GranuleStats] = []
        self.references = 0

    def feed(self, addresses: Iterable[int] | np.ndarray) -> None:
        """Append word addresses, processing full granules as they form."""
        if isinstance(addresses, np.ndarray):
            addresses = addresses.tolist()
        buf = self._buffer
        size = self.granule_size
        for addr in addresses:
            buf.append(addr)
            if len(buf) >= size:
                self._granules.append(granule_statistics(buf))
                self.references += len(buf)
                buf.clear()

    @property
    def complete_granules(self) -> int:
        return len(self._granules)

    def finalize(self) -> AverageStats:
        """Average the granules (and a tail of at least half a granule)."""
        granules = list(self._granules)
        if len(self._buffer) >= self.granule_size // 2:
            granules.append(granule_statistics(self._buffer))
        if not granules:
            raise ModelError(
                "no complete granule accumulated; trace shorter than half "
                f"a granule ({self.granule_size} references)"
            )
        return _average(granules)


class UnifiedModeler:
    """Per-component granules of a unified range trace, range by range:
    a granule closes at the first range that brings the combined word
    count to ``granule_size``."""

    def __init__(self, granule_size: int):
        if granule_size < 2:
            raise ConfigurationError(
                f"granule size must be >= 2, got {granule_size}"
            )
        self.granule_size = granule_size
        self._i_words: list[int] = []
        self._d_words: list[int] = []
        self._count = 0
        self._i_stats: list[GranuleStats] = []
        self._d_stats: list[GranuleStats] = []

    def process_trace(self, trace: RangeTrace) -> None:
        """Feed a trace segment in event order."""
        for start, size, kind in zip(
            trace.starts.tolist(), trace.sizes.tolist(), trace.kinds.tolist()
        ):
            first = start // WORD_BYTES
            last = (start + size - 1) // WORD_BYTES
            words = range(first, last + 1)
            if kind == KIND_INSTR:
                self._i_words.extend(words)
            else:
                self._d_words.extend(words)
            self._count += last - first + 1
            if self._count >= self.granule_size:
                self._close_granule()

    def _close_granule(self) -> None:
        self._i_stats.append(granule_statistics(self._i_words))
        self._d_stats.append(granule_statistics(self._d_words))
        self._i_words.clear()
        self._d_words.clear()
        self._count = 0

    def finalize(self) -> tuple[ComponentParameters, ComponentParameters]:
        """Return (instruction component, data component) parameters."""
        if self._count >= self.granule_size // 2:
            self._close_granule()
        if not self._i_stats:
            raise ModelError(
                "no complete unified granule; trace shorter than half a "
                f"granule ({self.granule_size} references)"
            )
        return (
            _parameters(_average(self._i_stats), self.granule_size),
            _parameters(_average(self._d_stats), self.granule_size),
        )


def derive_trace_parameters(
    instruction_trace: RangeTrace,
    unified_trace: RangeTrace,
    i_granule: int,
    u_granule: int,
) -> TraceParameters:
    """All nine parameters, word by word and range by range."""
    acc = GranuleAccumulator(i_granule)
    instr = instruction_trace.instruction_component
    if len(instr):
        acc.feed(instr.word_addresses())
    unified = UnifiedModeler(u_granule)
    unified.process_trace(unified_trace)
    u_instr, u_data = unified.finalize()
    return TraceParameters(
        icache=_parameters(acc.finalize(), i_granule),
        unified_instr=u_instr,
        unified_data=u_data,
    )


def _average(granules: list[GranuleStats]) -> AverageStats:
    u1 = float(np.mean([g.unique for g in granules]))
    ratios = [g.isolated / g.unique for g in granules if g.unique > 0]
    p1 = float(np.mean(ratios)) if ratios else 0.0
    lav = float(np.mean([g.mean_run_length for g in granules]))
    return AverageStats(u1=u1, p1=p1, lav=lav, granules=len(granules))


def _parameters(stats: AverageStats, granule_size: int) -> ComponentParameters:
    return ComponentParameters(
        u1=stats.u1,
        p1=stats.p1,
        lav=stats.lav,
        granule_size=granule_size,
        granules=stats.granules,
    )
