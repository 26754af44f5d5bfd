"""Whole-design-space simulation: every line size from one expansion.

:class:`~repro.cache.cheetah.CheetahSimulator` evaluates every cache of
*one* line size in a single trace pass.  A design-space sweep needs one
such pass per distinct line size (the paper's first efficiency
technique, Section 1), and the passes share work: the line stream at
size ``L`` is a deterministic coarsening of the stream at any divisor
of ``L`` — and line sizes are powers of two, so every tracked size
divides the next.

:class:`DesignSpaceSimulator` owns one :class:`CheetahSimulator` per
line size and feeds the whole ladder (one *tower*) per batch:

* **One expansion.**  Only the finest line size expands the byte ranges
  (memoized in :mod:`repro.cache.linestream`); every coarser stream is
  one floor division plus an MRU collapse of the next finer one
  (:func:`~repro.cache.linestream.derive_stream`), which costs less
  than re-expanding the ranges at any ratio.
* **One count per line size.**  Each per-size simulator counts its own
  (collapsed, hence shorter) stream on the stack-distance kernel, with
  its own value sort — there is no other plan and no knob.

One trace fingerprint (:func:`~repro.cache.linestream.trace_digest`)
is shared across every line size of a batch, and each tower consume is
journaled (``designspace`` event: ``line_sizes``, ``refs``, ``wall_s``).

Every per-line-size simulator stays a plain :class:`CheetahSimulator`
(same histograms, same :meth:`state` export, same checkpoint keys), so
results are bit-identical to independent per-line-size passes and
sweep checkpoints interoperate either way.
"""

from __future__ import annotations

import time
from typing import Iterable, Mapping, Sequence

from repro.cache._util import as_int64_array
from repro.cache.cheetah import CheetahSimulator
from repro.cache.config import CacheConfig
from repro.cache.linestream import derive_stream, line_stream, trace_digest
from repro.cache.simulator import MissResult
from repro.errors import ConfigurationError, TraceError
from repro.runtime.journal import active_journal

__all__ = ["DesignSpaceSimulator"]


class DesignSpaceSimulator:
    """Simulate caches of *every* line size in one pass over the trace.

    Parameters
    ----------
    spec:
        ``{line_size: (set_counts, max_assoc)}`` — the same per-group
        metadata a sweep derives from its configurations.
    """

    def __init__(self, spec: Mapping[int, tuple[Sequence[int], int]]):
        if not spec:
            raise ConfigurationError("design-space spec is empty")
        self._init(
            {
                int(line_size): CheetahSimulator(
                    int(line_size), set_counts, max_assoc
                )
                for line_size, (set_counts, max_assoc) in spec.items()
            }
        )

    def _init(self, simulators: dict[int, CheetahSimulator]) -> None:
        self.simulators = simulators
        #: Wall seconds spent in each line size's consume (cumulative);
        #: shared expansion time is journaled per tower instead.
        self.consume_seconds: dict[int, float] = {
            line_size: 0.0 for line_size in simulators
        }

    @classmethod
    def from_configs(
        cls, configs: Iterable[CacheConfig]
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
            }
        )

    @classmethod
    def from_states(
        cls, states: Mapping[int, tuple[int, Mapping[int, Sequence[int]]]]
    ) -> "DesignSpaceSimulator":
        """Rebuild a query-only simulator from exported :meth:`states`."""
        if not states:
            raise ConfigurationError("design-space state map is empty")
        sim = cls.__new__(cls)
        sim._init(
            {
                int(line_size): CheetahSimulator.from_state(
                    int(line_size),
                    len(next(iter(hists.values()))) - 1,
                    accesses,
                    hists,
                )
                for line_size, (accesses, hists) in states.items()
            }
        )
        return sim

    # ------------------------------------------------------------------
    # Simulation.
    # ------------------------------------------------------------------

    @property
    def line_sizes(self) -> list[int]:
        return sorted(self.simulators)

    @property
    def kernel_seconds(self) -> dict[int, float]:
        """The stack-distance *kernel* share of :attr:`consume_seconds`
        — what run recording reports as ``kernel_s`` per line size."""
        return {
            line_size: sim.kernel_seconds
            for line_size, sim in self.simulators.items()
        }

    def simulate(
        self,
        starts: Sequence[int] | Iterable[int],
        sizes: Sequence[int] | Iterable[int],
        *,
        memoize: bool = True,
        final: bool = False,
    ) -> None:
        """Feed a range trace to every line size (appendable).

        ``memoize=False`` keeps this batch's line streams out of the
        process-wide :mod:`~repro.cache.linestream` memo, for one chunk
        of a longer trace that will never be seen again.  ``final=True``
        promises that no batch follows (see
        :meth:`CheetahSimulator.consume`).
        """
        starts_arr = as_int64_array(starts)
        sizes_arr = as_int64_array(sizes)
        if len(starts_arr) != len(sizes_arr):
            raise TraceError("starts and sizes must have equal length")
        digest = trace_digest(starts_arr, sizes_arr) if memoize else None
        tower = self.line_sizes
        stream = line_stream(
            starts_arr, sizes_arr, tower[0], memoize=memoize, digest=digest
        )
        if len(stream) == 0:
            return
        with active_journal().timed(
            "designspace", line_sizes=tower, refs=len(stream)
        ):
            previous = tower[0]
            for line_size in tower:
                if line_size != previous:
                    # The memo derives from the finer stream it holds.
                    stream = (
                        line_stream(
                            starts_arr, sizes_arr, line_size, digest=digest
                        )
                        if memoize
                        else derive_stream(
                            stream, line_size // previous, starts_arr,
                            sizes_arr, line_size,
                        )
                    )
                    previous = line_size
                t0 = time.perf_counter()
                self.simulators[line_size].consume(stream, final=final)
                self.consume_seconds[line_size] += time.perf_counter() - t0

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

