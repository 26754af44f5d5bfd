"""Data-address stream models.

Every memory operation in a program names a *stream*; a stream is a region
of the data segment with a characteristic access pattern.  Four patterns
cover the locality spectrum of the paper's multimedia/SPEC workloads:

* ``sequential`` — unit-stride walks over a region (filters, copies);
* ``strided``    — fixed non-unit stride (column walks, subsampling);
* ``random``     — uniform references within the region (hash tables,
  pointer chasing);
* ``zipf``       — skewed references: a hot head of the region absorbs
  most accesses, a long tail the rest (symbol tables, caches of
  parsed objects);
* ``stack``      — references clustered near a moving top-of-stack with
  very high reuse (locals, spill traffic).

Streams draw from disjoint regions above :data:`DATA_BASE`, far from the
text segment, so instruction and data addresses never collide in unified
traces.  All per-stream state evolves deterministically from the stream
spec, independent of the processor — the foundation of the paper's
step-1 assumption that data traces match across processors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cache.config import WORD_BYTES
from repro.errors import ConfigurationError
from repro.vliwcomp.regalloc import SPILL_STREAM

#: Base of the data segment.
DATA_BASE = 0x1000_0000

#: Guard gap between stream regions.
_REGION_GAP = 4096

#: Region size of the implicit spill stream (small and hot).
_SPILL_REGION_BYTES = 512

_PATTERNS = ("sequential", "strided", "random", "zipf", "stack")


@dataclass(frozen=True)
class StreamSpec:
    """Static description of one data stream."""

    pattern: str
    region_bytes: int
    stride_bytes: int = WORD_BYTES

    def __post_init__(self) -> None:
        if self.pattern not in _PATTERNS:
            raise ConfigurationError(
                f"unknown stream pattern {self.pattern!r}; "
                f"expected one of {_PATTERNS}"
            )
        if self.region_bytes < WORD_BYTES:
            raise ConfigurationError(
                f"region must be at least one word, got {self.region_bytes}"
            )
        if self.stride_bytes < WORD_BYTES or self.stride_bytes % WORD_BYTES:
            raise ConfigurationError(
                f"stride must be a positive multiple of {WORD_BYTES}, "
                f"got {self.stride_bytes}"
            )


#: Reference kinds of :meth:`DataAddressModel.addresses`.  A draw
#: advances the stream.  A peek models a speculative (hoisted) load: it
#: reads the address the next draw will return, so on the predicted
#: path the real load re-touches the line.  A wrong-path read is what a
#: *mispredicted* speculative load touches: the not-taken path works on
#: another part of the stream's data (far ahead in a walk, an
#: independent draw in a scattered structure, a nearby stack slot) —
#: Section 4.1's "spurious load addresses".  Neither of the last two
#: advances any stream state, so the committed path's addresses are
#: unperturbed.
DRAW, PEEK, WRONG_PATH = 0, 1, 2

#: The per-stream generator: a 32-bit LCG (numerical recipes constants).
_LCG_A = 1664525
_LCG_C = 1013904223
_MASK32 = 0xFFFF_FFFF
#: Shadow-state mask of a wrong-path read in a random or zipf stream.
_WRONG_PATH_XOR = 0x9E3779B9


class DataAddressModel:
    """Data addresses of a program's streams, computed per stream in bulk.

    Regions are assigned in ascending stream-id order starting at
    :data:`DATA_BASE`; the spill stream (:data:`SPILL_STREAM`) always
    exists and sits below the first ordinary region.

    Every stream evolves independently from its spec and the seed, so a
    stream's addresses are a function of its own sequence of reference
    kinds (:data:`DRAW`, :data:`PEEK`, :data:`WRONG_PATH`) alone, and
    :meth:`addresses` evaluates that function in closed form.
    """

    def __init__(self, streams: dict[int, StreamSpec], seed: int = 1):
        self._specs: dict[int, StreamSpec] = {
            SPILL_STREAM: StreamSpec("stack", _SPILL_REGION_BYTES)
        }
        self._specs.update(streams)
        if any(sid < 0 and sid != SPILL_STREAM for sid in streams):
            raise ConfigurationError(
                "negative stream ids are reserved for the spill stream"
            )
        self._bases: dict[int, int] = {}
        cursor = DATA_BASE
        for sid in sorted(self._specs):
            self._bases[sid] = cursor
            cursor += _round_up(self._specs[sid].region_bytes) + _REGION_GAP
        self._seed = seed

    def spec(self, stream: int) -> StreamSpec:
        """The static description of ``stream`` (raises if unknown)."""
        try:
            return self._specs[stream]
        except KeyError:
            raise ConfigurationError(f"unknown stream id {stream}") from None

    def region_base(self, stream: int) -> int:
        """Base byte address of the stream's region."""
        self.spec(stream)
        return self._bases[stream]

    def _initial_state(self, stream: int) -> int:
        """The stream's generator state before its first draw."""
        return ((self._seed ^ (stream & 0xFFFF)) * 2654435761 + 1) & _MASK32

    def addresses(self, stream: int, kinds: np.ndarray) -> np.ndarray:
        """The byte addresses of ``stream``'s references, in order.

        ``kinds[i]`` is the kind of the stream's ``i``-th reference
        since the start of the run.  Reference ``i`` sees the state
        after the ``k`` draws before it:

        * sequential and strided streams sit at ``(k * stride) mod
          region``; a wrong-path read is 64 strides ahead;
        * random and zipf streams draw from the LCG state ``S_k`` a
          step further on, ``S_{k+1}``; a wrong-path read steps the
          shadow state ``S_k ^ 0x9E3779B9`` once instead;
        * a stack draw takes two LCG steps, a -1/0/+1 move of the top
          and an offset into the hot window; the top is the floor-mod
          of the cumulative moves.  A wrong-path read is a peek.

        A peek therefore reads exactly the address the next draw
        returns.  Returns an int64 array of the same length as
        ``kinds``.
        """
        spec = self.spec(stream)
        kinds = np.asarray(kinds, dtype=np.int8)
        base = self._bases[stream]
        region = spec.region_bytes
        words = region // WORD_BYTES
        draws = kinds == DRAW
        # k: draws before each reference.
        before = np.cumsum(draws, dtype=np.int64) - draws
        # Draw slots read: every draw, plus the next one a trailing peek
        # or wrong-path read looks at.
        slots = int(before[-1]) + 1 if len(kinds) else 0
        if spec.pattern in ("sequential", "strided"):
            stride = spec.stride_bytes % region
            offset = (before % region) * stride % region
            # Several dozen strides ahead: in a large cache the early
            # touch acts as a prefetch; in a small one the line is gone
            # before the walk arrives, matching the paper's observation
            # that the small data cache suffers far more.
            wrong = kinds == WRONG_PATH
            offset[wrong] = (
                offset[wrong] + 64 * spec.stride_bytes % region
            ) % region
        elif spec.pattern in ("random", "zipf"):
            states = lcg_states(self._initial_state(stream), slots + 1)
            state = states[before + 1]
            wrong = kinds == WRONG_PATH
            shadow = states[before[wrong]] ^ np.uint64(_WRONG_PATH_XOR)
            state[wrong] = (
                shadow * np.uint64(_LCG_A) + np.uint64(_LCG_C)
            ) & np.uint64(_MASK32)
            if spec.pattern == "zipf":
                word = _zipf_words(state, words)
            else:
                word = (state % words).astype(np.int64)
            offset = word * WORD_BYTES
        else:  # stack; a wrong-path read is a peek
            window = min(32, words)
            # Draw j moves the top with S_{2j+1} and picks its offset
            # with S_{2j+2}.
            states = lcg_states(self._initial_state(stream), 2 * slots + 1)
            steps = (states[1::2] % 3).astype(np.int64) - 1
            tops = np.cumsum(steps) % max(1, words - window)
            picks = (states[2::2] % window).astype(np.int64)
            offset = (tops[before] + picks[before]) * WORD_BYTES
        return (base + offset) & ~(WORD_BYTES - 1)


def lcg_states(state: int, count: int) -> np.ndarray:
    """``S_0 .. S_{count-1}`` of the stream generator from ``S_0 = state``.

    Jump-ahead: ``S_j = a**j * S_0 + c * (a**(j-1) + ... + a + 1)`` mod
    2**32.  The powers come from a cumulative product and the geometric
    sums from a cumulative sum of the powers; both wrap modulo 2**64, a
    multiple of 2**32, so masking the result to 32 bits is exact.
    """
    if count <= 0:
        return np.empty(0, dtype=np.uint64)
    powers = np.full(count, _LCG_A, dtype=np.uint64)
    powers[0] = 1
    np.cumprod(powers, out=powers)
    powers &= np.uint64(_MASK32)
    sums = np.empty(count, dtype=np.uint64)
    sums[0] = 0
    np.cumsum(powers[:-1], out=sums[1:])
    sums &= np.uint64(_MASK32)
    return (powers * np.uint64(state) + sums * np.uint64(_LCG_C)) & np.uint64(
        _MASK32
    )


def _zipf_words(states: np.ndarray, words: int) -> np.ndarray:
    """A zipf-like word index per state: square a uniform draw to skew
    toward 0.

    P(index < k) = sqrt(k / words): the hottest 1% of the region absorbs
    ~10% of accesses — a cheap deterministic approximation of zipfian
    popularity that needs no per-stream tables.
    """
    u = states.astype(np.float64) / 0x1_0000_0000
    return (u * u * words).astype(np.int64) % max(1, words)


def _round_up(value: int, quantum: int = 64) -> int:
    return (value + quantum - 1) // quantum * quantum
