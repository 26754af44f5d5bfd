"""Granule processing: measuring u(1), p1 and lav from an address stream.

The AHH model divides a trace into *granules* of a fixed number of
references.  Within each granule the unique word addresses are sorted;
maximal sequences of consecutive addresses are *runs*, and addresses with
no neighbour are *isolated* (Section 4.2).  Three basic parameters are
averaged over granules:

* ``u(1)`` — unique word addresses per granule;
* ``p1``  — fraction of unique addresses that are isolated;
* ``lav`` — average run length over runs (length >= 2).

The paper's TraceModeler (Section 5.2) accumulates addresses into a
``uniqueRefSet`` and processes it at each granule boundary.  Here every
granule of a trace is measured in one array pass
(:func:`granule_table`): one sort of (granule, word) keys, then
per-granule counts by ``bincount``.  :class:`GranuleAccumulator` keeps
the streaming interface, buffering the fed addresses as arrays; the
word-at-a-time accumulator it replaces is the oracle
:class:`repro.oracles.granules.GranuleAccumulator`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from repro.errors import ConfigurationError, ModelError


@dataclass(frozen=True)
class GranuleStats:
    """Raw statistics of one granule."""

    unique: int
    isolated: int
    runs: int
    run_length_total: int

    @property
    def mean_run_length(self) -> float:
        """Average run length; 1.0 when the granule has no runs."""
        if self.runs == 0:
            return 1.0
        return self.run_length_total / self.runs


def granule_statistics(addresses: Sequence[int] | np.ndarray) -> GranuleStats:
    """Compute run statistics for the word addresses of one granule."""
    arr = np.asarray(addresses, dtype=np.int64)
    if arr.size == 0:
        return GranuleStats(unique=0, isolated=0, runs=0, run_length_total=0)
    unique = np.unique(arr)  # sorted
    if unique.size == 1:
        return GranuleStats(unique=1, isolated=1, runs=0, run_length_total=0)
    # Split the sorted unique addresses into maximal consecutive runs.
    gaps = np.flatnonzero(np.diff(unique) != 1)
    # Segment lengths between gap boundaries.
    boundaries = np.concatenate(([-1], gaps, [unique.size - 1]))
    lengths = np.diff(boundaries)
    isolated = int(np.count_nonzero(lengths == 1))
    run_lengths = lengths[lengths >= 2]
    return GranuleStats(
        unique=int(unique.size),
        isolated=isolated,
        runs=int(run_lengths.size),
        run_length_total=int(run_lengths.sum()),
    )


class GranuleTable(NamedTuple):
    """Raw statistics of consecutive granules, one array entry each
    (the fields of :class:`GranuleStats`)."""

    unique: np.ndarray
    isolated: np.ndarray
    runs: np.ndarray
    run_length_total: np.ndarray

    def averages(self) -> "AverageStats":
        """Average the granules into (u(1), p1, lav), in granule order
        (so equal to averaging the granules one record at a time)."""
        unique, isolated, runs = self.unique, self.isolated, self.runs
        u1 = float(np.mean(unique))
        # p1 is "the average of the ratios of isolated references to unique
        # references over all granules" (Section 4.2).
        some = unique > 0
        p1 = float(np.mean(isolated[some] / unique[some])) if some.any() else 0.0
        lav = float(
            np.mean(
                np.where(
                    runs > 0, self.run_length_total / np.maximum(runs, 1), 1.0
                )
            )
        )
        return AverageStats(u1=u1, p1=p1, lav=lav, granules=len(unique))


def granule_table(
    words: np.ndarray, granule: np.ndarray, n_granules: int
) -> GranuleTable:
    """Statistics of every granule at once: ``words[i]`` is a word
    address of granule ``granule[i]`` (ids ``0..n_granules - 1``, any
    order; a granule may be empty)."""
    words = np.asarray(words, dtype=np.int64)
    empty = np.zeros(n_granules, dtype=np.int64)
    if not len(words):
        return GranuleTable(empty, empty, empty, empty)
    low = int(words.min())
    span = int(words.max()) - low + 2
    if n_granules * span >= 1 << 62:
        # Keys would overflow: number the distinct words instead, with
        # neighbours one apart and every other gap two.
        distinct, words = np.unique(words, return_inverse=True)
        steps = np.minimum(np.diff(distinct), 2)
        words = np.concatenate(([0], np.cumsum(steps)))[words]
        low, span = 0, int(words.max()) + 2
    # A span one wider than the words keeps each granule's last word
    # from neighbouring the next granule's first.
    keys = np.sort(granule.astype(np.int64) * span + (words - low))
    keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    owner = keys // span
    # Maximal runs of consecutive keys are runs of consecutive words.
    starts = np.flatnonzero(np.concatenate(([True], np.diff(keys) != 1)))
    lengths = np.diff(starts, append=len(keys))
    run_owner = owner[starts]
    long = lengths >= 2
    return GranuleTable(
        unique=np.bincount(owner, minlength=n_granules),
        isolated=np.bincount(run_owner[~long], minlength=n_granules),
        runs=np.bincount(run_owner[long], minlength=n_granules),
        run_length_total=np.bincount(
            run_owner[long], weights=lengths[long], minlength=n_granules
        ).astype(np.int64),
    )


class GranuleAccumulator:
    """Streaming accumulator of granule statistics.

    Feed word addresses with :meth:`feed`; every ``granule_size``
    references form a granule.  :meth:`finalize` measures the granules
    in one array pass (:func:`granule_table`) and returns the
    per-granule averages.

    A trailing partial granule is processed only if it holds at least half
    a granule of references — short tails would otherwise bias u(1) low.
    """

    def __init__(self, granule_size: int):
        if granule_size < 2:
            raise ConfigurationError(
                f"granule size must be >= 2, got {granule_size}"
            )
        self.granule_size = granule_size
        self._chunks: list[np.ndarray] = []
        self._fed = 0

    def feed(self, addresses: Iterable[int] | np.ndarray) -> None:
        """Append word addresses."""
        if not isinstance(addresses, np.ndarray):
            addresses = np.fromiter(addresses, np.int64)
        self._chunks.append(addresses.astype(np.int64, copy=False))
        self._fed += len(addresses)

    @property
    def complete_granules(self) -> int:
        return self._fed // self.granule_size

    @property
    def references(self) -> int:
        """References in complete granules."""
        return self.complete_granules * self.granule_size

    def finalize(self) -> "AverageStats":
        """Average the accumulated granules into (u(1), p1, lav).

        Raises :class:`ModelError` if no granule was completed — the
        parameters would be meaningless.
        """
        size = self.granule_size
        complete, tail = divmod(self._fed, size)
        n_granules = complete + (tail >= size // 2)
        if not n_granules:
            raise ModelError(
                "no complete granule accumulated; trace shorter than half "
                f"a granule ({size} references)"
            )
        words = np.concatenate(self._chunks)[: n_granules * size]
        granule = np.arange(len(words)) // size
        return granule_table(words, granule, n_granules).averages()


@dataclass(frozen=True)
class AverageStats:
    """Per-granule averages produced by :class:`GranuleAccumulator`."""

    u1: float
    p1: float
    lav: float
    granules: int
