"""Measuring dilation between a reference and a target binary.

"Let the dilation of a basic block be the ratio of the size of a basic
block in Pi to that in Pref and text dilation d be the ratio of the
overall text size of the benchmark in Pi to that in Pref" (Section 4.1).

The model assumes uniform dilation (every block dilated by the text
dilation); :func:`measure_dilation` also returns the per-block ratios so
the validity of that assumption can be examined (Figure 5's static and
dynamic cumulative distributions, Section 6.3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ModelError
from repro.iformat.linker import Binary


@dataclass(frozen=True)
class DilationInfo:
    """Dilation measurements of one (reference, target) binary pair."""

    #: Ratio of linked text sizes (the model's dilation coefficient d).
    text_dilation: float
    #: (procedure name, block id) keys, aligned with ``block_dilations``.
    block_keys: tuple[tuple[str, int], ...]
    #: Per-block size ratios target/reference.
    block_dilations: np.ndarray

    @property
    def mean_block_dilation(self) -> float:
        return float(np.mean(self.block_dilations))

    def static_distribution(self, thresholds: np.ndarray) -> np.ndarray:
        """Fraction of blocks with dilation <= each threshold (Figure 5)."""
        return cumulative_distribution(self.block_dilations, None, thresholds)

    def dynamic_distribution(
        self, weights: dict[tuple[str, int], int] | np.ndarray,
        thresholds: np.ndarray,
    ) -> np.ndarray:
        """Execution-weighted fraction of blocks with dilation <= threshold.

        ``weights`` is either an array aligned with ``block_keys`` or a
        mapping from block key to dynamic execution count.
        """
        if isinstance(weights, dict):
            weights = np.asarray(
                [weights.get(key, 0) for key in self.block_keys], dtype=float
            )
        return cumulative_distribution(
            self.block_dilations, weights, thresholds
        )


def measure_dilation(reference: Binary, target: Binary) -> DilationInfo:
    """Compare two binaries of the same program block by block."""
    if reference.program_name != target.program_name:
        raise ModelError(
            f"binaries are for different programs: "
            f"{reference.program_name!r} vs {target.program_name!r}"
        )
    if reference.text_size == 0:
        raise ModelError("reference binary has no text")
    ref_sizes = np.asarray(reference.sizes, dtype=float)
    if target.index is reference.index:
        tgt_sizes = np.asarray(target.sizes, dtype=float)
    else:
        tgt_sizes = np.asarray(
            [target.sizes[target.index[key]] for key in reference.index],
            dtype=float,
        )
    return DilationInfo(
        text_dilation=target.text_size / reference.text_size,
        block_keys=tuple(reference.index),
        block_dilations=tgt_sizes / ref_sizes,
    )


def cumulative_distribution(
    values: np.ndarray,
    weights: np.ndarray | None,
    thresholds: np.ndarray,
) -> np.ndarray:
    """Weighted CDF of ``values`` evaluated at ``thresholds``.

    With unit weights this is the static distribution of Figure 5; with
    dynamic execution counts, the dynamic distribution.  An all-zero
    weight vector (no block ever executed) raises :class:`ModelError`.
    """
    values = np.asarray(values, dtype=float)
    if weights is None:
        weights = np.ones_like(values)
    weights = np.asarray(weights, dtype=float)
    total = weights.sum()
    if total <= 0:
        raise ModelError("weights sum to zero; distribution undefined")
    order = np.argsort(values)
    sorted_values = values[order]
    cum = np.cumsum(weights[order]) / total
    out = np.empty(len(thresholds), dtype=float)
    for i, threshold in enumerate(np.asarray(thresholds, dtype=float)):
        idx = np.searchsorted(sorted_values, threshold, side="right")
        out[i] = cum[idx - 1] if idx else 0.0
    return out
