"""The dilation model (Section 4): the paper's primary contribution.

Given cache simulation results on a *reference* processor's trace and a
handful of AHH trace parameters, estimate the cache misses any other
processor in the design space would incur — without generating or
simulating that processor's trace.

* :mod:`repro.core.dilation` — measuring text and per-block dilation from
  two linked binaries (Table 3, Figure 5);
* :mod:`repro.core.dilated_trace` — constructing the dilated reference
  trace of Section 4.1 step 2 (every block stretched by d, starts moved
  from B + O to B + d*O);
* :mod:`repro.core.interpolate` — Lemma 2's linear-in-collisions
  interpolation (Eq 4.11/4.12);
* :mod:`repro.core.estimator` — the three estimators: data cache
  (Eq 4.1), instruction cache (Lemma 1 + Eq 4.12), unified cache
  (Eqs 4.13-4.15);
* :mod:`repro.core.hierarchy_eval` — combining processor cycles and cache
  stalls into system execution time (Section 3.2).
"""

from repro.core.dilated_trace import dilate_binary
from repro.core.dilation import (
    DilationInfo,
    cumulative_distribution,
    measure_dilation,
)
from repro.core.estimator import DilationEstimator
from repro.core.hierarchy_eval import MissPenalties, SystemEvaluation, evaluate_system
from repro.core.interpolate import interpolate_linear_in

__all__ = [
    "DilationInfo",
    "measure_dilation",
    "cumulative_distribution",
    "dilate_binary",
    "interpolate_linear_in",
    "DilationEstimator",
    "MissPenalties",
    "SystemEvaluation",
    "evaluate_system",
]
