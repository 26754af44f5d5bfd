"""The AHH analytic cache model (Agarwal, Horowitz, Hennessy [11]).

The dilation model does not use AHH to *replace* simulation — the paper is
explicit that AHH alone is not accurate enough — but to interpolate and
extrapolate from reference-trace simulations to dilated-trace behaviour
(Section 4.2/4.3).  This package provides:

* :mod:`repro.ahh.granules` — single-pass extraction of the basic trace
  parameters u(1), p1, lav from granules of word addresses;
* :mod:`repro.ahh.params` — parameter containers with derived quantities
  (p2, u(L));
* :mod:`repro.ahh.model` — the analytic machinery: occupancy probabilities
  P(L,a), collisions Coll(S,A,L), and miss-ratio scaling (Eq 4.7);
* :mod:`repro.ahh.stable` — the numerically stable tail-series collision
  computation the paper describes in Section 5.3;
* :mod:`repro.ahh.batch` — the vectorized/memoized collision kernel the
  batched exploration layer queries over whole (config x dilation) grids;
* :mod:`repro.ahh.modeler` — the TraceModeler driver (ItraceModeler /
  UtraceModeler of Section 5.2) operating on range traces.
"""

from repro.ahh.batch import (
    clear_collisions_batch_cache,
    collisions_batch,
    collisions_batch_cache_size,
)
from repro.ahh.extended import (
    ExtendedItraceModeler,
    MissBreakdown,
    standalone_miss_estimate,
)
from repro.ahh.granules import GranuleAccumulator, granule_statistics
from repro.ahh.model import (
    collisions,
    occupancy_pmf,
    scale_misses,
    transition_probability,
    unique_lines,
    unique_lines_array,
)
from repro.ahh.modeler import (
    ItraceModeler,
    UtraceModeler,
    derive_trace_parameters,
)
from repro.ahh.params import ComponentParameters, TraceParameters
from repro.ahh.stable import collisions_direct, collisions_stable

__all__ = [
    "GranuleAccumulator",
    "granule_statistics",
    "ComponentParameters",
    "TraceParameters",
    "transition_probability",
    "unique_lines",
    "unique_lines_array",
    "occupancy_pmf",
    "collisions",
    "collisions_batch",
    "collisions_batch_cache_size",
    "clear_collisions_batch_cache",
    "collisions_direct",
    "collisions_stable",
    "scale_misses",
    "ItraceModeler",
    "UtraceModeler",
    "derive_trace_parameters",
    "ExtendedItraceModeler",
    "MissBreakdown",
    "standalone_miss_estimate",
]
