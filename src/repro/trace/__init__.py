"""Emulation, event traces and address-trace generation (Section 3.3).

The pipeline mirrors the paper's memory simulation system (Figure 3):

* :mod:`repro.trace.emulator` plays the emulator + execution engine: it
  executes a program's control flow and emits an *event trace* (blocks
  entered, branch directions, load/store data addresses).  The event trace
  depends on the scheduled code but not on the instruction format or
  binary layout.
* :mod:`repro.trace.generator` plays the trace generator: it maps the
  event trace through a processor's linked binary to instruction, data or
  joint (unified) *address traces*.
* :mod:`repro.trace.ranges` defines the compact range-trace representation
  consumed by the cache simulators and the AHH modeler.
* :mod:`repro.trace.sampling` implements trace sampling: the paper's
  initial-segment truncation (Section 5.2) plus interval sampling with
  warm-up and extrapolation (arXiv 2402.00649).
* :mod:`repro.trace.chunkstore` is the chunked, compressed, mmap-able
  on-disk trace format for traces larger than memory.
"""

from repro.trace.chunkstore import (
    ChunkedTrace,
    ChunkedTraceWriter,
    write_chunked,
)
from repro.trace.datamodel import DataAddressModel, StreamSpec
from repro.trace.emulator import Emulator, emulate
from repro.trace.events import EventKind, EventTrace
from repro.trace.generator import TraceGenerator
from repro.trace.ranges import KIND_DATA, KIND_INSTR, RangeTrace
from repro.trace.sampling import (
    SampledEstimate,
    SamplePlan,
    SampleWindow,
    extrapolate,
    plan_windows,
    sample_events,
    sample_events_plan,
)

__all__ = [
    "EventKind",
    "EventTrace",
    "Emulator",
    "emulate",
    "DataAddressModel",
    "StreamSpec",
    "TraceGenerator",
    "RangeTrace",
    "KIND_INSTR",
    "KIND_DATA",
    "sample_events",
    "sample_events_plan",
    "SamplePlan",
    "SampleWindow",
    "SampledEstimate",
    "plan_windows",
    "extrapolate",
    "ChunkedTrace",
    "ChunkedTraceWriter",
    "write_chunked",
]
