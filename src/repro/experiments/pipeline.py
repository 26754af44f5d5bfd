"""Per-benchmark evaluation pipeline with memoized artifacts.

One :class:`ExperimentPipeline` owns a workload and lazily produces, per
processor, two memoized parts:

* the **binary part** (:class:`ProcessorBinary`) — machine description,
  compiled program and synthesized/linked binary.  Every processor the
  pipeline is asked about gets one; dilation (Lemma 1, Eqs 4.12–4.15)
  and processor cycles (Section 3.2) need nothing more;
* the **trace part** — the processor's own (decorated) event trace and
  its three address traces, completing :class:`ProcessorArtifacts`.
  Only a processor whose own trace is simulated needs it: the reference
  (every cache query), actual-miss measurements and the validation
  experiments.  A design-space exploration emulates the reference once.

Processor cycles take the reference trace's visit counts: the block
visit sequence depends only on (program, seed, budget), never on the
compiled program (see :mod:`repro.trace.emulator`).  Compilations share
one dependence-graph cache for the pipeline's lifetime.

The pipeline answers the three miss questions of Section 6:

* **actual**   — simulate the processor's own traces;
* **dilated**  — simulate the reference trace with every block stretched
  by the text dilation (Section 4.1 step 2, via
  :func:`repro.core.dilated_trace.dilate_binary`);
* **estimated** — the dilation model (Section 4.3), answered internally
  from reference-trace simulations and AHH parameters.

The pipeline also satisfies the
:class:`repro.explore.spacewalker.DesignProvider` protocol, so a
spacewalker can drive it directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping

from repro.ahh.modeler import (
    DEFAULT_I_GRANULE,
    DEFAULT_U_GRANULE,
    derive_trace_parameters,
)
from repro.ahh.params import TraceParameters
from repro.cache.config import WORD_BYTES, CacheConfig
from repro.core.dilated_trace import dilate_binary
from repro.core.dilation import DilationInfo, measure_dilation
from repro.core.hierarchy_eval import processor_cycles
from repro.errors import ConfigurationError
from repro.explore.evaluators import ROLES, MemoryEvaluator, prime_banks
from repro.iformat.assembler import assemble
from repro.iformat.linker import Binary, link
from repro.machine.mdes import MachineDescription
from repro.machine.presets import REFERENCE_PROCESSOR
from repro.machine.processor import VliwProcessor
from repro.runtime.executor import ExecutorPolicy
from repro.runtime.journal import RunJournal
from repro.trace.emulator import Emulator
from repro.trace.events import EventTrace
from repro.trace.generator import TraceGenerator
from repro.trace.ranges import RangeTrace
from repro.vliwcomp.compile import CompiledProgram, compile_program
from repro.vliwcomp.depgraph import GraphCache
from repro.workloads.suite import Workload


@dataclass(frozen=True)
class ProcessorBinary:
    """The binary part of one (workload, processor) pair."""

    processor: VliwProcessor
    mdes: MachineDescription
    compiled: CompiledProgram
    binary: Binary


@dataclass(frozen=True)
class ProcessorArtifacts(ProcessorBinary):
    """Everything derived for one (workload, processor) pair: the binary
    part plus the processor's own event trace and address traces."""

    events: EventTrace
    instruction_trace: RangeTrace
    data_trace: RangeTrace
    unified_trace: RangeTrace

    def trace(self, role: str) -> RangeTrace:
        """The address trace a given cache role consumes."""
        if role == "icache":
            return self.instruction_trace
        if role == "dcache":
            return self.data_trace
        if role == "unified":
            return self.unified_trace
        raise ConfigurationError(f"unknown role {role!r}")


class ExperimentPipeline:
    """Memoized end-to-end evaluation for one workload."""

    def __init__(
        self,
        workload: Workload,
        reference: VliwProcessor = REFERENCE_PROCESSOR,
        seed: int = 1,
        max_visits: int = 60_000,
        i_granule: int = DEFAULT_I_GRANULE,
        u_granule: int = DEFAULT_U_GRANULE,
        policy: ExecutorPolicy = ExecutorPolicy(),
    ):
        self.workload = workload
        self.reference = reference
        self.seed = seed
        self.max_visits = max_visits
        self.i_granule = i_granule
        self.u_granule = u_granule
        #: Workers, timeout and retries of every simulation bank's priming.
        self.policy = policy
        # Per-processor memos are keyed by the processor itself (every
        # field), never by its name: a predicated "2111" is not a plain
        # "2111" and must not reuse its binary or skip its checks.
        self._binaries: dict[VliwProcessor, ProcessorBinary] = {}
        self._artifacts: dict[VliwProcessor, ProcessorArtifacts] = {}
        # Dependence graphs shared by every compilation of the workload.
        self._graphs: GraphCache = {}
        self._dilation_infos: dict[VliwProcessor, DilationInfo] = {}
        self._cycles: dict[VliwProcessor, int] = {}
        self._params: TraceParameters | None = None
        self._ref_evaluator: MemoryEvaluator | None = None
        # MemoryEvaluators used as pure simulation banks, keyed by the
        # trace source: ("actual", processor) or a dilation
        # ("dilated:<d>").
        self._sim_banks: dict[Hashable, MemoryEvaluator] = {}
        # Optional analytics sink: every actual/dilated/estimated miss
        # measurement also lands as one run-table row when attached.
        self._recorder = None

    # ------------------------------------------------------------------
    # Run recording.
    # ------------------------------------------------------------------

    def attach_recorder(self, recorder) -> "ExperimentPipeline":
        """Record every miss measurement into ``recorder``.

        ``recorder`` is a :class:`repro.analytics.runs.RunRecorder`
        (duck-typed: anything with ``add_row``).  Recording is purely
        additive — it never changes what the measurement methods
        compute or return.  Detach with ``attach_recorder(None)``.
        """
        self._recorder = recorder
        return self

    def _record_misses(
        self,
        source: str,
        role: str,
        misses: Mapping[CacheConfig, float],
        **extra,
    ) -> None:
        if self._recorder is None:
            return
        for config, count in misses.items():
            self._recorder.add_row(
                benchmark=self.workload.name,
                role=role,
                sets=config.sets,
                assoc=config.assoc,
                line_size=config.line_size,
                misses=float(count),
                estimated=source == "estimated",
                source=source,
                **extra,
            )

    # ------------------------------------------------------------------
    # Artifact construction.
    # ------------------------------------------------------------------

    def processor_binary(self, processor: VliwProcessor) -> ProcessorBinary:
        """Compile, assemble and link for ``processor`` (memoized)."""
        cached = self._binaries.get(processor)
        if cached is not None:
            return cached
        if not processor.compatible_reference(self.reference):
            raise ConfigurationError(
                f"processor {processor.name} and reference "
                f"{self.reference.name} differ in predication/speculation "
                "features; the dilation model requires one reference per "
                "feature combination (Section 4.1)"
            )
        mdes = MachineDescription(processor)
        compiled = compile_program(
            self.workload.program, mdes, graphs=self._graphs
        )
        assembled = assemble(compiled)
        binary = link(
            self.workload.program,
            assembled,
            packet_bytes=processor.issue_width * WORD_BYTES,
            processor_name=processor.name,
        )
        part = ProcessorBinary(
            processor=processor, mdes=mdes, compiled=compiled, binary=binary
        )
        self._binaries[processor] = part
        return part

    def artifacts(self, processor: VliwProcessor) -> ProcessorArtifacts:
        """The binary part plus ``processor``'s own emulated event trace
        and address traces (memoized).

        Only a processor whose own trace is simulated needs this;
        dilation and cycles read :meth:`processor_binary` alone.
        """
        cached = self._artifacts.get(processor)
        if cached is not None:
            return cached
        part = self.processor_binary(processor)
        events = Emulator(
            self.workload.program, self.workload.streams, seed=self.seed
        ).run(self.max_visits, compiled=part.compiled)
        generator = TraceGenerator(part.binary, events)
        artifacts = ProcessorArtifacts(
            processor=part.processor,
            mdes=part.mdes,
            compiled=part.compiled,
            binary=part.binary,
            events=events,
            instruction_trace=generator.instruction_trace(),
            data_trace=generator.data_trace(),
            unified_trace=generator.unified_trace(),
        )
        self._artifacts[processor] = artifacts
        return artifacts

    def reference_artifacts(self) -> ProcessorArtifacts:
        """Artifacts of the reference processor."""
        return self.artifacts(self.reference)

    # ------------------------------------------------------------------
    # Dilation and trace parameters.
    # ------------------------------------------------------------------

    def dilation_info(self, processor: VliwProcessor) -> DilationInfo:
        """Per-block and text dilation of ``processor`` vs the reference
        (cached — binaries are fixed once built)."""
        info = self._dilation_infos.get(processor)
        if info is None:
            info = measure_dilation(
                self.processor_binary(self.reference).binary,
                self.processor_binary(processor).binary,
            )
            self._dilation_infos[processor] = info
        return info

    def dilation(self, processor: VliwProcessor) -> float:
        """Text dilation d (DesignProvider protocol)."""
        if processor == self.reference:
            return 1.0
        return self.dilation_info(processor).text_dilation

    def trace_parameters(self) -> TraceParameters:
        """The nine AHH parameters of the reference trace (cached)."""
        if self._params is None:
            ref = self.reference_artifacts()
            self._params = derive_trace_parameters(
                ref.instruction_trace,
                ref.unified_trace,
                i_granule=self.i_granule,
                u_granule=self.u_granule,
            )
        return self._params

    def memory_evaluator(self) -> MemoryEvaluator:
        """Reference-trace miss oracle (DesignProvider protocol)."""
        if self._ref_evaluator is None:
            ref = self.reference_artifacts()
            self._ref_evaluator = MemoryEvaluator(
                ref.instruction_trace,
                ref.data_trace,
                ref.unified_trace,
                self.trace_parameters(),
                policy=self.policy,
            )
        return self._ref_evaluator

    def processor_cycles(self, processor: VliwProcessor) -> int:
        """Schedule-length cycles (DesignProvider protocol, cached).

        ``processor``'s schedule lengths times the reference trace's
        visit counts, which every processor shares (see the module
        docstring), so no processor but the reference is emulated.
        """
        cycles = self._cycles.get(processor)
        if cycles is None:
            cycles = processor_cycles(
                self.processor_binary(processor).compiled,
                self.reference_artifacts().events,
            )
            self._cycles[processor] = cycles
        return cycles

    # ------------------------------------------------------------------
    # The three miss measurements.
    # ------------------------------------------------------------------

    def actual_misses(
        self,
        processor: VliwProcessor,
        role: str,
        configs: Iterable[CacheConfig],
    ) -> dict[CacheConfig, int]:
        """Simulate ``processor``'s own traces (ground truth)."""
        bank = self._actual_bank(processor)
        configs = list(configs)
        bank.register(role, configs)
        bank.prime()
        misses = {c: bank.simulated_misses(role, c) for c in configs}
        self._record_misses(
            "actual", role, misses, processor=processor.name
        )
        return misses

    def prime_actual(
        self,
        processors: Iterable[VliwProcessor],
        role_configs: Mapping[str, Iterable[CacheConfig]],
        journal: RunJournal | None = None,
    ) -> int:
        """Pre-run the simulations :meth:`actual_misses` will need.

        One work unit per (processor, role, line size); when the
        pipeline's policy fans out, the units run concurrently in worker
        processes (:func:`~repro.explore.evaluators.prime_banks`; each
        distinct trace is spilled to one temporary file), and their
        single-pass histogram states are merged back into the
        per-processor simulation banks.  Worker faults cost retries (or
        an in-process fallback), and subsequent :meth:`actual_misses`
        calls are pure lookups either way, so results are identical to
        the serial path.

        Artifact construction (compile/assemble/emulate/trace) stays in
        the parent process — it is memoized and shared across roles.

        Returns the number of simulation passes run.
        """
        role_configs = {
            role: list(configs) for role, configs in role_configs.items()
        }
        banks = list(dict.fromkeys(self._actual_bank(p) for p in processors))
        for bank in banks:
            for role, configs in role_configs.items():
                bank.register(role, configs)
        return prime_banks(banks, self.policy, journal)

    def dilated_misses(
        self,
        dilation: float,
        role: str,
        configs: Iterable[CacheConfig],
    ) -> dict[CacheConfig, int]:
        """Simulate the reference trace dilated by ``dilation``.

        The data component is not dilated (Section 4.3.2): data-role
        queries return the plain reference simulation.
        """
        key = f"dilated:{dilation:g}"
        if role == "dcache" or dilation == 1.0:
            bank = self._actual_bank(self.reference)
        elif key in self._sim_banks:
            bank = self._sim_banks[key]
        else:
            ref = self.reference_artifacts()
            dilated_binary = dilate_binary(ref.binary, dilation)
            generator = TraceGenerator(dilated_binary, ref.events)
            bank = self._bank(
                key,
                generator.instruction_trace(),
                ref.data_trace,
                generator.unified_trace(),
            )
        configs = list(configs)
        bank.register(role, configs)
        bank.prime()
        misses = {c: bank.simulated_misses(role, c) for c in configs}
        self._record_misses("dilated", role, misses, dilation=dilation)
        return misses

    def estimated_misses(
        self,
        dilation: float,
        role: str,
        configs: Iterable[CacheConfig],
    ) -> dict[CacheConfig, float]:
        """The dilation model's estimates (Section 4.3)."""
        evaluator = self.memory_evaluator()
        misses = {
            c: evaluator.misses(role, c, dilation) for c in configs
        }
        self._record_misses("estimated", role, misses, dilation=dilation)
        return misses

    def _actual_bank(self, processor: VliwProcessor) -> MemoryEvaluator:
        """The simulation bank over ``processor``'s own traces."""
        art = self.artifacts(processor)
        return self._bank(
            ("actual", processor),
            art.instruction_trace,
            art.data_trace,
            art.unified_trace,
        )

    def _bank(
        self,
        key: Hashable,
        instruction_trace: RangeTrace,
        data_trace: RangeTrace,
        unified_trace: RangeTrace,
    ) -> MemoryEvaluator:
        """The memoized simulation bank ``key`` (under our policy)."""
        bank = self._sim_banks.get(key)
        if bank is None:
            bank = MemoryEvaluator(
                instruction_trace,
                data_trace,
                unified_trace,
                params=None,
                policy=self.policy,
            )
            self._sim_banks[key] = bank
        return bank

    @staticmethod
    def roles() -> tuple[str, ...]:
        return ROLES
