"""The top-level spacewalker (Figure 2 / Section 5).

Drives the whole flow: for every processor in the design space, obtain its
cycles, cost and text dilation from the provider (synthesis + compilation
+ linking under the hood), combine with memory-hierarchy Pareto designs
evaluated at that dilation, and accumulate a system-level Pareto set of
cost/performance-optimal designs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

from repro.explore.pareto import ParetoSet
from repro.explore.spec import SystemDesignSpace
from repro.explore.walkers import CacheWalker, MemoryDesign, MemoryWalker
from repro.explore.evaluators import MemoryEvaluator
from repro.machine.cost import processor_cost
from repro.machine.processor import VliwProcessor
from repro.runtime.journal import RunJournal


class DesignProvider(Protocol):
    """What the spacewalker needs from the synthesis/compilation stack."""

    def processor_cycles(self, processor: VliwProcessor) -> int:
        """Execution cycles of the application on the processor alone."""
        ...

    def dilation(self, processor: VliwProcessor) -> float:
        """Text dilation of the processor w.r.t. the reference."""
        ...

    def memory_evaluator(self) -> MemoryEvaluator:
        """The reference-trace miss oracle."""
        ...


@dataclass(frozen=True)
class SystemDesign:
    """One complete system: processor plus memory hierarchy."""

    processor: str
    memory: MemoryDesign


class Spacewalker:
    """Exhaustive system-level walk producing a Pareto set of systems."""

    def __init__(
        self,
        space: SystemDesignSpace,
        provider: DesignProvider,
        l1_penalty: float = 10.0,
        l2_penalty: float = 50.0,
        batched: bool = True,
        journal: RunJournal | None = None,
    ):
        self.space = space
        self.provider = provider
        self.l1_penalty = l1_penalty
        self.l2_penalty = l2_penalty
        self.batched = batched
        self.journal = journal

    def _memory_walker(self, evaluator: MemoryEvaluator) -> MemoryWalker:
        return MemoryWalker(
            CacheWalker(
                "icache", self.space.icache, evaluator, self.l1_penalty,
                batched=self.batched,
            ),
            CacheWalker(
                "dcache", self.space.dcache, evaluator, self.l1_penalty,
                batched=self.batched,
            ),
            CacheWalker(
                "unified", self.space.unified, evaluator, self.l1_penalty,
                batched=self.batched,
            ),
            l2_penalty=self.l2_penalty,
            batched=self.batched,
        )

    def walk(self) -> ParetoSet[SystemDesign]:
        """Evaluate every processor x memory-frontier combination."""
        if not self.batched:
            return self._walk_scalar()
        evaluator = self.provider.memory_evaluator()
        memory_walker = self._memory_walker(evaluator)
        processors = list(self.space.processors)
        cycles = [self.provider.processor_cycles(p) for p in processors]
        proc_costs = [processor_cost(p) for p in processors]
        # Processors with equal (rounded) dilation share one memory walk
        # (the paper's dilation intervals).
        dilations = [
            round(self.provider.dilation(p), 2) for p in processors
        ]
        unique_dils = tuple(dict.fromkeys(dilations))
        # Register every needed simulation before walking, so one prime()
        # can run all pending passes (in parallel when its policy fans out).
        evaluator.register_grid(
            "icache", self.space.icache.configurations(), unique_dils
        )
        evaluator.register_grid(
            "dcache", self.space.dcache.configurations(), (1.0,)
        )
        evaluator.register_grid(
            "unified", self.space.unified.configurations(), unique_dils
        )
        evaluator.prime(journal=self.journal)
        memory_cache = memory_walker.walk_many(unique_dils)
        pareto: ParetoSet[SystemDesign] = ParetoSet()
        for processor, n_cycles, proc_cost, dilation in zip(
            processors, cycles, proc_costs, dilations
        ):
            frontier = memory_cache[dilation].frontier()
            if not frontier:
                continue
            designs = [
                SystemDesign(processor=processor.name, memory=p.design)
                for p in frontier
            ]
            pareto.insert_many(
                designs,
                proc_cost + np.array([p.cost for p in frontier]),
                n_cycles + np.array([p.time for p in frontier]),
            )
        return pareto

    def _walk_scalar(self) -> ParetoSet[SystemDesign]:
        """Scalar reference path: per-point queries and insertions."""
        evaluator = self.provider.memory_evaluator()
        memory_walker = self._memory_walker(evaluator)
        pareto: ParetoSet[SystemDesign] = ParetoSet()
        # Memory Pareto sets are cached per dilation: processors with equal
        # dilation share one memory walk (the paper's dilation intervals).
        memory_cache: dict[float, ParetoSet[MemoryDesign]] = {}
        for processor in self.space.processors:
            cycles = self.provider.processor_cycles(processor)
            proc_cost = processor_cost(processor)
            dilation = round(self.provider.dilation(processor), 2)
            if dilation not in memory_cache:
                memory_cache[dilation] = memory_walker.walk(dilation)
            for memory_point in memory_cache[dilation].frontier():
                design = SystemDesign(
                    processor=processor.name, memory=memory_point.design
                )
                pareto.insert_point(
                    design,
                    cost=proc_cost + memory_point.cost,
                    time=cycles + memory_point.time,
                )
        return pareto
