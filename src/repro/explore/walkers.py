"""Walkers: enumerate design spaces into Pareto sets (Section 5.3).

"The MemoryWalker delegates the evaluation of the instruction cache, data
cache and unified cache design spaces to the IcacheWalker, DcacheWalker
and UcacheWalker respectively.  Currently, the method
IcacheWalker::step() evaluates all design points ... and builds a set of
Pareto sets, each Pareto set parameterized by dilation intervals."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.cache.area import cache_cost
from repro.cache.config import CacheConfig
from repro.cache.inclusion import satisfies_inclusion
from repro.explore.evaluators import ROLES, MemoryEvaluator
from repro.explore.pareto import ParetoPoint, ParetoSet
from repro.explore.spec import CacheDesignSpace, ProcessorDesignSpace
from repro.errors import ConfigurationError
from repro.machine.cost import processor_cost
from repro.machine.processor import VliwProcessor


class CacheWalker:
    """Exhaustively walk one cache design space for one trace role.

    ``walk`` returns one Pareto set per requested dilation (the paper's
    "Pareto set parameterized by dilation intervals"): a cache that is
    Pareto-optimal at dilation 1 may lose its spot at dilation 3, because
    dilation shifts the miss counts configuration-dependently.
    """

    def __init__(
        self,
        role: str,
        space: CacheDesignSpace,
        evaluator: MemoryEvaluator,
        miss_penalty: float = 10.0,
        batched: bool = True,
    ):
        if role not in ROLES:
            raise ConfigurationError(
                f"unknown role {role!r}; expected one of {ROLES}"
            )
        self.role = role
        self.space = space
        self.evaluator = evaluator
        self.miss_penalty = miss_penalty
        self.batched = batched

    def step_scalar(self, dilation: float = 1.0) -> ParetoSet[CacheConfig]:
        """Scalar reference path: one miss query per design point."""
        configs = self.space.configurations()
        self.evaluator.register(self.role, configs)
        pareto: ParetoSet[CacheConfig] = ParetoSet()
        for config in configs:
            misses = self.evaluator.misses(self.role, config, dilation)
            pareto.insert_point(
                config,
                cost=cache_cost(config),
                time=misses * self.miss_penalty,
            )
        return pareto

    def step(
        self, dilation: float = 1.0
    ) -> ParetoSet[CacheConfig]:
        """Evaluate every design point at one dilation."""
        if not self.batched:
            return self.step_scalar(dilation)
        return self.walk((dilation,))[dilation]

    def walk(
        self, dilations: tuple[float, ...] = (1.0,)
    ) -> dict[float, ParetoSet[CacheConfig]]:
        """One Pareto set per dilation (the paper's dilation intervals).

        On the batched path all dilations are answered by a single
        :meth:`MemoryEvaluator.misses_batch` grid query and each Pareto
        set is built with one skyline pass.
        """
        if not self.batched:
            return {d: self.step_scalar(d) for d in dilations}
        configs = self.space.configurations()
        costs = np.array([cache_cost(c) for c in configs])
        grid = self.evaluator.misses_batch(self.role, configs, dilations)
        return {
            d: ParetoSet.from_arrays(
                configs, costs, grid[:, j] * self.miss_penalty
            )
            for j, d in enumerate(dilations)
        }


class ProcessorWalker:
    """Walk the VLIW processor space on (cost, processor cycles).

    Processor cycles come from the caller-provided evaluation function —
    schedule lengths weighted by profile counts in practice (Section 3.2).
    """

    def __init__(
        self,
        space: ProcessorDesignSpace,
        cycles_fn: Callable[[VliwProcessor], float],
    ):
        self.space = space
        self.cycles_fn = cycles_fn

    def walk(self) -> ParetoSet[str]:
        """Evaluate every processor on (cost, cycles)."""
        pareto: ParetoSet[str] = ParetoSet()
        for processor in self.space:
            pareto.insert_point(
                processor.name,
                cost=processor_cost(processor),
                time=float(self.cycles_fn(processor)),
            )
        return pareto


@dataclass(frozen=True)
class MemoryDesign:
    """A legal L1-I / L1-D / L2-unified combination."""

    icache: CacheConfig
    dcache: CacheConfig
    unified: CacheConfig


class MemoryWalker:
    """Combine per-cache Pareto frontiers into memory-hierarchy designs.

    Only combinations drawn from the component frontiers are considered
    (any hierarchy containing a dominated component is itself dominated,
    because costs and stalls are additive), and inclusion between each L1
    and the L2 is enforced (Section 3.1).
    """

    def __init__(
        self,
        icache_walker: CacheWalker,
        dcache_walker: CacheWalker,
        ucache_walker: CacheWalker,
        l2_penalty: float = 50.0,
        batched: bool = True,
    ):
        self.icache_walker = icache_walker
        self.dcache_walker = dcache_walker
        self.ucache_walker = ucache_walker
        self.l2_penalty = l2_penalty
        self.batched = batched
        # Inclusion is a pure predicate on (L1, L2) config pairs and the
        # same pairs recur across every dilation's combine.
        self._inclusion_cache: dict[
            tuple[CacheConfig, CacheConfig], bool
        ] = {}

    def _inclusion(self, l1: CacheConfig, l2: CacheConfig) -> bool:
        key = (l1, l2)
        cached = self._inclusion_cache.get(key)
        if cached is None:
            cached = satisfies_inclusion(l1, l2)
            self._inclusion_cache[key] = cached
        return cached

    def walk(self, dilation: float = 1.0) -> ParetoSet[MemoryDesign]:
        """Combine component frontiers into hierarchy designs."""
        ic_pareto = self.icache_walker.step(dilation)
        dc_pareto = self.dcache_walker.step(1.0)  # Eq 4.1: d-independent
        uc_pareto = self.ucache_walker.step(dilation)
        return self._combine(ic_pareto, dc_pareto, uc_pareto)

    def walk_many(
        self, dilations: tuple[float, ...]
    ) -> dict[float, ParetoSet[MemoryDesign]]:
        """One hierarchy Pareto set per dilation.

        The component walks for all dilations are answered by one miss
        grid per cache role, so the evaluator's dilation model runs once
        over each whole (config x dilation) grid.
        """
        dils = tuple(dilations)
        ic_sets = self.icache_walker.walk(dils)
        dc_pareto = self.dcache_walker.step(1.0)  # Eq 4.1: d-independent
        uc_sets = self.ucache_walker.walk(dils)
        return {
            d: self._combine(ic_sets[d], dc_pareto, uc_sets[d])
            for d in dils
        }

    def _combine(
        self,
        ic_pareto: ParetoSet[CacheConfig],
        dc_pareto: ParetoSet[CacheConfig],
        uc_pareto: ParetoSet[CacheConfig],
    ) -> ParetoSet[MemoryDesign]:
        if not self.batched:
            return self._combine_scalar(ic_pareto, dc_pareto, uc_pareto)
        ics = ic_pareto.frontier()
        dcs = dc_pareto.frontier()
        ucs = uc_pareto.frontier()
        pareto: ParetoSet[MemoryDesign] = ParetoSet()
        if not (ics and dcs and ucs):
            return pareto
        # Inclusion is pairwise L1-vs-L2; two boolean matrices cover the
        # whole ic x dc x uc cross product.
        inc_iu = np.array(
            [
                [self._inclusion(ic.design, uc.design) for uc in ucs]
                for ic in ics
            ],
            dtype=bool,
        )
        inc_du = np.array(
            [
                [self._inclusion(dc.design, uc.design) for uc in ucs]
                for dc in dcs
            ],
            dtype=bool,
        )
        legal = inc_iu[:, None, :] & inc_du[None, :, :]
        ic_cost = np.array([p.cost for p in ics])
        dc_cost = np.array([p.cost for p in dcs])
        uc_cost = np.array([p.cost for p in ucs])
        ic_time = np.array([p.time for p in ics])
        dc_time = np.array([p.time for p in dcs])
        # Component times already include the L1 penalty; the unified
        # walker used the L1 penalty too, so rescale.
        uc_scaled = (
            np.array([p.time for p in ucs]) / self.ucache_walker.miss_penalty
        ) * self.l2_penalty
        cost = (
            ic_cost[:, None, None]
            + dc_cost[None, :, None]
            + uc_cost[None, None, :]
        )
        time = (
            ic_time[:, None, None]
            + dc_time[None, :, None]
            + uc_scaled[None, None, :]
        )
        # np.nonzero walks the grid in row-major (ic, dc, uc) order —
        # the same order the scalar triple loop offers candidates in.
        ii, jj, kk = np.nonzero(legal)
        # Offer compact index triples and materialize MemoryDesign only
        # for survivors; most candidates are dominated and never need a
        # design object.
        candidates = list(zip(ii.tolist(), jj.tolist(), kk.tolist()))
        pareto.insert_many(candidates, cost[legal], time[legal])
        pareto.points = [
            ParetoPoint(
                MemoryDesign(
                    ics[point.design[0]].design,
                    dcs[point.design[1]].design,
                    ucs[point.design[2]].design,
                ),
                point.cost,
                point.time,
            )
            for point in pareto.points
        ]
        return pareto

    def _combine_scalar(
        self,
        ic_pareto: ParetoSet[CacheConfig],
        dc_pareto: ParetoSet[CacheConfig],
        uc_pareto: ParetoSet[CacheConfig],
    ) -> ParetoSet[MemoryDesign]:
        pareto: ParetoSet[MemoryDesign] = ParetoSet()
        for ic in ic_pareto.frontier():
            for dc in dc_pareto.frontier():
                for uc in uc_pareto.frontier():
                    if not satisfies_inclusion(ic.design, uc.design):
                        continue
                    if not satisfies_inclusion(dc.design, uc.design):
                        continue
                    design = MemoryDesign(ic.design, dc.design, uc.design)
                    # Component times already include the L1 penalty; the
                    # unified walker used the L1 penalty too, so rescale.
                    uc_time = uc.time / self.ucache_walker.miss_penalty
                    time = ic.time + dc.time + uc_time * self.l2_penalty
                    cost = ic.cost + dc.cost + uc.cost
                    pareto.insert_point(design, cost=cost, time=time)
        return pareto
