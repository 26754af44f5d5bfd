"""Design-space exploration (Section 5's spacewalker software stack).

Layers mirror Figure 4: design-space specifications feed *walkers*, which
insert candidate designs into *Pareto sets*; evaluations go through a
persistent *evaluation cache* (the sqlite
:class:`~repro.service.store.ResultStore`) backed by *evaluators* that
either compute metrics internally (cache area, dilation-model misses) or
run simulations.
"""

from repro.explore.evaluators import (
    EvaluationCosts,
    MemoryEvaluator,
    exhaustive_evaluation_hours,
    hierarchical_evaluation_hours,
)
from repro.explore.pareto import ParetoPoint, ParetoSet
from repro.explore.spec import (
    CacheDesignSpace,
    ProcessorDesignSpace,
    SystemDesignSpace,
)
from repro.explore.spacewalker import Spacewalker, SystemDesign
from repro.explore.walkers import (
    CacheWalker,
    MemoryDesign,
    MemoryWalker,
    ProcessorWalker,
)

__all__ = [
    "CacheDesignSpace",
    "ProcessorDesignSpace",
    "SystemDesignSpace",
    "ParetoPoint",
    "ParetoSet",
    "MemoryEvaluator",
    "EvaluationCosts",
    "exhaustive_evaluation_hours",
    "hierarchical_evaluation_hours",
    "CacheWalker",
    "MemoryDesign",
    "MemoryWalker",
    "ProcessorWalker",
    "Spacewalker",
    "SystemDesign",
]
