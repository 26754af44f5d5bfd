"""Shared fixtures: tiny workloads and pipelines reused across test files."""

from __future__ import annotations

import pytest

from repro.cache.sweep import CHECKPOINT_NAMESPACE
from repro.experiments.pipeline import ExperimentPipeline
from repro.machine.mdes import MachineDescription
from repro.machine.presets import P1111, P6332
from repro.service.store import ResultStore
from repro.workloads.suite import tiny_workload


@pytest.fixture(scope="session")
def tiny():
    """A small validated workload (program + streams)."""
    return tiny_workload()


@pytest.fixture(scope="session")
def tiny_pipeline(tiny):
    """Pipeline over the tiny workload with a small visit budget."""
    return ExperimentPipeline(tiny, max_visits=4_000, i_granule=200, u_granule=800)


@pytest.fixture(scope="session")
def mdes_narrow():
    return MachineDescription(P1111)


@pytest.fixture(scope="session")
def mdes_wide():
    return MachineDescription(P6332)


@pytest.fixture
def checkpoint_store(tmp_path):
    """A fresh sqlite checkpoint store (``len`` counts checkpoint entries)."""
    return ResultStore(
        tmp_path / "checkpoint.sqlite", namespace=CHECKPOINT_NAMESPACE
    )
