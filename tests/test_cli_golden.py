"""Golden stdout of the ``repro sweep`` and ``repro explore`` commands
that the README and CI run.

Each digest is the sha256 of the exact bytes the command prints.  They
were recorded when the CLI still ran its own sweep and Pareto walk, so
they also pin that running both as in-process
:func:`repro.service.jobs.execute_job` clients prints the same bytes.
"""

import hashlib

import pytest

from repro.cli import main
from repro.experiments.runner import clear_pipeline_cache

SWEEP = ["sweep", "--benchmarks", "epic", "--scale", "0.25"]

#: sha256 of the CI sweep's stdout (also every ``--checkpoint`` run).
CI_SWEEP = "99a91056b55c12ca94a7481138295c09c79b447d41293dd3adb9056c8d7d6ae1"
SAMPLED_SWEEP = (
    "c1b9d22649f4a4a42b02ae6c85ff018a4f778a97f2a2e81b6900cd7b5f654ca3"
)
README_SWEEP = (
    "b883a583a6734edac45f5b8bd3e0e4594779276da3bab4d65a04f50b38a197bb"
)
TINY_EXPLORE = (
    "785caac7e912685605cf5d89dca527de1c240729d7bcff3f14e3b37b13f67789"
)
README_EXPLORE = (
    "b062d98c2da216d25b94df4eba040c9419a328958560a2988fe478e6b5d292a3"
)


@pytest.fixture(scope="module", autouse=True)
def _drop_pipelines():
    """Drop the pipelines the commands memoized, with their traces."""
    yield
    clear_pipeline_cache()


def stdout_digest(capsys, argv):
    assert main(argv) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


def test_ci_sweep(capsys):
    assert stdout_digest(capsys, SWEEP) == CI_SWEEP


def test_sampled_sweep(capsys):
    argv = [*SWEEP, "--sample-intervals", "4"]
    assert stdout_digest(capsys, argv) == SAMPLED_SWEEP


def test_checkpoint_run_and_rerun(capsys, tmp_path):
    argv = [*SWEEP, "--checkpoint", str(tmp_path / "ck.sqlite")]
    assert stdout_digest(capsys, argv) == CI_SWEEP
    assert stdout_digest(capsys, argv) == CI_SWEEP


def test_readme_sweep(capsys):
    assert stdout_digest(capsys, ["sweep", "--benchmarks", "epic"]) == (
        README_SWEEP
    )


def test_explore_tiny_space(capsys, monkeypatch):
    import repro.service.jobs as jobs
    from repro.explore.spec import (
        CacheDesignSpace,
        ProcessorDesignSpace,
        SystemDesignSpace,
    )

    space = SystemDesignSpace(
        processors=ProcessorDesignSpace(
            int_units=(1, 2), float_units=(1,), memory_units=(1,),
            branch_units=(1,),
        ),
        icache=CacheDesignSpace(
            sizes_kb=(0.5, 1), assocs=(1,), line_sizes=(16, 32)
        ),
        dcache=CacheDesignSpace(
            sizes_kb=(0.5, 1), assocs=(1,), line_sizes=(16,)
        ),
        unified=CacheDesignSpace(
            sizes_kb=(8,), assocs=(2,), line_sizes=(32,)
        ),
    )
    monkeypatch.setattr(jobs, "_system_space", lambda overrides: space)
    argv = ["explore", "--scale", "0.15", "--visits", "1500",
            "--benchmarks", "epic", "unepic"]
    assert stdout_digest(capsys, argv) == TINY_EXPLORE


def test_readme_explore(capsys):
    argv = ["explore", "--benchmarks", "epic"]
    assert stdout_digest(capsys, argv) == README_EXPLORE
