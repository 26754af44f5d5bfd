"""The run table a fixed set of recorded rows produces, byte for byte.

Every intake path of :class:`RunRecorder` feeds one run: a sweep result
map, a sweep result document with sampling extras, an estimate row with
a dilation and an explore frontier point, under a journal window of
fixed ``pass``, ``retry`` and ``checkpoint`` events.  The export must
equal ``golden_run_table.csv`` exactly, so any change to how a row is
built, attributed or stored shows up here first.
"""

from pathlib import Path

import pytest

from repro.analytics.runs import RunRecorder
from repro.analytics.table import run_table_csv
from repro.cache.config import CacheConfig
from repro.cache.simulator import MissResult, SampledMissResult
from repro.runtime.journal import RunJournal
from repro.service.store import ResultStore

GOLDEN = Path(__file__).with_name("golden_run_table.csv")


def sweep_results() -> dict[CacheConfig, MissResult]:
    results: dict[CacheConfig, MissResult] = {}
    for index, (sets, assoc, line_size) in enumerate(
        [(64, 1, 16), (64, 2, 16), (256, 1, 16), (64, 1, 32), (256, 4, 32)]
    ):
        config = CacheConfig(sets, assoc, line_size)
        results[config] = MissResult(config, 10_000 + index, 997 - 89 * index)
    sampled = CacheConfig(1024, 2, 64)
    results[sampled] = SampledMissResult(
        sampled, 9_999, 123, error=0.0625, intervals=4,
        sampled_ranges=25, total_ranges=100,
    )
    return results


@pytest.fixture
def store(tmp_path):
    s = ResultStore(tmp_path / "golden.sqlite")
    try:
        yield s
    finally:
        s.close()


def test_recorded_run_table_matches_golden(store):
    journal = RunJournal()
    with RunRecorder(
        store, "sweep", journal=journal, run_id="golden-run",
        label="golden", benchmark="epic",
    ) as rec:
        journal.record("pass", line_size=16, wall_s=0.3, kernel_s=0.1)
        journal.record("pass", line_size=32, wall_s=0.25, kernel_s=0.125)
        journal.record("pass", line_size=16, wall_s=0.05, kernel_s=0.02)
        journal.record("retry", attempt=1)
        journal.record("checkpoint", action="hit", key="a")
        journal.record("checkpoint", action="miss", key="b")
        journal.record("checkpoint", action="store", key="b")
        rec.add_sweep_results(sweep_results(), benchmark="epic", role="icache")
        rec.add_config_doc(
            {
                "sets": 64, "assoc": 1, "line_size": 16, "accesses": 5_000,
                "misses": 437.5, "estimated": True, "error": 12.25,
                "source": "store", "intervals": 8, "sampled_ranges": 40,
                "total_ranges": 320,
            },
            benchmark="epic",
            role="icache",
        )
        rec.add_row(
            benchmark="epic", role="unified", sets=128, assoc=2,
            line_size=32, misses=321.75, estimated=True,
            source="estimate", dilation=1.5,
        )
        rec.add_frontier_point(
            {
                "processor": "2111",
                "icache": {"sets": 64, "assoc": 2, "line_size": 32},
                "dcache": {"sets": 128, "assoc": 1, "line_size": 16},
                "cycles": 1_234_567,
                "cost": 87.5,
            },
            benchmark="epic",
        )
    assert run_table_csv(store, "golden-run") == GOLDEN.read_text()
