"""Unit tests for repro.trace.events, its builder and repro.trace.sampling."""

import numpy as np
import pytest

from repro.errors import TraceError
from repro.oracles.emulator import EventTraceBuilder
from repro.trace.events import EventTrace
from repro.trace.sampling import sample_events


def build_sample():
    builder = EventTraceBuilder()
    builder.begin_visit("main", 0)
    builder.add_data_ref(0x1000, 0)
    builder.add_data_ref(0x2000, 1)
    builder.end_visit()
    builder.begin_visit("f", 3)
    builder.end_visit()
    builder.begin_visit("main", 0)
    builder.add_data_ref(0x1004, 0)
    builder.end_visit()
    return builder.build()


class TestBuilder:
    def test_csr_structure(self):
        events = build_sample()
        assert events.n_visits == 3
        assert events.n_data_refs == 3
        assert events.data_offsets.tolist() == [0, 2, 2, 3]

    def test_block_table_deduplicates(self):
        events = build_sample()
        assert events.blocks == (("main", 0), ("f", 3))
        assert events.visit_blocks.tolist() == [0, 1, 0]

    def test_visit_frequencies(self):
        events = build_sample()
        assert events.visit_frequencies().tolist() == [2, 1]

    def test_iter_visits(self):
        events = build_sample()
        visits = list(events.iter_visits())
        assert visits[0][0] == "main"
        assert visits[0][2].tolist() == [0x1000, 0x2000]
        assert visits[1][2].tolist() == []

    def test_unbalanced_builder_rejected(self):
        builder = EventTraceBuilder()
        builder.begin_visit("main", 0)
        with pytest.raises(TraceError, match="unbalanced"):
            builder.build()


class TestEventTraceValidation:
    def test_offsets_length_checked(self):
        with pytest.raises(TraceError, match="n_visits"):
            EventTrace(
                blocks=(("m", 0),),
                visit_blocks=np.array([0], dtype=np.int32),
                data_addrs=np.array([], dtype=np.int64),
                data_streams=np.array([], dtype=np.int32),
                data_offsets=np.array([0], dtype=np.int64),
                data_writes=np.array([], dtype=bool),
            )

    def test_offsets_must_cover_addrs(self):
        with pytest.raises(TraceError, match="cover"):
            EventTrace(
                blocks=(("m", 0),),
                visit_blocks=np.array([0], dtype=np.int32),
                data_addrs=np.array([4], dtype=np.int64),
                data_streams=np.array([0], dtype=np.int32),
                data_offsets=np.array([0, 0], dtype=np.int64),
                data_writes=np.array([False], dtype=bool),
            )

    def test_writes_length_checked(self):
        with pytest.raises(TraceError, match="data_writes"):
            EventTrace(
                blocks=(("m", 0),),
                visit_blocks=np.array([0], dtype=np.int32),
                data_addrs=np.array([4], dtype=np.int64),
                data_streams=np.array([0], dtype=np.int32),
                data_offsets=np.array([0, 1], dtype=np.int64),
                data_writes=np.array([], dtype=bool),
            )


class TestSampling:
    def test_truncates_visits_and_data(self):
        events = build_sample()
        sampled = sample_events(events, 2)
        assert sampled.n_visits == 2
        assert sampled.n_data_refs == 2
        assert sampled.data_offsets.tolist() == [0, 2, 2]

    def test_short_trace_returned_unchanged(self):
        events = build_sample()
        assert sample_events(events, 100) is events

    def test_bad_budget(self):
        with pytest.raises(TraceError, match="max_visits"):
            sample_events(build_sample(), 0)
