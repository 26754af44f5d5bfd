"""Unit tests for repro.trace.datamodel.

Every stream is read through the batch method
:meth:`DataAddressModel.addresses`, which takes the stream's whole
sequence of reference kinds; ``run(model, stream, kinds)`` lists its
addresses.  ``tests/trace/test_emulator_oracle.py`` checks the method
against the per-reference oracle model.
"""

import pytest

from repro.cache.config import WORD_BYTES
from repro.errors import ConfigurationError
from repro.trace.datamodel import (
    DATA_BASE,
    DRAW,
    PEEK,
    WRONG_PATH,
    DataAddressModel,
    StreamSpec,
)
from repro.vliwcomp.regalloc import SPILL_STREAM


def run(model, stream, kinds):
    return model.addresses(stream, kinds).tolist()


def draws(model, stream, count):
    return run(model, stream, [DRAW] * count)


class TestStreamSpec:
    def test_unknown_pattern(self):
        with pytest.raises(ConfigurationError, match="pattern"):
            StreamSpec("zigzag", 1024)

    def test_tiny_region_rejected(self):
        with pytest.raises(ConfigurationError, match="one word"):
            StreamSpec("sequential", 2)

    def test_unaligned_stride_rejected(self):
        with pytest.raises(ConfigurationError, match="stride"):
            StreamSpec("sequential", 1024, stride_bytes=6)


class TestDataAddressModel:
    def make(self):
        return DataAddressModel(
            {
                0: StreamSpec("sequential", 256),
                1: StreamSpec("strided", 512, stride_bytes=32),
                2: StreamSpec("random", 1024),
                3: StreamSpec("stack", 256),
            },
            seed=9,
        )

    def test_sequential_walk_and_wrap(self):
        model = self.make()
        base = model.region_base(0)
        addrs = draws(model, 0, 66)
        assert addrs[0] == base
        assert addrs[1] == base + 4
        assert addrs[64] == base  # wrapped after 256/4 = 64 words
        assert addrs[65] == base + 4

    def test_strided_walk(self):
        model = self.make()
        base = model.region_base(1)
        addrs = draws(model, 1, 3)
        assert addrs == [base, base + 32, base + 64]

    def test_random_stays_in_region(self):
        model = self.make()
        base = model.region_base(2)
        for addr in draws(model, 2, 200):
            assert base <= addr < base + 1024
            assert addr % WORD_BYTES == 0

    def test_stack_stays_in_region(self):
        model = self.make()
        base = model.region_base(3)
        for addr in draws(model, 3, 200):
            assert base <= addr < base + 256

    def test_regions_disjoint_and_above_data_base(self):
        model = self.make()
        spans = []
        for stream in (SPILL_STREAM, 0, 1, 2, 3):
            base = model.region_base(stream)
            assert base >= DATA_BASE
            spans.append((base, base + model.spec(stream).region_bytes))
        spans.sort()
        for (_, end_a), (start_b, _) in zip(spans, spans[1:]):
            assert end_a <= start_b

    def test_spill_stream_always_available(self):
        model = DataAddressModel({}, seed=1)
        (addr,) = draws(model, SPILL_STREAM, 1)
        assert addr >= DATA_BASE

    def test_unknown_stream_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown stream"):
            draws(self.make(), 42, 1)

    def test_determinism(self):
        a = self.make()
        b = self.make()
        for stream in (0, 1, 2, 3):
            assert draws(a, stream, 20) == draws(b, stream, 20)


class TestPeek:
    def test_peek_matches_next_without_advancing(self):
        model = DataAddressModel(
            {
                0: StreamSpec("sequential", 256),
                1: StreamSpec("random", 1024),
                2: StreamSpec("stack", 256),
            },
            seed=4,
        )
        for stream in (0, 1, 2):
            peeked, peeked_again, drawn = run(
                model, stream, [PEEK, PEEK, DRAW]
            )
            assert peeked == peeked_again  # no state advance
            assert drawn == peeked

    def test_last_address_tracks_next(self):
        """A batch is a function of its prefix: the last address of a
        run is the address the same reference has in any longer run."""
        model = DataAddressModel({0: StreamSpec("sequential", 64)}, seed=1)
        assert draws(model, 0, 1) == [model.region_base(0)]
        kinds = [DRAW, PEEK, DRAW, WRONG_PATH, DRAW]
        longer = run(model, 0, kinds)
        for end in range(1, len(kinds) + 1):
            assert run(model, 0, kinds[:end])[-1] == longer[end - 1]


class TestZipfPattern:
    def make(self):
        return DataAddressModel({0: StreamSpec("zipf", 64 * 1024)}, seed=11)

    def test_stays_in_region_and_aligned(self):
        model = self.make()
        base = model.region_base(0)
        for addr in draws(model, 0, 300):
            assert base <= addr < base + 64 * 1024
            assert addr % WORD_BYTES == 0

    def test_head_is_hot(self):
        """The first 10% of the region absorbs well over 10% of accesses."""
        model = self.make()
        base = model.region_base(0)
        hits_head = sum(
            1
            for addr in draws(model, 0, 2000)
            if addr - base < 64 * 1024 // 10
        )
        assert hits_head / 2000 > 0.25

    def test_peek_matches_next(self):
        model = self.make()
        peeked, drawn = run(model, 0, [PEEK, DRAW])
        assert drawn == peeked

    def test_wrong_path_address_in_region(self):
        model = self.make()
        base = model.region_base(0)
        (addr,) = run(model, 0, [WRONG_PATH])
        assert base <= addr < base + 64 * 1024
