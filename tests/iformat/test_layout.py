"""Unit tests for repro.iformat.layout (profile-guided code layout)."""

import numpy as np
import pytest

from repro.errors import TraceError
from repro.iformat.assembler import assemble
from repro.iformat.layout import (
    Profile,
    layout_program,
    profile_from_events,
)
from repro.iformat.linker import link
from repro.machine.mdes import MachineDescription
from repro.machine.presets import P1111
from repro.oracles.emulator import EventTraceBuilder
from repro.trace.emulator import emulate
from repro.vliwcomp.compile import compile_program


def synthetic_events(visits):
    """visits: list of (proc, block)."""
    builder = EventTraceBuilder()
    for proc, block in visits:
        builder.begin_visit(proc, block)
        builder.end_visit()
    return builder.build()


class TestProfileFromEvents:
    def test_counts_edges_and_weights(self):
        events = synthetic_events(
            [("f", 0), ("f", 1), ("f", 0), ("f", 1), ("f", 2)]
        )
        profile = profile_from_events(events)
        assert profile.edges[("f", 0, 1)] == 2
        assert profile.edges[("f", 1, 0)] == 1
        assert profile.proc_weight["f"] == 5
        assert profile.block_weight[("f", 1)] == 2

    def test_cross_procedure_transitions_are_not_edges(self):
        events = synthetic_events([("f", 0), ("g", 0), ("f", 1)])
        profile = profile_from_events(events)
        assert ("f", 0, 1) not in profile.edges
        assert profile.proc_weight == {"f": 2, "g": 1}


class TestLayoutProgram:
    def test_hot_path_becomes_sequential(self, tiny):
        # Hand-build a profile where some procedure's hot path is
        # entry -> block[3] -> block[1].
        name, proc = next(
            (n, p)
            for n, p in tiny.program.procedures.items()
            if len(p.blocks) >= 4
        )
        ids = [blk.block_id for blk in proc.blocks]
        profile = Profile(
            edges={
                (name, ids[0], ids[3]): 100,
                (name, ids[3], ids[1]): 90,
            },
            proc_weight={n: 1 for n in tiny.program.procedures},
            block_weight={(name, ids[0]): 100},
        )
        layout = layout_program(tiny.program, profile)
        order = layout[name]
        assert order.index(ids[3]) == order.index(ids[0]) + 1
        assert order.index(ids[1]) == order.index(ids[3]) + 1
        # Always a permutation.
        assert sorted(order) == sorted(ids)

    def test_hot_procedures_emitted_first(self, tiny):
        profile = Profile(
            edges={},
            proc_weight={"f002": 1000, "main": 10},
            block_weight={},
        )
        layout = layout_program(tiny.program, profile)
        names = list(layout)
        assert names[0] == "f002"
        assert names.index("main") < len(names)  # present

    def test_unexecuted_procedures_keep_program_order(self, tiny):
        profile = Profile(edges={}, proc_weight={}, block_weight={})
        layout = layout_program(tiny.program, profile)
        for name, proc in tiny.program.procedures.items():
            assert layout[name] == [blk.block_id for blk in proc.blocks]

    def test_real_profile_round_trip(self, tiny):
        """Layout from a real emulation must be a legal linker input."""
        mdes = MachineDescription(P1111)
        compiled = compile_program(tiny.program, mdes)
        events = emulate(tiny.program, tiny.streams, seed=5, max_visits=2000)
        profile = profile_from_events(events)
        layout = layout_program(tiny.program, profile)
        binary = link(
            tiny.program,
            assemble(compiled),
            packet_bytes=16,
            layout=layout,
        )
        # Every block placed once, no overlap.
        images = sorted(binary.images, key=lambda im: im.start)
        assert len(images) == tiny.program.num_blocks
        for a, b in zip(images, images[1:]):
            assert a.end <= b.start


class TestLinkerLayoutValidation:
    def test_missing_procedure_rejected(self, tiny):
        compiled = compile_program(tiny.program, MachineDescription(P1111))
        assembled = assemble(compiled)
        with pytest.raises(TraceError, match="cover"):
            link(tiny.program, assembled, packet_bytes=16, layout={"main": [0]})

    def test_non_permutation_rejected(self, tiny):
        compiled = compile_program(tiny.program, MachineDescription(P1111))
        assembled = assemble(compiled)
        layout = {
            name: [blk.block_id for blk in proc.blocks]
            for name, proc in tiny.program.procedures.items()
        }
        layout["main"] = layout["main"][:-1]  # drop a block
        with pytest.raises(TraceError, match="permutation"):
            link(tiny.program, assembled, packet_bytes=16, layout=layout)
