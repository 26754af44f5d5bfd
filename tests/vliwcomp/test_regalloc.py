"""Unit tests for spill estimation: the per-block sweep oracle
(repro.oracles.compiler.estimate_spills) and the array estimate of
repro.vliwcomp.regalloc that compile_program uses."""

from repro.isa.operations import make_int
from repro.isa.program import BasicBlock, Procedure, Program
from repro.machine.mdes import MachineDescription
from repro.machine.presets import P1111
from repro.machine.processor import make_processor
from repro.oracles.compiler import estimate_spills, schedule_block
from repro.vliwcomp.compile import compile_program
from repro.vliwcomp.regalloc import SPILL_STREAM, register_budget


class TestEstimateSpills:
    def test_small_block_needs_no_spills(self):
        mdes = MachineDescription(P1111)
        ops = [make_int(i, (100 + i,)) for i in range(4)]
        schedule = schedule_block(ops, mdes)
        estimate = estimate_spills(ops, schedule, mdes)
        assert estimate.spill_loads == 0
        assert estimate.spill_stores == 0

    def test_pressure_beyond_regfile_spills(self):
        # A machine with a tiny register file: 8 regs, 8 reserved -> 1
        # usable; many overlapping live ranges must spill.
        tiny = make_processor(4, 1, 1, 1, int_registers=8)
        mdes = MachineDescription(tiny)
        # 12 values defined early, all consumed by one final op chain.
        ops = [make_int(i, (100 + i,)) for i in range(12)]
        ops.append(make_int(50, tuple(range(2))))
        # Keep all 12 live until the end by consuming them late.
        for k in range(2, 12, 2):
            ops.append(make_int(60 + k, (k, k + 1)))
        schedule = schedule_block(ops, mdes)
        estimate = estimate_spills(ops, schedule, mdes)
        assert estimate.max_live > 1
        assert estimate.spill_stores == estimate.spill_loads > 0
        assert estimate.total_ops == estimate.spill_loads * 2

    def test_wider_machine_has_equal_or_more_pressure(self):
        # Packing the same ops into fewer cycles can only overlap live
        # ranges more (or equally).
        ops = [make_int(i, (100 + i,)) for i in range(16)]
        ops.append(make_int(50, (0, 15)))
        narrow = MachineDescription(P1111)
        wide = MachineDescription(make_processor(6, 3, 3, 2))
        narrow_est = estimate_spills(ops, schedule_block(ops, narrow), narrow)
        wide_est = estimate_spills(ops, schedule_block(ops, wide), wide)
        assert wide_est.max_live >= narrow_est.max_live

    def test_spill_stream_constant_is_reserved(self):
        assert SPILL_STREAM < 0


class TestSpillBound:
    """A block with no more distinct destinations than the register
    budget skips the array sweep; around that edge the compiled spill
    count equals the per-block sweep's."""

    @staticmethod
    def _all_live(n_values):
        # ``n_values`` independent definitions, all read by one final op
        # (a wide machine issues them together, so all are live at once).
        ops = [make_int(i, (100 + i,)) for i in range(n_values)]
        ops.append(make_int(n_values, tuple(range(n_values))))
        return ops

    def test_budget_edge_matches_full_sweep(self):
        mdes = MachineDescription(make_processor(4, 1, 1, 1, int_registers=16))
        budget = register_budget(mdes)
        assert budget == 8
        for n_dests in (budget, budget + 1):
            ops = self._all_live(n_dests - 1)  # + the final op's dest
            distinct = len({d for op in ops for d in op.dests})
            assert distinct == n_dests
            sweep = estimate_spills(ops, schedule_block(ops, mdes), mdes)
            # Every value is live at once: the bound is tight.
            assert sweep.max_live == n_dests
            program = Program(name="one")
            program.add(Procedure(name="main", blocks=[BasicBlock(0, ops)]))
            block = compile_program(program, mdes).block("main", 0)
            assert block.spill_ops == sweep.total_ops
        assert sweep.total_ops == 2  # budget + 1 values spill one
