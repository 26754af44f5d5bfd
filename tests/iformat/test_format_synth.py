"""Unit tests for repro.iformat.format_synth."""

import itertools

import pytest

from repro.errors import EncodingError
from repro.explore.spec import SystemDesignSpace
from repro.iformat.format_synth import Template, synthesize_format
from repro.isa.operations import OP_CLASSES, OpClass, pack_mix
from repro.machine.mdes import MachineDescription
from repro.machine.presets import P1111, P2111, P6332


@pytest.fixture(scope="module")
def narrow_format():
    return synthesize_format(MachineDescription(P1111))


@pytest.fixture(scope="module")
def wide_format():
    return synthesize_format(MachineDescription(P6332))


class TestTemplate:
    def test_covers(self):
        template = Template((2, 1, 0, 1))
        assert template.covers({OpClass.INT: 2, OpClass.BRANCH: 1})
        assert not template.covers({OpClass.MEMORY: 1})
        assert not template.covers({OpClass.INT: 3})

    def test_slot_count_and_total(self):
        template = Template((2, 1, 0, 1))
        assert template.slot_count(OpClass.INT) == 2
        assert template.slot_count(OpClass.MEMORY) == 0
        assert template.total_slots == 4

    def test_str(self):
        assert str(Template((1, 0, 1, 0))) == "I1/M1"


class TestSynthesis:
    def test_full_template_present(self, narrow_format, wide_format):
        assert Template((1, 1, 1, 1)) in narrow_format.templates
        assert Template((6, 3, 3, 2)) in wide_format.templates

    def test_singles_present(self, wide_format):
        for i in range(4):
            slots = [0, 0, 0, 0]
            slots[i] = 1
            assert Template(tuple(slots)) in wide_format.templates

    def test_narrow_machine_has_pair_templates(self, narrow_format):
        assert Template((1, 0, 1, 0)) in narrow_format.templates

    def test_wide_machine_lacks_pair_templates(self, wide_format):
        # Width > MAX_WIDTH_WITH_PAIR_TEMPLATES: no two-slot templates
        # beyond what the halving chain provides.
        assert Template((1, 0, 1, 0)) not in wide_format.templates

    def test_dispersal_bits_scale_with_width(self, narrow_format, wide_format):
        assert wide_format.dispersal_bits > narrow_format.dispersal_bits


class TestSelection:
    def test_single_int_op_uses_smallest_cover(self, narrow_format):
        chosen = narrow_format.select_template({OpClass.INT: 1})
        assert chosen == Template((1, 0, 0, 0))

    def test_selection_is_minimal_width(self, narrow_format):
        op_counts = {OpClass.INT: 1, OpClass.MEMORY: 1}
        chosen = narrow_format.select_template(op_counts)
        width = narrow_format.template_width_bits(chosen)
        for template in narrow_format.templates:
            if template.covers(op_counts):
                assert width <= narrow_format.template_width_bits(template)

    def test_uncoverable_counts_raise(self, narrow_format):
        with pytest.raises(EncodingError, match="no template"):
            narrow_format.select_template({OpClass.INT: 99})

    def test_width_bytes_rounds_up(self, narrow_format):
        for template in narrow_format.templates:
            bits = narrow_format.template_width_bits(template)
            assert narrow_format.template_width_bytes(template) >= (bits + 7) // 8

    def test_noop_is_smallest_instruction(self, narrow_format):
        noop = narrow_format.noop_instruction_bytes()
        widths = [
            narrow_format.template_width_bytes(t)
            for t in narrow_format.templates
        ]
        assert noop == min(widths)

    def test_max_noop_run(self, narrow_format):
        assert narrow_format.max_noop_run == 3  # 2-bit field

    @pytest.mark.parametrize(
        "processor", SystemDesignSpace().processors, ids=lambda p: p.name
    )
    def test_memo_matches_linear_scan(self, processor):
        """Every op count up to one past the widest template: the memoized
        selection and the array selection of packed mixes are the
        scan's, and an uncoverable count raises on every call, not just
        the first."""
        iformat = synthesize_format(MachineDescription(processor))
        widest = [
            max(t.slots[i] for t in iformat.templates)
            for i in range(len(OP_CLASSES))
        ]
        uncoverable = 0
        covered, widths = [], []
        for key in itertools.product(*(range(w + 2) for w in widest)):
            counts = {cls: n for cls, n in zip(OP_CLASSES, key) if n}
            try:
                expected = iformat.scan_template(counts)
            except EncodingError:
                uncoverable += 1
                for _ in range(2):
                    with pytest.raises(EncodingError, match="no template"):
                        iformat.select_template(counts)
                with pytest.raises(EncodingError, match="no template"):
                    iformat.mix_widths_bytes([pack_mix(key)])
                continue
            assert iformat.select_template(counts) == expected, key
            assert iformat.select_template(counts) is expected, key
            covered.append(pack_mix(key))
            widths.append(iformat.template_width_bytes(expected))
        assert uncoverable > 0
        # The array selection of every covered mix at once.
        assert iformat.mix_widths_bytes(covered).tolist() == widths
        for template in iformat.templates:
            bits = iformat.template_width_bits(template)
            for _ in range(2):
                assert iformat.template_width_bytes(template) == -(-bits // 8)


class TestDilationSource:
    def test_wide_encoding_is_less_dense(self):
        """The same 2-op instruction costs more bytes on a wide machine."""
        narrow = synthesize_format(MachineDescription(P1111))
        wide = synthesize_format(MachineDescription(P6332))
        counts = {OpClass.INT: 1, OpClass.MEMORY: 1}
        narrow_bytes = narrow.template_width_bytes(
            narrow.select_template(counts)
        )
        wide_bytes = wide.template_width_bytes(wide.select_template(counts))
        assert wide_bytes > 1.5 * narrow_bytes

    def test_intermediate_machine_between(self):
        m2111 = synthesize_format(MachineDescription(P2111))
        narrow = synthesize_format(MachineDescription(P1111))
        counts = {OpClass.INT: 1}
        assert m2111.template_width_bits(
            m2111.select_template(counts)
        ) >= narrow.template_width_bits(narrow.select_template(counts))
