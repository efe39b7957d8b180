"""Tag-area encoding/decoding unit tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prismbox.tagging import (
    ADDR_MASK,
    EncodingError,
    FrameClass,
    Mode,
    compute_ea,
    decode_ea32,
    encode_ea32,
    encode_pow2,
    encode_prism,
    pow2_aligned_size,
    strip_tag,
)

SMALL = FrameClass.SMALL
LARGE = FrameClass.LARGE


class TestEncodePrism:
    def test_small_worked_example(self):
        # Hand-evaluated packing: tag = low 16 bits of ea, raw = sa.
        value = encode_prism(0x100010040, 0x100010120, SMALL)
        assert value == (0x0120 << 47) | 0x100010040

    def test_small_zero_offset_identity(self):
        frame = 0x100010000
        assert encode_prism(frame, frame, SMALL) == frame

    def test_large_worked_example(self):
        sa = 0x200000000 + 0x10000
        value = encode_prism(sa, 0x200030000, LARGE)
        assert value == (1 << 63) | (0x0003 << 47) | sa

    def test_small_straddle_rejected(self):
        with pytest.raises(EncodingError):
            encode_prism(0x10000FFF8, 0x100010008, SMALL)

    def test_large_unaligned_ea_rejected(self):
        with pytest.raises(EncodingError):
            encode_prism(0x200000000, 0x200030004, LARGE)

    def test_sa_above_ea_rejected(self):
        with pytest.raises(EncodingError):
            encode_prism(0x100010120, 0x100010040, SMALL)

    def test_ea_outside_47_bits_rejected(self):
        with pytest.raises(EncodingError):
            encode_prism(0, 1 << 47, LARGE)

    def test_large_object_across_4gb_frames_rejected(self):
        with pytest.raises(EncodingError, match="leaves its 4GB frame"):
            encode_prism(0x1FFFFFFF0, 0x200010000, LARGE)


class TestComputeEa:
    def test_small_worked_example(self):
        assert compute_ea((0x0120 << 47) | 0x100010040) == 0x100010120

    def test_zero_tag_identity(self):
        frame = 0x100010000
        assert compute_ea(frame) == frame

    def test_large_worked_example(self):
        assert compute_ea((1 << 63) | (0x0003 << 47) | 0x200010000) \
            == 0x200030000

    def test_small_roundtrip_every_offset_in_one_frame(self):
        # Exhaustive over one 64KB frame: every (sa_off <= ea_off) with
        # sa_off sampled, ea_off full range.
        frame = 0x100020000
        for ea_off in range(0, 1 << 16, 7):
            sa_off = ea_off // 2
            tag = encode_prism(frame + sa_off, frame + ea_off, SMALL)
            assert compute_ea(tag) == frame + ea_off
            assert strip_tag(tag) == frame + sa_off

    def test_large_roundtrip_sampled_slots(self):
        base = 0x300000000
        for k in range(0, 1 << 16, 127):
            ea = base + (k << 16)
            sa = max(base, ea - 12345)
            tag = encode_prism(sa, ea, LARGE)
            assert compute_ea(tag) == ea
            assert strip_tag(tag) == sa


class TestPow2:
    def test_worked_example(self):
        tag = encode_pow2(0x100010020, 5)
        assert pow2_aligned_size(tag) == 1 << 5
        assert strip_tag(tag) == 0x100010020

    def test_log_zero_single_byte_region(self):
        assert pow2_aligned_size(encode_pow2(0x100010020, 0)) == 1

    def test_log_sixteen(self):
        assert pow2_aligned_size(encode_pow2(0x100010000, 16)) == 1 << 16

    def test_misaligned_sa_rejected(self):
        with pytest.raises(EncodingError):
            encode_pow2(0x100010020, 6)

    def test_log_out_of_range_rejected(self):
        with pytest.raises(EncodingError):
            encode_pow2(0, 47)


class TestEa32:
    def test_worked_example(self):
        value = encode_ea32(0x40000000, 0x40000100)
        assert value == (0x40000100 << 32) | 0x40000000
        assert decode_ea32(value) == 0x40000100
        assert strip_tag(value, Mode("prism32")) == 0x40000000

    def test_empty_object(self):
        assert encode_ea32(0x40000000, 0x40000000) \
            == (0x40000000 << 32) | 0x40000000

    def test_ea_over_32_bits_rejected(self):
        with pytest.raises(EncodingError):
            encode_ea32(0, 1 << 32)

    def test_sa_above_ea_rejected(self):
        with pytest.raises(EncodingError, match="need 0 <= sa <= ea"):
            encode_ea32(0x40000100, 0x40000000)


@pytest.mark.parametrize("kind,q,message", [
    ("prism64", 0, "unknown mode kind: 'prism64'"),
    ("prism", -1, "q-padding must be non-negative")])
def test_bad_mode_rejected(kind, q, message):
    with pytest.raises(ValueError) as exc:
        Mode(kind, q)
    assert str(exc.value) == message


class TestStripTag:
    def test_worked_example(self):
        assert strip_tag((0x0120 << 47) | 0x100010040) == 0x100010040

    def test_untagged_identity(self):
        assert strip_tag(0x100010040) == 0x100010040

    @given(st.integers(min_value=0, max_value=(1 << 64) - 1))
    @settings(max_examples=300)
    def test_idempotent_all_modes(self, value):
        for mode in (Mode("prism"), Mode("pow2"), Mode("prism32")):
            once = strip_tag(value, mode)
            assert strip_tag(once, mode) == once
            assert once <= (ADDR_MASK if mode.kind != "prism32"
                            else (1 << 32) - 1)

    @given(st.integers(min_value=0, max_value=(1 << 16) - 9),
           st.integers(min_value=0, max_value=(1 << 16) - 9))
    @settings(max_examples=300)
    def test_small_roundtrip_property(self, a, b):
        frame = 0x140000000
        sa_off, ea_off = min(a, b), max(a, b)
        tag = encode_prism(frame + sa_off, frame + ea_off, SMALL)
        assert compute_ea(tag) == frame + ea_off
        assert strip_tag(tag) == frame + sa_off
        assert tag >> 63 == 0  # class bit agrees with the small frame
