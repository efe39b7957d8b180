"""Simulated allocator layout tests: frames, slots, padding, metadata."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prismbox.heap import (
    LOW_GUARD,
    MAX_ALLOC,
    PAGE,
    AllocError,
    FreeError,
    SimFault,
    ZERO_PAGE,
    SimMemory,
)
from prismbox.tagging import Mode, compute_ea, decode_ea32, pow2_aligned_size, strip_tag


def mem(kind="prism", q=0, materialize=True):
    return SimMemory(Mode(kind, q), materialize=materialize)


def span(m, tagged):
    raw = m.mode.strip(tagged)
    rec = m.record_for_sa(raw)
    return rec.sa, rec.ea


class TestAllocSmall:
    def test_alloc_24_reserves_32(self):
        m = mem()
        a = m.alloc(24)
        b = m.alloc(24)
        # reserve = size + q + 8 = 32; bump distance equals the reserve.
        assert strip_tag(b) - strip_tag(a) == 32
        assert compute_ea(a) - strip_tag(a) == 24

    def test_boundary_size_still_small(self):
        m = mem()
        t = m.alloc((1 << 16) - 8)
        sa, ea = span(m, t)
        assert sa >> 16 == (ea + m.q + 7) >> 16  # fits one 64KB frame
        assert t >> 63 == 0

    def test_size_zero_rejected(self):
        for kind in ("prism", "pow2", "prism32"):
            with pytest.raises(AllocError):
                mem(kind).alloc(0)

    def test_max_size_bound(self):
        with pytest.raises(AllocError):
            mem(materialize=False).alloc(MAX_ALLOC + 1)

    def test_small_never_straddles_frame(self):
        m = mem(q=8)
        for size in (1, 7, 8, 100, 4096, 60000, (1 << 16) - 16):
            sa, ea = span(m, m.alloc(size))
            assert sa >> 16 == ea >> 16 or sa == ea

    def test_qpad_classification_shift(self):
        # size + q + 8 > 2^16 forces the large path even for sizes the
        # q=0 allocator would call small.
        m = mem(q=32)
        t = m.alloc((1 << 16) - 16)
        assert t >> 63 == 1
        assert compute_ea(t) % (1 << 16) == 0


class TestAllocLarge:
    def test_100000_byte_slot_arithmetic(self):
        m = mem()
        t = m.alloc(100000)
        sa, ea = span(m, t)
        assert ea - sa == 100000
        assert ea % (1 << 16) == 0
        assert sa % (1 << 16) == 131072 - 100000  # s = 2 * 64KB
        assert compute_ea(t) == ea
        assert t >> 63 == 1

    def test_exactly_64kb_needs_two_slots(self):
        m = mem()
        t = m.alloc(1 << 16)
        sa, ea = span(m, t)
        assert ea - sa == 1 << 16
        assert ea % (1 << 16) == 0
        assert sa % (2 << 16) == (2 << 16) - (1 << 16)  # SA = y + s - 2^16

    def test_ea_always_aligned(self):
        m = mem(q=24)
        for size in (70000, 100000, 1 << 20, (1 << 24) + 3):
            t = m.alloc(size)
            assert compute_ea(t) % (1 << 16) == 0
            assert compute_ea(t) - strip_tag(t) == size

    def test_frame_base_4gb_aligned(self):
        m = mem()
        sa, _ = span(m, m.alloc(100000))
        assert (sa >> 32) << 32 == sa & ~((1 << 32) - 1)
        assert sa & ~((1 << 32) - 1) >= LOW_GUARD


class TestSaMetadata:
    @pytest.mark.parametrize("q", [0, 8, 32])
    @pytest.mark.parametrize("size", [24, 4096, 100000])
    def test_sa_stored_at_ea_plus_q_prism(self, q, size):
        m = mem(q=q)
        t = m.alloc(size)
        sa, ea = span(m, t)
        assert int.from_bytes(m.read(ea + q, 8), "little") == sa
        assert m.read_sa(ea) == sa

    def test_sa_stored_prism32(self):
        m = mem("prism32", q=32)
        t = m.alloc_32(1)
        sa, ea = span(m, t)
        assert m.read_sa(ea) == sa
        # reserve = size + q + 8 = 41 bytes, aligned to the next 8
        nxt, _ = span(m, m.alloc_32(8))
        assert nxt - sa == 48

    def test_pow2_never_stores_sa(self):
        m = mem("pow2", q=8)
        t = m.alloc(24)
        sa, ea = span(m, t)
        assert int.from_bytes(m.read(ea + 8, 8), "little") == 0


class TestPow2:
    def test_alignment_examples(self):
        m = mem("pow2")
        a = m.alloc(24)
        assert pow2_aligned_size(a) == 32
        assert strip_tag(a) % 32 == 0
        b = m.alloc(15)
        assert pow2_aligned_size(b) == 16

    def test_reserve_a_plus_q_minus_1(self):
        m = mem("pow2", q=8)
        a = m.alloc(24)  # A=32, reserve 39
        rec = m.record_for_sa(strip_tag(a))
        assert rec.region[1] - rec.region[0] == 39
        b = m.alloc(24)
        assert strip_tag(b) - strip_tag(a) >= 39
        assert strip_tag(b) % 32 == 0

    def test_a_at_least_size_plus_1(self):
        m = mem("pow2", materialize=False)
        for size in (1, 15, 16, 31, 32, 1000, (1 << 20) - 1):
            assert pow2_aligned_size(m.alloc(size)) >= size + 1


class TestAlloc32:
    def test_roundtrip(self):
        m = mem("prism32")
        t = m.alloc_32(256)
        assert decode_ea32(t) - m.mode.strip(t) == 256

    def test_space_exhaustion(self):
        m = mem("prism32", materialize=False)
        with pytest.raises(AllocError):
            for _ in range(8):
                m.alloc_32((1 << 29))


class TestStack:
    def test_escaped_alignment_small(self):
        m = mem()
        t = m.alloc_stack_escaped(100)
        sa, ea = span(m, t)
        assert sa % 128 == 0  # z = next-pow2(101) = 128
        assert sa >> 16 == ea >> 16
        assert m.read_sa(ea) == sa

    def test_escaped_large_path(self):
        m = mem()
        t = m.alloc_stack_escaped(1 << 16)
        assert compute_ea(t) % (1 << 16) == 0

    def test_escaped_size_zero_legal(self):
        for kind in ("prism", "pow2", "prism32"):
            m = mem(kind)
            t = m.alloc_stack_escaped(0)
            rec = m.record_for_sa(m.mode.strip(t))
            assert rec.ea == rec.sa

    @given(st.integers(min_value=1, max_value=(1 << 17)))
    @settings(max_examples=60)
    def test_dynamic_never_straddles_unaligned(self, size):
        m = mem()
        t = m.alloc_stack_dynamic(size)
        sa, ea = span(m, t)
        # Either the bump allocation passed the XOR straddle test, or the
        # realign path made EA 64KB-aligned.
        assert (sa ^ ea) < (1 << 16) or ea % (1 << 16) == 0
        assert ea - sa == size
        assert m.read_sa(ea) == sa

    def test_release_restores_pointer_and_liveness(self):
        m = mem()
        base = m.stack_ptr
        mark = m.stack_mark()
        t = m.alloc_stack_escaped(64)
        assert m.stack_ptr > base
        m.release_stack(mark)
        assert m.stack_ptr == base
        assert not m.record_for_sa(strip_tag(t))

    def test_release_leaves_earlier_frames_alone(self):
        m = mem()
        outer = m.alloc_stack_escaped(32)
        mark = m.stack_mark()
        m.alloc_stack_escaped(32)
        m.release_stack(mark)
        assert m.record_for_sa(strip_tag(outer)).live


class TestFree:
    def test_free_marks_dead(self):
        m = mem()
        t = m.alloc(24)
        m.free(t)
        assert not m.record_for_sa(strip_tag(t))

    def test_double_free(self):
        m = mem()
        t = m.alloc(24)
        m.free(t)
        with pytest.raises(FreeError):
            m.free(t)

    def test_free_interior_address(self):
        m = mem()
        t = m.alloc(24)
        with pytest.raises(FreeError):
            m.free(t + 8)


class TestRawMemory:
    def test_write_read_roundtrip(self):
        m = mem()
        sa, _ = span(m, m.alloc(64))
        m.write(sa, b"\x01\x02\x03\x04\x05\x06\x07\x08")
        assert m.read(sa, 8) == b"\x01\x02\x03\x04\x05\x06\x07\x08"

    def test_unmapped_low_address_faults(self):
        with pytest.raises(SimFault):
            mem().read(0x1000, 1)

    def test_zero_length_read(self):
        assert mem().read(0x1000, 0) == b""

    def test_no_frame_below_guard(self):
        m = mem()
        for size in (24, 100000):
            m.alloc(size)
        m.alloc_stack_escaped(32)
        assert all(base >= LOW_GUARD for base in m.pages)
        assert PAGE == 1 << 16


@pytest.mark.parametrize("kind,q", [("prism", 0), ("prism", 8), ("prism", 32),
                                    ("pow2", 0), ("pow2", 8),
                                    ("prism32", 0), ("prism32", 16)])
def test_no_overlap_mixed_workload(kind, q):
    m = mem(kind, q)
    tags = []
    for i, size in enumerate([1, 8, 24, 100, 4096, 60000, 70000, 9, 100000]):
        if kind == "prism32" and size > 20000:
            size = 20000 + i
        tags.append(m.alloc(size))
        m.check_no_overlap()
    m.free(tags[3])
    m.alloc(200)
    m.check_no_overlap()
    for t in tags:
        rec = m.record_for_sa(m.mode.strip(t))
        if rec is not None:
            assert rec.ea - rec.sa == rec.request_size


class TestRecordIndex:
    def test_reused_stack_address_finds_the_new_record(self):
        m = mem()
        mark = m.stack_mark()
        big = m.alloc_stack_escaped(64)
        m.release_stack(mark)
        small = m.alloc_stack_escaped(16)
        assert strip_tag(small) == strip_tag(big)
        rec = m.record_at(strip_tag(small))
        assert rec is m.records[-1] and rec.live and rec.request_size == 16
        assert m.record_for_sa(strip_tag(small)) is rec

    def test_dangling_pointer_finds_its_own_record(self):
        m = mem()
        mark = m.stack_mark()
        big = m.alloc_stack_escaped(64)
        m.release_stack(mark)
        small = m.alloc_stack_escaped(16)
        dead, new = m.records[-2:]
        raw = strip_tag(big)
        assert m.record_at(raw, big) is dead
        assert m.record_at(raw + 8, big + 8) is dead
        assert m.record_at(raw + 8, small + 8) is new
        assert m.record_at(raw + 8) is new
        assert m.record_at(raw + 20, big + 20) is dead

    def test_uncovered_parts_of_a_dead_record_stay_visible(self):
        m = mem()
        mark = m.stack_mark()
        m.alloc_stack_dynamic(64)
        m.release_stack(mark)
        dead = m.records[-1]
        m.alloc_stack_dynamic(8)
        m.alloc_stack_dynamic(8)
        first, second = m.records[-2:]
        assert second.sa > first.ea + 1 and second.ea < dead.ea
        assert m.record_at(first.sa) is first
        assert m.record_at(first.ea + 1) is dead
        assert m.record_at(second.ea) is second
        assert m.record_at(second.ea + 1) is dead
        assert m.record_at(dead.ea + 1) is None


class TestLazyPages:
    def test_pages_stay_shared_until_written(self):
        m = mem()
        sa, ea = span(m, m.alloc(1 << 20))
        written = [b for b, p in m.pages.items() if p is not ZERO_PAGE]
        assert len(m.pages) == 17
        assert written == [ea & ~(PAGE - 1)]      # the SA store at EA+q
        assert m.read(sa, 16) == bytes(16)
        m.write_int(sa + 3, 1, 0xAB)
        assert sum(p is not ZERO_PAGE for p in m.pages.values()) == 2
        assert ZERO_PAGE == bytes(PAGE)

    @pytest.mark.parametrize("offset", [0, PAGE - 8, PAGE - 3, PAGE])
    def test_int_roundtrip_within_and_across_pages(self, offset):
        m = mem()
        sa, _ = span(m, m.alloc(4 * PAGE))
        addr = sa + offset
        m.write_int(addr, 8, -2)        # only the low 8 bytes are stored
        assert m.read(addr, 8) == b"\xfe" + b"\xff" * 7
        assert m.read_int(addr, 8) == (1 << 64) - 2
        assert m.read_int(addr + 8, 4) == 0

    def test_int_access_to_unmapped_page_faults(self):
        m = mem()
        with pytest.raises(SimFault):
            m.read_int(0x1000, 8)
        with pytest.raises(SimFault):
            m.write_int(0x1000, 8, 1)
