"""Simulated allocator layout tests: frames, slots, padding, metadata."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import run_text
from prismbox.heap import (
    LARGE_BASE,
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

    @pytest.mark.parametrize("kind", ["prism", "pow2"])
    def test_qpad_past_a_4gb_frame_rejected(self, kind):
        # At q = MAX_ALLOC - 9, one byte, its q padding and an 8-byte SA
        # take MAX_ALLOC bytes, the most one 4GB frame holds.  pow2 stores
        # no SA, but refuses a larger q as prism does, before mapping.
        mem(kind, MAX_ALLOC - 9, materialize=False).alloc(1)
        with pytest.raises(AllocError, match="4GB frame"):
            mem(kind, MAX_ALLOC - 8, materialize=False).alloc(1)

    def test_small_never_straddles_frame(self):
        m = mem(q=8)
        for size in (1, 7, 8, 100, 4096, 60000, (1 << 16) - 16):
            sa, ea = span(m, m.alloc(size))
            assert sa >> 16 == ea >> 16 or sa == ea

    def test_small_frames_stop_below_the_large_frames(self):
        m = mem(materialize=False)
        m.alloc(100000)                 # the first large frame
        m._next_small = LARGE_BASE - PAGE
        sa, _ = span(m, m.alloc(65000))
        assert sa == LARGE_BASE - PAGE  # the last small frame
        with pytest.raises(AllocError):
            m.alloc(65000)
        m.check_no_overlap()

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

    def test_third_large_frame_skips_the_stack(self):
        # Three slot sizes open three 4GB frames; the third would otherwise
        # start at the stack's base.
        m = mem()
        for size in (70000, 140000, 200000):
            m.alloc(size)
        m.alloc_stack_escaped(64)
        m.check_no_overlap()

    @pytest.mark.parametrize("q", [0, 8])
    def test_stack_store_leaves_the_third_large_object_alone(self, q):
        result, _, vm = run_text("""
fn @main() {
^entry:
  %x = alloc 70000
  %y = alloc 140000
  %z = alloc 200000
  store %z, 8, 42
  %s = alloca_dyn 100000
  %p = gep %s, 31072
  store %p, 8, 7
  %r = load %z, 8
  ret %r
}
""", q=q)
        assert result.exit_code == 0 and result.ret == 42
        vm.mem.check_no_overlap()


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


# name -> (mode kind, an allocator cursor, a value that leaves room for one
# more allocation, a size that still fits, a size that does not, the error).
# A 100000-byte object takes a 2-page slot; a 200000-byte one takes a 4-page
# slot and so a new large frame.
EXHAUSTION = {
    "large": ("prism", "_next_large", (1 << 47) - (1 << 33), 100000, 200000,
              "large-frame address space exhausted"),
    "pow2": ("pow2", "_pow2_bump", (1 << 47) - 64, 16, 16,
             "pow2 allocation of 16 exceeds the budget"),
}


@pytest.mark.parametrize("name", sorted(EXHAUSTION))
def test_address_space_exhaustion(name):
    kind, cursor, at, fits, fails, message = EXHAUSTION[name]
    m = mem(kind, materialize=False)
    setattr(m, cursor, at)
    sa, _ = span(m, m.alloc(fits))
    assert sa >= at
    with pytest.raises(AllocError) as exc:
        m.alloc(fails)
    assert str(exc.value) == message
    m.check_no_overlap()


def test_stack_space_exhaustion():
    m = mem(materialize=False)
    m.stack_ptr = m._stack_limit - 32
    sa, _ = span(m, m.alloc_stack_escaped(16))
    assert sa == m._stack_limit - 32
    with pytest.raises(AllocError, match="stack space exhausted"):
        m.alloc_stack_escaped(16)


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

    @pytest.mark.parametrize("kind", ["prism", "prism32", "pow2"])
    def test_free_null_does_nothing(self, kind):
        # C11 7.22.3.3: free(NULL) takes no action, however often.
        m = mem(kind)
        t = m.alloc(24)
        m.free(0)
        m.free(0)
        assert [r.live for r in m.records] == [True]
        m.free(t)
        with pytest.raises(FreeError):
            m.free(t)


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

    @pytest.mark.parametrize("materialize", [True, False])
    def test_null_page_never_mapped(self, materialize):
        m = mem(materialize=materialize)
        with pytest.raises(AllocError, match="below the 4MB guard"):
            m.map_range(LOW_GUARD - PAGE, LOW_GUARD)
        assert not m.pages

    def test_overlapping_reservations_detected(self):
        m = mem()
        m.alloc(24)
        m.alloc(24)
        m.records[1].region = m.records[0].region
        with pytest.raises(AssertionError, match="overlapping reservations"):
            m.check_no_overlap()

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


# Sizes: small, large (past one 64KB frame with q and the SA), and on
# either side of powers of two, where a pow2 object can end on its block.
SIZES = (st.integers(1, 300)
         | st.sampled_from([65520, 65528, 65536, 70000, 131072])
         | st.builds(lambda k, d: (1 << k) + d, st.integers(1, 12),
                     st.sampled_from([-1, -1, 0, 1])))
HEAP_STEPS = st.lists(
    st.tuples(st.just("alloc"), SIZES)
    | st.tuples(st.just("stack_escaped"), st.just(0) | SIZES)
    | st.tuples(st.just("stack_dynamic"), SIZES)
    | st.tuples(st.sampled_from(["mark", "release"]), st.just(0))
    | st.tuples(st.just("free"), st.integers(0, 63)), min_size=4, max_size=30)


def _newest_covering(records, raw, tag=None):
    """record_at(raw) and record_at(raw, tagged) by their documented
    meaning: the newest record holding raw, preferring the pointer's tag."""
    covering = [r for r in records if r.sa <= raw <= r.ea]
    same_tag = [r for r in covering if r.tagged - r.sa == tag]
    return (same_tag or covering or [None])[-1]


@pytest.mark.parametrize("kind", ["prism", "pow2", "prism32"])
@pytest.mark.parametrize("q", [0, 8])
@given(steps=HEAP_STEPS)
@settings(max_examples=60, deadline=None)
def test_record_index_finds_the_newest_covering_record(kind, q, steps):
    m = mem(kind, q)
    marks = []
    for op, arg in steps:
        if op == "alloc":
            m.alloc(arg)
        elif op == "stack_escaped":
            m.alloc_stack_escaped(arg)
        elif op == "stack_dynamic":
            m.alloc_stack_dynamic(arg)
        elif op == "mark":
            marks.append(m.stack_mark())
        elif op == "release" and marks:
            m.release_stack(marks.pop())
        elif op == "free":
            live = [r for r in m.records if r.live]
            if live:
                m.free(live[arg % len(live)].tagged)
        if op not in ("mark", "release", "free") and kind != "pow2":
            rec = m.records[-1]
            assert m.read_sa(rec.ea) == rec.sa
        bounds = m._bounds
        assert all(a < b for a, b in zip(bounds, bounds[1:]))
        assert len(m._owners) == len(bounds)
        assert not bounds or m._owners[-1] == ()
        for rec in m.records:
            tag = rec.tagged - rec.sa
            for raw in (rec.sa - 1, rec.sa, (rec.sa + rec.ea) // 2, rec.ea,
                        rec.ea + 1):
                assert m.record_at(raw) is _newest_covering(m.records, raw)
                assert m.record_at(raw, raw + tag) is _newest_covering(
                    m.records, raw, tag)
    m.check_no_overlap()


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
