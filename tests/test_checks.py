"""Bounds-check predicate tests against interval arithmetic."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prismbox.checks import (
    FETCH_LOG_LIMIT,
    PASS,
    CheckStats,
    Reason,
    access_check,
    bounds_check_2k,
    escape_check,
    fast_pass,
)
from prismbox.heap import MAX_ALLOC, AllocError, SimMemory
from prismbox.tagging import MASK64, Mode


def prism_obj(size=0x100, q=0):
    m = SimMemory(Mode("prism", q))
    tag = m.alloc(size)
    rec = m.record_for_sa(m.mode.strip(tag))
    return m, tag, rec.sa, rec.ea


class TestBoundsCheckPrism:
    def test_upper_bound_abort(self):
        m, tag, sa, _ = prism_obj()
        out = access_check(m.mode, tag, sa + 0xF8, 16, m)
        assert (out.ok, out.reason) == (False, Reason.UPPER_BOUND)

    def test_end_address_zero_size_passes(self):
        m, tag, _, ea = prism_obj()
        assert access_check(m.mode, tag, ea, 0, m).ok

    def test_sa_fetch_pass(self):
        m, tag, sa, _ = prism_obj()
        out = access_check(m.mode, tag + 16, sa + 8, 8, m)
        assert out.ok and out.sa_fetched

    def test_sa_fetch_lower_abort(self):
        m, tag, sa, _ = prism_obj()
        out = access_check(m.mode, tag, sa - 8, 8, m)
        assert (out.ok, out.reason, out.sa_fetched) == \
            (False, Reason.LOWER_BOUND, True)

    def test_end_exclusive(self):
        m, tag, sa, ea = prism_obj()
        assert access_check(m.mode, tag, ea - 1, 1, m).ok
        assert not access_check(m.mode, tag, ea, 1, m).ok

    def test_saturating_end(self):
        m, tag, sa, _ = prism_obj()
        assert not access_check(m.mode, tag, sa, MASK64, m).ok

    def test_skip_lower_suppresses_fetch(self):
        m, tag, sa, _ = prism_obj()
        out = access_check(m.mode, tag + 16, sa + 8, 8, m, skip_lower=True)
        assert out.ok and not out.sa_fetched

    @pytest.mark.parametrize("size", [8, 24, 4096, 100000])
    def test_q_does_not_move_the_upper_bound(self, size):
        outcomes = []
        for q in (0, 8, 32):
            m, tag, sa, ea = prism_obj(size, q)
            row = []
            for off, asz in [(0, size), (0, size + 1), (size - 1, 1),
                             (size - 1, 2), (-4, 4), (4, 8)]:
                out = access_check(m.mode, tag, sa + off, asz, m)
                row.append((out.ok, out.reason))
            outcomes.append(row)
        assert outcomes[0] == outcomes[1] == outcomes[2]

    @given(st.integers(min_value=1, max_value=4096),
           st.integers(min_value=-32, max_value=4200),
           st.integers(min_value=0, max_value=64),
           st.integers(min_value=0, max_value=4096))
    @settings(max_examples=200)
    def test_matches_interval_oracle(self, size, off, asz, ksa_off):
        m, tag, sa, ea = prism_obj(size)
        ksa_off = min(ksa_off, size)
        out = access_check(m.mode, tag + ksa_off, sa + off, asz, m)
        expect = sa <= sa + off and sa + off + asz <= ea
        assert out.ok == expect
        assert out.sa_fetched == (sa + off < sa + ksa_off
                                  and sa + off + asz <= ea)


class TestBoundsCheck2k:
    def make(self, size=15, q=0):
        m = SimMemory(Mode("pow2", q))
        tag = m.alloc(size)
        rec = m.record_for_sa(m.mode.strip(tag))
        return m, tag, rec.sa, rec.aligned_size

    def test_xor_15_passes(self):
        m, tag, sa, a = self.make()
        assert a == 16
        assert bounds_check_2k(tag, sa + 14, 1, m.mode).ok

    def test_xor_16_aborts(self):
        m, tag, sa, _ = self.make()
        out = bounds_check_2k(tag, sa + 15, 1, m.mode)
        assert (out.ok, out.reason) == (False, Reason.UPPER_BOUND)

    def test_identity_zero_size(self):
        m, tag, sa, _ = self.make()
        assert bounds_check_2k(tag, sa, 0, m.mode).ok

    def test_lower_xor_guarded_by_ptr_below_ksa(self):
        m, tag, sa, _ = self.make()
        below = bounds_check_2k(tag + 8, sa + 2, 1, m.mode)
        assert below.ok and below.xor_lower
        above = bounds_check_2k(tag, sa + 2, 1, m.mode)
        assert above.ok and not above.xor_lower

    def test_lower_xor_abort(self):
        m, tag, sa, _ = self.make()
        out = bounds_check_2k(tag, sa - 1, 1, m.mode)
        assert (out.ok, out.reason, out.xor_lower) == \
            (False, Reason.LOWER_BOUND, True)


class TestBoundsCheck32:
    def make(self):
        m = SimMemory(Mode("prism32"))
        tag = m.alloc(256)
        rec = m.record_for_sa(m.mode.strip(tag))
        return m, tag, rec.sa, rec.ea

    def test_upper_abort(self):
        m, tag, sa, _ = self.make()
        out = access_check(m.mode, tag, sa + 250, 8, m)
        assert (out.ok, out.reason) == (False, Reason.UPPER_BOUND)

    def test_full_object_pass(self):
        m, tag, sa, _ = self.make()
        assert access_check(m.mode, tag, sa, 256, m).ok

    def test_lower_abort(self):
        m, tag, sa, _ = self.make()
        out = access_check(m.mode, tag, sa - 1, 1, m)
        assert (out.ok, out.reason) == (False, Reason.LOWER_BOUND)


class TestEscapeCheck:
    def test_end_address_escape_passes(self):
        m, tag, _, ea = prism_obj()
        assert escape_check(m.mode, tag + 0x100, tag, m).ok

    def test_one_past_end_aborts(self):
        m, tag, _, ea = prism_obj()
        out = escape_check(m.mode, tag + 0x101, tag, m)
        assert (out.ok, out.reason) == (False, Reason.ESCAPE_INVARIANT)

    def test_maybe_equal_runtime_guard(self):
        m, tag, _, _ = prism_obj()
        stats = CheckStats()
        assert escape_check(m.mode, tag, tag, m,
                            maybe_equal_at_runtime=True, stats=stats).ok
        assert stats.dynamic_checks == 0


class TestCheckStats:
    def test_counters(self):
        m, tag, sa, ea = prism_obj()
        stats = CheckStats()
        access_check(m.mode, tag, sa, 8, m, stats)           # fast path
        access_check(m.mode, tag + 16, sa + 8, 8, m, stats)  # SA fetch
        access_check(m.mode, tag, ea, 8, m, stats)           # abort
        assert stats.dynamic_checks == 3
        assert stats.sa_fetches == 1
        assert stats.aborts == 1
        assert stats.sa_fetches <= stats.dynamic_checks
        (ptr, ksa_raw), = stats.fetch_log
        assert ptr < ksa_raw

    def test_access_check_dispatch(self):
        for kind in ("prism", "pow2", "prism32"):
            m = SimMemory(Mode(kind))
            tag = m.alloc(64)
            sa = m.mode.strip(tag)
            stats = CheckStats()
            assert access_check(m.mode, tag, sa, 64, m, stats=stats).ok
            assert not access_check(m.mode, tag, sa + 200, 8, m,
                                    stats=stats).ok
            assert stats.dynamic_checks == 2


def test_fetch_log_keeps_first_entries_and_exact_count():
    m, tag, sa, _ = prism_obj(size=4 * FETCH_LOG_LIMIT)
    stats = CheckStats()
    fetches = FETCH_LOG_LIMIT + 5
    for i in range(fetches):    # each pointer below its KSA fetches the SA
        out = access_check(m.mode, tag + i + 1, sa + i, 1, m, stats=stats)
        assert out.ok and out.sa_fetched
    assert stats.sa_fetches == stats.dynamic_checks == fetches
    assert len(stats.fetch_log) == FETCH_LOG_LIMIT
    assert stats.fetch_log[-1] == (sa + FETCH_LOG_LIMIT - 1,
                                   sa + FETCH_LOG_LIMIT)


def test_passing_checks_share_one_outcome():
    m, tag, sa, _ = prism_obj()
    stats = CheckStats()
    assert access_check(m.mode, tag, sa, 8, m, stats=stats) is PASS
    m2 = SimMemory(Mode("pow2"))
    tag2 = m2.alloc(16)
    assert bounds_check_2k(tag2, m2.mode.strip(tag2), 8, m2.mode,
                           stats=stats) is PASS
    assert stats.dynamic_checks == 2 and stats.aborts == 0
    with pytest.raises(AttributeError):
        PASS.ok = False


# The stratified sample of the predicate sweep: each mode and q, sizes at
# the small-size, page, frame and large-slot edges, every access size, with
# and without the lower-bound test, a KSA at SA and one inside the object.
GUARD_SIZES = [*range(1, 130), (1 << 16) - 1, 1 << 16, (1 << 16) + 1,
               (1 << 17) + 1, (1 << 31) + 1]
ACCESS_SIZES = (0, 1, 2, 4, 8)


def first_guard_mismatch(make_guard):
    """The first case of the sample where the compiled guard
    `make_guard(mode, asz, skip_lower)` holds but `access_check` does not
    return PASS, or the reverse; None if there is none."""
    rng = random.Random(1)
    for kind in ("prism", "pow2", "prism32"):
        for q in (0, 8, 32):
            mode = Mode(kind, q)
            guards = {(asz, skip): eval(f"lambda k, p: "
                                        f"{make_guard(mode, asz, skip)}")
                      for asz in ACCESS_SIZES for skip in (False, True)}
            # The last small size, and the largest slot a large frame holds.
            edges = [(1 << 16) - 8 - q + d for d in (-1, 0, 1)]
            edges.append(MAX_ALLOC - 8 - q)
            for size in GUARD_SIZES + edges:
                m = SimMemory(mode)
                try:
                    tag = m.alloc(size)
                except AllocError:      # too large for prism32's space
                    continue
                sa = mode.strip(tag)
                window = range(-40, size + q + 41)
                offsets = {-1, 0, size - 1, size, size + q, MASK64 - sa - 2,
                           *rng.sample(window, min(len(window), 24))}
                for ksa in (tag, tag + 16) if size > 16 else (tag,):
                    for (asz, skip), guard in guards.items():
                        for off in offsets:
                            out = access_check(mode, ksa, sa + off, asz, m,
                                               None, skip)
                            if guard(ksa, sa + off) != (out is PASS):
                                return (kind, q, size, ksa - tag, off, asz,
                                        skip, out)
    return None


def test_fast_pass_guard_holds_exactly_where_the_check_passes():
    assert first_guard_mismatch(
        lambda mode, asz, skip: fast_pass(mode, "k", "p", asz, skip)) is None


@pytest.mark.parametrize("fault", ["no_lower_test", "end_one_short"])
def test_guard_sample_catches_a_planted_fault(fault):
    def faulty(mode, asz, skip):
        if fault == "no_lower_test":
            return fast_pass(mode, "k", "p", asz, True)
        return fast_pass(mode, "k", "p", asz - 1, skip)
    assert first_guard_mismatch(faulty) is not None
