"""Bounds-check predicate tests against interval arithmetic."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prismbox.checks import (
    FETCH_LOG_LIMIT,
    PASS,
    CheckStats,
    Reason,
    access_check,
    bounds_check,
    bounds_check32,
    bounds_check_2k,
    escape_check,
)
from prismbox.heap import SimMemory
from prismbox.tagging import MASK64, Mode


def prism_obj(size=0x100, q=0):
    m = SimMemory(Mode("prism", q))
    tag = m.alloc(size)
    rec = m.record_for_sa(m.mode.strip(tag))
    return m, tag, rec.sa, rec.ea


class TestBoundsCheckPrism:
    def test_upper_bound_abort(self):
        m, tag, sa, _ = prism_obj()
        out = bounds_check(tag, sa + 0xF8, 16, m)
        assert (out.ok, out.reason) == (False, Reason.UPPER_BOUND)

    def test_end_address_zero_size_passes(self):
        m, tag, _, ea = prism_obj()
        assert bounds_check(tag, ea, 0, m).ok

    def test_sa_fetch_pass(self):
        m, tag, sa, _ = prism_obj()
        out = bounds_check(tag + 16, sa + 8, 8, m)
        assert out.ok and out.sa_fetched

    def test_sa_fetch_lower_abort(self):
        m, tag, sa, _ = prism_obj()
        out = bounds_check(tag, sa - 8, 8, m)
        assert (out.ok, out.reason, out.sa_fetched) == \
            (False, Reason.LOWER_BOUND, True)

    def test_end_exclusive(self):
        m, tag, sa, ea = prism_obj()
        assert bounds_check(tag, ea - 1, 1, m).ok
        assert not bounds_check(tag, ea, 1, m).ok

    def test_saturating_end(self):
        m, tag, sa, _ = prism_obj()
        assert not bounds_check(tag, sa, MASK64, m).ok

    def test_skip_lower_suppresses_fetch(self):
        m, tag, sa, _ = prism_obj()
        out = bounds_check(tag + 16, sa + 8, 8, m, skip_lower=True)
        assert out.ok and not out.sa_fetched

    @pytest.mark.parametrize("size", [8, 24, 4096, 100000])
    def test_q_does_not_move_the_upper_bound(self, size):
        outcomes = []
        for q in (0, 8, 32):
            m, tag, sa, ea = prism_obj(size, q)
            row = []
            for off, asz in [(0, size), (0, size + 1), (size - 1, 1),
                             (size - 1, 2), (-4, 4), (4, 8)]:
                out = bounds_check(tag, sa + off, asz, m)
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
        out = bounds_check(tag + ksa_off, sa + off, asz, m)
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
        out = bounds_check32(tag, sa + 250, 8, m)
        assert (out.ok, out.reason) == (False, Reason.UPPER_BOUND)

    def test_full_object_pass(self):
        m, tag, sa, _ = self.make()
        assert bounds_check32(tag, sa, 256, m).ok

    def test_lower_abort(self):
        m, tag, sa, _ = self.make()
        out = bounds_check32(tag, sa - 1, 1, m)
        assert (out.ok, out.reason) == (False, Reason.LOWER_BOUND)


class TestEscapeCheck:
    def test_end_address_escape_passes(self):
        m, tag, _, ea = prism_obj()
        assert escape_check(m.mode, tag + 0x100, tag, m).ok

    def test_one_past_end_aborts(self):
        m, tag, _, ea = prism_obj()
        out = escape_check(m.mode, tag + 0x101, tag, m)
        assert (out.ok, out.reason) == (False, Reason.ESCAPE_INVARIANT)

    def test_statically_aliased_no_dynamic_work(self):
        m, tag, _, _ = prism_obj()
        stats = CheckStats()
        assert escape_check(m.mode, tag + 0x200, tag, m,
                            statically_aliased=True, stats=stats).ok
        assert stats.dynamic_checks == 0

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
        bounds_check(tag, sa, 8, m, stats=stats)           # fast path
        bounds_check(tag + 16, sa + 8, 8, m, stats=stats)  # SA fetch
        bounds_check(tag, ea, 8, m, stats=stats)           # abort
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
        out = bounds_check(tag + i + 1, sa + i, 1, m, stats=stats)
        assert out.ok and out.sa_fetched
    assert stats.sa_fetches == stats.dynamic_checks == fetches
    assert len(stats.fetch_log) == FETCH_LOG_LIMIT
    assert stats.fetch_log[-1] == (sa + FETCH_LOG_LIMIT - 1,
                                   sa + FETCH_LOG_LIMIT)


def test_passing_checks_share_one_outcome():
    m, tag, sa, _ = prism_obj()
    stats = CheckStats()
    assert bounds_check(tag, sa, 8, m, stats=stats) is PASS
    m2 = SimMemory(Mode("pow2"))
    tag2 = m2.alloc(16)
    assert bounds_check_2k(tag2, m2.mode.strip(tag2), 8, m2.mode,
                           stats=stats) is PASS
    assert stats.dynamic_checks == 2 and stats.aborts == 0
    with pytest.raises(AttributeError):
        PASS.ok = False
