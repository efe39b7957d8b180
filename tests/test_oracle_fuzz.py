"""Exact-bounds oracle, differential harness, and generator tests."""

import multiprocessing

import pytest

from conftest import (RECURSIVE_PIR, ChecksVmError, ChecksWrongReturn,
                      corpus_text)
from prismbox import fuzz, oracle
from prismbox.heap import SimMemory
from prismbox.instrument import ELIDED_Q, instrument
from prismbox.ir import parse
from prismbox.oracle import classify, differential, differential_on
from prismbox.tagging import Mode
from prismbox.verify import validate


def make_record(size=64, q=0):
    m = SimMemory(Mode("prism", q))
    return m.record_for_sa(m.mode.strip(m.alloc(size)))


class TestClassify:
    def test_full_object_in_bounds(self):
        rec = make_record(64)
        assert classify(rec.sa, 64, rec) == "IN_BOUNDS"

    def test_one_past_end_in_padding(self):
        rec = make_record(64, q=8)
        assert classify(rec.sa + 57, 8, rec) == "IN_PADDING"

    def test_past_padding_oob(self):
        rec = make_record(64, q=8)
        assert classify(rec.sa + 65, 8, rec) == "OOB"

    def test_below_start_oob(self):
        rec = make_record(64)
        assert classify(rec.sa - 1, 4, rec) == "OOB"

    def test_no_record_oob(self):
        assert classify(0x5000, 4, None) == "OOB"


class TestDifferential:
    def test_in_bounds_agreement(self):
        v = differential(corpus_text("linked_list.pir"), Mode("prism", 0),
                         [20])
        assert v.ok and not v.allowed_events

    def test_elided_padding_access_is_allowed_divergence(self):
        text = """
fn @main() {
^entry:
  %a = alloc 4
  %p = gep %a, 4
  store %p, 4, 1
  ret 0
}
"""
        v = differential(text, Mode("prism", 8))
        assert v.ok
        assert v.checks.exit_code == 0
        assert v.allowed_events == 1

    @pytest.mark.parametrize("q", [0, 8, 32, 48])
    def test_variable_oob_both_abort(self, q):
        v = differential(corpus_text("negative_index.pir"),
                         Mode("prism", q), [-3])
        assert v.ok
        assert v.checks.exit_code == 2 and v.oracle.exit_code == 2

    def test_harness_flags_injected_elision_bug(self):
        # Mutation self-test: marking the variable-index check ElidedByQ is
        # unsound, and the harness must report the divergence.
        iprog = instrument(parse(corpus_text("off_by_one.pir")),
                           Mode("prism", 0))
        for site in iprog.sites:
            site.status = ELIDED_Q
        v = differential_on(iprog, [])
        assert not v.ok

    @pytest.mark.parametrize("kind", ["prism", "prism32"])
    def test_early_abort_at_widened_site(self, kind):
        # The widened check [8i, 8i+16) aborts at i = 7 before the invalid
        # storep that the oracle stops at.
        text = """
fn @main(%i: int) {
^entry:
  %a = alloc 64
  %c = alloc 8
  %p = gep %a, %i*8
  %v = load %p, 8
  %bad = gep %a, 100
  storep %c, %bad
  %q = gep %a, %i*8, 8
  %w = load %q, 8
  %s = add %v, %w
  ret %s
}
"""
        v = differential(text, Mode(kind, 0), [7])
        assert v.ok and v.reason == "early-abort-at-widened-site"
        assert v.checks.exit_code == 2 and v.oracle.exit_code == 3

    @pytest.mark.parametrize("q", [0, 8, 32])
    def test_window_near_the_top_of_the_32_bit_space(self, q):
        # Were %c placed near 4GB, %p would wrap below it when masked and
        # pass the upper-bound check that the dropped lower bound leaves.
        # The allocator keeps the top 1GB free, so %c fails in both runs.
        text = """
fn @main() {
^entry:
  %a = alloc 1400000000
  %b = alloc 1400000000
  %c = alloc 64
  %p = gep %c, 536870912
  %v = load %p, 8
  ret %v
}
"""
        v = differential(text, Mode("prism32", q))
        assert (v.ok, v.reason) == (True, "both-vm-error")

    @pytest.mark.parametrize("planted,reason", [
        (ChecksVmError, "vm-error-mismatch (checks='planted', oracle=None)"),
        (ChecksWrongReturn, "return-value-mismatch")],
        ids=["vm_error", "return_value"])
    def test_planted_disagreement_flagged(self, monkeypatch, planted, reason):
        monkeypatch.setattr(oracle, "VM", planted)
        v = differential(corpus_text("linked_list.pir"), Mode("prism", 0), [5])
        assert not v.ok and v.reason == reason
        assert v.oracle.exit_code == 0


class TestGenerator:
    def test_deterministic(self):
        assert fuzz.generate(42) == fuzz.generate(42)

    @pytest.mark.parametrize("config", fuzz.CONFIGS)
    def test_generated_programs_validate(self, config):
        for seed in range(40):
            text, inputs = fuzz.generate(seed, config)
            assert validate(parse(text)) == [], text

    @pytest.mark.parametrize("kind", ["prism", "pow2", "prism32"])
    def test_in_bounds_only_never_aborts(self, kind):
        for seed in range(60):
            text, inputs = fuzz.generate(seed, "in_bounds_only")
            v = differential(text, Mode(kind, 0), inputs)
            assert v.ok
            assert v.checks is None or v.checks.exit_code == 0, (kind, seed)

    def test_one_oob_always_violates_in_prism_q0(self):
        for seed in range(60):
            text, inputs = fuzz.generate(seed, "one_oob")
            v = differential(text, Mode("prism", 0), inputs)
            assert v.ok
            assert v.checks.exit_code in (2, 3), seed


class TestCampaign:
    def test_small_campaign_clean(self):
        summary = fuzz.campaign(seed=11, count=60, mode=Mode("prism", 8))
        assert summary["mismatches"] == []
        assert summary["ok"] == 60

    @pytest.mark.parametrize("count,workers,pools", [
        (2, 8, [2]), (5, 3, [3]), (1, 4, []), (0, 2, [])])
    def test_campaign_pool_is_no_larger_than_its_cases(
            self, monkeypatch, count, workers, pools):
        sizes = []

        class SerialPool:
            """Records its size and maps in this process."""

            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return list(map(fn, items))

        monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
        summary = fuzz.campaign(seed=11, count=count, mode=Mode("prism", 8),
                                workers=workers)
        assert sizes == pools
        assert summary["ok"] == count

    def test_campaign_persists_repro(self, tmp_path):
        # Break the predicate via a doctored instrumented program by running
        # campaign on a seed set known to include OOB programs, with a
        # monkeypatched differential that always disagrees.
        import prismbox.fuzz as fz
        orig = fz.differential

        def broken(text, mode, inputs, opts, step_limit=None):
            v = orig(text, mode, inputs, opts, step_limit=step_limit)
            v.ok = False
            v.reason = "forced mismatch"
            return v

        fz.differential = broken
        try:
            summary = fz.campaign(seed=1, count=3, mode=Mode("prism", 0),
                                  out_dir=str(tmp_path))
        finally:
            fz.differential = orig
        assert summary["mismatches"]
        assert list(tmp_path.glob("*.pir"))


# Two calls in a row place their stack objects at the same address, so the
# oracle must judge the second call's object against its own record.
BIG_THEN_SMALL = """
fn @big() {
^entry:
  %b = stackalloc 64
  store %b, 1, 1
  ret 0
}
fn @small(%i: int) {
^entry:
  %b = stackalloc 16
  %p = gep %b, %i*1
  store %p, 1, 7
  ret 0
}
fn @main(%i: int) {
^entry:
  %x = call @big()
  %y = call @small(%i)
  ret 0
}
"""

SMALL_THEN_BIG = """
fn @small() {
^entry:
  %b = stackalloc 16
  store %b, 1, 1
  ret 0
}
fn @big(%i: int) {
^entry:
  %b = stackalloc 64
  %p = gep %b, %i*1
  store %p, 1, 7
  ret 0
}
fn @main(%i: int) {
^entry:
  %x = call @small()
  %y = call @big(%i)
  ret 0
}
"""


class TestStackReuse:
    @pytest.mark.parametrize("kind", ["prism", "prism32", "pow2"])
    def test_overflow_after_bigger_dead_frame_is_caught(self, kind):
        v = differential(BIG_THEN_SMALL, Mode(kind, 0), [20])
        assert v.ok, v.reason

    @pytest.mark.parametrize("kind", ["prism", "prism32", "pow2"])
    def test_in_bounds_after_smaller_dead_frame_passes(self, kind):
        v = differential(SMALL_THEN_BIG, Mode(kind, 0), [40])
        assert v.ok, v.reason
        assert v.oracle.exit_code == 0

    # @mk returns a pointer to its stack object (or OFFSET bytes into it);
    # @other then reuses that address for an object of another size.  The
    # pointer's tag still names @mk's object, and so must the oracle.
    @pytest.mark.parametrize("kind", ["prism", "prism32", "pow2"])
    @pytest.mark.parametrize("mk_size,other_size,offset,index,prism_exit", [
        (64, 16, 0, 20, 0),
        (16, 64, 0, 20, 2),
        (64, 16, 8, 12, 0),
        (16, 64, 8, 12, 2),
    ])
    def test_dangling_pointer_is_judged_by_its_own_object(
            self, kind, mk_size, other_size, offset, index, prism_exit):
        text = USE_AFTER_RETURN.format(mk_size=mk_size, other_size=other_size,
                                       offset=offset)
        v = differential(text, Mode(kind, 0), [index])
        assert v.ok, v.reason
        if kind == "prism":
            assert v.checks.exit_code == prism_exit


USE_AFTER_RETURN = """
fn @mk() {{
^entry:
  %b = stackalloc {mk_size}
  %c = gep %b, {offset}
  ret %c
}}
fn @other() {{
^entry:
  %b = stackalloc {other_size}
  store %b, 1, 1
  ret 0
}}
fn @main(%i: int) {{
^entry:
  %p = call @mk()
  %y = call @other()
  %q = gep %p, %i*1
  store %q, 1, 7
  ret 0
}}
"""


def test_deep_recursion_is_a_vm_error_in_both_runs():
    v = differential(RECURSIVE_PIR, Mode("prism", 0), [2000])
    assert (v.ok, v.reason) == (True, "both-vm-error")
