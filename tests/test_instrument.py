"""Instrumentation pass tests: KSA maps, windows, masks, optimizations."""

import pytest

from conftest import (
    DEEP_SHAPES,
    corpus_expectations,
    corpus_text,
    deep_program,
    instructions,
    instrument_text,
)
import prismbox
from prismbox import fuzz
from prismbox.analysis import CfgInfo
from prismbox.instrument import (
    ACTIVE,
    ALL_OPTS,
    ELIDED_COMBINE,
    ELIDED_DOMINANCE,
    ELIDED_Q,
    EXECUTING,
    LOWER_DROPPED,
    CheckSite,
    instrument,
    opt_combine,
)
from prismbox.ir import parse, print_program
from prismbox.oracle import differential_on
from prismbox.stats import build_report
from prismbox.tagging import MODE_KINDS, Mode
from test_vm import WIDENED_LOOP_PIR


def sites(iprog, fn=None, kind=None):
    return [s for s in iprog.sites
            if (fn is None or s.fn == fn) and (kind is None or s.kind == kind)]


class TestKsa:
    def test_gep_chain_rolls_back_to_alloc(self):
        iprog = instrument_text("""
fn @main() {
^entry:
  %a = alloc 64
  %p1 = gep %a, 16
  %p2 = gep %p1, 8
  %v = load %p2, 8
  ret %v
}
""", opts=())
        (site,) = sites(iprog, kind="Access")
        assert site.ksa == "a"
        assert site.window == (24, 32)

    def test_alloc_is_its_own_ksa(self):
        iprog = instrument_text("""
fn @main() {
^entry:
  %a = alloc 8
  %v = load %a, 8
  ret %v
}
""", opts=())
        (site,) = sites(iprog, kind="Access")
        assert site.ksa == "a"
        assert site.window == (0, 8)

    def test_loop_phi_gets_mirror_phi_ksa(self):
        iprog = instrument_text(corpus_text("linked_list.pir"), opts=())
        walk_sites = sites(iprog, fn="walk", kind="Access")
        ksas = {s.ksa for s in walk_sites}
        assert len(ksas) == 1
        mirror = ksas.pop()
        walk = iprog.program.functions["walk"]
        defs = {i.dest: i for i in instructions(walk) if i.dest}
        assert defs[mirror].op == "phi"

    def test_ksa_map_idempotent(self):
        iprog = instrument_text(corpus_text("linked_list.pir"), opts=())
        for fn, ksa_map in iprog.ksa_maps.items():
            for value, ksa in ksa_map.items():
                assert ksa_map.get(ksa, ksa) == ksa


class TestWindows:
    def test_linked_list_windows(self):
        iprog = instrument_text(corpus_text("linked_list.pir"), opts=())
        windows = sorted(s.window for s in sites(iprog, "walk", "Access"))
        assert windows == [(0, 4), (4, 8), (8, 16)]

    def test_variable_index_has_no_constant_window(self):
        iprog = instrument_text("""
fn @main(%i: int) {
^entry:
  %a = alloc 40
  %p = gep %a, %i*4
  %v = load %p, 4
  ret %v
}
""", opts=())
        (site,) = sites(iprog, kind="Access")
        assert site.var_key is not None

    @pytest.mark.parametrize("q", [0, 8, 32, 48])
    def test_variable_window_never_q_elided(self, q):
        iprog = instrument_text(corpus_text("negative_index.pir"), q=q)
        for s in iprog.sites:
            if s.var_key is not None:
                assert s.status != ELIDED_Q


class TestEscapes:
    def test_ret_of_alloc_is_static_alias(self):
        iprog = instrument_text("""
fn @main() {
^entry:
  %a = alloc 8
  ret %a
}
""", opts=())
        assert sites(iprog, kind="Escape") == []

    def test_ret_of_variable_gep_gets_site(self):
        iprog = instrument_text("""
fn @main(%n: int) {
^entry:
  %a = alloc 64
  %p = gep %a, %n*1
  ret %p
}
""", opts=())
        (site,) = sites(iprog, kind="Escape")
        assert site.ksa == "a"

    def test_storep_of_phi_is_runtime_guarded(self):
        iprog = instrument_text("""
fn @main(%n: int) {
^entry:
  %a = alloc 64
  %c = alloc 8
  %cond = icmp lt %n, 4
  condbr %cond, ^x, ^y
^x:
  %p1 = gep %a, 8
  br ^join
^y:
  %p2 = gep %a, 16
  br ^join
^join:
  %p = phi [%p1, ^x], [%p2, ^y]
  storep %c, %p
  ret 0
}
""", opts=())
        escape = [s for s in sites(iprog, kind="Escape")
                  if s.escape_value == "p"]
        assert escape and escape[0].maybe_equal

    def test_null_literal_escape_unchecked(self):
        iprog = instrument_text("""
fn @main() {
^entry:
  %c = alloc 8
  storep %c, 0
  ret 0
}
""", opts=())
        assert sites(iprog, kind="Escape") == []

    def test_nonzero_literal_escape_checked(self):
        iprog = instrument_text("""
fn @main() {
^entry:
  %c = alloc 8
  storep %c, -1
  ret 0
}
""", opts=())
        (site,) = sites(iprog, kind="Escape")
        assert site.escape_value == -1

    def test_storep_of_masked_pointer_is_static_alias(self):
        # A mask is a zero-offset link: %m aliases its KSA %a, %g does not.
        iprog = instrument_text("""
fn @main() {
^entry:
  %a = alloc 16
  %c = alloc 8
  %m = mask %a
  storep %c, %m
  %g = gep %a, 8
  storep %c, %g
  ret 0
}
""", opts=())
        (site,) = sites(iprog, kind="Escape")
        assert (site.escape_value, site.ksa) == ("g", "a")


class TestMetadataReset:
    def test_shared_ksa_masked_once(self):
        iprog = instrument_text("""
fn @main() {
^entry:
  %a = alloc 64
  %p1 = gep %a, 8
  %v1 = load %p1, 8
  %p2 = gep %a, 16
  %v2 = load %p2, 8
  %s = add %v1, %v2
  ret %s
}
""", opts=())
        masks = [i for i in instructions(iprog.program.functions["main"])
                 if i.op == "mask"]
        assert len(masks) == 1

    def test_accesses_run_on_masked_chains(self):
        iprog = instrument_text("""
fn @main() {
^entry:
  %a = alloc 16
  %v = load %a, 8
  ret %v
}
""", opts=())
        (load,) = [i for i in instructions(iprog.program.functions["main"])
                   if i.op == "load"]
        assert load.operands[0].endswith(".m")

    def test_ptrcmp_operands_masked(self):
        iprog = instrument_text("""
fn @main() {
^entry:
  %a = alloc 16
  %b = alloc 16
  %c = ptrcmp eq %a, %b
  ret %c
}
""", opts=())
        (cmp_i,) = [i for i in instructions(iprog.program.functions["main"])
                    if i.op == "ptrcmp"]
        assert all(isinstance(v, str) and v.endswith(".m")
                   for v in cmp_i.operands)

    # A user value already holds the name a masked clone (`.m`) or a
    # mirrored KSA (`.ksa`) would take; the fresh one gets a number.
    FRESH_NAMES = {
        "mask": ("""
fn @main(%n: int) {
^entry:
  %a = alloc 16
  %a.m = add %n, 1
  %p = gep %a, 8
  store %p, 8, %a.m
  %v = load %p, 8
  ret %v
}
""", "%a.m1 = mask %a"),
        "ksa": ("""
fn @main(%n: int) {
^entry:
  %a = alloc 16
  %b = alloc 16
  %c = icmp lt %n, 1
  condbr %c, ^l, ^r
^l:
  br ^j
^r:
  br ^j
^j:
  %p = phi [%a, ^l], [%b, ^r]
  %p.ksa = add %n, 1
  store %p, 8, %p.ksa
  %v = load %p, 8
  ret %v
}
""", "%p.ksa1 = phi [%a, ^l], [%b, ^r]"),
    }

    @pytest.mark.parametrize("suffix", sorted(FRESH_NAMES))
    def test_fresh_names_skip_user_values(self, suffix):
        text, line = self.FRESH_NAMES[suffix]
        iprog = instrument_text(text)
        assert "  " + line + "\n" in print_program(iprog.program)
        for n in (0, 1):
            verdict = differential_on(iprog, [n])
            assert verdict.reason == "match" and verdict.checks.ret == n + 1

    def test_int_compare_untouched(self):
        iprog = instrument_text("""
fn @main(%x: int) {
^entry:
  %c = icmp lt %x, 4
  ret %c
}
""", opts=())
        (cmp_i,) = [i for i in instructions(iprog.program.functions["main"])
                    if i.op == "icmp"]
        assert cmp_i.operands == ["x", 4]


QPAD_PROGRAM = """
fn @main() {
^entry:
  %a = alloc 16
  %v = load %a, 4
  %p = gep %a, 8
  %w = load %p, 8
  %s = add %v, %w
  ret %s
}
"""


class TestOptQpad:
    def window_status(self, q):
        iprog = instrument_text(QPAD_PROGRAM, q=q, opts=("qpad",))
        return {s.window: s.status for s in sites(iprog, kind="Access")}

    def test_q4_elides_only_the_small_window(self):
        st = self.window_status(4)
        assert st[(0, 4)] == ELIDED_Q
        assert st[(8, 16)] == ACTIVE

    def test_q8_keeps_8_16(self):
        assert self.window_status(8)[(8, 16)] == ACTIVE

    def test_q16_elides_both(self):
        assert set(self.window_status(16).values()) == {ELIDED_Q}

    def test_escapes_never_q_elided(self):
        iprog = instrument_text(corpus_text("end_escape.pir"), q=48)
        assert all(s.status != ELIDED_Q
                   for s in sites(iprog, kind="Escape"))


class TestOptLowerBound:
    def get(self, text):
        iprog = instrument_text(text, opts=("lower",))
        return sites(iprog, kind="Access")

    def test_simple_window_dropped(self):
        (s,) = self.get("""
fn @main() {
^entry:
  %a = alloc 8
  %v = load %a, 8
  ret %v
}
""")
        assert s.status == LOWER_DROPPED
        assert s.executes

    def test_offset_window_dropped(self):
        found = self.get("""
fn @main() {
^entry:
  %a = alloc 32
  %p = gep %a, 16
  %v = load %p, 8
  ret %v
}
""")
        assert found[0].window == (16, 24)
        assert found[0].status == LOWER_DROPPED

    def test_negative_offset_kept(self):
        found = self.get("""
fn @main() {
^entry:
  %a = alloc 32
  %m = gep %a, -8
  %v = load %m, 16
  ret %v
}
""")
        assert found[0].status == ACTIVE


class TestOptCombine:
    def test_dominating_superset_elides(self):
        iprog = instrument_text("""
fn @main() {
^entry:
  %a = alloc 16
  %v = load %a, 16
  %w = load %a, 8
  %s = add %v, %w
  ret %s
}
""", opts=("combine",))
        by_window = {s.window: s for s in sites(iprog, kind="Access")}
        assert by_window[(0, 16)].status == ACTIVE
        assert by_window[(0, 8)].status in (ELIDED_COMBINE, ELIDED_DOMINANCE)

    def test_ksa_invariant_rule_ignores_lower_constants(self):
        # [8, 16] treated as [ksa, ksa+16] covers the later [ksa, ksa+12].
        iprog = instrument_text("""
fn @main() {
^entry:
  %a = alloc 16
  %p = gep %a, 8
  %v = load %p, 8
  %q = gep %a, 4
  %w = load %q, 8
  %s = add %v, %w
  ret %s
}
""", opts=("combine",))
        by_window = {s.window: s for s in sites(iprog, kind="Access")}
        assert by_window[(8, 16)].status == ACTIVE
        assert by_window[(4, 12)].status == ELIDED_COMBINE

    def test_constant_over_4mb_cap_not_combined(self):
        iprog = instrument_text("""
fn @main() {
^entry:
  %a = alloc 8388624
  %v = load %a, 8388616
  %w = load %a, 8
  %s = add %v, %w
  ret %s
}
""", opts=("combine",))
        assert all(s.status == ACTIVE for s in sites(iprog, kind="Access"))

    def test_variable_windows_widen_under_postdomination(self):
        iprog = instrument_text("""
fn @main(%i: int) {
^entry:
  %a = alloc 4096
  %p = gep %a, %i*4
  %v = load %p, 4
  %q = gep %p, 8
  %w = load %q, 4
  %s = add %v, %w
  ret %s
}
""", opts=("combine",))
        found = sites(iprog, kind="Access")
        widened = [s for s in found if s.widened]
        elided = [s for s in found if not s.executes]
        assert len(widened) == 1 and len(elided) == 1
        assert widened[0].window == (0, 12)

    def test_different_ksa_not_combined(self):
        iprog = instrument_text("""
fn @main() {
^entry:
  %a = alloc 16
  %b = alloc 16
  %v = load %a, 16
  %w = load %b, 8
  %s = add %v, %w
  ret %s
}
""", opts=("combine",))
        assert all(s.status == ACTIVE for s in sites(iprog, kind="Access"))

    # Two loads of a 64-byte object, the first covering the second.
    COVERED = {
        # Variable windows [8i, 8i+8) and [8i+4, 8i+8).
        "variable": ("""
fn @main(%i: int) {
^entry:
  %a = alloc 64
  %p = gep %a, %i*8
  %v = load %p, 8
  %q = gep %a, %i*8, 4
  %w = load %q, 4
  %s = add %v, %w
  ret %s
}
""", 7, 16),
        # Constant windows [-8, 0) and [-4, 0) below a pointer loaded back
        # from memory, which is its own KSA: it points at 8i.
        "constant_negative": ("""
fn @main(%i: int) {
^entry:
  %a = alloc 64
  %cell = alloc 8
  %d = gep %a, %i*8
  storep %cell, %d
  %b = loadp %cell
  %p = gep %b, -8
  %v = load %p, 8
  %q = gep %b, -4
  %w = load %q, 4
  %s = add %v, %w
  ret %s
}
""", 1, 0),
    }

    @pytest.mark.parametrize("kind", MODE_KINDS)
    @pytest.mark.parametrize("shape", sorted(COVERED))
    def test_covered_window_elided_by_dominance(self, kind, shape):
        text, good, bad = self.COVERED[shape]
        iprog = instrument_text(text, kind, 8)
        first, second = [s for s in sites(iprog, kind="Access")
                         if s.origin.op == "load"]
        assert first.status == ACTIVE and not first.widened
        assert second.status == ELIDED_DOMINANCE
        inside = differential_on(iprog, [good])
        assert inside.ok and inside.checks.exit_code == 0
        outside = differential_on(iprog, [bad])
        assert outside.ok and outside.checks.exit_code == 2
        assert outside.checks.violation.sid == first.sid

    # The header's check runs on i = 0..4; the exit's access runs once, at
    # [8*4 - 8, 8*4).  Widening the header's check over it would fail at
    # i = 0, before the exit is reached.
    REPEATING_PROGRAM = """
fn @main() {
^entry:
  %a = alloc 64
  br ^head
^head:
  %i = phi [0, ^entry], [%i2, ^body]
  %p = gep %a, %i*8
  %v = load %p, 8
  %c = icmp lt %i, 4
  condbr %c, ^body, ^done
^body:
  %i2 = add %i, 1
  br ^head
^done:
  %q = gep %a, %i*8, -8
  %w = load %q, 8
  ret %w
}
"""

    @pytest.mark.parametrize("kind", MODE_KINDS)
    def test_check_that_repeats_before_the_access_is_not_widened(self, kind):
        iprog = instrument_text(self.REPEATING_PROGRAM, kind)
        found = sites(iprog, kind="Access")
        assert not any(s.widened for s in found)
        assert all(s.executes for s in found)
        verdict = differential_on(iprog, [])
        assert verdict.reason == "match" and verdict.checks.exit_code == 0

    # Two loads of one KSA that combining leaves alone: the later one has no
    # constant window (a mask of a gep is not its own KSA), or the two sit in
    # the arms of a diamond, where neither dominates the other.  On input 1
    # the right arm's access is 8 bytes past the object.
    UNCOMBINED = {
        "later_without_window": ("""
fn @main() {
^entry:
  %a = alloc 16
  %v = load %a, 8
  %g = gep %a, 8
  %m = mask %g
  %w = load %m, 8
  %s = add %v, %w
  ret %s
}
""", 0),
        "arms_of_a_diamond": ("""
fn @main(%n: int) {
^entry:
  %a = alloc 8
  %c = icmp lt %n, 1
  condbr %c, ^left, ^right
^left:
  %v = load %a, 16
  ret %v
^right:
  %p = gep %a, 8
  %w = load %p, 8
  ret %w
}
""", 2),
    }

    @pytest.mark.parametrize("shape", sorted(UNCOMBINED))
    def test_pair_left_alone(self, shape):
        text, code = self.UNCOMBINED[shape]
        iprog = instrument_text(text)
        first, second = sites(iprog, kind="Access")
        assert first.ksa == second.ksa == "a"
        assert first.executes and second.executes and not first.widened
        verdict = differential_on(iprog, [1])
        assert verdict.reason == "match" and verdict.checks.exit_code == code
        if code:
            assert verdict.checks.violation.sid == second.sid

    @pytest.mark.parametrize("text", [
        WIDENED_LOOP_PIR.replace("FIRST", "0").replace("SECOND", "8"),
        """
fn @main(%i: int, %n: int) {
^entry:
  %a = alloc 64
  %p = gep %a, %i*8
  %v = load %p, 8
  %c = icmp lt %n, 1
  condbr %c, ^x, ^y
^x:
  br ^join
^y:
  br ^join
^join:
  %q = gep %a, %i*8, 8
  %w = load %q, 8
  %s = add %v, %w
  ret %s
}
"""], ids=["one_loop_block", "across_a_diamond"])
    def test_check_that_cannot_repeat_first_still_widens(self, text):
        iprog = instrument_text(text)
        (widened,) = [s for s in sites(iprog, kind="Access") if s.widened]
        assert widened.window == (0, 16)
        assert [s.status for s in sites(iprog, kind="Access")
                if s is not widened] == [ELIDED_COMBINE]

    def test_scan_pairs_sites_only_within_a_variable_part(self, monkeypatch):
        # One KSA, n constant and n variable windows, interleaved; none
        # covers a later one, and an alloc between each pair stops widening.
        n = 20
        body = "".join(f"  %c{k} = gep %a, {8 * k}\n  %x{k} = load %c{k}, 8\n"
                       f"  %v{k} = gep %a, %i*8, {8 * k}\n"
                       f"  %y{k} = load %v{k}, 8\n  %k{k} = alloc 8\n"
                       for k in range(n))
        iprog = instrument_text("fn @main(%i: int) {\n^entry:\n"
                                f"  %a = alloc 4096\n{body}  ret 0\n}}\n",
                                opts=())
        calls = {"dominates": 0, "executes": 0}
        dominates = CfgInfo.dominates

        def counting_dominates(cfg, a, b):
            calls["dominates"] += 1
            return dominates(cfg, a, b)

        def counting_executes(site):
            calls["executes"] += 1
            return site.status in EXECUTING

        monkeypatch.setattr(CfgInfo, "dominates", counting_dominates)
        monkeypatch.setattr(CheckSite, "executes", property(counting_executes))
        opt_combine(iprog)
        assert {s.status for s in iprog.sites} == {ACTIVE}
        # n choose 2 pairs in each of the two groups; a scan of the whole
        # KSA would look at 2n choose 2 = 780.
        assert calls["dominates"] == n * (n - 1)
        assert calls["executes"] <= 2 * n + n * (n - 1)


HOIST_PROGRAM = """
fn @main() {
^entry:
  %a = alloc 400
  br ^hdr
^hdr:
  %i = phi [0, ^entry], [%i2, ^body]
  %c = icmp lt %i, 100
  condbr %c, ^body, ^done
^body:
  %p = gep %a, %i*4
  store %p, 4, %i
  %i2 = add %i, 1
  br ^hdr
^done:
  ret 0
}
"""


# `for i = START; COND; i++` loads a[i], 8 bytes each, from an object %a
# allocated in ENTRY or in BODY.
COUNTING_LOOP = """
fn @main(%n: int) {
^entry:
  ENTRY
  br ^hdr
^hdr:
  %i = phi [START, ^entry], [%i2, ^body]
  %c = icmp lt COND
  condbr %c, THEN
^body:
  BODY
  %p = gep %a, %i*8
  %v = load %p, 8
  %i2 = add %i, 1
  br ^hdr
^done:
  ret 0
}
"""


def counting_loop(size=64, start=0, cond="%i, 8", then="^body, ^done",
                  alloc_in_body=False):
    alloc = f"%a = alloc {size}"
    return (COUNTING_LOOP.replace("ENTRY", "" if alloc_in_body else alloc)
            .replace("BODY", alloc if alloc_in_body else "")
            .replace("START", str(start)).replace("COND", cond)
            .replace("THEN", then))


# Loops over a[i] that no LoopHoisted check may cover: name -> (program,
# input, exit code).  The loads are in bounds except in "window_over_cap",
# whose 64-byte object ends at i = 8, and in "three_incomings", whose second
# back edge sets i to -2 once.
NOT_HOISTED = {
    # The KSA is allocated inside the loop.
    "ksa_in_loop": (counting_loop(alloc_in_body=True), 0, 0),
    # The window, 8 * 2^28 bytes, is over HOIST_CAP.
    "window_over_cap": (counting_loop(cond="%i, 268435456"), 0, 2),
    # The loop leaves when its compare holds, here at once.
    "exits_when_true": (counting_loop(size=8, then="^done, ^body"), 0, 0),
    # The compare reads a parameter, not a phi; n = 8 runs no trip.
    "compares_a_parameter": (counting_loop(size=8, cond="%n, 8"), 8, 0),
    # The loop never runs its body.
    "zero_trips": (counting_loop(size=8, start=8), 0, 0),
    "three_incomings": ("""
fn @main(%n: int) {
^entry:
  %a = alloc 64
  br ^hdr
^hdr:
  %i = phi [0, ^entry], [%i2, ^latch], [%i3, ^back]
  %f = phi [0, ^entry], [%f, ^latch], [1, ^back]
  %c = icmp lt %i, 8
  condbr %c, ^body, ^done
^body:
  %p = gep %a, %i*8
  %v = load %p, 8
  %at = icmp eq %i, %n
  %first = icmp eq %f, 0
  %jump = mul %at, %first
  condbr %jump, ^back, ^latch
^back:
  %i3 = sub %i, 5
  condbr 1, ^hdr, ^latch
^latch:
  %i2 = add %i, 1
  br ^hdr
^done:
  ret 0
}
""", 3, 2),
}


class TestOptLoopHoist:
    def test_counting_loop_hoisted(self):
        iprog = instrument_text(HOIST_PROGRAM, opts=("hoist",))
        (site,) = [s for s in iprog.sites if s.kind == "LoopHoisted"]
        assert site.window == (0, 400)
        assert site.widened and site.executes

    def test_ksa_loaded_in_the_loop_not_hoisted(self):
        # The loop holds no op that may end the run, but the preheader
        # cannot compute %a's KSA.
        iprog = instrument_text(COUNTING_LOOP.replace(
            "ENTRY", "%b = alloc 64\n  %cell = alloc 8\n  storep %cell, %b")
            .replace("BODY", "%a = loadp %cell").replace("START", "0")
            .replace("COND", "%i, 8").replace("THEN", "^body, ^done"),
            opts=("hoist",))
        assert not [s for s in iprog.sites if s.kind == "LoopHoisted"]
        assert differential_on(iprog, [0]).reason == "match"

    def test_guarded_access_not_hoisted(self):
        iprog = instrument_text("""
fn @main(%n: int) {
^entry:
  %a = alloc 400
  br ^hdr
^hdr:
  %i = phi [0, ^entry], [%i2, ^latch]
  %c = icmp lt %i, 100
  condbr %c, ^body, ^done
^body:
  %g = icmp lt %i, %n
  condbr %g, ^then, ^latch
^then:
  %p = gep %a, %i*4
  store %p, 4, %i
  br ^latch
^latch:
  %i2 = add %i, 1
  br ^hdr
^done:
  ret 0
}
""", opts=("hoist",))
        assert not [s for s in iprog.sites if s.kind == "LoopHoisted"]

    def test_variable_trip_count_not_hoisted(self):
        iprog = instrument_text("""
fn @main(%n: int) {
^entry:
  %a = alloc 400
  br ^hdr
^hdr:
  %i = phi [0, ^entry], [%i2, ^body]
  %c = icmp lt %i, %n
  condbr %c, ^body, ^done
^body:
  %p = gep %a, %i*4
  store %p, 4, %i
  %i2 = add %i, 1
  br ^hdr
^done:
  ret 0
}
""", opts=("hoist",))
        assert not [s for s in iprog.sites if s.kind == "LoopHoisted"]

    # Counts to 8 over a 16-byte object but breaks out after a[1].
    EARLY_EXIT_PROGRAM = """
fn @main() {
^entry:
  %a = alloc 16
  br ^head
^head:
  %i = phi [0, ^entry], [%i2, ^next]
  %c = icmp lt %i, 8
  condbr %c, ^body, ^done
^body:
  %p = gep %a, %i*8
  %v = load %p, 8
  %b = icmp eq %i, 1
  condbr %b, ^done, ^next
^next:
  %i2 = add %i, 1
  br ^head
^done:
  ret 0
}
"""

    @pytest.mark.parametrize("kind", MODE_KINDS)
    def test_loop_with_an_early_exit_not_hoisted(self, kind):
        iprog = instrument_text(self.EARLY_EXIT_PROGRAM, kind)
        (site,) = sites(iprog, kind="Access")
        assert site.origin.op == "load" and site.executes
        assert not [s for s in iprog.sites if s.kind == "LoopHoisted"]
        verdict = differential_on(iprog, [])
        assert verdict.reason == "match" and verdict.checks.exit_code == 0

    @pytest.mark.parametrize("kind", MODE_KINDS)
    @pytest.mark.parametrize("shape", sorted(NOT_HOISTED))
    def test_loop_not_hoisted(self, shape, kind):
        text, n, code = NOT_HOISTED[shape]
        iprog = instrument_text(text, kind)
        assert not [s for s in iprog.sites if s.kind == "LoopHoisted"]
        (site,) = sites(iprog, kind="Access")
        assert site.status == ACTIVE
        verdict = differential_on(iprog, [n])
        assert verdict.reason == "match" and verdict.checks.exit_code == code
        if code:
            assert verdict.checks.violation.sid == site.sid


# @spin recurses without end, so a call to it ends the run in a VmError.
SPIN_PIR = """
fn @spin(%x: int) {
^entry:
  %r = call @spin(%x)
  ret %r
}
"""

# Counts to 8 over a[i] of a 16-byte object, so a hoisted check of the
# whole window aborts; the unhoisted run loads a[0] and then ends at END.
HOIST_OVER_PIR = SPIN_PIR + """
fn @main() {
^entry:
  %a = alloc 16
  br ^hdr
^hdr:
  %i = phi [0, ^entry], [%i2, ^body]
  %c = icmp lt %i, 8
  condbr %c, ^body, ^done
^body:
  %p = gep %a, %i*8
  %v = load %p, 8
  END
  %i2 = add %i, 1
  br ^hdr
^done:
  ret 0
}
"""

# At i = 1 the load of a[i] is in bounds and that of a[i] + 24 is past the
# 16-byte object and pow2's 32-byte block; a call between them ends the run.
WIDEN_OVER_CALL_PIR = SPIN_PIR + """
fn @main(%i: int) {
^entry:
  %a = alloc 16
  %p = gep %a, %i*8
  %v = load %p, 8
  %r = call @spin(0)
  %q = gep %a, %i*8, 24
  %w = load %q, 8
  ret %w
}
"""

MUST_EXECUTE = {
    "hoist_over_call": HOIST_OVER_PIR.replace("END", "%r = call @spin(%v)"),
    "hoist_over_failing_alloc": HOIST_OVER_PIR.replace(
        "END", "%b = alloc 4294967295"),
    "widen_over_call": WIDEN_OVER_CALL_PIR,
}


class TestMustExecute:
    """No check moves ahead of an op that may end the run.  Before this
    rule, each program's checks run aborted at the moved check while the
    oracle run ended in the op's VmError: `vm-error-mismatch`."""

    @pytest.mark.parametrize("kind", MODE_KINDS)
    @pytest.mark.parametrize("shape", sorted(MUST_EXECUTE))
    def test_no_check_moves_over_an_op_that_may_end_the_run(self, shape,
                                                           kind):
        iprog = instrument_text(MUST_EXECUTE[shape], kind)
        verdict = differential_on(iprog, [1])
        assert (verdict.ok, verdict.reason) == (True, "both-vm-error")
        assert not [s for s in iprog.sites
                    if s.kind == "LoopHoisted" or s.widened]


class TestDeepPrograms:
    @pytest.mark.parametrize("shape,n", DEEP_SHAPES)
    def test_instruments_without_recursion_error(self, shape, n):
        iprog = instrument_text(deep_program(shape, n))
        ksa = iprog.ksa_maps["main"]
        if shape in ("gep", "reversed_gep"):
            assert ksa[f"p{n}"] == "p0"
        elif shape == "select":
            assert ksa[f"p{n}"] == f"p{n}.ksa"
        assert len(iprog.infos["main"].cfg.reachable) == len(
            iprog.program.functions["main"].blocks)


class TestPipeline:
    def test_deterministic_site_tables(self):
        text = corpus_text("cost_compare.pir")
        a = instrument_text(text, q=8)
        b = instrument_text(text, q=8)
        assert a.site_table() == b.site_table()
        assert print_program(a.program) == print_program(b.program)

    @pytest.mark.parametrize("name", ["linked_list.pir", "cost_compare.pir",
                                      "backward.pir", "negative_copy.pir"])
    @pytest.mark.parametrize("q", [0, 8, 32])
    def test_stats_identity_on_corpus(self, name, q):
        iprog = instrument_text(corpus_text(name), q=q)
        assert build_report(iprog).identity_ok()

    @pytest.mark.parametrize("seed", range(15))
    def test_stats_identity_on_generated(self, seed):
        text, _ = fuzz.generate(seed)
        for kind in ("prism", "pow2", "prism32"):
            iprog = instrument(parse(text), Mode(kind, 8))
            assert build_report(iprog).identity_ok()

    @pytest.mark.parametrize(
        "name", [case["file"] for case in corpus_expectations()["cases"]])
    def test_one_cfg_per_function_with_fresh_positions(self, name):
        iprog = instrument_text(corpus_text(name), q=8)
        for fn_name, fn in iprog.program.functions.items():
            cfg = iprog.infos[fn_name].cfg
            for block in fn.blocks:
                for idx, instr in enumerate(block.instrs):
                    assert cfg.position(instr) == (block.label, idx)

    def test_instrument_text_parses_then_instruments(self):
        text = corpus_text("cost_compare.pir")
        got = prismbox.instrument_text(text, Mode("pow2", 8))
        want = instrument(parse(text), Mode("pow2", 8))
        assert got.site_table() == want.site_table()
        assert print_program(got.program) == print_program(want.program)

    def test_no_opts_leaves_all_sites_executing(self):
        iprog = instrument_text(corpus_text("cost_compare.pir"), opts=())
        assert all(s.status == ACTIVE for s in iprog.sites)
        assert all(s.status in EXECUTING or not s.executes
                   for s in iprog.sites)
