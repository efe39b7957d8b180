"""Instrumentation pass tests: KSA maps, windows, masks, optimizations."""

import pytest

from conftest import (
    DEEP_SHAPES,
    corpus_expectations,
    corpus_text,
    deep_program,
    instrument_text,
)
from prismbox import fuzz
from prismbox.instrument import (
    ACTIVE,
    ALL_OPTS,
    ELIDED_COMBINE,
    ELIDED_DOMINANCE,
    ELIDED_Q,
    EXECUTING,
    LOWER_DROPPED,
    instrument,
)
from prismbox.ir import parse, print_program
from prismbox.stats import build_report
from prismbox.tagging import Mode


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
        defs = {i.dest: i for i in walk.instructions() if i.dest}
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
        assert iprog.mask_counts["main"] == 1
        masks = [i for i in iprog.program.functions["main"].instructions()
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
        (load,) = [i for i in iprog.program.functions["main"].instructions()
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
        (cmp_i,) = [i for i in iprog.program.functions["main"].instructions()
                    if i.op == "ptrcmp"]
        assert all(isinstance(v, str) and v.endswith(".m")
                   for v in cmp_i.operands)

    def test_int_compare_untouched(self):
        iprog = instrument_text("""
fn @main(%x: int) {
^entry:
  %c = icmp lt %x, 4
  ret %c
}
""", opts=())
        (cmp_i,) = [i for i in iprog.program.functions["main"].instructions()
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


class TestOptLoopHoist:
    def test_counting_loop_hoisted(self):
        iprog = instrument_text(HOIST_PROGRAM, opts=("hoist",))
        (site,) = [s for s in iprog.sites if s.kind == "LoopHoisted"]
        assert site.window == (0, 400)
        assert site.widened and site.executes

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


class TestDeepPrograms:
    @pytest.mark.parametrize("shape,n", DEEP_SHAPES)
    def test_instruments_without_recursion_error(self, shape, n):
        iprog = instrument_text(deep_program(shape, n))
        ksa = iprog.ksa_maps["main"]
        if shape in ("gep", "reversed_gep"):
            assert ksa[f"p{n}"] == "p0"
        elif shape == "select":
            assert ksa[f"p{n}"] == f"p{n}.ksa"
        assert len(iprog.cfgs["main"].reachable) == len(
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
            cfg = iprog.cfgs[fn_name]
            assert cfg is iprog.infos[fn_name].cfg
            for block in fn.blocks:
                for idx, instr in enumerate(block.instrs):
                    assert cfg.position(instr) == (block.label, idx)

    def test_no_opts_leaves_all_sites_executing(self):
        iprog = instrument_text(corpus_text("cost_compare.pir"), opts=())
        assert all(s.status == ACTIVE for s in iprog.sites)
        assert all(s.status in EXECUTING or not s.executes
                   for s in iprog.sites)
