"""Interpreter tests: execution semantics, dynamic checks, extern boundary."""

import pytest

from conftest import (FORGED_TAGS, RECURSIVE_PIR, corpus_expectations,
                      corpus_text, instrument_text, outcome, run_text, tiered)
from prismbox import fuzz
from prismbox import vm as vm_module
from prismbox.instrument import ELIDED_Q
from prismbox.vm import VM, EXIT_BOUNDS, EXIT_ESCAPE, EXIT_OK, VmError


class TestBasicExecution:
    def test_arithmetic_and_return(self):
        res, _, _ = run_text("""
fn @main(%x: int) {
^entry:
  %y = add %x, 5
  %z = mul %y, 3
  ret %z
}
""", inputs=[7])
        assert (res.exit_code, res.ret) == (EXIT_OK, 36)

    def test_memory_roundtrip(self):
        res, _, _ = run_text("""
fn @main() {
^entry:
  %a = alloc 16
  store %a, 8, 1234
  %v = load %a, 8
  ret %v
}
""")
        assert res.ret == 1234

    def test_store_truncation(self):
        res, _, _ = run_text("""
fn @main() {
^entry:
  %a = alloc 8
  store %a, 1, 511
  %v = load %a, 1
  ret %v
}
""")
        assert res.ret == 255

    def test_select_and_calls(self):
        res, _, _ = run_text("""
fn @pick(%c: int, %x: int, %y: int) {
^entry:
  %r = select %c, %x, %y
  ret %r
}
fn @main() {
^entry:
  %a = call @pick(1, 10, 20)
  %b = call @pick(0, 10, 20)
  %s = add %a, %b
  ret %s
}
""")
        assert res.ret == 30

    def test_phi_loop_sum(self):
        res, _, _ = run_text("""
fn @main(%n: int) {
^entry:
  br ^hdr
^hdr:
  %i = phi [0, ^entry], [%i2, ^body]
  %s = phi [0, ^entry], [%s2, ^body]
  %c = icmp lt %i, %n
  condbr %c, ^body, ^done
^body:
  %s2 = add %s, %i
  %i2 = add %i, 1
  br ^hdr
^done:
  ret %s
}
""", inputs=[10])
        assert res.ret == 45

    def test_step_limit(self):
        with pytest.raises(VmError):
            run_text("""
fn @main() {
^entry:
  br ^spin
^spin:
  br ^spin
}
""", step_limit=1000)

    @pytest.mark.parametrize("kind,q", [("prism", 0), ("prism", 16),
                                        ("pow2", 0), ("prism32", 8)])
    def test_determinism(self, kind, q):
        text = corpus_text("linked_list.pir")
        a, _, _ = run_text(text, kind, q, inputs=[50], trace=True)
        b, _, _ = run_text(text, kind, q, inputs=[50], trace=True)
        assert (a.exit_code, a.ret, a.steps, a.trace) == \
            (b.exit_code, b.ret, b.steps, b.trace)


class TestViolations:
    def test_partial_struct_caught_then_missed(self):
        text = corpus_text("partial_struct.pir")
        res, _, _ = run_text(text, q=0)
        assert res.exit_code == EXIT_BOUNDS
        assert res.violation.reason == "upper_bound"
        res48, _, _ = run_text(text, q=48)
        assert res48.exit_code == EXIT_OK

    def test_escape_violation(self):
        res, _, _ = run_text(corpus_text("end_escape.pir"))
        assert res.exit_code == EXIT_ESCAPE
        assert res.violation.reason == "escape_invariant"

    def test_violation_report_shape(self):
        res, _, _ = run_text(corpus_text("off_by_one.pir"))
        v = res.violation
        assert v.exit_code == EXIT_BOUNDS
        assert v.fn == "main" and v.sid >= 0 and v.size == 1
        data = v.to_dict()
        assert data["reason"] == "upper_bound"
        assert data["ptr"].startswith("0x")

    def test_no_write_at_or_after_violation(self):
        res, _, vm = run_text("""
fn @main() {
^entry:
  %a = alloc 8
  %cell = alloc 8
  %p = gep %a, 12
  %v = load %p, 4
  store %cell, 8, 77
  ret %v
}
""")
        assert res.exit_code == EXIT_BOUNDS and res.ret is None
        cell = [r for r in vm.mem.records if r.request_size == 8][-1]
        assert vm.mem.read(cell.sa, 8) == bytes(8)

    def test_widened_check_runs_the_hull(self):
        text = """
fn @main(%i: int) {
^entry:
  %a = alloc 32
  %p = gep %a, %i*4
  %v = load %p, 4
  %q = gep %p, 8
  %w = load %q, 4
  %s = add %v, %w
  ret %s
}
"""
        ok, iprog, _ = run_text(text, inputs=[2])
        assert ok.exit_code == EXIT_OK
        assert any(s.widened for s in iprog.sites)
        # i=6: first access [24,28] fits, second [32,36] does not; the
        # widened first check already covers the hull and aborts.
        bad, _, _ = run_text(text, inputs=[6])
        assert bad.exit_code == EXIT_BOUNDS

    def test_hoisted_check_aborts_before_the_loop(self):
        text = """
fn @main() {
^entry:
  %a = alloc 200
  %cell = alloc 8
  br ^hdr
^hdr:
  %i = phi [0, ^entry], [%i2, ^body]
  %c = icmp lt %i, 100
  condbr %c, ^body, ^done
^body:
  %p = gep %a, %i*4
  store %p, 4, %i
  store %cell, 8, 1
  %i2 = add %i, 1
  br ^hdr
^done:
  ret 0
}
"""
        res, iprog, vm = run_text(text)
        assert res.exit_code == EXIT_BOUNDS
        assert res.violation.kind == "LoopHoisted"
        # Aborted in the preheader: not even the first iteration ran.
        cell = [r for r in vm.mem.records if r.request_size == 8][-1]
        assert vm.mem.read(cell.sa, 8) == bytes(8)
        # The oracle checks the covered access itself, and says so.
        exact = VM(iprog, backend="oracle").run().violation
        assert (exact.kind, exact.sid) == ("Access", res.violation.sid)


class TestDynamicStats:
    def test_linked_list_q16_no_dynamic_checks(self):
        res, _, _ = run_text(corpus_text("linked_list.pir"), q=16,
                             inputs=[1000])
        assert res.exit_code == EXIT_OK
        assert res.check_stats.dynamic_checks == 0

    def test_backward_walk_fetches_sa(self):
        res, _, _ = run_text(corpus_text("backward.pir"), opts=())
        assert res.exit_code == EXIT_OK
        assert res.check_stats.sa_fetches == 7
        assert all(ptr < ksa for ptr, ksa in res.check_stats.fetch_log)

    def test_trace_lines(self):
        res, _, _ = run_text("""
fn @main() {
^entry:
  %a = alloc 8
  %v = load %a, 8
  ret %v
}
""", opts=(), trace=True)
        (line,) = res.trace
        assert line.startswith("[sid ")
        assert "access @main" in line and line.endswith("-> ok")

    def test_literal_escape_abort_is_counted(self):
        # A literal escapes without the predicate; its abort counts as the
        # predicate's escape abort does.
        literal, _, _ = run_text("fn @main() {\n^entry:\n  %c = alloc 8\n"
                                 "  storep %c, 1\n  ret 0\n}\n", opts=())
        predicate, _, _ = run_text(corpus_text("end_escape.pir"))
        for res in (literal, predicate):
            assert res.exit_code == EXIT_ESCAPE
            assert res.check_stats.aborts == 1


class TestExternBoundary:
    def test_copy_contract_ok(self):
        res, _, _ = run_text(corpus_text("negative_copy.pir"), inputs=[16])
        assert (res.exit_code, res.ret) == (EXIT_OK, 42)

    def test_copy_negative_length_boundary_abort(self):
        res, _, _ = run_text(corpus_text("negative_copy.pir"), inputs=[-1])
        assert res.exit_code == EXIT_BOUNDS
        assert res.violation.kind == "boundary"

    def test_copy_over_dest_size_aborts(self):
        res, _, _ = run_text(corpus_text("negative_copy.pir"), inputs=[65])
        assert res.exit_code == EXIT_BOUNDS

    def test_extern_alloc_returns_tagged_buffer(self):
        res, _, vm = run_text("""
extern @mkbuf kind=alloc
fn @main() {
^entry:
  %p = extern @mkbuf(64)
  store %p, 8, 9
  %v = load %p, 8
  ret %v
}
""")
        assert (res.exit_code, res.ret) == (EXIT_OK, 9)
        rec = vm.mem.records[-1]
        assert rec.ea - rec.sa == 64

    def test_extern_pure_strips_pointer_args(self):
        res, _, _ = run_text("""
extern @blend kind=pure
fn @main() {
^entry:
  %x = extern @blend(3, 4)
  ret %x
}
""")
        assert res.exit_code == EXIT_OK


class TestStackFrames:
    def test_nested_calls_release_stack(self):
        res, _, vm = run_text("""
fn @leaf(%x: int) {
^entry:
  %s = stackalloc 32
  store %s, 8, %x
  %v = load %s, 8
  ret %v
}
fn @main() {
^entry:
  %a = call @leaf(1)
  %b = call @leaf(2)
  %s = add %a, %b
  ret %s
}
""")
        assert (res.exit_code, res.ret) == (EXIT_OK, 3)
        stack = [r for r in vm.mem.records if r.kind == "stack"]
        assert stack and all(not r.live for r in stack)

    def test_caller_frame_survives_callee_return(self):
        res, _, _ = run_text("""
fn @leaf() {
^entry:
  %s = stackalloc 16
  store %s, 8, 5
  %v = load %s, 8
  ret %v
}
fn @main(%n: int) {
^entry:
  %mine = alloca_dyn %n
  store %mine, 8, 7
  %x = call @leaf()
  %v = load %mine, 8
  %s = add %x, %v
  ret %s
}
""", inputs=[64])
        assert (res.exit_code, res.ret) == (EXIT_OK, 12)


def test_globals_allocated_and_checked():
    res, _, _ = run_text("""
global @g size=16 escapes=true
fn @main() {
^entry:
  %p = gaddr @g
  store %p, 8, 3
  %v = load %p, 8
  ret %v
}
""")
    assert (res.exit_code, res.ret) == (EXIT_OK, 3)
    bad, _, _ = run_text("""
global @g size=16 escapes=true
fn @main() {
^entry:
  %p = gaddr @g
  %q = gep %p, 16
  %v = load %q, 8
  ret %v
}
""")
    assert bad.exit_code == EXIT_BOUNDS


class TestCallDepth:
    def test_moderate_recursion_returns(self):
        res, _, _ = run_text(RECURSIVE_PIR, inputs=[100])
        assert (res.exit_code, res.ret) == (EXIT_OK, 100)

    @pytest.mark.parametrize("backend", ["checks", "oracle"])
    def test_deep_recursion_raises_vm_error(self, backend):
        with pytest.raises(VmError, match="call depth"):
            run_text(RECURSIVE_PIR, inputs=[2000], backend=backend)


SPIN_PIR = """
fn @main() {
^entry:
  br ^spin
^spin:
  %i = phi [0, ^entry], [%j, ^spin]
  %j = add %i, 1
  br ^spin
}
"""


class TestPlans:
    @pytest.mark.parametrize("limit", [1, 2, 1000])
    def test_step_limit_is_exact(self, limit):
        # The limit is tested at each step that is not a phi.
        vm = VM(instrument_text("fn @main() {\n^entry:\n  br ^spin\n"
                                "^spin:\n  br ^spin\n}\n"),
                step_limit=limit)
        with pytest.raises(VmError, match="step limit exceeded"):
            vm.run()
        assert vm.steps == limit + 1

    @pytest.mark.parametrize("limit", [1, 2, 1000])
    def test_step_limit_is_exact_on_phis(self, limit):
        # The limit can be crossed inside a block's phi prefix too.
        vm = VM(instrument_text("fn @main() {\n^entry:\n  br ^spin\n"
                                "^spin:\n  %i = phi [0, ^entry], [%j, ^spin]\n"
                                "  %j = add %i, 1\n  br ^spin\n}\n"),
                step_limit=limit)
        with pytest.raises(VmError, match="step limit exceeded"):
            vm.run()
        assert vm.steps == limit + 1

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend 'exact'"):
            VM(instrument_text(SPIN_PIR), backend="exact")

    @pytest.mark.parametrize("kind,q", [("prism", 0), ("pow2", 8),
                                        ("prism32", 32)])
    @pytest.mark.parametrize("case", [c["name"] for c in
                                      corpus_expectations()["cases"]])
    def test_shared_plans_match_fresh_programs(self, case, kind, q):
        spec = next(c for c in corpus_expectations()["cases"]
                    if c["name"] == case)
        text, inputs = corpus_text(spec["file"]), spec.get("inputs", [])
        shared = instrument_text(text, kind, q)
        for backend, trace in [("checks", False), ("oracle", False),
                               ("checks", True)]:
            fresh = instrument_text(text, kind, q)
            got, want = (outcome(iprog, inputs, backend, trace)
                         for iprog in (shared, fresh))
            assert got == want
            plans = {name: dict(p) for name, p in shared.plans.items()}
            assert plans and all(plans.values())
        # Every later run reused the plans decoded by the first.
        assert all(p is shared.plans[name][label]
                   for name, fn_plans in plans.items()
                   for label, p in fn_plans.items())

    def test_handler_builds_are_bounded_by_op_shape(self, monkeypatch):
        # A handler is built once per mode and op shape (a comparison, a
        # gep's term count), never per instruction or per program.
        def decode(seeds):
            for seed in seeds:
                iprog = instrument_text(fuzz.generate(seed, "mixed")[0],
                                        "pow2", 8)
                for fn in iprog.program.functions.values():
                    plans = vm_module._FunctionPlans(iprog, fn)
                    for label in plans.blocks:
                        plans[label]
            return plans

        warm = decode(range(300))
        built, handler = [], vm_module._handler
        monkeypatch.setattr(vm_module, "_handler",
                            lambda *a: built.append(a) or handler(*a))
        assert decode(range(1000, 1200)).handlers is warm.handlers
        assert built == []


# A threshold no block reaches: every block stays on the interpreter.
NEVER_HOT = 1 << 62
DEFAULT_HOT = vm_module.HOT_THRESHOLD
TIER_MODES = [(kind, q) for kind in ("prism", "pow2", "prism32")
              for q in (0, 8, 32)]

# Each @main loop block is entered once per iteration: a signed compare, a
# check that aborts and a forged pointer are met inside a hot block.
# CALL_LOOP_PIR's loop holds a call, so it stays interpreted;
# SPLIT_CALL_LOOP_PIR moves the call to a block of its own, so the loop
# header compiles.
CALL_LOOP_PIR = """
fn @inc(%x: int) {
^entry:
  %y = add %x, 1
  ret %y
}
fn @main(%n: int) {
^entry:
  br ^loop
^loop:
  %i = phi [-3, ^entry], [%i2, ^loop]
  %s = phi [0, ^entry], [%s2, ^loop]
  %a = add %s, %i
  %s2 = call @inc(%a)
  %i2 = add %i, 1
  %c = icmp lt %i2, %n
  condbr %c, ^loop, ^done
^done:
  ret %s2
}
"""

SPLIT_CALL_LOOP_PIR = """
fn @inc(%x: int) {
^entry:
  %y = add %x, 1
  ret %y
}
fn @main(%n: int) {
^entry:
  br ^loop
^loop:
  %i = phi [-3, ^entry], [%i2, ^call]
  %s = phi [0, ^entry], [%s2, ^call]
  %a = add %s, %i
  %i2 = add %i, 1
  %c = icmp lt %i2, %n
  condbr %c, ^call, ^done
^call:
  %s2 = call @inc(%a)
  br ^loop
^done:
  ret %s
}
"""

ARRAY_LOOP_PIR = """
fn @main(%n: int) {
^entry:
  %a = alloc 800
  %cell = alloc 8
  store %cell, 8, TAG
  %f = loadp %cell
  br ^loop
^loop:
  %i = phi [0, ^entry], [%i2, ^loop]
  %s = phi [0, ^entry], [%s2, ^loop]
  %p = gep %a, %i*8
  %v = load %p, 8
  %early = icmp lt %i, 60
  %x = select %early, %i, %n
  %r = select %early, %a, %f
  %w = load %r, 8
  %s1 = add %s, %v
  %s2 = add %s1, %x
  %i2 = add %i, 1
  %c = icmp lt %i2, %n
  condbr %c, ^loop, ^done
^done:
  ret %s2
}
"""


# The last of n calls hands @sum4 an object 8 bytes short of the 32 bytes
# its hoisted loop window covers (pow2 aligns 24 up to 32, the window's
# end).  @sum4's entry block holds the hoisted check.
HOISTED_CALLS_PIR = """
fn @sum4(%a: ptr) {
^entry:
  br ^hdr
^hdr:
  %i = phi [0, ^entry], [%i2, ^body]
  %s = phi [0, ^entry], [%s2, ^body]
  %c = icmp lt %i, 4
  condbr %c, ^body, ^done
^body:
  %p = gep %a, %i*8
  %v = load %p, 8
  %s2 = add %s, %v
  %i2 = add %i, 1
  br ^hdr
^done:
  ret %s
}
fn @main(%n: int) {
^entry:
  br ^loop
^loop:
  %k = phi [1, ^entry], [%k2, ^loop]
  %t = phi [0, ^entry], [%t2, ^loop]
  %last = icmp eq %k, %n
  %size = select %last, 24, 32
  %a = alloc %size
  %r = call @sum4(%a)
  %t2 = add %t, %r
  %k2 = add %k, 1
  %c = icmp le %k2, %n
  condbr %c, ^loop, ^done
^done:
  ret %t2
}
"""

# Two loads at %i*8 + FIRST and %i*8 + SECOND share one check of their
# widened 16-byte window; at i=62 that window ends 8 bytes past %a.
WIDENED_LOOP_PIR = """
fn @main(%n: int) {
^entry:
  %a = alloc 504
  br ^loop
^loop:
  %i = phi [0, ^entry], [%i2, ^loop]
  %s = phi [0, ^entry], [%s2, ^loop]
  %p = gep %a, %i*8, FIRST
  %v = load %p, 8
  %q = gep %a, %i*8, SECOND
  %w = load %q, 8
  %s1 = add %s, %v
  %s2 = add %s1, %w
  %i2 = add %i, 1
  %c = icmp lt %i2, %n
  condbr %c, ^loop, ^done
^done:
  ret %s2
}
"""

# shape -> (program, input, the function and block that hold the check)
WINDOW_ABORTS = {
    "hoisted": (HOISTED_CALLS_PIR, 60, "sum4", "entry"),
    "widened": (WIDENED_LOOP_PIR.replace("FIRST", "0")
                .replace("SECOND", "8"), 63, "main", "loop"),
    "widened_reanchored": (WIDENED_LOOP_PIR.replace("FIRST", "8")
                           .replace("SECOND", "0"), 63, "main", "loop"),
}


# Each trip stores three pointers: the phi %p, which at run time is its own
# KSA (no check counted), the in-bounds %g (one check), and %h, which is
# %a + 16 but %a + %bad on trip 60.  %a's 63 bytes end where pow2's aligned
# block does, so one byte past the EA fails in every mode.
ESCAPE_LOOP_PIR = """
fn @main(%n: int, %bad: int) {
^entry:
  %a = alloc 63
  %cell = alloc 8
  br ^loop
^loop:
  %i = phi [0, ^entry], [%i2, ^loop]
  %p = phi [%a, ^entry], [%p, ^loop]
  storep %cell, %p
  %g = gep %a, 8
  storep %cell, %g
  %at = icmp eq %i, 60
  %off = select %at, %bad, 16
  %h = gep %a, %off*1
  storep %cell, %h
  %i2 = add %i, 1
  %c = icmp lt %i2, %n
  condbr %c, ^loop, ^done
^done:
  ret %i2
}
"""


def _array_loop(kind="prism", tag=0):
    """ARRAY_LOOP_PIR without checks to hoist; from i=60 on it loads
    through a pointer stored with `tag`."""
    text = ARRAY_LOOP_PIR.replace("TAG", str(tag))
    return instrument_text(text, kind, opts=())


class TestTiers:
    @pytest.mark.parametrize("kind,q", TIER_MODES)
    def test_compiled_blocks_match_the_interpreter(self, monkeypatch, kind,
                                                   q):
        programs = [(c["name"], corpus_text(c["file"]), c.get("inputs", []))
                    for c in corpus_expectations()["cases"]]
        programs += [(f"mixed-{seed}", *fuzz.generate(seed, "mixed"))
                     for seed in range(200)]
        compiled = 0
        for name, text, inputs in programs:
            iprog = instrument_text(text, kind, q)
            outcomes = []
            for hot in (NEVER_HOT, 1):
                monkeypatch.setattr(vm_module, "HOT_THRESHOLD", hot)
                iprog.rebuild_index()
                # Untraced runs first: the traced runs must pass over the
                # blocks those compiled.
                outcomes.append([outcome(iprog, inputs, backend, trace)
                                 for trace in (False, True)
                                 for backend in ("checks", "oracle")])
                compiled += sum(len(p.tiers[0][0]) + len(p.tiers[1][0])
                                for p in iprog.plans.values())
            assert outcomes[0] == outcomes[1], name
        assert compiled > len(programs)

    @pytest.mark.parametrize("hot", [1, DEFAULT_HOT])
    def test_step_limit_in_a_compiled_block(self, monkeypatch, hot):
        # 10 steps an iteration: 2 phis and 4 steps in ^loop, which is
        # compiled, and in ^call, which is not, the call, the callee's 2
        # steps and the br.  The limit lands on each step of the first
        # iterations and of iterations past the 50th.
        iprog = instrument_text(SPLIT_CALL_LOOP_PIR)
        for limit in [*range(1, 30), *range(600, 630)]:
            want = tiered(monkeypatch, iprog, NEVER_HOT, [100],
                           step_limit=limit)
            assert want == ("VmError", "step limit exceeded", limit + 1)
            assert tiered(monkeypatch, iprog, hot, [100],
                           step_limit=limit) == want
        compiled = iprog.plans["main"].tiers[0][0]
        assert compiled["loop"] is not None and compiled["call"] is None

    @pytest.mark.parametrize("hot", [1, DEFAULT_HOT])
    def test_step_limit_in_a_call_free_compiled_block(self, monkeypatch,
                                                      hot):
        # CALL_LOOP_PIR without its call: 7 steps an iteration, 2 of them
        # phis.  The limit lands on each step of the first iterations, of
        # the last ones, and at and past the run's end.
        iprog = instrument_text(CALL_LOOP_PIR.replace("call @inc(%a)",
                                                      "add %a, 1"))
        total = tiered(monkeypatch, iprog, NEVER_HOT, [60])[2]
        for limit in [*range(1, 30), *range(total - 30, total + 2)]:
            want = tiered(monkeypatch, iprog, NEVER_HOT, [60],
                           step_limit=limit)
            assert want[2] == min(limit + 1, total)
            assert tiered(monkeypatch, iprog, hot, [60],
                           step_limit=limit) == want
        assert iprog.plans["main"].tiers[0][0]["loop"] is not None

    @pytest.mark.parametrize("kind", ["prism", "pow2", "prism32"])
    @pytest.mark.parametrize("shape", sorted(WINDOW_ABORTS))
    def test_window_abort_in_a_compiled_block(self, monkeypatch, shape,
                                              kind):
        text, n, fn, label = WINDOW_ABORTS[shape]
        iprog = instrument_text(text, kind)
        (site,) = [s for s in iprog.sites if s.executes]
        assert site.widened and site.kind == ("LoopHoisted"
                                              if shape == "hoisted"
                                              else "Access")
        want = tiered(monkeypatch, iprog, NEVER_HOT, [n])
        assert want[0] == EXIT_BOUNDS and want[8]["sid"] == site.sid
        assert tiered(monkeypatch, iprog, DEFAULT_HOT, [n]) == want
        assert iprog.plans[fn].tiers[0][0][label] is not None

    @pytest.mark.parametrize("kind", ["prism", "pow2", "prism32"])
    def test_abort_in_a_compiled_block(self, monkeypatch, kind):
        iprog = _array_loop(kind)
        want = tiered(monkeypatch, iprog, NEVER_HOT, [150])
        assert want[0] == EXIT_BOUNDS and want[2] > 60 * 12
        assert tiered(monkeypatch, iprog, DEFAULT_HOT, [150]) == want

    @pytest.mark.parametrize("kind", ["prism", "pow2", "prism32"])
    @pytest.mark.parametrize("bad", [16, 64, -8])
    def test_escape_checks_in_a_compiled_block(self, monkeypatch, kind, bad):
        iprog = instrument_text(ESCAPE_LOOP_PIR, kind)
        escapes = [s for s in iprog.sites if s.kind == "Escape"]
        assert [(s.escape_value, s.maybe_equal) for s in escapes] == [
            ("p", True), ("g", False), ("h", False)]
        want = tiered(monkeypatch, iprog, NEVER_HOT, [100, bad])
        if bad == 16:
            # Per trip: the store to %cell, %g and %h; %p counts none.
            assert (want[0], want[1], want[3]) == (EXIT_OK, 100, 300)
        else:
            assert want[0] == EXIT_ESCAPE and want[3] == 61 * 3
            assert want[8]["sid"] == escapes[2].sid
            assert want[4] == int(bad < 0 and kind != "pow2")  # SA fetch
        handled = []
        check_escape = VM._check_escape
        monkeypatch.setattr(VM, "_check_escape", lambda vm, site, env: (
            handled.append(site.sid), check_escape(vm, site, env)))
        assert tiered(monkeypatch, iprog, DEFAULT_HOT, [100, bad]) == want
        handled.clear()
        assert tiered(monkeypatch, iprog, 1, [100, bad]) == want
        # Compiled from the first trip on, only the abort calls the handler.
        assert handled == ([] if bad == 16 else [escapes[2].sid])

    @pytest.mark.parametrize("iprog, message", [
        (lambda: _array_loop(tag=FORGED_TAGS["prism"]),
         "read of unmapped address 0x1000")])
    def test_vm_error_in_a_compiled_block(self, monkeypatch, iprog, message):
        iprog = iprog()
        want = tiered(monkeypatch, iprog, NEVER_HOT, [90])
        assert want[:2] == ("VmError", message) and want[2] > 60 * 12
        assert tiered(monkeypatch, iprog, DEFAULT_HOT, [90]) == want

    @pytest.mark.parametrize("hot", [1, DEFAULT_HOT])
    def test_a_fault_after_pure_ops_counts_its_steps(self, monkeypatch, hot):
        # At q=8 the q-padding pass elides %w's check, so in the checks
        # backend the load that faults has no site.  A compiled region sets
        # its step count before that load, not before the icmp and two
        # selects ahead of it.
        text = ARRAY_LOOP_PIR.replace("TAG", str(FORGED_TAGS["prism"]))
        iprog = instrument_text(text, "prism", 8, opts=("qpad",))
        (w,) = [s for s in iprog.sites if s.origin.dest == "w"]
        assert w.status == ELIDED_Q
        want = tiered(monkeypatch, iprog, NEVER_HOT, [90])
        assert want[:2] == ("VmError", "read of unmapped address 0x1000")
        assert tiered(monkeypatch, iprog, hot, [90]) == want

    @pytest.mark.parametrize("kind", ["prism", "pow2", "prism32"])
    def test_literal_escape_in_a_compiled_block(self, monkeypatch, kind):
        iprog = instrument_text("fn @main() {\n^entry:\n  %c = alloc 8\n"
                                "  storep %c, 1\n  ret 0\n}\n", kind, opts=())
        want = tiered(monkeypatch, iprog, NEVER_HOT, [])
        assert want[0] == EXIT_ESCAPE and want[6] == 1      # one abort
        assert tiered(monkeypatch, iprog, 1, []) == want
        assert iprog.plans["main"].tiers[0][0]["entry"] is not None

    def test_rebuild_index_drops_compiled_blocks(self):
        iprog = _array_loop()
        before = VM(iprog).run([55]).check_stats.dynamic_checks
        assert iprog.plans["main"].tiers[0][0]     # the loop was compiled
        (site,) = [s for s in iprog.sites if s.origin.dest == "v"]
        site.status = ELIDED_Q
        iprog.rebuild_index()
        after = VM(iprog).run([55]).check_stats.dynamic_checks
        assert before - after == 55
