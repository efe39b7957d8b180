"""Interpreter tests: execution semantics, dynamic checks, extern boundary."""

import pytest

from conftest import (RECURSIVE_PIR, corpus_expectations, corpus_text,
                      instrument_text, run_text)
from prismbox.oracle import default_allowance
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

    @pytest.mark.parametrize("backend", ["checks", "oracle"])
    def test_unset_value_message(self, backend):
        iprog = instrument_text("fn @main() {\n^entry:\n  %x = add 1, 2\n"
                                "  %y = add %x, 3\n  ret %y\n}\n")
        iprog.program.functions["main"].entry.instrs[1].operands[0] = "ghost"
        with pytest.raises(VmError) as exc:
            VM(iprog, backend=backend).run()
        assert str(exc.value) == "read of unset value %ghost"

    @pytest.mark.parametrize("backend", ["checks", "oracle"])
    def test_phi_without_edge_message(self, backend):
        iprog = instrument_text(SPIN_PIR)
        phi = iprog.program.functions["main"].block("spin").instrs[0]
        phi.incomings[0] = (0, "elsewhere")
        with pytest.raises(VmError) as exc:
            VM(iprog, backend=backend).run()
        assert str(exc.value) == "phi %i has no edge from ^entry"

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
            allowance = default_allowance if backend == "oracle" else None
            fresh = instrument_text(text, kind, q)
            got, want = (VM(iprog, backend=backend, allowance=allowance,
                            trace=trace).run(list(inputs))
                         for iprog in (shared, fresh))
            assert _observed(got) == _observed(want)
            plans = {name: dict(p) for name, p in shared.plans.items()}
            assert plans and all(plans.values())
        # Every later run reused the plans decoded by the first.
        assert all(p is shared.plans[name][label]
                   for name, fn_plans in plans.items()
                   for label, p in fn_plans.items())


def _observed(res):
    stats = res.check_stats
    return (res.exit_code, res.ret, res.steps, stats.dynamic_checks,
            stats.sa_fetches, stats.xor_lower_paths, stats.aborts,
            stats.fetch_log,
            res.violation.to_dict() if res.violation else None, res.trace)
