"""Allocation: the allocator's output pinned per mode, a finished run's
memory freed without a GC pass, `free null`, and allocations and faults
inside compiled regions against the interpreter."""

import gc
import hashlib
import weakref
from dataclasses import astuple

import pytest

from conftest import corpus_text, instrument_text, run_text
from prismbox.heap import PAGE, ZERO_PAGE, SimMemory
from prismbox.instrument import ELIDED_Q
from prismbox.oracle import default_allowance
from prismbox.tagging import Mode
from prismbox.vm import EXIT_BOUNDS, EXIT_OK, VM
from test_region_tier import tiers_agree

KINDS = ["prism", "prism32", "pow2"]
MODES = [(kind, q) for kind in KINDS for q in (0, 8, 32)]


def allocation_trace(kind: str, q: int) -> str:
    """Every observable of a fixed allocation sequence: small objects,
    objects on each side of prism's small/large split, large objects, a
    global, escaped and dynamic stack objects, a popped frame reused, and
    heap objects allocated after the stack."""
    m = SimMemory(Mode(kind, q))
    split = PAGE - 8 - q        # prism's largest small object
    tags = [m.alloc(size) for size in (1, 16, 24, split - 1, split,
                                       split + 1, 100_000, 1 << 20)]
    tags.append(m.alloc_stack_escaped(12, kind="global"))
    mark = m.stack_mark()
    tags += [m.alloc_stack_escaped(24), m.alloc_stack_escaped(70_000),
             m.alloc_stack_dynamic(40), m.alloc_stack_dynamic(65_000)]
    m.release_stack(mark)
    tags += [m.alloc_stack_dynamic(8), m.alloc_stack_escaped(100),
             m.alloc(40), m.alloc(3000)]
    m.free(tags[1])
    number = {id(rec): n for n, rec in enumerate(m.records)}
    owners = [[number[id(rec)] for rec in below] for below in m._owners]
    pages = sorted((base, page is ZERO_PAGE) for base, page in m.pages.items())
    sas = [m.read(rec.ea + q, 8) for rec in m.records
           if rec.aligned_size is None]
    return repr((tags, [astuple(rec) for rec in m.records], m._bounds,
                 owners, pages, sas))


# sha256 prefixes of allocation_trace, one per mode and q.
TRACE_DIGESTS = {
    ("prism", 0): "b5a188185f8df27c",
    ("prism", 8): "444cf7d4563e7aca",
    ("prism", 32): "b3146e1cd821bd37",
    ("prism32", 0): "7c9822c9ca34bf5e",
    ("prism32", 8): "7189777d8de29f20",
    ("prism32", 32): "dfa2e876970da184",
    ("pow2", 0): "62d16f3476b839a0",
    ("pow2", 8): "9f421aa6dae44e01",
    ("pow2", 32): "bb70b3c0a4702f48",
}


@pytest.mark.parametrize("kind,q", MODES)
def test_allocation_trace_is_unchanged(kind, q):
    digest = hashlib.sha256(allocation_trace(kind, q).encode()).hexdigest()
    assert digest[:16] == TRACE_DIGESTS[kind, q]


@pytest.mark.parametrize("kind,q", MODES)
@pytest.mark.parametrize("backend", ["checks", "oracle"])
def test_a_finished_run_frees_its_memory_without_a_gc_pass(kind, q, backend):
    # 60 nodes: @main's loop compiles at the default threshold too.
    iprog = instrument_text(corpus_text("linked_list.pir"), kind, q)
    gc.disable()
    try:
        vm = VM(iprog, backend=backend, allowance=default_allowance)
        assert vm.run([60]).ok
        mem = weakref.ref(vm.mem)
        del vm
        assert mem() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("kind,q", MODES)
@pytest.mark.parametrize("backend", ["checks", "oracle"])
@pytest.mark.parametrize("null", ["null", "0"])
def test_free_null_does_nothing(kind, q, backend, null):
    text = f"fn @main() {{\n^entry:\n  free {null}\n  ret 0\n}}\n"
    res = run_text(text, kind, q, backend=backend,
                   allowance=default_allowance)[0]
    assert (res.exit_code, res.ret) == (EXIT_OK, 0)


# The allocation size, 60 - %i, reaches 0 on trip 60.
FAILING_ALLOC_PIR = """
fn @main(%n: int) {
^entry:
  br ^loop
^loop:
  %i = phi [0, ^entry], [%i2, ^loop]
  %s = phi [0, ^entry], [%s2, ^loop]
  %i2 = add %i, 1
  %sz = sub 60, %i
  %p = alloc %sz
  store %p, 1, %i
  %v = load %p, 1
  %s2 = add %s, %v
  %c = icmp lt %i2, %n
  condbr %c, ^loop, ^done
^done:
  ret %s2
}
"""

# On trip 60 %r is a pointer forged from the integer 0x1000, unmapped.  At
# q >= 8 the 8-byte load at %r's KSA is elided by q, so the `checks`
# backend's load has no site and faults.
FORGED_ELIDED_PIR = """
fn @main(%n: int) {
^entry:
  %a = alloc 8
  store %a, 8, 5
  %cell = alloc 8
  store %cell, 8, 4096
  %f = loadp %cell
  br ^loop
^loop:
  %i = phi [0, ^entry], [%i2, ^loop]
  %s = phi [0, ^entry], [%s2, ^loop]
  %i2 = add %i, 1
  %late = icmp eq %i, 60
  %r = select %late, %f, %a
  %v = load %r, 8
  %s2 = add %s, %v
  %c = icmp lt %i2, %n
  condbr %c, ^loop, ^done
^done:
  ret %s2
}
"""


# Each test runs both backends with every block interpreted and compiled on
# entry 1 and on entry 50 (test_region_tier.tiers_agree).

@pytest.mark.parametrize("kind", KINDS)
def test_a_failing_allocation_in_a_region_matches_the_interpreter(
        monkeypatch, kind):
    iprog = instrument_text(FAILING_ALLOC_PIR, kind)
    # As instrumented, each trip takes 11 steps; the allocation is the 5th
    # of trip 60.
    error = ("VmError", "size 0 out of range [1, 4294901760]",
             1 + 60 * 11 + 5)
    assert tiers_agree(monkeypatch, iprog, [100]) == [error, error]
    for out in tiers_agree(monkeypatch, iprog, [55]):
        assert out[:2] == (EXIT_OK, sum(range(55)))


@pytest.mark.parametrize("kind", KINDS)
def test_an_unchecked_fault_in_a_region_matches_the_interpreter(
        monkeypatch, kind):
    iprog = instrument_text(FORGED_ELIDED_PIR, kind, 8)
    loads = [s for s in iprog.sites if s.origin.op == "load"]
    assert loads and all(s.status == ELIDED_Q for s in loads)
    checks, oracle = tiers_agree(monkeypatch, iprog, [100])
    # As instrumented, the entry block takes 9 steps and each trip 11; the
    # load is the 8th of trip 60.
    steps = 9 + 60 * 11 + 8
    assert checks == ("VmError", "read of unmapped address 0x1000", steps)
    assert oracle[:3] == (EXIT_BOUNDS, None, steps)
