"""Compiled loop regions against the interpreter.

A hot loop header with no call in its natural loops compiles, with the
whole loop, into one function.  Each test runs a program on both backends
with every block interpreted, then with blocks compiled on their first and
on their 50th entry, and wants the same outcome: exit code, return value,
steps, check counters, violation and the oracle's allowed events.
"""

import operator
import re

import pytest

from conftest import corpus_text, instrument_text, tiered
from prismbox import vm as vm_module
from prismbox.heap import PAGE, ZERO_PAGE, SimMemory
from prismbox.oracle import default_allowance
from prismbox.tagging import Mode
from prismbox.vm import EXIT_BOUNDS, EXIT_OK, VM

NEVER_HOT = 1 << 62
KINDS = ["prism", "prism32", "pow2"]

# The inner loop runs %m trips a visit, so its header turns hot first; at
# outer trip 55 it runs on past %a's end and pow2's aligned block.
NESTED_PIR = """
fn @main(%n: int) {
^entry:
  %a = alloc 64
  br ^outer
^outer:
  %i = phi [0, ^entry], [%i2, ^next]
  %s = phi [0, ^entry], [%s3, ^next]
  %late = icmp eq %i, 55
  %m = select %late, 17, 8
  %c = icmp lt %i, %n
  condbr %c, ^inner, ^done
^inner:
  %j = phi [0, ^outer], [%j2, ^inner]
  %t = phi [%s, ^outer], [%t2, ^inner]
  %p = gep %a, %j*8
  %v = load %p, 8
  store %p, 8, %i
  %t1 = add %t, %v
  %t2 = add %t1, %j
  %j2 = add %j, 1
  %d = icmp lt %j2, %m
  condbr %d, ^inner, ^next
^next:
  %s3 = add %t2, 1
  %i2 = add %i, 1
  br ^outer
^done:
  ret %s
}
"""

# ^hdr has two latches, ^odd and ^even, taken in turn.
TWO_LATCH_PIR = """
fn @main(%n: int) {
^entry:
  %a = alloc 16
  store %a, 8, 3
  br ^hdr
^hdr:
  %i = phi [0, ^entry], [%i2, ^odd], [%i3, ^even]
  %s = phi [0, ^entry], [%s2, ^odd], [%s3, ^even]
  %f = phi [0, ^entry], [1, ^odd], [0, ^even]
  %c = icmp lt %i, %n
  condbr %c, ^body, ^done
^body:
  %v = load %a, 8
  condbr %f, ^even, ^odd
^odd:
  %s2 = add %s, %v
  %i2 = add %i, 1
  store %a, 8, %i2
  br ^hdr
^even:
  %s3 = sub %s, %i
  %i3 = add %i, 2
  br ^hdr
^done:
  ret %s
}
"""

# ^body leaves the loop on trip %stop; ^found reads a header phi and a
# value ^body defined.
EXIT_FROM_BODY_PIR = """
fn @main(%n: int, %stop: int) {
^entry:
  %a = alloc 800
  br ^hdr
^hdr:
  %i = phi [0, ^entry], [%i2, ^latch]
  %s = phi [0, ^entry], [%s2, ^latch]
  %c = icmp lt %i, %n
  condbr %c, ^body, ^done
^body:
  %p = gep %a, %i*8
  store %p, 8, %i
  %w = load %p, 8
  %s2 = add %s, %w
  %hit = icmp eq %i, %stop
  condbr %hit, ^found, ^latch
^latch:
  %i2 = add %i, 1
  br ^hdr
^found:
  %r = add %s2, %i
  ret %r
^done:
  ret %s
}
"""

# Each trip runs alloc, free, extern and stackalloc handlers on values the
# loop computes; on trip %bad the heap object is one byte short.
HANDLERS_PIR = """
extern @sum kind=pure
extern @mk kind=alloc
fn @main(%n: int, %bad: int) {
^entry:
  br ^loop
^loop:
  %i = phi [0, ^entry], [%i2, ^loop]
  %t = phi [0, ^entry], [%t2, ^loop]
  %at = icmp eq %i, %bad
  %sz = select %at, 7, 8
  %b = alloc %sz
  store %b, 8, %i
  %v = load %b, 8
  %e = extern @sum(%b, %v, %t)
  free %b
  %m = extern @mk(16)
  store %m, 8, %e
  %d = alloca_dyn %sz
  %s = stackalloc 16
  storep %s, %m
  %q = loadp %s
  %w = load %q, 8
  %t1 = add %t, %w
  %t2 = sub %t1, %e
  %i2 = add %i, 1
  %c = icmp lt %i2, %n
  condbr %c, ^loop, ^done
^done:
  ret %t2
}
"""

# ^call holds a call, so ^loop and ^tail compile each on its own.
CALL_IN_LOOP_PIR = """
fn @inc(%x: int) {
^entry:
  %y = add %x, 1
  ret %y
}
fn @main(%n: int) {
^entry:
  %a = alloc 8
  br ^loop
^loop:
  %i = phi [0, ^entry], [%i2, ^tail]
  %s = phi [0, ^entry], [%s2, ^tail]
  %v = load %a, 8
  %c = icmp lt %i, %n
  condbr %c, ^call, ^done
^call:
  %s1 = call @inc(%s)
  br ^tail
^tail:
  %s2 = add %s1, %v
  store %a, 8, %s2
  %i2 = add %i, 1
  br ^loop
^done:
  ret %s
}
"""

# Each trip loads 8 bytes of 4-byte %a, in its q-padding at q=8, then a
# byte of %b, past pow2's aligned block too on trip %bad.
EVENT_AND_ABORT_PIR = """
fn @main(%n: int, %bad: int) {
^entry:
  %a = alloc 4
  %b = alloc 64
  br ^hdr
^hdr:
  %i = phi [0, ^entry], [%i2, ^body]
  %c = icmp lt %i, %n
  condbr %c, ^body, ^done
^body:
  %v = load %a, 8
  %at = icmp eq %i, %bad
  %off = select %at, 128, 0
  %p = gep %b, %off*1
  %w = load %p, 1
  %i2 = add %i, 1
  br ^hdr
^done:
  ret %i
}
"""

# Trips take ^x and ^y in turn, each loading through %p: %a on ^x's trips,
# %b on ^y's.
ALTERNATING_LOADS_PIR = """
fn @main(%n: int) {
^entry:
  %a = alloc 16
  %b = alloc 16
  br ^hdr
^hdr:
  %i = phi [0, ^entry], [%i2, ^latch]
  %f = phi [0, ^entry], [%g, ^latch]
  %p = phi [%a, ^entry], [%q, ^latch]
  %s = phi [0, ^entry], [%s2, ^latch]
  %c = icmp lt %i, %n
  condbr %c, ^pick, ^done
^pick:
  condbr %f, ^y, ^x
^x:
  %vx = load %p, 8
  br ^latch
^y:
  %vy = load %p, 8
  br ^latch
^latch:
  %v = phi [%vx, ^x], [%vy, ^y]
  %s2 = add %s, %v
  %g = sub 1, %f
  %q = select %g, %b, %a
  %i2 = add %i, 1
  br ^hdr
^done:
  ret %s
}
"""

# ^body also loads and adds with no value named.
TWO_BLOCK_PIR = """
fn @main(%n: int) {
^entry:
  %a = alloc 16
  br ^hdr
^hdr:
  %i = phi [0, ^entry], [%i2, ^body]
  %s = phi [0, ^entry], [%s2, ^body]
  %c = icmp lt %i, %n
  condbr %c, ^body, ^done
^body:
  %v = load %a, 8
  load %a, 4
  add %v, 1
  %s2 = add %s, %v
  store %a, 8, %s2
  %i2 = add %i, 1
  br ^hdr
^done:
  ret %s
}
"""


def tiers_agree(monkeypatch, iprog, inputs, **kw):
    """Each backend's interpreted outcome, which compiling blocks on entry
    1 and on entry 50 must not change."""
    wants = []
    for backend in ("checks", "oracle"):
        want = tiered(monkeypatch, iprog, NEVER_HOT, inputs, backend, **kw)
        for hot in (1, 50):
            got = tiered(monkeypatch, iprog, hot, inputs, backend, **kw)
            assert got == want, (backend, hot)
        wants.append(want)
    return wants


def calls_per_label(monkeypatch, iprog, fn, inputs, hot=1):
    """Compile on entry `hot`, then run again on the same plans and count
    the calls of each compiled function of `fn` by the label it is kept
    under."""
    monkeypatch.setattr(vm_module, "HOT_THRESHOLD", hot)
    iprog.rebuild_index()
    VM(iprog).run(inputs)
    compiled, calls = iprog.plans[fn].tiers[0][0], {}

    def counted(label, code):
        def call(vm, env, prev):
            calls[label] = calls.get(label, 0) + 1
            return code(vm, env, prev)
        return call

    for label, code in compiled.items():
        if code is not None:
            compiled[label] = counted(label, code)
            calls[label] = 0
    VM(iprog).run(inputs)
    return calls


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [50, 60])
def test_nested_loops(monkeypatch, kind, n):
    iprog = instrument_text(NESTED_PIR, kind)
    checks, oracle = tiers_agree(monkeypatch, iprog, [n])
    assert checks[0] == oracle[0] == (EXIT_OK if n == 50 else EXIT_BOUNDS)
    # On entry 50 the inner loop compiles first; once the outer loop has
    # compiled around it, the inner region is never called again.
    calls = calls_per_label(monkeypatch, iprog, "main", [n], hot=50)
    assert calls == {"outer": 1, "inner": 0}
    assert calls_per_label(monkeypatch, iprog, "main", [n]) == {
        "entry": 1, "outer": 1} | ({"done": 1} if n == 50 else {})


@pytest.mark.parametrize("kind", KINDS)
def test_a_header_with_two_latches(monkeypatch, kind):
    iprog = instrument_text(TWO_LATCH_PIR, kind)
    assert sorted(loop.latch for loop in iprog.infos["main"].cfg.loops) == [
        "even", "odd"]
    i = s = f = 0
    a = 3
    while i < 150:          # ^odd and ^even in turn, as the program runs
        if f:
            s, i, f = s - i, i + 2, 0
        else:
            s, i, f = s + a, i + 1, 1
            a = i
    checks, _ = tiers_agree(monkeypatch, iprog, [150])
    assert checks[:2] == (EXIT_OK, s % (1 << 64))
    assert calls_per_label(monkeypatch, iprog, "main", [150]) == {
        "entry": 1, "hdr": 1, "done": 1}


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("stop", [5, 70, 200])
def test_an_exit_from_a_non_header_block(monkeypatch, kind, stop):
    iprog = instrument_text(EXIT_FROM_BODY_PIR, kind)
    checks, oracle = tiers_agree(monkeypatch, iprog, [100, stop])
    found = sum(range(stop + 1)) + stop
    assert checks[:2] == oracle[:2] == (
        EXIT_OK, found if stop < 100 else sum(range(100)))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("bad", [70, 1000])
def test_handlers_inside_a_loop(monkeypatch, kind, bad):
    iprog = instrument_text(HANDLERS_PIR, kind)
    checks, oracle = tiers_agree(monkeypatch, iprog, [100, bad])
    assert checks[0] == oracle[0] == (EXIT_BOUNDS if bad < 100 else EXIT_OK)
    if bad < 100:
        assert checks[8]["line"] == oracle[8]["line"] == 13  # store %b
    calls = calls_per_label(monkeypatch, iprog, "main", [100, bad])
    assert calls == {"entry": 1, "loop": 1} | ({} if bad < 100
                                                 else {"done": 1})


@pytest.mark.parametrize("kind", KINDS)
def test_a_loop_holding_a_call_stays_block_compiled(monkeypatch, kind):
    iprog = instrument_text(CALL_IN_LOOP_PIR, kind)
    tiers_agree(monkeypatch, iprog, [80])
    calls = calls_per_label(monkeypatch, iprog, "main", [80])
    assert iprog.plans["main"].tiers[0][0]["call"] is None
    assert calls == {"entry": 1, "loop": 81, "tail": 80, "done": 1}


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("bad", [70, 1000])
def test_an_abort_and_an_allowed_event_in_a_fused_loop(monkeypatch, kind,
                                                       bad):
    iprog = instrument_text(EVENT_AND_ABORT_PIR, kind, 8)
    checks, oracle = tiers_agree(monkeypatch, iprog, [100, bad])
    assert checks[0] == oracle[0] == (EXIT_BOUNDS if bad < 100 else EXIT_OK)
    events = oracle[10]
    assert len(events) == min(bad + 1, 100)
    assert {cls for cls, *_ in events} == {"IN_PADDING"}
    assert calls_per_label(monkeypatch, iprog, "main", [100, bad])["hdr"] == 1


@pytest.mark.parametrize("kind", KINDS)
def test_a_shared_record_ends_with_its_block(monkeypatch, kind):
    # ^x and ^y look up %p's record each; ^y must not take ^x's, which
    # belongs to another trip's %p or to none yet.
    iprog = instrument_text(ALTERNATING_LOADS_PIR, kind)
    checks, oracle = tiers_agree(monkeypatch, iprog, [80])
    assert checks[:2] == oracle[:2] == (EXIT_OK, 0)
    assert calls_per_label(monkeypatch, iprog, "main", [80])["hdr"] == 1


@pytest.mark.parametrize("kind", KINDS)
def test_step_limit_on_every_step_of_the_first_and_last_trips(monkeypatch,
                                                              kind):
    iprog = instrument_text(TWO_BLOCK_PIR, kind)
    before, trip, total = (tiers_agree(monkeypatch, iprog, [n])[0][2]
                           for n in (0, 1, 60))
    trip -= before
    # A trip runs ^hdr then ^body; before the first come ^entry's steps,
    # and after the last ^hdr's and ^done's.
    first = range(1, before + 2 * trip)
    last = range(total - before - 2 * trip, total + 2)
    for limit in [*first, *last]:
        checks, oracle = tiers_agree(monkeypatch, iprog, [60],
                                     step_limit=limit)
        if limit < total:
            assert checks == oracle == (
                "VmError", "step limit exceeded", limit + 1)
        else:
            assert checks[:3] == (EXIT_OK, 0, total)


# Pure ops against plain Python integers.  The operands of each binary op
# are all pairs of WORDS as named values (`%v`, or `%p` where the op takes
# a pointer, defined in the entry block), and each word as a literal in
# each position; results wrap modulo 2^64.
WORDS = [0, 1, (1 << 63) - 1, 1 << 63, (1 << 64) - 1]
M64 = (1 << 64) - 1
ADDRESS_BITS = {"prism": 47, "prism32": 32, "pow2": 47}
CMPS = {"eq": operator.eq, "ne": operator.ne, "lt": operator.lt,
        "le": operator.le, "gt": operator.gt, "ge": operator.ge}


def signed(v):
    return v - (1 << 64) if v >> 63 else v


def pure_cases(kind):
    """(op text, whether it gives a pointer, expected value) of each case."""
    binary = {"add": ("v", operator.add), "sub": ("v", operator.sub),
              "mul": ("v", operator.mul), "ptrsub": ("p", operator.sub)}
    for cmp, test in CMPS.items():
        binary[f"icmp {cmp}"] = ("v", lambda a, b, t=test: t(signed(a),
                                                                signed(b)))
        binary[f"ptrcmp {cmp}"] = ("p", test)
    # (x, y, x's value, y's value), `{t}` standing for `v` or `p`.
    operands = [(f"%{{t}}{i}", f"%{{t}}{j}", a, b)
                for i, a in enumerate(WORDS) for j, b in enumerate(WORDS)]
    for i, a in enumerate(WORDS):
        j = (i + 2) % 5
        operands += [(str(a), f"%{{t}}{j}", a, WORDS[j]),
                     (f"%{{t}}{j}", str(a), WORDS[j], a)]
    cases = [(f"{op} {x.format(t=t)}, {y.format(t=t)}", False,
              int(value(a, b)) & M64)
             for x, y, a, b in operands for op, (t, value) in binary.items()]
    for i, a in enumerate(WORDS):
        k, m = (i + 1) % 5, (i + 3) % 5
        for c, x, y, base in ((f"%v{i}", f"%v{k}", f"%v{m}", f"%p{i}"),
                              (a, WORDS[k], WORDS[m], a)):
            cases += [
                (f"select {c}, {x}, {y}", False, WORDS[k] if a else WORDS[m]),
                (f"mask {base}", True, a & (1 << ADDRESS_BITS[kind]) - 1),
                (f"gep {base}", True, a),
                (f"gep {base}, 8", True, (a + 8) & M64),
                (f"gep {base}, -8", True, (a - 8) & M64),
                (f"gep {base}, %v{k}*4, -3", True,
                 (a + WORDS[k] * 4 - 3) & M64),
                (f"gep {base}, %v{k}*8, %v{m}*-2, 5", True,
                 (a + WORDS[k] * 8 - WORDS[m] * 2 + 5) & M64)]
    return cases


def pure_program(cases):
    """A loop of 50 trips whose last stores case k's value at %out + 8k; it
    returns %out.  A block compiled on its 50th entry runs that trip.  The
    cases' block does not dominate the loop's exit, so leaving the region
    writes none of their values to the frame."""
    lines = ["fn @main(" + ", ".join(f"%v{i}: int" for i in range(5))
             + ") {", "^entry:", f"  %out = alloc {8 * len(cases)}"]
    lines += [f"  %p{i} = gep null, %v{i}*1" for i in range(5)]
    lines += ["  br ^hdr", "^hdr:", "  %i = phi [0, ^entry], [%i2, ^latch]",
              "  %last = icmp eq %i, 49", "  condbr %last, ^body, ^latch",
              "^body:"]
    for k, (text, pointer, _) in enumerate(cases):
        if pointer:
            lines += [f"  %r{k}p = {text}", f"  %r{k} = ptrsub %r{k}p, null"]
        else:
            lines.append(f"  %r{k} = {text}")
        lines += [f"  %a{k} = gep %out, {8 * k}", f"  store %a{k}, 8, %r{k}"]
    return "\n".join(lines + [
        "  br ^latch", "^latch:", "  %i2 = add %i, 1", "  %c = icmp lt %i2, 50",
        "  condbr %c, ^hdr, ^done", "^done:", "  ret %out", "}", ""])


@pytest.mark.parametrize("kind", KINDS)
def test_pure_ops_against_python_integers(monkeypatch, kind):
    cases = pure_cases(kind)
    iprog = instrument_text(pure_program(cases), kind)
    for backend in ("checks", "oracle"):
        for hot in (NEVER_HOT, 1, 50):
            monkeypatch.setattr(vm_module, "HOT_THRESHOLD", hot)
            iprog.rebuild_index()
            vm = VM(iprog, backend=backend, allowance=default_allowance
                    if backend == "oracle" else None)
            res = vm.run(WORDS)
            assert res.exit_code == EXIT_OK
            out = res.ret & vm.mode.mask
            wrong = [(text, vm.mem.read_int(out + 8 * k, 8), want)
                     for k, (text, _, want) in enumerate(cases)
                     if vm.mem.read_int(out + 8 * k, 8) != want]
            assert not wrong, (backend, hot, wrong[:5])


# Loads and stores across 64 KB page edges, and to pages that are still the
# shared zero page.  %e is the offset in %a of its first page edge.  Each
# trip stores a value of its own across the edges at %e, %e + 64K, ... (2,
# 4 and 8 bytes and a pointer), one byte on each side of the next edge, and
# 8 bytes on page 5 + %i past %e, which no store has written before; it
# loads each back.
PAGE_EDGE_PIR = """
fn @main(%e: int, %n: int) {
^entry:
  %a = alloc 4000000
  br ^loop
^loop:
  %i = phi [0, ^entry], [%i2, ^loop]
  %s = phi [0, ^entry], [%s2, ^loop]
  %m = mul %i, 81985529216486895
  %x = add %m, 9833440827789222417
  %x1 = add %x, 1
  %q2 = gep %a, %e*1, -1
  store %q2, 2, %x
  %l2 = load %q2, 2
  %q4 = gep %a, %e*1, 65534
  store %q4, 4, %x
  %l4 = load %q4, 4
  %q8 = gep %a, %e*1, 131069
  store %q8, 8, %x
  %l8 = load %q8, 8
  %qp = gep %a, %e*1, 196604
  storep %qp, %a
  %lp = loadp %qp
  %dp = ptrsub %lp, %a
  %q1 = gep %a, %e*1, 262143
  store %q1, 1, %x
  %q1b = gep %a, %e*1, 262144
  store %q1b, 1, %x1
  %l1 = load %q1, 1
  %l1b = load %q1b, 1
  %qz = gep %a, %i*65536, %e*1, 327780
  store %qz, 8, %x
  %lz = load %qz, 8
  %s1 = add %s, %l2
  %s3 = add %s1, %l4
  %s4 = add %s3, %l8
  %s5 = add %s4, %dp
  %s6 = add %s5, %l1
  %s7 = add %s6, %l1b
  %s2 = add %s7, %lz
  %i2 = add %i, 1
  %c = icmp lt %i2, %n
  condbr %c, ^loop, ^done
^done:
  ret %s2
}
"""


@pytest.mark.parametrize("kind", KINDS)
def test_loads_and_stores_at_page_edges(monkeypatch, kind):
    mem = SimMemory(Mode(kind))
    raw = mem.alloc(4_000_000) & mem.mode.mask     # as the VM's first alloc
    edge = PAGE - raw % PAGE
    # Each trip's %qz page is mapped and still the shared zero page.
    assert all(mem.pages[(raw + edge + 5 * PAGE + i * PAGE) & -PAGE]
               is ZERO_PAGE for i in range(52))
    want = 0
    for i in range(52):
        x = (i * 81985529216486895 + 9833440827789222417) & M64
        want += (x & 0xFFFF) + (x & 0xFFFFFFFF) + x + (x & 0xFF) \
            + ((x + 1) & 0xFF) + x
    checks, oracle = tiers_agree(monkeypatch, instrument_text(
        PAGE_EDGE_PIR, kind), [edge, 52])
    assert checks[:2] == oracle[:2] == (EXIT_OK, want & M64)


# Each trip computes %x, %y and %z: the store reads %x, only the ret after
# the loop reads %y, and nothing reads %z.
SPILL_PIR = """
fn @main(%n: int) {
^entry:
  %a = alloc 8
  br ^loop
^loop:
  %i = phi [0, ^entry], [%i2, ^loop]
  %x = mul %i, 3
  %y = add %x, 5
  %z = sub %i, 7
  store %a, 8, %x
  %i2 = add %i, 1
  %c = icmp lt %i2, %n
  condbr %c, ^loop, ^done
^done:
  ret %y
}
"""


def region_texts(monkeypatch):
    """The text of each region compiled from now on, by its label.  The code
    cache starts empty, so a region compiled before is written again."""
    monkeypatch.setattr(vm_module, "_CODES", {})
    texts, region_code = {}, vm_module._region_code

    def spy(src, label):
        texts[label] = src
        return region_code(src, label)

    monkeypatch.setattr(vm_module, "_region_code", spy)
    return texts


def spills_before(src, left):
    """The values a region text writes to the frame just before it returns
    `left`, a (block, successor) pair."""
    lines = [line.strip() for line in src.splitlines()]
    spilled = set()
    for n, line in enumerate(lines):
        if line == f"return {left[0]!r}, {left[1]!r}":
            while lines[n - 1].startswith("env["):
                n -= 1
                spilled.add(re.match(r"env\[(\S+)\] =", lines[n])[1])
    return {name.strip("'") for name in spilled}


@pytest.mark.parametrize("kind", KINDS)
def test_an_exit_spills_only_what_is_read_after_the_region(monkeypatch,
                                                          kind):
    iprog = instrument_text(SPILL_PIR, kind)
    texts = region_texts(monkeypatch)
    checks, oracle = tiers_agree(monkeypatch, iprog, [60])
    assert checks[:2] == oracle[:2] == (EXIT_OK, 59 * 3 + 5)
    src = texts["loop"]
    assert spills_before(src, ("loop", "done")) == {"y"}
    # Handing ^loop back to the interpreter writes only what ^loop reads
    # before it sets it: its phi's value from ^loop.
    assert spills_before(src, ("loop", "loop")) == {"i2"}
    assert "env['z'] =" not in src


@pytest.mark.parametrize("backend", ["checks", "oracle"])
def test_a_program_instrumented_again_compiles_no_region(monkeypatch,
                                                         backend):
    # A fresh cache, so that its size counts the compiles below.
    monkeypatch.setattr(vm_module, "_CODES", {})
    monkeypatch.setattr(vm_module, "HOT_THRESHOLD", 1)
    which = ("checks", "oracle").index(backend)
    allowance = default_allowance if which else None
    compiles = []
    for _ in range(2):
        iprog = instrument_text(corpus_text("linked_list.pir"))
        res = VM(iprog, backend=backend, allowance=allowance).run([30])
        assert (res.exit_code, res.ret) == (EXIT_OK, 30 * 29 // 2 + 2 * 30)
        compiles.append(len(vm_module._CODES))
        # Each region binds this program's own steps and sites.
        instrs = {id(instr) for fn in iprog.program.functions.values()
                  for block in fn.blocks for instr in block.instrs}
        sites = {id(site) for site in iprog.sites}
        regions = [code for plans in iprog.plans.values()
                   for code in plans.tiers[which][0].values() if code]
        for region in regions:
            bound = {name: value for name, value in region.__globals__.items()
                     if name[0] in "IS" and name[1:].isdigit()}
            assert bound and all(
                id(value) in instrs if name[0] == "I"
                else {id(site) for site in value} <= sites
                for name, value in bound.items())
    assert len(regions) == compiles[0] == compiles[1]


# EVENT_AND_ABORT_PIR after a function that nothing calls: each of @main's
# sites has a sid one higher, and @main's regions have the same text.
SHIFTED_SIDS_PIR = """
fn @first(%p: ptr) {
^entry:
  %v = load %p, 8
  ret %v
}
""" + EVENT_AND_ABORT_PIR


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("backend", ["checks", "oracle"])
def test_a_shared_region_text_reports_its_own_programs_sites(monkeypatch,
                                                             kind, backend):
    runs = []
    for text in (EVENT_AND_ABORT_PIR, SHIFTED_SIDS_PIR):
        iprog = instrument_text(text, kind, 8)
        want = tiered(monkeypatch, iprog, NEVER_HOT, [8, 5], backend)
        texts = region_texts(monkeypatch)
        assert tiered(monkeypatch, iprog, 1, [8, 5], backend) == want
        runs.append((want, dict(texts)))
    # Each program writes its own region texts, the same ones.
    (first, written), (shifted, again) = runs
    assert written and again == written
    assert first[0] == shifted[0] == EXIT_BOUNDS
    assert shifted[8]["sid"] == first[8]["sid"] + 1
    assert [e[1] for e in shifted[10]] == [e[1] + 1 for e in first[10]]
    assert len(first[10]) == (6 if backend == "oracle" else 0)


def test_the_code_cache_keeps_to_its_bound(monkeypatch):
    monkeypatch.setattr(vm_module, "_MAX_CODES", 4)
    monkeypatch.setattr(vm_module, "HOT_THRESHOLD", 50)
    texts = region_texts(monkeypatch)
    # Seven programs with one region each.
    programs = [TWO_BLOCK_PIR.replace("add %v, 1", f"add %v, {n}")
                for n in range(7)]

    def writes(text):
        texts.clear()
        assert VM(instrument_text(text)).run([60]).ok
        return len(texts)

    assert [writes(text) for text in programs] == [1] * 7
    assert len(vm_module._CODES) == 4
    # The oldest programs' regions go first; one still held is not written.
    assert [writes(text) for text in programs[3:]] == [0] * 4
    assert writes(programs[2]) == 1
