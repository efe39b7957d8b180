"""Guest loads and stores against a reference built on `SimMemory.read` and
`SimMemory.write`.

An access of 1, 2, 4 or 8 bytes within one page goes through its size's
`struct` codec (`heap.CODECS`); every other size, and an access that crosses
a page, writes a page still shared as ZERO_PAGE, or reads an unmapped one,
takes the slow path.  Each case stores and loads at one page offset, in each
mode, with blocks interpreted and compiled on their first and 50th entry,
and compares the values loaded and the bytes left in memory with the
reference.  The SA store and its lower-bound fetch are tested at a page's
last 8 bytes and across a page's end, and an access far wider than any
codec on a small object stops at its check.
"""

import pytest

from conftest import instrument_text
from prismbox import vm as vm_module
from prismbox.checks import Reason
from prismbox.heap import PAGE, ZERO_PAGE, SimMemory
from prismbox.tagging import Mode
from prismbox.vm import EXIT_BOUNDS, EXIT_OK, VM

KINDS = ["prism", "prism32", "pow2"]
SIZES = [1, 2, 3, 4, 8, 16]
TIERS = [1 << 62, 1, 50]        # interpreted; compiled on entry 1 and 50
M64 = (1 << 64) - 1
TRIPS = 55
BIG = (TRIPS + 4) * PAGE
# Both wider than a 1-, 2- or 4-byte access, so a store must truncate them.
WIDE = (0xF1E2D3C4B5A69788, 0x0123456789ABCDEF)

# Trip i stores %v + i at %p, page i of %a at page offset %d, which is the
# first write of that page unless the previous trip's store crossed into it,
# loads it back, stores %w - i over it through the page's own buffer, loads
# that, and loads %q, in a page nothing writes.
CODEC_PIR = """
fn @main(%d: int, %e: int, %v: int, %w: int, %n: int) {{
^entry:
  %a = alloc {big}
  br ^loop
^loop:
  %i = phi [0, ^entry], [%i2, ^loop]
  %s = phi [0, ^entry], [%s4, ^loop]
  %p = gep %a, %i*65536, %d*1
  %vi = add %v, %i
  store %p, {size}, %vi
  %x = load %p, {size}
  %wi = sub %w, %i
  store %p, {size}, %wi
  %y = load %p, {size}
  %q = gep %a, %e*1
  %z = load %q, {size}
  %s1 = mul %s, 31
  %s2 = add %s1, %x
  %s3 = mul %s2, 31
  %t = add %s3, %y
  %t2 = mul %t, 31
  %s4 = add %t2, %z
  %i2 = add %i, 1
  %c = icmp lt %i2, %n
  condbr %c, ^loop, ^done
^done:
  ret %s4
}}
"""


def offsets(size):
    """Page offsets: the first slot, the last slot of the codec's fast path,
    and the first that crosses into the next page."""
    return {"first": 0, "last": PAGE - size, "crossing": PAGE - size + 1}


def reference(kind, size, d, e):
    """What CODEC_PIR should return, and the memory it should leave, with
    every access made through `SimMemory.read` and `SimMemory.write`."""
    mem = SimMemory(Mode(kind))
    raw = mem.alloc(BIG) & mem.mode.mask
    low = (1 << 8 * size) - 1

    def load(addr):
        return int.from_bytes(mem.read(addr, size), "little")

    s = 0
    for i in range(TRIPS):
        p = raw + i * PAGE + d
        mem.write(p, ((WIDE[0] + i) & low).to_bytes(size, "little"))
        x = load(p)
        mem.write(p, ((WIDE[1] - i) & low).to_bytes(size, "little"))
        s = (((s * 31 + x) * 31 + load(p)) * 31 + load(raw + e)) & M64
    return s, mem


def run(monkeypatch, iprog, hot, inputs, backend):
    monkeypatch.setattr(vm_module, "HOT_THRESHOLD", hot)
    iprog.rebuild_index()
    machine = VM(iprog, backend=backend)
    return machine.run(inputs), machine.mem


@pytest.mark.parametrize("where", ["first", "last", "crossing"])
@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("kind", KINDS)
def test_loads_and_stores_match_the_reference(monkeypatch, kind, size,
                                              where):
    probe = SimMemory(Mode(kind))
    raw = probe.alloc(BIG) & probe.mode.mask    # as the VM's first alloc
    d = (offsets(size)[where] - raw) % PAGE
    e = d + (TRIPS + 2) * PAGE      # past every page the stores reach
    want, ref = reference(kind, size, d, e)
    assert ref.pages[(raw + e) & -PAGE] is ZERO_PAGE
    iprog = instrument_text(CODEC_PIR.format(big=BIG, size=size), kind)
    for backend in ("checks", "oracle"):
        for hot in TIERS:
            res, mem = run(monkeypatch, iprog, hot, [d, e, *WIDE, TRIPS],
                           backend)
            assert (res.exit_code, res.ret) == (EXIT_OK, want), (backend, hot)
            assert mem.pages == ref.pages, (backend, hot)   # by content
            # The page the loads alone read was never given a buffer.
            assert mem.pages[(raw + e) & -PAGE] is ZERO_PAGE


@pytest.mark.parametrize("size", SIZES)
def test_read_int_and_write_int_match_read_and_write(size):
    mem, ref = SimMemory(Mode("prism")), SimMemory(Mode("prism"))
    raw = mem.alloc(3 * PAGE) & mem.mode.mask
    assert ref.alloc(3 * PAGE) & ref.mode.mask == raw
    page = raw + PAGE - raw % PAGE
    for n, addr in enumerate((page, page + PAGE - size, page + 2 * PAGE - size
                              + 1, page + 2 * PAGE - size)):
        value = WIDE[n % 2] + n
        mem.write_int(addr, size, value)
        ref.write(addr, (value & (1 << 8 * size) - 1).to_bytes(size, "little"))
        assert mem.read_int(addr, size) == int.from_bytes(
            ref.read(addr, size), "little")
        assert mem.read(addr - 8, size + 16) == ref.read(addr - 8, size + 16)
    assert mem.read_int(page - size, size) == 0     # a zero page


# @get(p, k) loads the byte at p + k; its KSA is p, so a byte below p needs
# the SA stored after the object's end.  @main places %pad, then %a, whose
# SA lands at the page offset that %size gives it.
SA_PIR = """
fn @get(%p: ptr, %k: int) {
^entry:
  %q = gep %p, %k*1
  %v = load %q, 1
  ret %v
}
fn @main(%size: int, %k: int) {
^entry:
  %pad = alloca_dyn 8
  %a = alloca_dyn %size
  %a8 = gep %a, 8
  store %a8, 8, 1234605616436508552
  %m = gep %a, 16
  %v = call @get(%m, %k)
  ret %v
}
"""


@pytest.mark.parametrize("at", [PAGE - 8, PAGE - 4], ids=["last", "crossing"])
@pytest.mark.parametrize("kind", ["prism", "prism32"])
def test_a_lower_bound_sa_fetch_reads_the_sa_at_a_page_end(monkeypatch,
                                                           kind, at):
    probe = SimMemory(Mode(kind))
    probe.alloc_stack_dynamic(8)
    sa = probe.alloc_stack_dynamic(8) & probe.mode.mask
    size = sa - sa % PAGE + at - sa         # the SA lands at page offset `at`
    iprog = instrument_text(SA_PIR, kind)
    for hot in TIERS[:2]:
        for k, want in ((-8, 0x88), (-17, None)):
            res, mem = run(monkeypatch, iprog, hot, [size, k], "checks")
            rec = mem.records[-1]
            assert (rec.sa, (rec.ea + rec.q) % PAGE) == (sa, at)
            assert mem.read_sa(rec.ea) == int.from_bytes(
                mem.read(rec.ea + rec.q, 8), "little") == sa
            assert res.check_stats.sa_fetches == 1
            if want is None:
                assert res.exit_code == EXIT_BOUNDS
                assert res.violation.reason == Reason.LOWER_BOUND.value
            else:
                assert (res.exit_code, res.ret) == (EXIT_OK, want)


# Trip %n onward runs ^hit, whose access of {size} bytes starts at a 16-byte
# object.
WIDE_PIR = """
fn @main(%n: int, %v: int) {{
^entry:
  %a = alloc 16
  br ^loop
^loop:
  %i = phi [0, ^entry], [%i2, ^step]
  %i2 = add %i, 1
  %c = icmp lt %i2, %n
  condbr %c, ^step, ^hit
^hit:
  {access}
  br ^step
^step:
  %d = icmp lt %i2, 100
  condbr %d, ^loop, ^done
^done:
  ret 0
}}
"""


@pytest.mark.parametrize("access", ["%x = load %a, {size}",
                                    "store %a, {size}, %v"],
                         ids=["load", "store"])
@pytest.mark.parametrize("kind", KINDS)
def test_an_access_far_wider_than_a_codec_stops_at_its_check(monkeypatch,
                                                             kind, access):
    size, texts, region_code = 1 << 20, [], vm_module._region_code
    monkeypatch.setattr(vm_module, "_region_code", lambda src, label: (
        texts.append(src), region_code(src, label))[1])
    iprog = instrument_text(WIDE_PIR.format(access=access.format(size=size)),
                            kind)
    for backend in ("checks", "oracle"):
        for hot in TIERS:
            res, _ = run(monkeypatch, iprog, hot, [60, M64], backend)
            assert res.exit_code == EXIT_BOUNDS, (backend, hot)
    # Neither region text nor handler holds a literal of the size's mask.
    assert texts and max(map(len, texts)) < 10_000
    handler = vm_module._table(Mode(kind).mask)[
        "load" if "load" in access else "store"][size]
    assert max(c.bit_length() for c in handler.__code__.co_consts
               if type(c) is int) <= 64
