"""The oracle backend's compiled regions against its interpreter.

A compiled oracle region tests each exact site's record inline and calls
`VM._oracle_check` with that record only where the access is not in bounds;
sites of one KSA share one `SimMemory.record_at` lookup until a step runs a
handler or the block ends, and the sites of a KSA that an `alloc` of the
block made take its record with no lookup.
"""

import sys

import pytest

from conftest import FORGED_TAGS, corpus_text, instrument_text
from prismbox import vm as vm_module
from prismbox.heap import SimMemory
from prismbox.oracle import default_allowance
from prismbox.vm import EXIT_BOUNDS, EXIT_ESCAPE, EXIT_OK, VM

NEVER_HOT = 1 << 62

# Each trip loads a byte through %a, then ACCESS through %p, %a + OFF, and
# stores the phi %h: null on the first trip, %a on the later ones.
EDGE_LOOP_PIR = """
fn @main(%n: int) {{
^entry:
  %a = alloc {obj}
  %cell = alloc 8
  br ^loop
^loop:
  %i = phi [0, ^entry], [%i2, ^loop]
  %h = phi [null, ^entry], [%a, ^loop]
  %u = load %a, 1
  %p = gep %a, {off}
  {access}
  storep %cell, %h
  %i2 = add %i, 1
  %c = icmp lt %i2, %n
  condbr %c, ^loop, ^done
^done:
  ret %i2
}}
"""

# @mk returns its stack object, whose address the loop's first stackalloc
# reuses: with equal sizes the new object has the dangling pointer's tag.
DANGLING_LOOP_PIR = """
fn @mk() {{
^entry:
  %b = stackalloc {mk}
  ret %b
}}
fn @main(%n: int) {{
^entry:
  %p = call @mk()
  br ^loop
^loop:
  %i = phi [0, ^entry], [%i2, ^loop]
  %v = load %p, {size}
  %s = stackalloc {new}
  %q = gep %p, %i*1
  store %q, 1, 7
  %w = load %p, {size}
  %i2 = add %i, 1
  %c = icmp lt %i2, %n
  condbr %c, ^loop, ^done
^done:
  ret %i2
}}
"""

FORGED_LOOP_PIR = """
fn @main(%n: int) {{
^entry:
  %cell = alloc 8
  store %cell, 8, {tag}
  %f = loadp %cell
  br ^loop
^loop:
  %i = phi [0, ^entry], [%i2, ^loop]
  %v = load %f, {size}
  %i2 = add %i, 1
  %c = icmp lt %i2, %n
  condbr %c, ^loop, ^done
^done:
  ret %v
}}
"""

MODES = [(kind, q) for kind in ("prism", "prism32", "pow2") for q in (0, 8)]


def oracle_outcome(monkeypatch, iprog, hot, inputs):
    """The oracle run of `iprog` on fresh plans, blocks compiled on entry
    `hot`: exit code, return value, violation and allowed events, each
    event's record as its index in the run's records."""
    monkeypatch.setattr(vm_module, "HOT_THRESHOLD", hot)
    iprog.rebuild_index()
    machine = VM(iprog, backend="oracle", allowance=default_allowance)
    res = machine.run(list(inputs))
    records = machine.mem.records
    events = [(e.cls, e.site.sid, e.addr, e.size, e.record,
               next((i for i, r in enumerate(records) if r is e.record), None))
              for e in machine.allowed_events]
    return (res.exit_code, res.ret,
            res.violation.to_dict() if res.violation else None, events)


def tiers_agree(monkeypatch, text, kind, q, inputs):
    iprog = instrument_text(text, kind, q)
    want = oracle_outcome(monkeypatch, iprog, NEVER_HOT, inputs)
    assert oracle_outcome(monkeypatch, iprog, 1, inputs) == want
    assert iprog.plans["main"].tiers[1][0]["loop"] is not None
    return want


def edge_offsets(obj, size, q):
    """sa-1, sa, ea-size, ea-size+1, two starts in [ea, ea+q) and two past
    ea+q, as offsets from sa."""
    return sorted({-1, 0, obj - size, obj - size + 1, obj, obj + q - 1,
                   obj + q, obj + q + 8})


@pytest.mark.parametrize("kind,q", MODES)
def test_edge_sweep_matches_the_interpreter(monkeypatch, kind, q):
    seen = set()
    for obj in (4, 24):
        for size in (1, 4, 8, 0):
            access = (f"%v = load %p, {size}" if size else
                      "storep %cell, %p")       # a zero-size escape
            for off in edge_offsets(obj, size, q):
                text = EDGE_LOOP_PIR.format(obj=obj, off=off, access=access)
                exit_code, _, _, events = tiers_agree(monkeypatch, text, kind,
                                                      q, [3])
                seen.add(exit_code)
                seen.update(e[0] for e in events)
    assert {EXIT_OK, EXIT_BOUNDS, EXIT_ESCAPE} <= seen
    if q:
        assert "IN_PADDING" in seen


@pytest.mark.parametrize("kind", ["prism", "prism32", "pow2"])
@pytest.mark.parametrize("size", [1, 8])
def test_forged_pointer_matches_the_interpreter(monkeypatch, kind, size):
    tag = FORGED_TAGS.get(kind, FORGED_TAGS["prism"])
    text = FORGED_LOOP_PIR.format(tag=tag, size=size)
    assert tiers_agree(monkeypatch, text, kind, 0, [3])[0] == EXIT_BOUNDS


@pytest.mark.parametrize("kind,q", MODES)
@pytest.mark.parametrize("mk,new,size,n", [
    (16, 16, 8, 10), (16, 16, 8, 20), (16, 16, 4, 14), (4, 4, 8, 3),
    (64, 16, 8, 40)])
def test_dangling_stack_pointer_matches_the_interpreter(monkeypatch, kind, q,
                                                        mk, new, size, n):
    text = DANGLING_LOOP_PIR.format(mk=mk, new=new, size=size)
    tiers_agree(monkeypatch, text, kind, q, [n])


def counting_lookups(monkeypatch):
    """Patch `SimMemory.record_at` to log each lookup's result."""
    found = []
    record_at = SimMemory.record_at

    def counted(self, *args):
        found.append(record_at(self, *args))
        return found[-1]

    monkeypatch.setattr(SimMemory, "record_at", counted)
    return found


def lookups_per_trip(monkeypatch, iprog, fn, header, inputs):
    """Compile every block, then run again and return the lookups that each
    trip through the region stored under `header` of `fn` made.  A trip's
    lookups are those made while the region's local `s`, its step count
    before the block it runs, stays put: in each loop here only one block
    of a trip makes lookups."""
    monkeypatch.setattr(vm_module, "HOT_THRESHOLD", 1)
    iprog.rebuild_index()
    VM(iprog, backend="oracle", allowance=default_allowance).run(inputs)
    compiled = iprog.plans[fn].tiers[1][0]
    region, trips, inside = compiled[header], {}, []
    record_at = SimMemory.record_at

    def counted(self, *args):
        found = record_at(self, *args)
        if inside:
            trips.setdefault(sys._getframe(1).f_locals["s"], []).append(found)
        return found

    def entry(vm, env, prev):
        inside.append(prev)
        try:
            return region(vm, env, prev)
        finally:
            inside.pop()

    monkeypatch.setattr(SimMemory, "record_at", counted)
    compiled[header] = entry
    VM(iprog, backend="oracle", allowance=default_allowance).run(inputs)
    return list(trips.values())


def test_walk_body_makes_one_lookup_per_entry(monkeypatch):
    iprog = instrument_text(corpus_text("linked_list.pir"))
    trips = lookups_per_trip(monkeypatch, iprog, "walk", "loop", [30])
    # Three loads through %cur, each an exact site; the interpreter looks
    # the record up for each.
    steps = iprog.plans["walk"]["body"][1]
    assert [(s.origin.op, s.ksa) for _, _, sites in steps if sites
            for s in sites[1]] == [("load", "cur.ksa"), ("load", "cur.ksa"),
                                   ("loadp", "cur.ksa")]
    assert len(trips) == 30
    assert all(len(found) == 1 and found[0] is not None for found in trips)


def test_an_allocation_ends_the_shared_lookup(monkeypatch):
    # The loop's stackalloc puts an object with %p's tag at %p's address on
    # the first trip, so the store after it finds that newer record, and
    # the last load shares the store's lookup.  Every access is in bounds,
    # so no site looks again in `VM._oracle_check`.
    text = DANGLING_LOOP_PIR.format(mk=16, new=16, size=8)
    iprog = instrument_text(text)
    trips = lookups_per_trip(monkeypatch, iprog, "main", "loop", [3])
    assert [len(found) for found in trips] == [2, 2, 2]
    first, newer = trips[0]
    assert first.kind == newer.kind == "stack" and first is not newer
    assert (first.sa, first.tagged) == (newer.sa, newer.tagged)
    want = oracle_outcome(monkeypatch, iprog, NEVER_HOT, [3])
    assert want == (EXIT_OK, 3, None, [])
    assert oracle_outcome(monkeypatch, iprog, 1, [3]) == want


# Each trip loads 8 bytes of a 4-byte object: an access in q-padding at a
# q-elided site, which the oracle allows.
PADDING_LOOP_PIR = """
fn @main(%n: int) {
^entry:
  %a = alloc 4
  br ^loop
^loop:
  %i = phi [0, ^entry], [%i2, ^loop]
  %v = load %a, 8
  %i2 = add %i, 1
  %c = icmp lt %i2, %n
  condbr %c, ^loop, ^done
^done:
  ret %i2
}
"""


@pytest.mark.parametrize("kind", ["prism", "prism32", "pow2"])
@pytest.mark.parametrize("hot", [NEVER_HOT, 1])
def test_an_allowed_event_makes_one_lookup(monkeypatch, kind, hot):
    # `VM._oracle_check` takes the record its caller found.
    iprog = instrument_text(PADDING_LOOP_PIR, kind, 8)
    found = counting_lookups(monkeypatch)
    exit_code, ret, _, events = oracle_outcome(monkeypatch, iprog, hot, [20])
    assert (exit_code, ret, len(events)) == (EXIT_OK, 20, 20)
    assert {e[0] for e in events} == {"IN_PADDING"}
    assert len(found) == 20 and all(found)


# Each trip allocates %a and then stores, loads and lets a pointer escape
# through it, all at sites of KSA %a.  On trip %bad the load reads past %a
# and past pow2's aligned block.
ALLOC_LOOP_PIR = """
fn @main(%n: int, %bad: int) {
^entry:
  %cell = alloc 8
  br ^loop
^loop:
  %i = phi [0, ^entry], [%i2, ^loop]
  %a = alloc 16
  store %a, 8, %i
  %at = icmp eq %i, %bad
  %off = select %at, 64, 8
  %p = gep %a, %off*1
  %v = load %p, 8
  storep %cell, %p
  %i2 = add %i, 1
  %c = icmp lt %i2, %n
  condbr %c, ^loop, ^done
^done:
  ret %i2
}
"""


@pytest.mark.parametrize("kind,q", MODES)
def test_an_alloc_hands_its_record_to_later_sites(monkeypatch, kind, q):
    # The record that `record_at` gives for %a is the one its alloc just
    # made, `mem.records[-1]`, so the compiled loop looks up only %cell's
    # (8 bytes), at the storep.  Before, it also looked %a up at the store,
    # once a trip, for all three of %a's sites.
    iprog = instrument_text(ALLOC_LOOP_PIR, kind, q)
    for bad, exit_code, trips in ((-1, EXIT_OK, 20), (7, EXIT_BOUNDS, 7)):
        want = oracle_outcome(monkeypatch, iprog, NEVER_HOT, [20, bad])
        assert want[0] == exit_code
        assert oracle_outcome(monkeypatch, iprog, 1, [20, bad]) == want
        found = lookups_per_trip(monkeypatch, iprog, "main", "loop",
                                 [20, bad])
        assert [[r.request_size for r in trip] for trip in found] == [
            [8]] * trips
