"""Region code kept by program, and the scope each interpreter handler binds.

A region's text is a function of the parsed source, the mode, the opts, the
function, the label and the backend, so the VM keeps each region's code and
recipe under those (`vm._CODES`) and writes no text when a program built
from the same source, mode and opts compiles the region again.  These tests
count the texts written (each goes through `vm._region_code`) and check that
programs differing in anything that shapes a region build their own.
"""

import pytest

from conftest import corpus_text, instrument_text, outcome, tiered
from prismbox import vm as vm_module
from prismbox.cli import load_corpus
from prismbox.heap import CODECS
from prismbox.instrument import ALL_OPTS, ELIDED_Q, instrument
from prismbox.ir import parse
from prismbox.oracle import default_allowance, differential_on
from prismbox.tagging import Mode
from prismbox.vm import EXIT_OK, VM

KINDS = ["prism", "prism32", "pow2"]
NEVER_HOT = 1 << 62

# Each row of the walk benchmark's case: kind, q, backend.
WALK_ROWS = [("prism", 0, "checks"), ("prism32", 0, "checks"),
             ("pow2", 0, "checks"), ("prism", 16, "checks"),
             ("prism", 0, "oracle"), ("prism", 0, "oracle")]

LOOP_PIR = """
fn @main(%n: int) {
^entry:
  %a = alloc 16
  store %a, 8, 7
  br ^loop
^loop:
  %i = phi [0, ^entry], [%i2, ^loop]
  %s = phi [0, ^entry], [%s2, ^loop]
  %v = load %a, 8
  %t = mul %v, 3
  %s2 = add %s, %t
  %i2 = add %i, 1
  %c = icmp lt %i2, %n
  condbr %c, ^loop, ^done
^done:
  ret %s2
}
"""

# Each differs from LOOP_PIR at prism, q=0 with every opt in one thing:
# (text, kind, q, opts).
VARIANTS = {
    "literal in the region": (LOOP_PIR.replace("mul %v, 3", "mul %v, 5"),
                              "prism", 0, ALL_OPTS),
    "literal outside it": (LOOP_PIR.replace("8, 7", "8, 9"), "prism", 0,
                           ALL_OPTS),
    "opts": (LOOP_PIR, "prism", 0, ()),
    "mode": (LOOP_PIR, "prism32", 0, ALL_OPTS),
    "q": (LOOP_PIR, "prism", 8, ALL_OPTS),
}


@pytest.fixture
def texts(monkeypatch):
    """An empty code cache, and the list of region texts written from now
    on."""
    monkeypatch.setattr(vm_module, "_CODES", {})
    written, region_code = [], vm_module._region_code
    monkeypatch.setattr(vm_module, "_region_code", lambda src, label: (
        written.append(src), region_code(src, label))[1])
    return written


def run(iprog, backend="checks", n=60):
    allowance = default_allowance if backend == "oracle" else None
    return VM(iprog, backend=backend, allowance=allowance).run([n])


def regions(iprog):
    return [code for plans in iprog.plans.values() for tier in plans.tiers
            for code in tier[0].values() if code]


def test_walk_builds_each_region_text_once(monkeypatch, texts):
    monkeypatch.setattr(vm_module, "HOT_THRESHOLD", 50)
    built = []
    for _ in range(2):      # two walk cases
        before = len(texts)
        for kind, q, backend in WALK_ROWS:
            iprog = instrument_text(corpus_text("linked_list.pir"), kind, q)
            res = run(iprog, backend)
            assert (res.exit_code, res.ret) == (EXIT_OK, 60 * 59 // 2 + 120)
            assert len(regions(iprog)) == 2
        built.append(len(texts) - before)
    # Five distinct rows of two regions each; the second oracle row and the
    # whole second case write none.
    assert built == [10, 0]
    assert len(set(texts)) == len(texts) == len(vm_module._CODES)


@pytest.mark.parametrize("variant", VARIANTS)
def test_programs_that_differ_never_share_a_region(monkeypatch, texts,
                                                   variant):
    monkeypatch.setattr(vm_module, "HOT_THRESHOLD", 1)
    base = instrument_text(LOOP_PIR)
    assert run(base).ret == 60 * 21
    keys = set(vm_module._CODES)
    other = instrument_text(*VARIANTS[variant])
    before = len(texts)
    got = run(other)
    # It wrote a text for each of its regions and kept each under a new
    # key, and it runs as the interpreter does.
    assert len(texts) - before == len(regions(other)) > 0
    assert len(vm_module._CODES) == len(keys) + len(regions(other))
    want = tiered(monkeypatch, other, NEVER_HOT, [60])
    assert (got.exit_code, got.ret, got.steps) == want[:3]


def test_a_second_instrument_of_one_program_reuses_no_region(monkeypatch,
                                                             texts):
    monkeypatch.setattr(vm_module, "HOT_THRESHOLD", 1)
    program = parse(LOOP_PIR)
    first = instrument(program, Mode("prism"))
    assert first.key is not None and program.text is None
    assert run(first).ret == 60 * 21
    before = len(texts)
    # The program the second call instruments is the first's output, not
    # LOOP_PIR, so it has no key to share regions under.
    second = instrument(program, Mode("prism"))
    assert second.key is None
    assert run(second).ret == 60 * 21
    assert len(texts) - before == len(regions(second)) > 0


CORPUS = {case["name"]: case for case in load_corpus()["cases"]}


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", CORPUS)
def test_regions_bound_from_the_cache_run_as_written(monkeypatch, texts,
                                                     name, kind):
    text, inputs = CORPUS[name]["text"], CORPUS[name].get("inputs", [])
    for q in (0, 8):
        for backend in ("checks", "oracle"):
            want = tiered(monkeypatch, instrument_text(text, kind, q),
                          NEVER_HOT, inputs, backend)
            monkeypatch.setattr(vm_module, "HOT_THRESHOLD", 1)
            # The first program writes its regions' texts; the second
            # binds the same code to its own steps and writes none.
            written = outcome(instrument_text(text, kind, q), inputs,
                              backend, False)
            before = len(texts)
            bound = outcome(instrument_text(text, kind, q), inputs,
                            backend, False)
            assert len(texts) == before
            assert written == bound == want, (q, backend)


def test_a_site_changed_after_instrument_gets_its_own_region(monkeypatch,
                                                             texts):
    # The mutation self-test of test_oracle_fuzz, after a run of the same
    # program has left its regions in the cache: eliding every site in
    # place must be seen, not run the cached regions' checks.
    monkeypatch.setattr(vm_module, "HOT_THRESHOLD", 1)
    text = corpus_text("off_by_one.pir")
    assert differential_on(instrument_text(text), []).ok
    before = len(texts)
    iprog = instrument_text(text)
    for site in iprog.sites:
        site.status = ELIDED_Q
    assert not differential_on(iprog, []).ok
    assert len(texts) > before


def test_rebuild_index_drops_the_key():
    iprog = instrument_text(LOOP_PIR)
    assert iprog.key is not None
    iprog.rebuild_index()
    assert iprog.key is None


@pytest.mark.parametrize("kind", KINDS)
def test_handlers_bind_only_the_names_their_step_reads(kind):
    table = vm_module._table(Mode(kind).mask)

    def names(handler):
        code = handler.__code__
        return {*code.co_varnames, *code.co_names}

    for op in vm_module._MEMORY:
        for size in (*CODECS, 3, 16):
            bound = names(table[op][size])
            assert "alloc" not in bound and "mem" in bound, (op, size)
    bound = names(table["alloc"][0])
    assert "get" not in bound and {"mem", "alloc"} <= bound
