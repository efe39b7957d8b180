"""Golden digest of the front end's output on large programs.

`tests/test_frontend_golden.py` covers the corpus and ~30-line fuzz
programs.  This digest covers the sizes the compile_large benchmark runs:
18 `mixed` programs of 600-899 lines (16 allocations, up to 400 ops), one
in each of the 9 mode/q pairs twice, and two ~12k-line programs (up to 6400
ops) at prism q=8 and pow2 q=32.  Each adds its printed instrumented
program and its JSON site table.  Check combining and hoisting only meet
long runs of sites in programs this size, so a change to which site
survives shows here first.  A change meant to alter the output must say so
and update `EXPECTED`.
"""

from __future__ import annotations

import hashlib
import json
from itertools import count

from prismbox import fuzz
from prismbox.instrument import instrument
from prismbox.ir import parse, print_program
from prismbox.tagging import Mode

MODES = [(kind, q) for kind in ("prism", "pow2", "prism32")
         for q in (0, 8, 32)]
LARGE = fuzz.FuzzConfig("mixed", max_allocs=16, max_ops=400)
HUGE = fuzz.FuzzConfig("mixed", max_allocs=16, max_ops=6400)
HUGE_RUNS = [(22, Mode("prism", 8)), (37, Mode("pow2", 32))]

EXPECTED = "5b57ae2090e705b188f0b84d13682ff982b37cd7c9cb516e52c09186f7f738ee"


def large_runs() -> list[tuple[str, Mode]]:
    """The 20 programs and the mode each is instrumented in."""
    texts = (fuzz.generate(seed, LARGE)[0] for seed in count(20000))
    sized = (t for t in texts if t.count("\n") in range(600, 900))
    runs = [(text, Mode(*MODES[i % len(MODES)]))
            for i, text in zip(range(2 * len(MODES)), sized)]
    for seed, mode in HUGE_RUNS:
        text = fuzz.generate(seed, HUGE)[0]
        assert text.count("\n") in range(11000, 13000)
        runs.append((text, mode))
    return runs


def large_digest() -> str:
    h = hashlib.sha256()
    for text, mode in large_runs():
        iprog = instrument(parse(text), mode)
        h.update(f"{mode.kind} {mode.q}\n".encode())
        h.update(print_program(iprog.program).encode())
        h.update(json.dumps(iprog.site_table()).encode())
    return h.hexdigest()


def test_large_frontend_output_is_unchanged():
    assert large_digest() == EXPECTED
