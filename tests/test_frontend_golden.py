"""Golden digest of the front end's output.

One SHA-256 covers, for the 8 corpus programs and `mixed` fuzz seeds
0-199: the printed parse of each program and, in each of the 9 pairs of
mode (prism, pow2, prism32) and q (0, 8, 32), the printed instrumented
program and its JSON site table.  Any change to parsing, validation, CFG
analysis, instrumentation or the optimization passes that alters a single
byte of that output changes the digest.  A change meant to alter the output
must say so and update `EXPECTED`.
"""

from __future__ import annotations

import hashlib
import importlib.resources
import json

from prismbox import fuzz
from prismbox.instrument import instrument
from prismbox.ir import parse, print_program
from prismbox.tagging import Mode

MODES = [(kind, q) for kind in ("prism", "pow2", "prism32")
         for q in (0, 8, 32)]
SEEDS = range(200)

EXPECTED = "bb961c590accd1683079cb1fbb5ccd91a9326e0991ff71f83a054efa2d3dafaa"


def golden_texts() -> list[tuple[str, str]]:
    root = importlib.resources.files("prismbox") / "corpus"
    texts = sorted((p.name, p.read_text()) for p in root.iterdir()
                   if p.name.endswith(".pir"))
    texts += [(f"mixed-{seed}", fuzz.generate(seed, "mixed")[0])
              for seed in SEEDS]
    return texts


def frontend_digest() -> str:
    h = hashlib.sha256()
    for name, text in golden_texts():
        h.update(f"{name}\n".encode())
        h.update(print_program(parse(text)).encode())
        for kind, q in MODES:
            iprog = instrument(parse(text), Mode(kind, q))
            h.update(f"{kind} {q}\n".encode())
            h.update(print_program(iprog.program).encode())
            h.update(json.dumps(iprog.site_table()).encode())
    return h.hexdigest()


def test_frontend_output_is_unchanged():
    assert frontend_digest() == EXPECTED
