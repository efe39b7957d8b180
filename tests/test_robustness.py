"""Every program text ends in a defined outcome, never another exception.

The front end and the VM may reject a program only with a `ParseError`, a
`ValidationError` or a `VmError`; anything else would reach the CLI user
as a Python traceback.  Programs come from two generators, in the spirit
of Csmith (Yang et al., PLDI 2011): a Hypothesis strategy that writes
`@main` bodies straight from the `ir.OPS` grammar, and small mutations of
`fuzz.generate` programs.  A program also ends alike with each phi's
incomings reversed: their order has no meaning, so a validator that let a
predecessor bring two values would show here.

Allocation sizes stay at or below 2^17 bytes.  Pages are mapped lazily, so
a large allocation alone is cheap, but an `extern @copy` reads and writes
its whole length at once: a multi-gigabyte copy would exhaust the host
before it could fail.
"""

from __future__ import annotations

import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FORGED_TAGS
from prismbox import fuzz
from prismbox.heap import SimMemory
from prismbox.instrument import instrument
from prismbox.ir import OPS, TERMINATORS, ParseError, parse
from prismbox.tagging import Mode
from prismbox.verify import ValidationError
from prismbox.vm import VM, VmError

MODES = [Mode("prism", 8), Mode("pow2", 0), Mode("prism32", 0)]
STEP_LIMIT = 2000
MAX_SIZE = 1 << 17

HEADER = """\
global @g size=64 escapes=true
extern @copy kind=copy
extern @mk kind=alloc
extern @sum kind=pure
fn @id(%x: ptr) {
^entry:
  ret %x
}
"""

# The pool a wild operand is drawn from: names that may be defined once,
# twice or never (%n is @main's parameter), literals and forged pointers.
NAMES = ["%a", "%b", "%n"]
VALUES = NAMES + ["null", "0", "1", "-1", "8",
                  str(FORGED_TAGS["pow2"]), str(FORGED_TAGS["prism"])]
LITERALS = {"int": ["0", "1", "8", "-1"], "ptr": ["null"]}
SIZES = ["0", "1", "8", "64", "4096", str(MAX_SIZE)]
LABELS = ["^entry", "^b1", "^b2", "^nowhere"]
SYMBOLS = ["@g", "@nope"]
# (callee, argument kinds, result type) by op; "size" arguments are sizes.
CALLS = {"call": [("@id", ["ptr"], "ptr"), ("@main", ["int"], "int"),
                  ("@nope", [], "int")],
         "extern": [("@mk", ["size"], "ptr"), ("@sum", ["any", "any"], "int"),
                    ("@copy", ["ptr", "ptr", "int"], "int"),
                    ("@nope", [], "int")]}
VALUELESS = ("store", "storep", "free") + TERMINATORS
BODY_OPS = sorted(op for op in OPS if op != "phi" and op not in TERMINATORS)
WILD = [False] * 9 + [True]


def outcome(text: str, mode: Mode):
    """parse -> validate -> instrument -> run on both backends: the exit
    code and return value of each run, or the error that ended them."""
    try:
        iprog = instrument(parse(text), mode)
        runs = [VM(iprog, backend=backend, step_limit=STEP_LIMIT).run([3])
                for backend in ("checks", "oracle")]
    except (ParseError, ValidationError, VmError) as exc:
        return type(exc).__name__
    return [(run.exit_code, run.ret) for run in runs]


_PHI_LINE = re.compile(r"(?m)^(\s*\S+ = phi )(.*)$")
_INCOMING = re.compile(r"\[[^\]]*\]")


def reverse_phis(text: str) -> str:
    """The program with each well-formed phi's incomings in reverse order."""
    def flip(m):
        incomings = _INCOMING.findall(m[2])
        if ", ".join(incomings) != m[2]:
            return m[0]
        return m[1] + ", ".join(reversed(incomings))
    return _PHI_LINE.sub(flip, text)


def run_pipeline(text: str, mode: Mode) -> None:
    """Run `text` and, if it has a phi of two or more incomings, the same
    program with them reversed.  Their order has no meaning, so a program
    that validates must end alike both ways."""
    got = outcome(text, mode)
    flipped = reverse_phis(text)
    if flipped != text:
        assert outcome(flipped, mode) == got, flipped


# ------------------------------------------------------ programs from OPS

class _Writer:
    """Draws one @main of up to three blocks whose lines follow `ir.OPS`.

    Most operands are values already defined with the type that the table
    asks for, so that many programs validate and run.  Each block's branch
    targets are drawn before any block is written, so a phi can name every
    predecessor.  A branch's first target is a later block; a condbr's
    second may also be an earlier one (a back edge, to the entry block too)
    or repeat the first.  A phi gives a repeated predecessor its first
    value again or a second one.  The last block returns its phi, if it has
    one, so that the phi's value shows.  Unless `wild` is false, one choice
    in ten is wild: any op anywhere, a reused name, or an operand or label
    from the whole pool above.  Allocation sizes are always literals, so no
    computed value reaches one.
    """

    def __init__(self, draw, wild: bool):
        self.draw = draw
        self.wild_choices = wild
        self.names = {"int": ["%n"], "ptr": []}
        self.fresh = itertools.count()
        self.blocks = LABELS[:draw(st.integers(1, 3))]
        self.preds = {label: [] for label in LABELS}
        self.block = self.blocks[0]
        self.targets = []       # the drawn targets of the next terminator

    def pick(self, pool):
        return self.draw(st.sampled_from(pool))

    def wild(self) -> bool:
        return self.wild_choices and self.pick(WILD)

    def value(self, kind: str) -> str:
        if self.wild():
            return self.pick(VALUES)
        if kind == "any":
            kind = self.pick(["int", "ptr"])
        return self.pick(self.names[kind] + LITERALS[kind])

    def label(self, back: bool = False) -> str:
        """A branch target: a later block, or with `back` any block."""
        pool = self.blocks[0 if back else self.blocks.index(self.block) + 1:]
        target = self.pick(LABELS if self.wild() or not pool else pool)
        self.preds[target].append(self.block)
        return target

    def operands(self, op: str) -> tuple[str, str | None]:
        """The text after the op word, and the type of the result."""
        if op == "gep":
            terms = [self.pick(["-8", "4"]) if self.draw(st.booleans())
                     else f"{self.pick(self.names['int'])}*"
                          f"{self.pick(['1', '8', '-4'])}"
                     for _ in range(self.draw(st.integers(0, 2)))]
            return ", ".join([self.value("ptr")] + terms), "ptr"
        if op == "phi":
            kind = self.pick(["int", "ptr"])
            values, incomings = {}, []
            for p in self.preds[self.block] or [self.pick(LABELS)]:
                if p not in values or self.draw(st.booleans()):
                    values[p] = self.value(kind)
                incomings.append(f"[{values[p]}, {p}]")
            return ", ".join(incomings), kind
        if op == "select":
            kind = self.pick(["int", "ptr"])
            return (f"{self.value('int')}, {self.value(kind)}, "
                    f"{self.value(kind)}", kind)
        if op in ("call", "extern"):
            callee, kinds, result = self.pick(CALLS[op])
            args = [self.pick(SIZES) if kind == "size" else self.value(kind)
                    for kind in kinds]
            return f"{callee}({', '.join(args)})", result
        spec, args = OPS[op], []
        count = self.draw(st.integers(spec.required, len(spec.operands)))
        for role, kind in spec.operands[:count]:
            if kind == "size" or role == "size":
                args.append(self.pick(SIZES))
            elif kind == "@":
                args.append(self.pick(SYMBOLS if self.wild() else ["@g"]))
            elif kind == "^":
                args.append(self.targets.pop() if self.targets
                            else self.label())
            else:
                args.append(self.value(kind))
        if op in ("icmp", "ptrcmp"):
            args[0] = f"{self.pick(['eq', 'lt', 'ge'])} {args[0]}"
        return ", ".join(args), spec.result

    def line(self, op: str) -> str:
        text, kind = self.operands(op)
        if op in VALUELESS and not self.wild():
            return f"  {op} {text}".rstrip()
        if self.wild():
            dest = self.pick(NAMES)
        else:
            dest = f"%v{next(self.fresh)}"
        self.names[kind or "int"].append(dest)
        return f"  {dest} = {op} {text}".rstrip()

    def program(self) -> str:
        ends = {}
        for self.block in self.blocks:
            op = ("ret" if self.block == self.blocks[-1]
                  else self.pick(["br", "condbr"]))
            ends[self.block] = op, [self.label(back=n > 0) for n in
                                    range({"br": 1, "condbr": 2}.get(op, 0))]
        lines = [HEADER, "fn @main(%n: int) {"]
        for self.block in self.blocks:
            lines.append(f"{self.block}:")
            phi = None
            if self.preds[self.block] and self.draw(st.booleans()):
                lines.append(self.line("phi"))
                phi = lines[-1].split()[0]
            for _ in range(self.draw(st.integers(0, 5))):
                ops = sorted(OPS) if self.wild() else BODY_OPS
                lines.append(self.line(self.pick(ops)))
            if self.wild():
                continue
            op, targets = ends[self.block]
            self.targets = targets[::-1]
            lines.append(f"  ret {phi}" if op == "ret" and phi
                         else self.line(op))
        lines.append("}")
        return "\n".join(lines) + "\n"


@st.composite
def op_programs(draw, wild: bool = True) -> str:
    return _Writer(draw, wild).program()


@settings(max_examples=300, deadline=None)
@given(op_programs(), st.sampled_from(MODES))
def test_programs_from_ops_end_in_a_defined_outcome(text, mode):
    run_pipeline(text, mode)


@settings(max_examples=300, deadline=None)
@given(op_programs(wild=False), st.sampled_from(MODES))
def test_programs_without_wild_choices_end_in_a_defined_outcome(text, mode):
    # Most of these validate, so their phis, loop-carried ones and those of
    # a repeated predecessor included, reach the VM.
    run_pipeline(text, mode)


# ---------------------------------------------- mutated generated programs

_TOKEN = re.compile(r"[^\s,()\[\]*=:{}]+")
REPLACEMENTS = VALUES + LABELS + SYMBOLS + sorted(OPS)


def mutate(text: str, rng: random.Random) -> str:
    """Delete, duplicate or swap a line, or replace one token of a line."""
    lines = text.splitlines()
    i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
    how = rng.choice(("delete", "duplicate", "swap", "token"))
    if how == "delete":
        del lines[i]
    elif how == "duplicate":
        lines.insert(j, lines[i])
    elif how == "swap":
        lines[i], lines[j] = lines[j], lines[i]
    else:
        tokens = list(_TOKEN.finditer(lines[i]))
        if tokens:
            tok = rng.choice(tokens)
            lines[i] = (lines[i][:tok.start()] + rng.choice(REPLACEMENTS)
                        + lines[i][tok.end():])
    return "\n".join(lines) + "\n"


class _TooLarge(Exception):
    """A mapping bigger than any allocation of at most MAX_SIZE bytes."""


def test_mutated_generated_programs_end_in_a_defined_outcome(monkeypatch):
    # A replaced token can turn a computed value into an allocation size;
    # such a case is skipped before its pages are zero-filled.
    map_range = SimMemory.map_range

    def bounded(self, start, end):
        if end - start > 4 * MAX_SIZE:
            raise _TooLarge
        map_range(self, start, end)

    monkeypatch.setattr(SimMemory, "map_range", bounded)
    failures, skipped = [], 0
    for seed in range(300):
        text, _inputs = fuzz.generate(seed)
        try:
            run_pipeline(mutate(text, random.Random(seed)), MODES[seed % 3])
        except _TooLarge:
            skipped += 1
        except Exception as exc:  # reported with its seed, then fails below
            failures.append(f"seed {seed}: {type(exc).__name__}: {exc}")
    assert failures == []
    assert skipped < 30
