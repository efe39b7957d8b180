"""Shared fixtures/helpers and the acceptance-criteria summary hook."""

from __future__ import annotations

import importlib.resources
import json

import pytest

from prismbox.instrument import ALL_OPTS, instrument
from prismbox.ir import parse
from prismbox.tagging import Mode
from prismbox.vm import VM


# @main(n) recurses n calls deep and returns n.
RECURSIVE_PIR = """
fn @f(%n: int) {
^entry:
  %z = icmp eq %n, 0
  condbr %z, ^base, ^rec
^base:
  ret 0
^rec:
  %m = sub %n, 1
  %r = call @f(%m)
  %s = add %r, 1
  ret %s
}
fn @main(%n: int) {
^entry:
  %r = call @f(%n)
  ret %r
}
"""


def corpus_text(name: str) -> str:
    root = importlib.resources.files("prismbox") / "corpus"
    return (root / name).read_text()


def corpus_expectations() -> dict:
    root = importlib.resources.files("prismbox") / "corpus"
    return json.loads((root / "expectations.json").read_text())


def instrument_text(text: str, kind: str = "prism", q: int = 0,
                    opts: tuple = ALL_OPTS):
    return instrument(parse(text), Mode(kind, q), opts)


def run_text(text: str, kind: str = "prism", q: int = 0,
             opts: tuple = ALL_OPTS, inputs=(), backend: str = "checks",
             **kw):
    iprog = instrument_text(text, kind, q, opts)
    vm = VM(iprog, backend=backend, **kw)
    return vm.run(list(inputs)), iprog, vm


# --------------------------------------------------------------------------
# One pass/fail line per acceptance criterion, printed in the terminal
# summary so the outcome is visible even with output capture on.

_CRITERIA: dict[str, str] = {}


def pytest_runtest_logreport(report):
    name = report.nodeid.rsplit("::", 1)[-1]
    if not name.startswith("test_criterion_"):
        return
    if report.when == "call" or (report.when == "setup" and report.failed):
        label = name[len("test_criterion_"):]
        _CRITERIA[label] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERIA:
        return
    terminalreporter.section("acceptance criteria")
    def key(item):
        num = item[0].split("_", 1)[0]
        return int(num) if num.isdigit() else 99
    for label, outcome in sorted(_CRITERIA.items(), key=key):
        num, _, rest = label.partition("_")
        word = "PASS" if outcome == "passed" else outcome.upper()
        terminalreporter.write_line(
            f"criterion {num}: {word} — {rest.replace('_', ' ')}")
