"""Shared fixtures/helpers and the acceptance-criteria summary hook."""

from __future__ import annotations

import importlib.resources
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import prismbox
from prismbox import vm as vm_module
from prismbox.instrument import ALL_OPTS, instrument
from prismbox.ir import parse
from prismbox.tagging import Mode
from prismbox.vm import VM, VmError


@pytest.fixture(autouse=True)
def hot_threshold_from_env(monkeypatch):
    """PRISMBOX_TEST_HOT_THRESHOLD=N sets `vm.HOT_THRESHOLD` to N for each
    test; N=1 compiles every block on its first entry."""
    hot = os.environ.get("PRISMBOX_TEST_HOT_THRESHOLD")
    if hot:
        monkeypatch.setattr(vm_module, "HOT_THRESHOLD", int(hot))


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


# (shape, n) for deep_program; each is deeper than Python's default
# recursion limit of 1000.
DEEP_SHAPES = [("gep", 3000), ("select", 3000), ("blocks", 3000),
               ("reversed_gep", 1500)]


def deep_program(shape: str, n: int) -> str:
    """A valid @main whose pointer chain or CFG is n links deep.

    `gep` and `select` chain n values in one block and load through the
    last; `blocks` chains n empty blocks; `reversed_gep` puts one gep of the
    chain in each of n blocks and writes those blocks last link first.
    """
    lines = ["fn @main() {", "^entry:", "  %p0 = alloc 8"]
    if shape in ("gep", "select"):
        for i in range(1, n + 1):
            rhs = (f"gep %p{i - 1}, 0" if shape == "gep"
                   else f"select 1, %p{i - 1}, %p0")
            lines.append(f"  %p{i} = {rhs}")
        lines += [f"  %v = load %p{n}, 8", "  ret %v"]
    elif shape == "blocks":
        lines.append("  br ^b1")
        for i in range(1, n + 1):
            lines += [f"^b{i}:", f"  br ^b{i + 1}"]
        lines += [f"^b{n + 1}:", "  ret 0"]
    elif shape == "reversed_gep":
        lines.append("  br ^b1")
        for i in range(n, 0, -1):
            lines += [f"^b{i}:", f"  %p{i} = gep %p{i - 1}, 0"]
            lines += ([f"  %v = load %p{n}, 8", "  ret %v"] if i == n
                      else [f"  br ^b{i + 1}"])
    else:
        raise ValueError(shape)
    return "\n".join(lines + ["}", ""])


# name -> (program, a word of its diagnostic).  Each has a structural error;
# validating them once hung (a value typed two ways) or raised.
STRUCTURAL_DEFECTS = {
    "unknown_label": ("fn @main() {\n^entry:\n  br ^nowhere\n}\n",
                      "unknown block"),
    "value_redefined": ("fn @main() {\n^entry:\n  %x = alloc 8\n"
                        "  %x = load %x, 8\n  ret 0\n}\n", "defined twice"),
    "param_redefined": ("fn @main(%p0: int) {\n^entry:\n  %p0 = alloc 13\n"
                        "  ret 0\n}\n", "defined twice"),
    "phi_from_empty_block": ("fn @main() {\n^entry:\n  %y = add 1, 2\n"
                             "  condbr %y, ^a, ^b\n^a:\n^b:\n"
                             "  %x = phi [%y, ^entry], [%y, ^a]\n"
                             "  ret %x\n}\n", "missing terminator"),
}

# A phi at the head of @main's entry block, which the loop branches back to.
# The call enters the block on no edge, so the validator rejects the phi.
ENTRY_PHI_PIR = """\
fn @main(%n: int) {
^entry:
  %i = phi [%j, ^entry]
  %j = add %i, 1
  %c = icmp lt %j, %n
  condbr %c, ^entry, ^done
^done:
  ret %j
}
"""

# A condbr with one target on both arms; the phi gives that one predecessor
# two values, so the program has no single meaning.
REPEATED_PRED_PHI_PIR = """\
fn @main(%n: int) {
^entry:
  condbr %n, ^b, ^b
^b:
  %x = phi [1, ^entry], [2, ^entry]
  ret %x
}
"""

# Tagged values that pass the mode's bounds check for an 8-byte access at
# the unmapped raw address 0x1000: pow2 claims a 2^46-byte object there,
# prism a small frame whose end address is 0x2000.
FORGED_TAGS = {"pow2": (46 << 47) | 0x1000, "prism": (0x2000 << 47) | 0x1000}


def forged_pointer_program(tag: int) -> str:
    """@main stores `tag` to memory, loads it back as a pointer, reads it."""
    return ("fn @main() {\n^entry:\n  %c = alloc 16\n"
            f"  store %c, 8, {tag}\n  %q = loadp %c\n"
            "  %v = load %q, 8\n  ret %v\n}\n")


# `python -c CLI_MAIN run FILE` is `prismbox run FILE`.
CLI_MAIN = ("import sys; from prismbox.cli import main; "
            "sys.exit(main(sys.argv[1:]))")


def python_isolated(code: str, *args: str, stdin: str = "",
                    timeout: float = 10) -> subprocess.CompletedProcess:
    """Run `python -c code args` with this prismbox importable.

    A child that outlives `timeout` seconds is killed and the caller gets
    `subprocess.TimeoutExpired`, so a hang fails one test, not the suite.
    """
    src = str(Path(prismbox.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code, *args], input=stdin,
                          capture_output=True, text=True, timeout=timeout,
                          env=env)


def corpus_text(name: str) -> str:
    root = importlib.resources.files("prismbox") / "corpus"
    return (root / name).read_text()


def corpus_expectations() -> dict:
    root = importlib.resources.files("prismbox") / "corpus"
    return json.loads((root / "expectations.json").read_text())


def instrument_text(text: str, kind: str = "prism", q: int = 0,
                    opts: tuple = ALL_OPTS):
    return instrument(parse(text), Mode(kind, q), opts)


class ChecksVmError(VM):
    """A VM whose `checks` runs raise a VmError.  Set as `prismbox.oracle.VM`,
    where `differential_on` builds its two VMs, it plants a disagreement."""

    def run(self, inputs=None):
        if self.backend == "checks":
            raise VmError("planted")
        return super().run(inputs)


class ChecksWrongReturn(VM):
    """A VM whose clean `checks` runs return one more than they should."""

    def run(self, inputs=None):
        result = super().run(inputs)
        if self.backend == "checks" and result.ok:
            result.ret += 1
        return result


def _tool(name: str):
    """The module of `tools/<name>.py`."""
    path = Path(__file__).resolve().parents[1] / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# outcome(iprog, inputs, backend, trace, step_limit=200_000): what the CI
# outcome digest hashes of one run, or ("VmError", message, steps).
outcome = _tool("outcome_digest").outcome


def tiered(monkeypatch, iprog, hot: int, inputs, backend: str = "checks",
           trace: bool = False, **kw) -> tuple:
    """`outcome` on fresh plans, blocks compiled on entry `hot`."""
    monkeypatch.setattr(vm_module, "HOT_THRESHOLD", hot)
    iprog.rebuild_index()
    return outcome(iprog, inputs, backend, trace, **kw)


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
