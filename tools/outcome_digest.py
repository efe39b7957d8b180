"""Print one SHA-256 over the outcomes of a fixed set of VM runs.

Usage, from the repository root:

    PYTHONPATH=src python tools/outcome_digest.py [--hot N]

The set is the 8 corpus programs with their inputs and the `mixed` fuzz
programs of seeds 0-999 with theirs.  Each is instrumented with every
optimization in the 9 mode/q pairs (prism, pow2 and prism32 at q = 0, 8 and
32) and run on the `checks` and `oracle` backends, untraced and then
traced: 36,288 runs at a step limit of 200,000.  A run adds its exit code,
return value, steps, every `CheckStats` field with `fetch_log`, violation,
trace and allowed oracle events to the digest, or, if it raises a
`VmError`, its message and steps.  `--hot N` sets `vm.HOT_THRESHOLD` to N;
1 compiles every block on its first entry.

Two trees that print the same digest run these programs alike, so a change
meant to keep behaviour can be compared with its parent by running this in
both checkouts.  The programs themselves change only with `fuzz.generate`
or the corpus.
"""

from __future__ import annotations

import argparse
import hashlib

from prismbox import fuzz, vm
from prismbox.cli import load_corpus
from prismbox.instrument import instrument
from prismbox.ir import parse
from prismbox.oracle import default_allowance
from prismbox.tagging import Mode

MODES = [(kind, q) for kind in ("prism", "pow2", "prism32") for q in (0, 8, 32)]
SEEDS = range(1000)
STEP_LIMIT = 200_000


def programs():
    """(text, inputs) of every program in the set, corpus first."""
    for case in load_corpus()["cases"]:
        yield case["text"], case.get("inputs", [])
    for seed in SEEDS:
        yield fuzz.generate(seed, "mixed")


def outcome(iprog, inputs, backend: str, trace: bool,
            step_limit: int = STEP_LIMIT) -> tuple:
    machine = vm.VM(iprog, backend=backend, trace=trace,
                    step_limit=step_limit,
                    allowance=default_allowance if backend == "oracle"
                    else None)
    try:
        res = machine.run(list(inputs))
    except vm.VmError as exc:
        return "VmError", str(exc), machine.steps
    stats = res.check_stats
    events = [(e.cls, e.site.sid, e.addr, e.size, e.record)
              for e in machine.allowed_events]
    return (res.exit_code, res.ret, res.steps, stats.dynamic_checks,
            stats.sa_fetches, stats.xor_lower_paths, stats.aborts,
            stats.fetch_log,
            res.violation.to_dict() if res.violation else None, res.trace,
            events)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--hot", type=int, default=vm.HOT_THRESHOLD,
                        help="entries before a block is compiled "
                             f"(default {vm.HOT_THRESHOLD})")
    args = parser.parse_args(argv)
    vm.HOT_THRESHOLD = args.hot
    digest, runs = hashlib.sha256(), 0
    for text, inputs in programs():
        for kind, q in MODES:
            iprog = instrument(parse(text), Mode(kind, q))
            for trace in (False, True):
                for backend in ("checks", "oracle"):
                    digest.update(repr(outcome(iprog, inputs, backend,
                                               trace)).encode() + b"\n")
                    runs += 1
    print(f"{digest.hexdigest()}  {runs} runs")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
