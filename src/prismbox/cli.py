"""Command-line front end: run programs, replay the bug corpus, fuzz.

Exit codes for `run`: 0 clean exit, 1 VM error or differential mismatch,
2 bounds violation, 3 escape violation, 4 parse, validation or usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import resources
from pathlib import Path

from .fuzz import CONFIGS, campaign
from .instrument import ALL_OPTS, instrument
from .ir import ParseError, parse
from .oracle import differential_on
from .stats import build_report
from .tagging import MODE_KINDS, Mode
from .verify import ValidationError
from .vm import VM, VmError

EXIT_PARSE = 4


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one `error:` line and exit code 4, which
    no run outcome uses."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARSE, f"error: {message}\n")


def _non_negative(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"not a non-negative integer: {text!r}")
    return int(text)


def _mode_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--mode", choices=MODE_KINDS, default="prism")
    sub.add_argument("--qpad", type=_non_negative, default=0, metavar="N",
                     help="padding bytes between object end and metadata")
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--opt", dest="opt", type=parse_opts, default="all",
                       metavar="LIST",
                       help="comma-separated elimination passes "
                            f"({','.join(ALL_OPTS)}; default all)")
    group.add_argument("--no-opt", dest="opt", action="store_const", const=())


def parse_opts(spec: str) -> tuple:
    """The passes that `--opt`, or a corpus run's "opt", names: "all",
    "none", or a comma-separated list."""
    if spec == "all":
        return ALL_OPTS
    if spec == "none":
        return ()
    opts = tuple(part.strip() for part in spec.split(",") if part.strip())
    unknown = [o for o in opts if o not in ALL_OPTS]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown optimization {unknown[0]!r} "
            f"(choose from {', '.join(ALL_OPTS)})")
    return opts


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="prismbox",
        description="Object-bounds sandbox simulator for a tagged-pointer "
                    "heap with compiler-style check elimination.")
    subs = parser.add_subparsers(dest="command", required=True)

    run = subs.add_parser("run", help="execute one program")
    run.add_argument("file", help="program file (.pir)")
    run.add_argument("inputs", nargs="*", type=int, help="entry arguments")
    _mode_args(run)
    run.add_argument("--stats", nargs="?", const="-", metavar="OUT.json",
                     help="write the check statistics report as JSON "
                          "(to stdout when no path is given)")
    run.add_argument("--trace", action="store_true",
                     help="print one line per dynamic check")
    run.add_argument("--differential", action="store_true",
                     help="also run the exact oracle and compare outcomes")

    corpus = subs.add_parser("corpus", help="replay the bundled bug corpus")
    corpus.add_argument("name", nargs="?", help="run a single named case")
    corpus.add_argument("--matrix", action="store_true",
                        help="print one line per (mode, q, opt) run")
    corpus.add_argument("--list", action="store_true", dest="list_cases")

    fuzz = subs.add_parser("fuzz", help="differential fuzzing campaign")
    _mode_args(fuzz)
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.add_argument("--count", type=_non_negative, default=100)
    fuzz.add_argument("--config", choices=CONFIGS, default="mixed")
    fuzz.add_argument("--workers", type=int, default=1)
    fuzz.add_argument("--out", help="directory for mismatching programs")
    return parser


def _load_instrumented(text: str, args):
    mode = Mode(args.mode, args.qpad)
    program = parse(text)
    return instrument(program, mode, args.opt)


def cmd_run(args) -> int:
    try:
        text = Path(args.file).read_text()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        iprog = _load_instrumented(text, args)
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    vm = VM(iprog, backend="checks", trace=args.trace)
    try:
        result = vm.run(args.inputs)
    except VmError as exc:
        print(f"vm error: {exc}", file=sys.stderr)
        return 1
    for line in result.trace:
        print(line)
    if result.violation is not None:
        print(result.violation.to_json(), file=sys.stderr)
    elif result.ret is not None:
        print(f"ret {result.ret}")
    if args.stats:
        report = build_report(iprog, result.check_stats,
                              violations=0 if result.ok else 1)
        if args.stats == "-":
            print(report.to_json())
        else:
            try:
                Path(args.stats).write_text(report.to_json() + "\n")
            except OSError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return EXIT_PARSE
    if args.differential:
        verdict = differential_on(iprog, args.inputs)
        print(json.dumps(verdict.to_dict(), indent=2))
        if not verdict.ok:
            print(f"differential mismatch: {verdict.reason}", file=sys.stderr)
            return 1
    return result.exit_code


def load_corpus() -> dict:
    root = resources.files("prismbox") / "corpus"
    spec = json.loads((root / "expectations.json").read_text())
    for case in spec["cases"]:
        case["text"] = (root / case["file"]).read_text()
    return spec


def active_bounds_checks(iprog, fn: str | None = None) -> int:
    """Executing non-escape check sites, optionally in one function."""
    return sum(1 for s in iprog.sites
               if s.executes and s.kind != "Escape"
               and (fn is None or s.fn == fn))


def _check_expectations(case_name: str, run: dict, result, iprog,
                        failures: list[str]) -> None:
    expect = run.get("expect", {})
    label = (f"{case_name} mode={run.get('mode', 'prism')} "
             f"q={run.get('q', 0)} opt={run.get('opt', 'all')}")
    if "exit" in expect and result.exit_code != expect["exit"]:
        failures.append(f"{label}: exit {result.exit_code}, "
                        f"expected {expect['exit']}")
    if "active_checks" in expect:
        active = active_bounds_checks(iprog, expect.get("fn"))
        if active != expect["active_checks"]:
            failures.append(f"{label}: active checks {active}, "
                            f"expected {expect['active_checks']}")
    if "dynamic_checks" in expect:
        dyn = result.check_stats.dynamic_checks
        if dyn != expect["dynamic_checks"]:
            failures.append(f"{label}: {dyn} dynamic checks, "
                            f"expected {expect['dynamic_checks']}")
    fetches = result.check_stats.sa_fetches
    if "sa_fetches_max" in expect and fetches > expect["sa_fetches_max"]:
        failures.append(f"{label}: {fetches} SA fetches, expected at most "
                        f"{expect['sa_fetches_max']}")
    if "sa_fetches_min" in expect and fetches < expect["sa_fetches_min"]:
        failures.append(f"{label}: {fetches} SA fetches, expected at least "
                        f"{expect['sa_fetches_min']}")


def run_corpus_case(case: dict, matrix: bool = False) -> list[str]:
    """Execute every configured run of a corpus case; return failures."""
    failures: list[str] = []
    for run in case["runs"]:
        mode = Mode(run.get("mode", "prism"), run.get("q", 0))
        opts = parse_opts(run.get("opt", "all"))
        iprog = instrument(parse(case["text"]), mode, opts)
        vm = VM(iprog, backend="checks")
        result = vm.run(run.get("inputs", case.get("inputs", [])))
        before = len(failures)
        _check_expectations(case["name"], run, result, iprog, failures)
        if matrix:
            verdict = "ok" if len(failures) == before else "MISMATCH"
            print(f"  {case['name']} mode={mode.kind} q={mode.q} "
                  f"exit={result.exit_code} "
                  f"active={active_bounds_checks(iprog)} {verdict}")
    return failures


def cmd_corpus(args) -> int:
    spec = load_corpus()
    cases = spec["cases"]
    if args.list_cases:
        for case in cases:
            print(f"{case['name']}: {case.get('summary', '')}")
        return 0
    if args.name is not None:
        cases = [c for c in cases if c["name"] == args.name]
        if not cases:
            print(f"error: no corpus case named {args.name!r}",
                  file=sys.stderr)
            return EXIT_PARSE
    bad = 0
    for case in cases:
        failures = run_corpus_case(case, matrix=args.matrix)
        if failures:
            bad += 1
            print(f"FAIL {case['name']}")
            for line in failures:
                print(f"  {line}")
        else:
            print(f"PASS {case['name']} ({len(case['runs'])} runs)")
    return 1 if bad else 0


def cmd_fuzz(args) -> int:
    mode = Mode(args.mode, args.qpad)
    summary = campaign(args.seed, args.count, mode, args.config,
                       opts=args.opt, out_dir=args.out,
                       workers=args.workers)
    print(json.dumps(summary, indent=2))
    return 1 if summary["mismatches"] else 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return cmd_run(args)
    if args.command == "corpus":
        return cmd_corpus(args)
    return cmd_fuzz(args)


if __name__ == "__main__":
    sys.exit(main())
