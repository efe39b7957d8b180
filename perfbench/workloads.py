"""The three workloads, the timing recorder, and the per-case checks.

Every layer is timed from outside, around calls into prismbox's public
functions.  Untraced runs time only the calls the benchmark makes itself
plus ``VM.run``; traced runs also wrap ``verify.require_valid`` and
``analysis.CfgInfo`` where ``instrument`` looks them up, and keep one span
per call in memory.
"""

from __future__ import annotations

import hashlib
import importlib
from array import array
import sys
import traceback
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from prismbox import fuzz, ir, oracle, stats, verify, vm
from prismbox.ir import ParseError
from prismbox.tagging import Mode
from prismbox.verify import ValidationError
from prismbox.vm import VmError

# `prismbox.instrument` is the function re-exported by the package; the
# module itself is needed to wrap the names it looks up.
instrument_mod = importlib.import_module("prismbox.instrument")
instrument = instrument_mod.instrument

DEFINED_ERRORS = (ParseError, ValidationError, VmError)
STEP_LIMIT = 200_000            # fuzz.campaign's default
SEED_STRIDE = 1_000_000         # seeds draw disjoint program ranges

FUZZ_MODES = [(kind, q) for kind in ("prism", "pow2", "prism32")
              for q in (0, 8, 32)]
LARGE = fuzz.FuzzConfig("mixed", max_allocs=16, max_ops=400)
LARGE_LINES = range(600, 900)   # keeps compile_large's case size steady
LARGE_TRIES = 64                # seeds per case; ~1 in 5 is in range
WALK_N = 2000
WALK_SMALL_N = 500
# One walk case runs each row: kind, q, backend, nodes, and the pool its VM
# time counts towards.  Only "checks" and "oracle" feed end-to-end metrics.
WALK_RUNS = [
    ("prism", 0, "checks", WALK_N, "checks"),
    ("prism32", 0, "checks", WALK_N, "checks"),
    ("pow2", 0, "checks", WALK_N, "checks"),
    ("prism", 16, "checks", WALK_N, "dispatch"),
    ("prism", 0, "oracle", WALK_N, "oracle"),
    ("prism", 0, "oracle", WALK_SMALL_N, "oracle_small"),
]

# Cases between deadline checks, and cases whose counts are reported.
ROUND = {"fuzz_small": len(FUZZ_MODES), "compile_large": 1, "walk": 1}
PREFIX = {"fuzz_small": 900, "compile_large": 100, "walk": 1}

STATUS_COUNTS = {
    "active": instrument_mod.ACTIVE,
    "elided_qpad": instrument_mod.ELIDED_Q,
    "elided_combine": instrument_mod.ELIDED_COMBINE,
    "elided_dominance": instrument_mod.ELIDED_DOMINANCE,
    "lower_dropped": instrument_mod.LOWER_DROPPED,
}
OK_VERDICTS = ("match", "both-vm-error", "early-abort-at-widened-site")
MAX_TRACEBACKS = 3


class Recorder:
    """Times calls into prismbox; in traced runs also keeps their spans.

    A span is (case, id, parent id, name, start, end); the spans of one case
    share its case number.
    """

    def __init__(self):
        self.spans: list | None = None
        self._stack: list[int] = []
        self.case = 0
        self.cur: dict[str, float] = defaultdict(float)

    def begin(self, case: int) -> None:
        self.case = case
        self.cur = defaultdict(float)

    def call(self, name: str, fn, *args, **kwargs):
        if self.spans is None:
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.cur[name] += perf_counter() - start
        parent = self._stack[-1] if self._stack else -1
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[sid] = (self.case, sid, parent, name, start, end)
            self.cur[name] += end - start

    @contextmanager
    def tracing(self):
        """Record spans, wrapping the layers `instrument` calls internally."""
        wrapped = [(instrument_mod, "require_valid", "verify.validate"),
                   (instrument_mod, "CfgInfo", "analysis.cfg"),
                   (verify, "CfgInfo", "analysis.cfg")]
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in wrapped]
        for mod, attr, name in wrapped:
            setattr(mod, attr, self._wrap(name, getattr(mod, attr)))
        self.spans = []
        try:
            yield
        finally:
            for mod, attr, orig in saved:
                setattr(mod, attr, orig)

    def _wrap(self, name, fn):
        return lambda *args, **kwargs: self.call(name, fn, *args, **kwargs)

    def self_times(self, factors: dict[int, float]) -> dict[str, float]:
        """Scaled microseconds of self time per case, by span name.

        `factors` maps each traced case to its host speed scale.
        """
        child = defaultdict(float)
        for _, _, parent, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total = defaultdict(float)
        for case, sid, _, name, start, end in self.spans:
            if case in factors:
                total[name] += (end - start - child[sid]) * factors[case]
        return {name: t / len(factors) * 1e6 for name, t in total.items()}


def timed_vm_class(rec: Recorder):
    """A VM whose runs are timed, with their steps and heap size noted."""

    class TimedVM(vm.VM):
        def run(self, inputs=None):
            try:
                return rec.call("vm." + self.backend, super().run, inputs)
            finally:
                rec.cur[f"vm.{self.backend}.steps"] += self.steps
                if self.backend == "oracle":
                    rec.cur["heap.records"] += len(self.mem.records)
                    rec.cur["heap.pages"] += len(self.mem.pages)

    return TimedVM


@dataclass
class CaseResult:
    seconds: float = 0.0               # the case's timed part
    problem: str | None = None         # why an output check failed
    counts: Counter | None = None      # exact counts (prefix cases only)
    text: str = ""                     # program text, for the digest
    # (speed reference interval, seconds, pools) per timed part; a case
    # longer than the reference interval is scaled part by part.
    parts: list = field(default_factory=list)


class Workload:
    """One seeded sequence of cases; `run_case` runs case i and checks it."""

    def __init__(self, name: str, seed: int, rec: Recorder, reference):
        self.name = name
        self.seed = seed
        self.rec = rec
        self.ref = reference
        self.round = ROUND[name]
        self.prefix = PREFIX[name]
        self.vm_class = timed_vm_class(rec)
        oracle.VM = self.vm_class      # differential_on builds its VMs here
        self._case = {"fuzz_small": self._fuzz_case,
                      "compile_large": self._compile_case,
                      "walk": self._walk_case}[name]
        self.walk_text = None
        if name == "walk":
            corpus = Path(fuzz.__file__).with_name("corpus")
            self.walk_text = (corpus / "linked_list.pir").read_text()

    def run_case(self, i: int) -> CaseResult:
        self.rec.begin(i)
        return self._case(i)

    # ------------------------------------------------------------- cases

    def _front(self, text: str, mode: Mode):
        program = self.rec.call("ir.parse", ir.parse, text)
        return self.rec.call("instrument.instrument", instrument, program,
                             mode)

    def _differential(self, iprog, inputs):
        return self.rec.call("oracle.differential", oracle.differential_on,
                             iprog, inputs, STEP_LIMIT)

    def _fuzz_case(self, i: int) -> CaseResult:
        kind, q = FUZZ_MODES[i % len(FUZZ_MODES)]
        start = perf_counter()
        text, inputs = self.rec.call("fuzz.generate", fuzz.generate,
                                     self.seed * SEED_STRIDE + i, "mixed")
        iprog = self._front(text, Mode(kind, q))
        verdict = self._differential(iprog, inputs)
        res = CaseResult(perf_counter() - start, text=text)
        if not verdict.ok:
            res.problem = f"verdict {verdict.reason}"
        return self._finish(i, res, iprog, verdict)

    def _large_program(self, i: int) -> tuple[str, list[int]]:
        """The first of case i's seeds whose program has LARGE_LINES lines."""
        for k in range(LARGE_TRIES):
            seed = self.seed * SEED_STRIDE + i * LARGE_TRIES + k
            text, inputs = fuzz.generate(seed, LARGE)
            if text.count("\n") in LARGE_LINES:
                return text, inputs
        raise RuntimeError(f"no program of {LARGE_LINES} lines in "
                           f"{LARGE_TRIES} seeds")

    def _compile_case(self, i: int) -> CaseResult:
        text, inputs = self._large_program(i)
        start = perf_counter()
        iprog = self._front(text, Mode("prism", 8))
        res = CaseResult(perf_counter() - start, text=text)
        # The verdict is a check on the compiled program, not timed work.
        verdict = self._differential(iprog, inputs)
        if not verdict.ok:
            res.problem = f"verdict {verdict.reason}"
        if not stats.build_report(iprog).identity_ok():
            res.problem = "StatsReport.identity_ok() is false"
        return self._finish(i, res, iprog, verdict)

    def _walk_case(self, i: int) -> CaseResult:
        """One round: linked_list.pir compiled and run once per WALK_RUNS row."""
        cur = self.rec.cur
        res = CaseResult(text=self.walk_text)
        lines = self.walk_text.count("\n")
        iprogs, runs, problems = [], [], []
        for kind, q, backend, n, pool in WALK_RUNS:
            self.ref.maybe_sample()
            before = dict(cur)
            start = perf_counter()
            iprog = self._front(self.walk_text, Mode(kind, q))
            allowance = (oracle.default_allowance if backend == "oracle"
                         else None)
            result = self.vm_class(iprog, backend=backend,
                                   allowance=allowance).run([n])
            seconds = perf_counter() - start
            spent = {k: cur[k] - before.get(k, 0.0) for k in
                     ("ir.parse", "instrument.instrument", "vm." + backend)}
            pools = {"front": (spent["ir.parse"]
                               + spent["instrument.instrument"], lines),
                     pool: (spent["vm." + backend], result.steps)}
            want = n * (n - 1) // 2 + 2 * n
            if result.exit_code != 0 or result.ret != want:
                problems.append(f"{kind} q={q} {backend} N={n}: exit "
                                f"{result.exit_code}, ret {result.ret}, "
                                f"want {want}")
            if backend == "checks":
                runs.append(result)
                if (kind, q) == ("prism", 0):
                    pools["prism_q0"] = (spent["vm.checks"],
                                         result.check_stats.dynamic_checks)
            res.parts.append((self.ref.slot(), seconds, pools))
            iprogs.append(iprog)
        res.problem = "; ".join(problems) or None
        if i < self.prefix:
            res.counts = self._count(lines * len(iprogs), iprogs, None, runs)
        return res

    def _finish(self, i, res, iprog, verdict) -> CaseResult:
        cur = self.rec.cur
        lines = res.text.count("\n")
        pools = {
            "front": (cur["ir.parse"] + cur["instrument.instrument"], lines),
            "checks": (cur["vm.checks"], cur["vm.checks.steps"]),
            "oracle": (cur["vm.oracle"], cur["vm.oracle.steps"]),
        }
        res.parts.append((self.ref.slot(), res.seconds, pools))
        if i < self.prefix:
            runs = [verdict.checks] if verdict.checks else []
            res.counts = self._count(lines, [iprog], verdict, runs)
        return res

    def _count(self, lines, iprogs, verdict, runs) -> Counter:
        cur = self.rec.cur
        c = Counter()
        c["ir.lines"] = lines
        reached = Counter()
        for iprog in iprogs:
            c["instrument.instrs_after"] += sum(
                len(b.instrs) for fn in iprog.program.functions.values()
                for b in fn.blocks)
            sites = iprog.sites
            status = Counter(s.status for s in sites)
            reached["hoisted"] += sum(s.kind == "LoopHoisted" for s in sites)
            reached["widened"] += sum(s.widened and s.kind == "Access"
                                      for s in sites)
            for key, name in STATUS_COUNTS.items():
                reached[key] += status[name]
            c["instrument.sites"] += len(sites)
        for key, n in reached.items():
            c[f"instrument.{key}"] = n
            c[f"coverage.{key}"] = int(n > 0)
        # Executing sites (Active and LowerBoundDropped), not status Active.
        c["instrument.active"] = sum(p.active_count() for p in iprogs)
        c["vm.steps"] = cur["vm.checks.steps"] + cur["vm.oracle.steps"]
        c["heap.records"] = cur["heap.records"]
        c["heap.pages"] = cur["heap.pages"]
        if verdict is not None:
            reason = verdict.reason.split()[0]
            c["oracle.verdict." + (reason if reason in OK_VERDICTS
                                   else "other")] = 1
            exit_code = verdict.checks.exit_code if verdict.checks else None
            c[f"oracle.exit.{'none' if exit_code is None else exit_code}"] = 1
            c["oracle.allowed_events"] = verdict.allowed_events
        for run in runs:
            c["checks.dynamic"] += run.check_stats.dynamic_checks
            c["checks.sa_fetches"] += run.check_stats.sa_fetches
            c["checks.xor_lower"] += run.check_stats.xor_lower_paths
            c["checks.aborts"] += run.check_stats.aborts
        return c


class Run:
    """One pass over cases: their times, pool sums, checks and failures.

    Only what the metrics need is kept, so the harness's own memory does not
    grow much with the number of cases: per timed part its speed reference
    interval and seconds, per interval the pool sums, and per prefix case its
    counts and program text.
    """

    def __init__(self, workload, reference):
        self.wl = workload
        self.ref = reference
        self.numbers = array("l")       # case numbers, in order
        self.first = array("l")         # each case's first part
        self.slots = array("l")         # reference interval of each part
        self.seconds = array("d")       # seconds of each part
        self.sums: dict[int, dict] = {}     # interval -> pool -> [s, count]
        self.prefix: list[CaseResult] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def case(self, i: int) -> None:
        self.ref.maybe_sample()
        self.attempted += 1
        try:
            res = self.wl.run_case(i)
        except DEFINED_ERRORS as exc:
            self.problems.append(f"case {i}: {type(exc).__name__}: {exc}")
            return
        except Exception:   # a crash is counted, and the run goes on
            self.failed += 1
            if self.failed <= MAX_TRACEBACKS:
                print(f"perfbench: case {i} crashed", file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
            return
        if res.problem:
            self.problems.append(f"case {i}: {res.problem}")
        self.numbers.append(i)
        self.first.append(len(self.slots))
        for slot, seconds, pools in res.parts:
            self.slots.append(slot)
            self.seconds.append(seconds)
            sums = self.sums.setdefault(slot, {})
            for name, (pool_s, count) in pools.items():
                acc = sums.setdefault(name, [0.0, 0])
                acc[0] += pool_s
                acc[1] += count
        if res.counts is not None:
            self.prefix.append(res)

    def timed(self, seconds: float) -> int:
        """Run whole rounds of cases until `seconds` pass; return the count."""
        deadline = perf_counter() + seconds
        i = 0
        while i == 0 or perf_counter() < deadline:
            for _ in range(self.wl.round):
                self.case(i)
                i += 1
        self.ref.sample()
        return i

    def cases(self, first: int, stop: int) -> None:
        for i in range(first, stop):
            self.case(i)
        self.ref.sample()

    def _factors(self, scaled: bool) -> dict[int, float]:
        return {slot: self.ref.factor(slot) if scaled else 1.0
                for slot in self.sums}

    def case_times(self, scaled: bool = True) -> list[float]:
        factor = self._factors(scaled)
        ends = list(self.first[1:]) + [len(self.slots)]
        return [sum(self.seconds[k] * factor[self.slots[k]]
                    for k in range(a, b))
                for a, b in zip(self.first, ends)]

    def pooled(self, scaled: bool = True) -> dict[str, tuple[float, int]]:
        """Each pool's (seconds, count) summed over the pass."""
        factor = self._factors(scaled)
        pools: dict = {}
        for slot, sums in self.sums.items():
            for name, (seconds, count) in sums.items():
                s, c = pools.get(name, (0.0, 0))
                pools[name] = (s + seconds * factor[slot], c + count)
        return pools

    def case_factors(self) -> dict[int, float]:
        """Each case's scaled time over its unscaled time."""
        return {i: scaled / raw for i, scaled, raw in
                zip(self.numbers, self.case_times(), self.case_times(False))}


def text_digest(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
    return h.hexdigest()[:16]
