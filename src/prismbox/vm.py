"""Deterministic interpreter for instrumented programs.

Two check backends share the execution engine: 'checks' runs the sandbox
predicates exactly as instrumented (honoring elisions, lower-bound drops,
and hoisted sites), while 'oracle' classifies every access and escape
against the exact allocation records, consulting an allowance callback for
divergences the instrumentation admits by design.  The oracle finds a
record through the heap's one index (`SimMemory.record_at`), keyed by the
tagged KSA: stack addresses are reused once a frame is popped, so the
address alone cannot tell a live object from a dead one at the same place.

Op semantics live in one table, `HANDLERS`: one function per op, called as
`handler(vm, instr, frame)`.  A handler stores its result in the frame
under `instr.dest` and returns None; `br` and `condbr` return the label of
the next block, and `ret` returns a `_Return`.  A frame maps each value
name to its value and reads a literal operand as itself, so a handler
reads every operand the same way.

The engine runs blocks from plans.  A block's plan is its phi prefix, each
phi with its incoming value by predecessor label, and its other
instructions as `(instr, handler, sites)` steps; `sites` is None, or the
instruction's check sites for each backend, those that never run already
left out.  A block is decoded on its first entry, and its plan is cached
per function on the `InstrumentedProgram` (`iprog.plans`), not on the VM:
the two runs of one differential, and any repeated run, share one decode.

Blocks run in two tiers.  A backend counts each block's entries on the
function's plans and, on entry HOT_THRESHOLD, compiles the block with
`compile()` into one Python function kept with the plans, so
`InstrumentedProgram.rebuild_index()` drops it with them.  A block that
holds a call, and every block of a traced run, stays on the interpreter.
A compiled block copies its phis on the edge from `prev` at once, then
inlines gep, arithmetic, compares, select, mask, br, condbr, ret, loads
within one mapped page and stores within one written page (others call
`SimMemory.read_int`/`write_int`); every other op runs its handler.
On `checks`, an executing Access or LoopHoisted site tests
`checks.fast_pass` inline on the window that `_window` gives, as
`VM._check_access` does, and where it holds only counts the check;
elsewhere `VM._check_access` decides, counts and aborts as interpreted.
An Escape site of a named value does what `escape_check` does: no check
where a phi or select equals its KSA, else the zero-size `fast_pass`, else
`VM._check_escape`; a literal escape calls its handler.  An `oracle` site
(an Escape site only for a non-null value) tests classify's IN_BOUNDS case
inline on the record `SimMemory.record_at` gives for its KSA, and calls
`VM._oracle_check` only where that fails.  Later sites of a KSA reuse the
record a non-Escape site found for it until a step runs a handler, as only
an allocation changes what `record_at` finds.  Steps stay exact under one
contract: a block whose steps would cross the limit is run by the
interpreter instead, which raises; otherwise its steps are added to
`vm.steps` when it returns or raises.
"""

from __future__ import annotations

import json
import operator
from dataclasses import asdict, dataclass, field
from itertools import count
from typing import NamedTuple

from .checks import (CheckOutcome, CheckStats, Reason, access_check,
                     escape_check, fast_pass)
from .heap import (IN_BOUNDS, INVALID_ESCAPE, PAGE, AllocError, FreeError,
                   SimFault, SimMemory, classify)
from .instrument import (EXECUTING, LOWER_DROPPED, CheckSite,
                         InstrumentedProgram)
from .tagging import MASK64

EXIT_OK = 0
EXIT_BOUNDS = 2
EXIT_ESCAPE = 3

DEFAULT_STEP_LIMIT = 2_000_000
# Nested guest calls; each costs two Python frames (`VM._call` and `_call`),
# so this stays well below Python's default recursion limit of 1000.
MAX_CALL_DEPTH = 200
# A backend compiles a block of a function's plans on its HOT_THRESHOLD-th
# entry.
HOT_THRESHOLD = 50


class VmError(Exception):
    """Sandbox failure (step/depth limit, allocator error, forged pointer)."""


@dataclass
class ViolationReport:
    exit_code: int
    reason: str
    kind: str               # Access | Escape | LoopHoisted | boundary
    sid: int | None
    fn: str
    line: int
    ksa: int
    ptr: int
    size: int

    def to_dict(self) -> dict:
        return {**asdict(self), "ksa": f"{self.ksa:#x}",
                "ptr": f"{self.ptr:#x}"}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


@dataclass
class RunResult:
    exit_code: int
    ret: int | None
    violation: ViolationReport | None
    check_stats: CheckStats
    steps: int = 0
    trace: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.exit_code == EXIT_OK


@dataclass
class OracleEvent:
    """One exact-bounds divergence observed by the oracle backend."""
    cls: str                # IN_PADDING | OOB | INVALID_ESCAPE
    site: object            # CheckSite | None
    addr: int
    size: int
    record: object          # AllocationRecord | None


class _Abort(Exception):
    def __init__(self, report: ViolationReport):
        super().__init__(report.reason)
        self.report = report


class _Return(NamedTuple):
    value: int | None


class _Frame(dict):
    """The values of one guest call.  A name maps to what it was set to; a
    literal operand reads as itself, masked to 64 bits."""

    __slots__ = ("info",)   # the called function's FunctionInfo

    def __missing__(self, v):
        value = self[v] = v & MASK64
        return value


class _FunctionPlans(dict):
    """One function's block plans by label, each decoded on first entry,
    and for each backend its compiled blocks and block entry counts."""

    def __init__(self, iprog: InstrumentedProgram, fn):
        super().__init__()
        self.blocks = fn.blockmap()
        self.site_tables = (iprog.sites_by_instr, iprog.sites_by_origin)
        self.mode = iprog.mode
        self.tiers = (({}, {}), ({}, {}))

    def __missing__(self, label: str) -> tuple:
        instrs = self.blocks[label].instrs
        phis = []
        for instr in instrs:
            if instr.op != "phi":
                break
            phis.append((instr.dest, {pred: value for value, pred
                                      in instr.incomings}))
        by_instr, by_origin = self.site_tables
        steps = []
        for instr in instrs[len(phis):]:
            checks = by_instr.get(id(instr))
            exact = by_origin.get(id(instr))
            sites = None
            if checks is not None or exact is not None:
                sites = ([s for s in checks or ()
                          if s.kind == "Escape" or s.status in EXECUTING],
                         exact or ())
            steps.append((instr, HANDLERS[instr.op], sites))
        plan = self[label] = (tuple(phis), steps)
        return plan

    def compile_block(self, label: str, which: int):
        """Block `label` as one function `(vm, env, prev)` that runs the
        site list `which` of each step, or None if the block holds a call."""
        phis, steps = self[label]
        if any(instr.op == "call" for instr, _, _ in steps):
            return None
        mask, m64, fresh = f"{self.mode.mask:#x}", f"{MASK64:#x}", count()
        ns = {"VmError": VmError, "_Return": _Return,
              "from_bytes": int.from_bytes}
        names, head, out = {}, [], []   # value -> its local; source lines

        def read(v, bind=True):
            # An unconditional read binds a local that later reads use.
            if not isinstance(v, str):
                return str(v & MASK64)
            if v in names or not bind:
                return names.get(v, f"env[{v!r}]")
            names[v] = f"v{next(fresh)}"
            return f"({names[v]} := env[{v!r}])"

        def define(dest, expr):
            names[dest] = local = f"v{next(fresh)}"
            out.append(f"{local} = env[{dest!r}] = {expr}")

        if phis:
            # The parallel copy of the edge from prev.
            targets = [f"v{next(fresh)}" for _ in phis]
            for n, pred in enumerate(phis[0][1]):
                head += [f"{'elif' if n else 'if'} prev == {pred!r}:",
                         f"    {', '.join(targets)} = " + ", ".join(
                             read(inc[pred], False) for _, inc in phis)]
            for (dest, _), local in zip(phis, targets):
                head.append(f"env[{dest!r}] = {local}")
                names[dest] = local

        # Each backend's site text, and the line binding what it uses.
        def check_sites(j, instr, sites):
            for n, site in enumerate(sites):
                call, test = f"vm._check_access(S{j}[{n}], I{j}, env)", "if"
                if site.kind == "Escape":
                    call = f"vm._check_escape(S{j}[{n}], env)"
                    if not isinstance(site.escape_value, str):
                        out.append(call)
                        continue
                    # As escape_check: a zero-size check of the stripped
                    # value, none at all where a phi or select is its KSA.
                    out.extend([f"p = {read(site.escape_value)} & {mask}",
                                f"k = {read(site.ksa)}"])
                    if site.maybe_equal:
                        out.append(f"if p == k & {mask}: pass")
                        test = "elif"
                    guard = fast_pass(self.mode, "k", "p", 0)
                else:
                    out.append(f"k = {read(site.ksa)}")
                    value, offset, span, wraps = _window(site, instr)
                    ptr = f"{read(value)} & {mask}"
                    if offset:
                        ptr = f"({ptr}) + {offset}"
                    if wraps:
                        ptr = f"({ptr}) & {m64}"
                    out.append(f"p = {ptr}")
                    guard = fast_pass(self.mode, "k", "p", span,
                                      site.status == LOWER_DROPPED)
                out.extend([f"{test} {guard}:", "    stats.dynamic_checks += 1",
                            f"else: {call}"])

        def oracle_sites(j, instr, sites):
            # As _oracle_sites, with classify's IN_BOUNDS case inline;
            # _oracle_check looks again where it fails.
            for n, site in enumerate(sites):
                pad = ""
                if site.kind == "Escape":   # storing null is legitimate
                    out.extend([f"a = {read(site.escape_value)} & {mask}",
                                "if a:"])
                    pad = "    "
                else:
                    out.append(f"a = {read(site.origin.operands[0])} & {mask}")
                r = records.get(site.ksa)
                if r is None:
                    r = f"r{next(fresh)}"
                    out.append(f"{pad}{r} = at({read(site.ksa, not pad)} & "
                               f"{mask}, {read(site.ksa, False)})")
                    if not pad:
                        records[site.ksa] = r
                out.append(f"{pad}if {r} is None or a < {r}.sa or a + "
                           f"{site.size} > {r}.ea: vm._oracle_check(S{j}[{n}]"
                           f", {read(site.ksa, False)}, a)")

        run_sites, prologue = ((check_sites, "stats = vm.stats"),
                               (oracle_sites, "at = mem.record_at"))[which]
        records = {}    # KSA -> its record's local, until a handler runs
        # i counts the steps taken, added to vm.steps on the way out.
        counted = len({dest for dest, _ in phis})
        for j, (instr, handler, sites) in enumerate(steps):
            op, dest, args, size = (instr.op, instr.dest, instr.operands,
                                    instr.size)
            ns[f"I{j}"], ns[f"S{j}"] = instr, sites[which] if sites else ()
            counted += 1
            out.append(f"i = {counted}")
            run_sites(j, instr, ns[f"S{j}"])
            if op in ("load", "loadp", "store", "storep"):
                out += [f"a = {read(args[0])} & {mask}", "o = a & 0xFFFF",
                        "g = get(a - o)"]
                if op[0] == "l":
                    define(dest, f"from_bytes(g[o:o + {size}], 'little') if "
                           f"g is not None and o <= {PAGE - size} else "
                           f"mem.read_int(a, {size})")
                    continue
                out += [f"x = {read(args[1])}",
                        f"if isinstance(g, bytearray) and o <= {PAGE - size}:",
                        f"    g[o:o + {size}] = (x & {(1 << 8 * size) - 1:#x})"
                        f".to_bytes({size}, 'little')",
                        f"else: mem.write_int(a, {size}, x)"]
            elif op == "gep":
                define(dest, f"({read(args[0])} + {instr.gep_const}" + "".join(
                    f" + {read(v)} * {scale}" for v, scale in instr.gep_terms)
                       + f") & {m64}")
            elif op in _ARITH:
                define(dest, f"({read(args[0])} {_PY_OPS[op]} "
                       f"{read(args[1])}) & {m64}")
            elif op in ("icmp", "ptrcmp"):
                a, b = read(args[0]), read(args[1])
                if op == "icmp" and instr.cmp not in ("eq", "ne"):
                    # Flipping the sign bit orders 64-bit values as signed.
                    a, b = f"({a} ^ {1 << 63:#x})", f"({b} ^ {1 << 63:#x})"
                define(dest, f"1 if {a} {_PY_OPS[instr.cmp]} {b} else 0")
            elif op == "select":
                define(dest, f"{read(args[1], False)} if {read(args[0])} "
                       f"else {read(args[2], False)}")
            elif op == "mask":
                define(dest, f"{read(args[0])} & {mask}")
            elif op in ("br", "condbr"):
                then, *other = map(repr, instr.labels)
                out.append(f"return {then}" if op == "br" else
                           f"return {then} if {read(args[0])} else {other[0]}")
            elif op == "ret":
                out.append(f"return _Return({read(args[0]) if args else None})")
            else:                       # run by its handler
                ns[f"H{j}"] = handler
                out.append(f"H{j}(vm, I{j}, env)")
                names.pop(dest, None)   # set in env alone
                records.clear()
        src = "\n    ".join(
            ["def block(vm, env, prev):",
             f"if vm.steps > vm.step_limit - {counted}: return None", *head,
             "mem = vm.mem", prologue, "get = mem.pages.get", "try:",
             *("    " + line for line in out), "finally:", "    vm.steps += i"])
        exec(compile(src, f"<block {label}>", "exec"), ns)
        return ns.pop("block")      # no cycle through its globals


def _window(site, instr) -> tuple:
    """The window that an Access or LoopHoisted site at `instr` checks, as
    `(value, offset, span, wraps)`: `span` bytes from `(value & mask) +
    offset`, a sum taken modulo 2^64 where `wraps`."""
    if site.kind == "LoopHoisted":
        # One check of the loop's whole window, from the KSA.
        lo, hi = site.window
        return site.ksa, lo, hi - lo, True
    if site.widened:
        # Combined check: re-anchor the pointer at the merged window's low
        # edge and check the whole hull at once.
        lo, hi = site.window
        return instr.operands[0], lo - site.base_offset, hi - lo, False
    return instr.operands[0], 0, site.size, False


def _signed(v: int) -> int:
    return v - (1 << 64) if v >= 1 << 63 else v


class VM:
    def __init__(self, iprog: InstrumentedProgram, backend: str = "checks",
                 allowance=None, trace: bool = False,
                 step_limit: int = DEFAULT_STEP_LIMIT):
        if backend not in ("checks", "oracle"):
            raise ValueError(f"unknown backend {backend!r}")
        self.iprog = iprog
        self.program = iprog.program
        self.mode = iprog.mode
        self.backend = backend
        self.allowance = allowance
        self.tracing = trace
        self.step_limit = step_limit
        self.allowed_events: list[OracleEvent] = []
        # Which of a step's two site lists this backend runs, and how.  The
        # handler is kept unbound: a bound method stored on the VM would
        # form a cycle that keeps every finished VM alive until a GC pass.
        cls = type(self)
        self._site_index, self._site_handler = (
            (0, cls._check_sites) if backend == "checks"
            else (1, cls._oracle_sites))

    # -------------------------------------------------------------- top level

    def run(self, inputs: list[int] | None = None) -> RunResult:
        inputs = list(inputs or [])
        self.mem = SimMemory(self.mode)
        self.stats = CheckStats()
        self.steps = 0
        self.depth = 0
        self.trace_lines: list[str] = []
        self.allowed_events = []
        self.genv = {}
        entry = self.program.functions[self.program.entry]
        try:
            for g in self.program.globals:
                self.genv[g.name] = self.mem.alloc_stack_escaped(
                    g.size, kind="global")
            args = [(inputs[i] if i < len(inputs) else 0) & MASK64
                    for i in range(len(entry.params))]
            ret = self._call(entry, args)
        except _Abort as abort:
            return RunResult(abort.report.exit_code, None, abort.report,
                             self.stats, self.steps, self.trace_lines)
        except (AllocError, FreeError, SimFault) as exc:
            # SimFault: a loaded pointer's forged tag passed a bounds check.
            raise VmError(str(exc)) from exc
        return RunResult(EXIT_OK, ret, None, self.stats, self.steps,
                         self.trace_lines)

    # -------------------------------------------------------------- execution

    def _call(self, fn, args: list[int]) -> int | None:
        env = _Frame(zip((name for name, _ty in fn.params), args))
        env.info = self.iprog.infos[fn.name]
        plans = self.iprog.plans.get(fn.name)
        if plans is None:
            plans = self.iprog.plans[fn.name] = _FunctionPlans(self.iprog, fn)
        mark = self.mem.stack_mark()
        which, run_sites = self._site_index, self._site_handler
        limit, hot = self.step_limit, HOT_THRESHOLD
        compiled, entries = plans.tiers[which]
        if self.tracing:    # traced runs stay on the interpreter
            compiled, entries, hot = {}, {}, 0
        label, prev = fn.entry.label, None
        while True:
            code = compiled.get(label)
            if code is None:
                entries[label] = n = entries.get(label, 0) + 1
                if n == hot:
                    code = compiled[label] = plans.compile_block(label, which)
            # A compiled block returns None to be run here instead.
            if code is None or (nxt := code(self, env, prev)) is None:
                phis, steps = plans[label]
                if phis:
                    # Phis read the environment as of block entry, at once.
                    updates = {dest: env[incoming[prev]]
                               for dest, incoming in phis}
                    env.update(updates)
                    self.steps += len(updates)
                    if self.steps > limit:
                        self.steps = limit + 1    # the phi that crossed it
                        raise VmError("step limit exceeded")
                for instr, handler, sites in steps:
                    self.steps += 1
                    if self.steps > limit:
                        raise VmError("step limit exceeded")
                    if sites is not None:
                        run_sites(self, sites[which], instr, env)
                    nxt = handler(self, instr, env)
            if isinstance(nxt, str):
                prev, label = label, nxt
                continue
            self.mem.release_stack(mark)
            return nxt.value

    # ------------------------------------------------------------ check sites

    def _check_sites(self, sites, instr, env) -> None:
        for site in sites:
            if site.kind == "Escape":
                self._check_escape(site, env)
            else:
                self._check_access(site, instr, env)

    def _abort(self, site, kind, reason, ptr, ksa_raw):
        code = EXIT_ESCAPE if reason == Reason.ESCAPE_INVARIANT else EXIT_BOUNDS
        raise _Abort(ViolationReport(
            exit_code=code, reason=reason.value, kind=kind, sid=site.sid,
            fn=site.fn, line=site.origin.line, ksa=ksa_raw, ptr=ptr,
            size=site.size))

    def _trace(self, site, ptr, size, outcome) -> None:
        verdict = "ok" if outcome.ok else f"ABORT {outcome.reason.value}"
        extra = " sa-fetch" if outcome.sa_fetched else ""
        self.trace_lines.append(
            f"[sid {site.sid}] {site.kind.lower()} @{site.fn} "
            f"ptr={ptr:#x} size={size} -> {verdict}{extra}")

    def _check_access(self, site, instr, env) -> None:
        mask = self.mode.mask
        ksa = env[site.ksa]
        value, offset, size, wraps = _window(site, instr)
        ptr = (env[value] & mask) + offset
        if wraps:
            ptr &= MASK64
        outcome = access_check(self.mode, ksa, ptr, size, self.mem,
                               self.stats, site.status == LOWER_DROPPED)
        if self.tracing:
            self._trace(site, ptr, size, outcome)
        if not outcome.ok:
            self._abort(site, site.kind, outcome.reason, ptr, ksa & mask)

    def _check_escape(self, site, env) -> None:
        if not isinstance(site.escape_value, str):
            # A non-null literal escaping as a pointer can never carry a
            # valid tag; the site aborts without consulting the predicate
            # (whose decoding of an arbitrary bit pattern is meaningless).
            raw = self.mode.strip(site.escape_value & MASK64)
            outcome = CheckOutcome(False, Reason.ESCAPE_INVARIANT)
            self.stats.note(outcome)
            self._abort(site, site.kind, outcome.reason, raw, raw)
        value = env[site.escape_value]
        ksa = env[site.ksa]
        outcome = escape_check(self.mode, value, ksa, self.mem,
                               maybe_equal_at_runtime=site.maybe_equal,
                               stats=self.stats)
        if self.tracing:
            self._trace(site, self.mode.strip(value), 0, outcome)
        if not outcome.ok:
            self._abort(site, site.kind, outcome.reason,
                        self.mode.strip(value), self.mode.strip(ksa))

    # --------------------------------------------------------- oracle backend

    def _oracle_sites(self, sites, instr, env) -> None:
        for site in sites:
            if site.kind != "Escape":
                ksa = env[site.ksa]
                addr = env[site.origin.operands[0]] & self.mode.mask
                self._oracle_check(site, ksa, addr)
            else:
                raw = env[site.escape_value] & self.mode.mask
                if raw:  # storing null is always legitimate
                    self._oracle_check(site, env[site.ksa], raw)

    def _oracle_check(self, site, ksa, addr) -> None:
        """Classify one access, or one escaping pointer, against the record
        the KSA belongs to."""
        ksa_raw = self.mode.strip(ksa)
        # Dead records still count: the sandbox does not model temporal bugs.
        rec = self.mem.record_at(ksa_raw, ksa)
        cls = classify(addr, site.size, rec)
        if cls == IN_BOUNDS:
            return
        escape = site.kind == "Escape"
        event = OracleEvent(cls=INVALID_ESCAPE if escape else cls,
                            site=site, addr=addr, size=site.size, record=rec)
        if self.allowance is not None and self.allowance(self, event):
            self.allowed_events.append(event)
            return
        if escape:
            kind, reason = "Escape", Reason.ESCAPE_INVARIANT
        elif rec is not None and addr < rec.sa:
            kind, reason = "Access", Reason.LOWER_BOUND
        else:
            kind, reason = "Access", Reason.UPPER_BOUND
        self._abort(site, kind, reason, addr, ksa_raw)


# ----------------------------------------------------------------- handlers
# An op without a dest stores its result under None, which no operand names.

def _alloc(vm, instr, env):
    env[instr.dest] = vm.mem.alloc(_signed(env[instr.operands[0]]))


def _stackalloc(vm, instr, env):
    env[instr.dest] = vm.mem.alloc_stack_escaped(instr.size)


def _alloca_dyn(vm, instr, env):
    size = _signed(env[instr.operands[0]])
    if size < 1:
        raise VmError(f"dynamic stack allocation of {size} bytes")
    env[instr.dest] = vm.mem.alloc_stack_dynamic(size)


def _gep(vm, instr, env):
    addr = env[instr.operands[0]] + instr.gep_const
    for index, scale in instr.gep_terms:
        addr += env[index] * scale
    env[instr.dest] = addr & MASK64


def _gaddr(vm, instr, env):
    env[instr.dest] = vm.genv[instr.callee]


def _load(vm, instr, env):
    # loadp carries its implied size (8) in instr.size, as parsed.
    env[instr.dest] = vm.mem.read_int(env[instr.operands[0]] & vm.mode.mask,
                                      instr.size)


def _store(vm, instr, env):
    operands = instr.operands
    vm.mem.write_int(env[operands[0]] & vm.mode.mask, instr.size,
                     env[operands[1]])


def _select(vm, instr, env):
    operands = instr.operands
    env[instr.dest] = env[operands[1] if env[operands[0]] else operands[2]]


_CMP = {"eq": operator.eq, "ne": operator.ne, "lt": operator.lt,
        "le": operator.le, "gt": operator.gt, "ge": operator.ge}


def _icmp(vm, instr, env):
    a, b = instr.operands
    env[instr.dest] = 1 if _CMP[instr.cmp](_signed(env[a]),
                                           _signed(env[b])) else 0


def _ptrcmp(vm, instr, env):
    a, b = instr.operands
    env[instr.dest] = 1 if _CMP[instr.cmp](env[a], env[b]) else 0


_ARITH = {"add": operator.add, "sub": operator.sub, "mul": operator.mul,
          "ptrsub": operator.sub}
# The Python operator of each arithmetic op and comparison, for compiled
# blocks.
_PY_OPS = {"add": "+", "sub": "-", "mul": "*", "ptrsub": "-", "eq": "==",
           "ne": "!=", "lt": "<", "le": "<=", "gt": ">", "ge": ">="}


def _arith(vm, instr, env):
    a, b = instr.operands
    env[instr.dest] = _ARITH[instr.op](env[a], env[b]) & MASK64


def _mask(vm, instr, env):
    env[instr.dest] = env[instr.operands[0]] & vm.mode.mask


def _free(vm, instr, env):
    vm.mem.free(env[instr.operands[0]])


def _call(vm, instr, env):
    if vm.depth >= MAX_CALL_DEPTH:
        raise VmError(f"call depth limit {MAX_CALL_DEPTH} exceeded")
    callee = vm.program.functions[instr.callee]
    args = [env[v] for v in instr.operands]
    vm.depth += 1
    ret = vm._call(callee, args)
    vm.depth -= 1
    if instr.dest is not None:
        env[instr.dest] = 0 if ret is None else ret


def _extern(vm, instr, env):
    kind = vm.program.externs[instr.callee]
    args = [env[v] for v in instr.operands]
    if kind == "alloc":
        env[instr.dest] = vm.mem.alloc(_signed(args[0]))
        return
    mask = vm.mode.mask
    if kind == "pure":
        types = env.info.types
        total = 0
        for v, a in zip(instr.operands, args):
            ptr = isinstance(v, str) and types.get(v) == "ptr"
            total += a & mask if ptr else a
        env[instr.dest] = total & MASK64
        return
    # copy: the declared length is checked against the exact records
    # before the pointers are stripped at the sandbox boundary.
    dst, src, length = args
    if length:
        for ptr in (dst, src):
            raw = ptr & mask
            rec = vm.mem.record_at(raw)
            if classify(raw, length, rec) != IN_BOUNDS or not rec.live:
                # The boundary reports as a site with no sid.
                at = CheckSite(None, "boundary", instr.callee, instr, instr,
                               size=length)
                vm._abort(at, at.kind, Reason.UPPER_BOUND, raw, raw)
        vm.mem.write(dst & mask, vm.mem.read(src & mask, length))
    env[instr.dest] = 0


def _br(vm, instr, env):
    return instr.labels[0]


def _condbr(vm, instr, env):
    return instr.labels[0 if env[instr.operands[0]] else 1]


def _ret(vm, instr, env):
    return _Return(env[instr.operands[0]] if instr.operands else None)


HANDLERS = {
    "alloc": _alloc, "stackalloc": _stackalloc, "alloca_dyn": _alloca_dyn,
    "gep": _gep, "gaddr": _gaddr, "load": _load, "loadp": _load,
    "store": _store, "storep": _store, "select": _select, "icmp": _icmp,
    "ptrcmp": _ptrcmp, "add": _arith, "sub": _arith, "mul": _arith,
    "ptrsub": _arith, "mask": _mask, "free": _free, "call": _call,
    "extern": _extern, "br": _br, "condbr": _condbr, "ret": _ret,
}
