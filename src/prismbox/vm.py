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
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field
from typing import NamedTuple

from .checks import CheckStats, Reason, access_check, escape_check
from .heap import (IN_BOUNDS, AllocError, FreeError, SimFault, SimMemory,
                   classify)
from .instrument import EXECUTING, LOWER_DROPPED, InstrumentedProgram
from .tagging import MASK64

EXIT_OK = 0
EXIT_BOUNDS = 2
EXIT_ESCAPE = 3

DEFAULT_STEP_LIMIT = 2_000_000
# Nested guest calls; each costs two Python frames, so this stays well below
# Python's default recursion limit of 1000.
MAX_CALL_DEPTH = 200


class VmError(Exception):
    """Sandbox failure (bad extern call, step/depth limit, allocator error)."""


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
        return {
            "exit_code": self.exit_code,
            "reason": self.reason,
            "kind": self.kind,
            "sid": self.sid,
            "fn": self.fn,
            "line": self.line,
            "ksa": f"{self.ksa:#x}",
            "ptr": f"{self.ptr:#x}",
            "size": self.size,
        }

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
        if isinstance(v, str):
            raise VmError(f"read of unset value %{v}")
        value = self[v] = v & MASK64
        return value


class _FunctionPlans(dict):
    """One function's block plans by label, each decoded on first entry."""

    def __init__(self, iprog: InstrumentedProgram, fn):
        super().__init__()
        self.blocks = fn.blockmap()
        self.site_tables = (iprog.sites_by_instr, iprog.sites_by_origin)

    def __missing__(self, label: str) -> tuple:
        instrs = self.blocks[label].instrs
        phis = []
        for instr in instrs:
            if instr.op != "phi":
                break
            incoming = {}
            for value, pred in instr.incomings:
                incoming.setdefault(pred, value)
            phis.append((instr.dest, incoming))
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
        limit = self.step_limit
        label, prev = fn.entry.label, None
        while True:
            phis, steps = plans[label]
            if phis:
                # Phis read the environment as of block entry, all at once.
                updates = {}
                for dest, incoming in phis:
                    if prev not in incoming:
                        raise VmError(f"phi %{dest} has no edge from ^{prev}")
                    updates[dest] = env[incoming[prev]]
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

    def _abort(self, site, outcome, ptr, ksa_raw):
        reason = outcome.reason
        code = EXIT_ESCAPE if reason == Reason.ESCAPE_INVARIANT else EXIT_BOUNDS
        raise _Abort(ViolationReport(
            exit_code=code, reason=reason.value, kind=site.kind, sid=site.sid,
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
        size = site.size
        if site.kind == "LoopHoisted":
            # One check of the loop's whole window, from the KSA.
            lo, hi = site.window
            ptr, size = ((ksa & mask) + lo) & MASK64, hi - lo
        else:
            ptr = env[instr.operands[0]] & mask
            if site.widened:
                # Combined check: re-anchor the pointer at the merged
                # window's low edge and check the whole hull at once.
                lo, hi = site.window
                ptr, size = ptr - site.base_offset + lo, hi - lo
        outcome = access_check(self.mode, ksa, ptr, size, self.mem,
                               self.stats, site.status == LOWER_DROPPED)
        if self.tracing:
            self._trace(site, ptr, size, outcome)
        if not outcome.ok:
            self._abort(site, outcome, ptr, ksa & mask)

    def _check_escape(self, site, env) -> None:
        if not isinstance(site.escape_value, str):
            # A non-null literal escaping as a pointer can never carry a
            # valid tag; the site aborts without consulting the predicate
            # (whose decoding of an arbitrary bit pattern is meaningless).
            raw = self.mode.strip(site.escape_value & MASK64)
            self.stats.dynamic_checks += 1
            raise _Abort(ViolationReport(
                exit_code=EXIT_ESCAPE, reason=Reason.ESCAPE_INVARIANT.value,
                kind=site.kind, sid=site.sid, fn=site.fn,
                line=site.origin.line, ksa=raw, ptr=raw, size=0))
        value = env[site.escape_value]
        ksa = env[site.ksa]
        outcome = escape_check(self.mode, value, ksa, self.mem,
                               maybe_equal_at_runtime=site.maybe_equal,
                               stats=self.stats)
        if self.tracing:
            self._trace(site, self.mode.strip(value), 0, outcome)
        if not outcome.ok:
            self._abort(site, outcome, self.mode.strip(value),
                        self.mode.strip(ksa))

    # --------------------------------------------------------- oracle backend

    def _oracle_sites(self, sites, instr, env) -> None:
        for site in sites:
            if site.kind != "Escape":
                ksa = env[site.ksa]
                addr = env[site.origin.operands[0]] & self.mode.mask
                self._oracle_check(site, ksa, addr, site.origin.size)
            else:
                raw = env[site.escape_value] & self.mode.mask
                if raw:  # storing null is always legitimate
                    self._oracle_check(site, env[site.ksa], raw, 0)

    def _oracle_check(self, site, ksa, addr, size) -> None:
        """Classify one access, or one escaping pointer, against the record
        the KSA belongs to."""
        ksa_raw = self.mode.strip(ksa)
        # Dead records still count: the sandbox does not model temporal bugs.
        rec = self.mem.record_at(ksa_raw, ksa)
        cls = classify(addr, size, rec)
        if cls == IN_BOUNDS:
            return
        escape = site.kind == "Escape"
        event = OracleEvent(cls="INVALID_ESCAPE" if escape else cls,
                            site=site, addr=addr, size=size, record=rec)
        if self.allowance is not None and self.allowance(self, event):
            self.allowed_events.append(event)
            return
        if escape:
            code, reason = EXIT_ESCAPE, Reason.ESCAPE_INVARIANT
        elif rec is not None and addr < rec.sa:
            code, reason = EXIT_BOUNDS, Reason.LOWER_BOUND
        else:
            code, reason = EXIT_BOUNDS, Reason.UPPER_BOUND
        raise _Abort(ViolationReport(
            exit_code=code, reason=reason.value,
            kind="Escape" if escape else "Access", sid=site.sid, fn=site.fn,
            line=site.origin.line, ksa=ksa_raw, ptr=addr, size=size))


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
    if instr.dest is not None:
        env[instr.dest] = 0


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


def _arith(vm, instr, env):
    a, b = instr.operands
    env[instr.dest] = _ARITH[instr.op](env[a], env[b]) & MASK64


def _mask(vm, instr, env):
    env[instr.dest] = env[instr.operands[0]] & vm.mode.mask


def _free(vm, instr, env):
    vm.mem.free(env[instr.operands[0]])
    if instr.dest is not None:
        env[instr.dest] = 0


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
        if len(args) != 1:
            raise VmError(f"@{instr.callee} takes one size argument")
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
    if len(args) != 3:
        raise VmError(f"@{instr.callee} takes: dst, src, len")
    dst, src, length = args
    if length:
        for ptr in (dst, src):
            raw = ptr & mask
            rec = vm.mem.record_at(raw)
            if classify(raw, length, rec) != IN_BOUNDS or not rec.live:
                raise _Abort(ViolationReport(
                    exit_code=EXIT_BOUNDS, reason=Reason.UPPER_BOUND.value,
                    kind="boundary", sid=None, fn=instr.callee,
                    line=instr.line, ksa=raw, ptr=raw, size=length))
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
