"""Deterministic interpreter for instrumented programs.

Two check backends share the execution engine: 'checks' runs the sandbox
predicates exactly as instrumented (honoring elisions, lower-bound drops,
and hoisted sites), while 'oracle' classifies every access and escape
against the exact allocation records, consulting an allowance callback for
divergences the instrumentation admits by design.  The oracle finds a
record through the heap's one index (`SimMemory.record_at`), keyed by the
tagged KSA: stack addresses are reused once a frame is popped, so the
address alone cannot tell a live object from a dead one at the same place.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .checks import CheckStats, Reason, access_check, escape_check
from .heap import (IN_BOUNDS, AllocError, FreeError, SimFault, SimMemory,
                   classify)
from .instrument import InstrumentedProgram
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


def _signed(v: int) -> int:
    return v - (1 << 64) if v >= 1 << 63 else v


_CMP = {
    "eq": lambda a, b: a == b,
    "ne": lambda a, b: a != b,
    "lt": lambda a, b: a < b,
    "le": lambda a, b: a <= b,
    "gt": lambda a, b: a > b,
    "ge": lambda a, b: a >= b,
}


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
        # Each backend attaches its sites to instructions in its own table.
        # The handler is kept unbound: a bound method stored on the VM would
        # form a cycle that keeps every finished VM alive until a GC pass.
        cls = type(self)
        self._site_table, self._site_handler = (
            (iprog.sites_by_instr, cls._check_sites) if backend == "checks"
            else (iprog.sites_by_origin, cls._oracle_sites))

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

    def _val(self, v, env) -> int:
        if isinstance(v, str):
            try:
                return env[v]
            except KeyError:
                raise VmError(f"read of unset value %{v}") from None
        return v & MASK64

    def _call(self, fn, args: list[int]) -> int | None:
        info = self.iprog.infos[fn.name]
        env = {name: arg for (name, _ty), arg in zip(fn.params, args)}
        mark = self.mem.stack_mark()
        blockmap = fn.blockmap()
        site_table, run_sites = self._site_table, self._site_handler
        block = fn.entry
        prev_label = None
        while True:
            # Phis read the environment as of block entry, all at once.
            idx = 0
            updates = {}
            while idx < len(block.instrs) and block.instrs[idx].op == "phi":
                phi = block.instrs[idx]
                for value, label in phi.incomings:
                    if label == prev_label:
                        updates[phi.dest] = self._val(value, env)
                        break
                else:
                    raise VmError(f"phi %{phi.dest} has no edge from "
                                  f"^{prev_label}")
                idx += 1
            env.update(updates)
            self.steps += len(updates)
            for instr in block.instrs[idx:]:
                self.steps += 1
                if self.steps > self.step_limit:
                    raise VmError("step limit exceeded")
                sites = site_table.get(id(instr))
                if sites:
                    run_sites(self, sites, instr, env)
                op = instr.op
                if op == "br":
                    prev_label = block.label
                    block = blockmap[instr.labels[0]]
                    break
                if op == "condbr":
                    taken = 0 if self._val(instr.operands[0], env) else 1
                    prev_label = block.label
                    block = blockmap[instr.labels[taken]]
                    break
                if op == "ret":
                    ret = (self._val(instr.operands[0], env)
                           if instr.operands else None)
                    self.mem.release_stack(mark)
                    return ret
                result = self._exec(instr, env, info)
                if instr.dest is not None:
                    env[instr.dest] = result if result is not None else 0

    def _exec(self, instr, env, info):
        op = instr.op
        mem = self.mem
        if op == "alloc":
            size = _signed(self._val(instr.operands[0], env))
            return mem.alloc(size)
        if op == "stackalloc":
            return mem.alloc_stack_escaped(instr.size)
        if op == "alloca_dyn":
            size = _signed(self._val(instr.operands[0], env))
            if size < 1:
                raise VmError(f"dynamic stack allocation of {size} bytes")
            return mem.alloc_stack_dynamic(size)
        if op == "gep":
            addr = self._val(instr.operands[0], env) + instr.gep_const
            for index, scale in instr.gep_terms:
                addr += self._val(index, env) * scale
            return addr & MASK64
        if op == "gaddr":
            return self.genv[instr.callee]
        if op == "load":
            addr = self.mode.strip(self._val(instr.operands[0], env))
            return int.from_bytes(mem.read(addr, instr.size), "little")
        if op == "loadp":
            addr = self.mode.strip(self._val(instr.operands[0], env))
            return int.from_bytes(mem.read(addr, 8), "little")
        if op == "store":
            addr = self.mode.strip(self._val(instr.operands[0], env))
            value = self._val(instr.operands[1], env)
            value &= (1 << (8 * instr.size)) - 1
            mem.write(addr, value.to_bytes(instr.size, "little"))
            return None
        if op == "storep":
            addr = self.mode.strip(self._val(instr.operands[0], env))
            mem.write(addr, self._val(instr.operands[1], env)
                      .to_bytes(8, "little"))
            return None
        if op == "select":
            pick = 1 if self._val(instr.operands[0], env) else 2
            return self._val(instr.operands[pick], env)
        if op == "icmp":
            a = _signed(self._val(instr.operands[0], env))
            b = _signed(self._val(instr.operands[1], env))
            return 1 if _CMP[instr.cmp](a, b) else 0
        if op == "ptrcmp":
            a = self._val(instr.operands[0], env)
            b = self._val(instr.operands[1], env)
            return 1 if _CMP[instr.cmp](a, b) else 0
        if op == "add":
            return (self._val(instr.operands[0], env)
                    + self._val(instr.operands[1], env)) & MASK64
        if op == "sub":
            return (self._val(instr.operands[0], env)
                    - self._val(instr.operands[1], env)) & MASK64
        if op == "mul":
            return (self._val(instr.operands[0], env)
                    * self._val(instr.operands[1], env)) & MASK64
        if op == "ptrsub":
            return (self._val(instr.operands[0], env)
                    - self._val(instr.operands[1], env)) & MASK64
        if op == "mask":
            return self.mode.strip(self._val(instr.operands[0], env))
        if op == "free":
            try:
                mem.free(self._val(instr.operands[0], env))
            except FreeError as exc:
                raise VmError(str(exc)) from exc
            return None
        if op == "call":
            if self.depth >= MAX_CALL_DEPTH:
                raise VmError(f"call depth limit {MAX_CALL_DEPTH} exceeded")
            callee = self.program.functions[instr.callee]
            args = [self._val(v, env) for v in instr.operands]
            self.depth += 1
            ret = self._call(callee, args)
            self.depth -= 1
            return ret
        if op == "extern":
            return self._extern(instr, env, info)
        raise VmError(f"cannot execute op {op!r}")  # pragma: no cover

    # ---------------------------------------------------------------- externs

    def _extern(self, instr, env, info):
        kind = self.program.externs[instr.callee]
        args = [self._val(v, env) for v in instr.operands]
        if kind == "alloc":
            if len(args) != 1:
                raise VmError(f"@{instr.callee} takes one size argument")
            return self.mem.alloc(_signed(args[0]))
        if kind == "pure":
            total = 0
            for v, a in zip(instr.operands, args):
                if isinstance(v, str) and info.types.get(v) == "ptr":
                    total += self.mode.strip(a)
                else:
                    total += a
            return total & MASK64
        # copy: the declared length is checked against the exact records
        # before the pointers are stripped at the sandbox boundary.
        if len(args) != 3:
            raise VmError(f"@{instr.callee} takes: dst, src, len")
        dst, src, length = args
        if length == 0:
            return 0
        for ptr in (dst, src):
            raw = self.mode.strip(ptr)
            rec = self.mem.record_at(raw)
            if classify(raw, length, rec) != IN_BOUNDS or not rec.live:
                raise _Abort(ViolationReport(
                    exit_code=EXIT_BOUNDS, reason=Reason.UPPER_BOUND.value,
                    kind="boundary", sid=None, fn=instr.callee,
                    line=instr.line, ksa=raw, ptr=raw, size=length))
        data = self.mem.read(self.mode.strip(src), length)
        self.mem.write(self.mode.strip(dst), data)
        return 0

    # ------------------------------------------------------------ check sites

    def _check_sites(self, sites, instr, env) -> None:
        for site in sites:
            if site.kind == "Escape":
                self._check_escape(site, env)
            elif site.executes:
                self._check_access(site, instr, env)

    def _abort(self, site, outcome, ptr, ksa_raw):
        reason = outcome.reason
        code = EXIT_ESCAPE if reason == Reason.ESCAPE_INVARIANT else EXIT_BOUNDS
        raise _Abort(ViolationReport(
            exit_code=code, reason=reason.value, kind=site.kind, sid=site.sid,
            fn=site.fn, line=site.origin.line, ksa=ksa_raw, ptr=ptr,
            size=site.size))

    def _trace(self, site, ptr, size, outcome) -> None:
        if not self.tracing:
            return
        verdict = "ok" if outcome.ok else f"ABORT {outcome.reason.value}"
        extra = " sa-fetch" if outcome.sa_fetched else ""
        self.trace_lines.append(
            f"[sid {site.sid}] {site.kind.lower()} @{site.fn} "
            f"ptr={ptr:#x} size={size} -> {verdict}{extra}")

    def _check_access(self, site, instr, env) -> None:
        ksa = self._val(site.ksa, env)
        size = site.size
        if site.kind == "LoopHoisted":
            # One check of the loop's whole window, from the KSA.
            lo, hi = site.window
            ptr, size = (self.mode.strip(ksa) + lo) & MASK64, hi - lo
        else:
            ptr = self.mode.strip(self._val(instr.operands[0], env))
            if site.widened:
                # Combined check: re-anchor the pointer at the merged
                # window's low edge and check the whole hull at once.
                lo, hi = site.window
                ptr, size = ptr - site.base_offset + lo, hi - lo
        skip_lower = site.status == "LowerBoundDropped"
        outcome = access_check(self.mode, ksa, ptr, size, self.mem,
                               self.stats, skip_lower=skip_lower)
        self._trace(site, ptr, size, outcome)
        if not outcome.ok:
            self._abort(site, outcome, ptr, self.mode.strip(ksa))

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
        value = self._val(site.escape_value, env)
        ksa = self._val(site.ksa, env)
        outcome = escape_check(self.mode, value, ksa, self.mem,
                               maybe_equal_at_runtime=site.maybe_equal,
                               stats=self.stats)
        self._trace(site, self.mode.strip(value), 0, outcome)
        if not outcome.ok:
            self._abort(site, outcome, self.mode.strip(value),
                        self.mode.strip(ksa))

    # --------------------------------------------------------- oracle backend

    def _oracle_sites(self, sites, instr, env) -> None:
        for site in sites:
            if site.kind != "Escape":
                ksa = self._val(site.ksa, env)
                addr = self.mode.strip(self._val(site.origin.operands[0], env))
                self._oracle_check(site, ksa, addr, site.origin.size)
            else:
                raw = self.mode.strip(self._val(site.escape_value, env))
                if raw:  # storing null is always legitimate
                    self._oracle_check(site, self._val(site.ksa, env), raw, 0)

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
