"""Deterministic interpreter for instrumented programs.

Two check backends share the engine: 'checks' runs the sandbox predicates
as instrumented (honoring elisions, lower-bound drops and hoisted sites);
'oracle' classifies every access and escape against the exact allocation
records, found by tagged KSA through `SimMemory.record_at` (a reused stack
address alone cannot tell a live object from a dead one), and asks an
allowance callback about divergences the instrumentation admits.

Each op that computes a value or touches memory is one source text,
`_step_source`: regions inline it, and the interpreter runs it compiled
once per mode and op shape (`_table`).  Other ops run as `HANDLERS`.  A
handler `handler(vm, instr, frame)` stores its result in the frame under
`instr.dest` and returns None; `br` and `condbr` return the next block's
label and `ret` a `_Return`.  A frame maps each value name to its value and
reads a literal operand as itself.  Blocks run from plans: a block's phis,
each with its incoming value by predecessor, and its other instructions as
`(instr, handler, sites)` steps, `sites` being None or the sites each
backend runs there.  A plan is decoded on first entry and cached per
function on the program (`iprog.plans`), so the runs of one differential
share one decode.

Hot code runs compiled.  A backend counts block entries on the plans and,
on entry HOT_THRESHOLD, compiles the region the block heads into one Python
function kept with the plans (`InstrumentedProgram.rebuild_index()` drops
it): the union of the block's natural loops if no block of theirs holds a
call, else the block alone.  A block that holds a call, and every block of
a traced run, stays interpreted.  A region loops over its blocks with the
label in a local, keeps the values it defines in locals, and writes one to
the frame only before a handler or slow path that reads it, and on leaving
only if a block outside the region reads it (where it hands block `to` back
to the interpreter, if `to` reads it before setting it).  It inlines step
text, branches and ret.  Step text accesses 1, 2, 4 or 8 bytes within a
page as SimMemory does, through that size's `struct` codec (`CODECS`).
A `checks` site tests `checks.fast_pass` on `_window`'s window (an Escape
site first skips a phi or select equal to its KSA, as `escape_check` does)
and calls `VM._check_access` or `VM._check_escape` only where that fails.
An `oracle` site tests classify's IN_BOUNDS case on the record `record_at`
gives for its KSA, shared by the KSA's later sites in the block until a
step allocates or runs a handler (only an allocation changes it), and calls
`VM._oracle_check` with it only where that fails.  After an inline `alloc`
the KSA it defines needs no lookup: its record is the one just made,
`mem.records[-1]`, the newest record covering the new pointer with its tag.
Steps stay exact: a region hands a block whose steps would cross the limit
back to the interpreter, which raises; else it adds its steps to
`vm.steps` on exit.  The count `i` of a block's steps taken is set before
each step that may raise or leave the region (all but a pure op with no
sites), as only those read it.

A region's text follows from the parsed source, mode and opts
(`InstrumentedProgram.key`), the function, the label, the backend and the
sites' statuses, so its code is kept by those, the last _MAX_CODES regions
per process, with a recipe of the block and step each of its `I{j}`,
`S{j}` and `H{j}` binds.  A program with the same key decodes the region's
blocks and binds the recipe, writing no text; one with no key writes its
texts.  A region `exec`s its code into a namespace of its own.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from functools import cache
from itertools import count
from typing import NamedTuple

from .checks import (CheckOutcome, CheckStats, Reason, access_check,
                     escape_check, fast_pass)
from .heap import (CODECS, IN_BOUNDS, INVALID_ESCAPE, PAGE, AllocError,
                   FreeError, SimFault, SimMemory, classify)
from .instrument import (EXECUTING, LOWER_DROPPED, CheckSite,
                         InstrumentedProgram)
from .ir import OPS, Instr
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
# Region code objects with their recipes by what determines their text,
# oldest first (`compile_block`).  The bound keeps a campaign of distinct
# programs from holding every region, as `re` bounds its pattern cache.
_CODES: dict = {}
_MAX_CODES = 256


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
    and for each backend its compiled regions and block entry counts."""

    def __init__(self, iprog: InstrumentedProgram, fn):
        super().__init__()
        self.blocks = fn.blockmap()
        self.cfg = iprog.infos[fn.name].cfg
        self.site_tables = (iprog.sites_by_instr, iprog.sites_by_origin)
        self.mode = iprog.mode
        self.handlers = _table(iprog.mode.mask)
        self.tiers = (({}, {}), ({}, {}))
        # What, with a label and a backend, determines a region's text.
        self.key = iprog.key and (*iprog.key, fn.name)

    def __missing__(self, label: str) -> tuple:
        instrs = self.blocks[label].instrs
        phis = []
        for instr in instrs:
            if instr.op != "phi":
                break
            phis.append((instr.dest, {pred: value for value, pred
                                      in instr.incomings}))
        by_instr, by_origin = self.site_tables
        handlers, steps = self.handlers, []
        for instr in instrs[len(phis):]:
            key = id(instr)
            checks = by_instr.get(key, ())
            exact = by_origin.get(key, ())
            sites = ([s for s in checks if s.kind == "Escape"
                      or s.status in EXECUTING], exact) \
                if checks or exact else None
            handler = handlers[instr.op]
            if type(handler) is _Shapes:
                handler = handler[instr.cmp or instr.size
                                  or len(instr.gep_terms)]
            steps.append((instr, handler, sites))
        plan = self[label] = (tuple(phis), steps)
        return plan

    def compile_block(self, label: str, which: int):
        """The region block `label` heads as a function `(vm, env, prev)`
        running site list `which`, or None if the block holds a call.  It
        returns the block it left by and that block's result, or None to
        have the interpreter run block `label`."""
        # Site statuses are in it, as a mutation self-test may change them.
        key = self.key and (*self.key, label, which, *(
            s.status for sites in self.site_tables[0].values() for s in sites))
        if key in _CODES:
            return self._bind(*_CODES[key], which)
        cfg = self.cfg
        region = set().union(*(loop.body for loop in cfg.loops
                               if loop.header == label)) & cfg.reachable
        calls = {b for b in region | {label}
                 if any(instr.op == "call" for instr, _, _ in self[b][1])}
        if label in calls:
            return None
        order = [label] + [b for b in self.blocks
                           if b in region and b != label and not calls]
        length = {b: len(self[b][0]) + len(self[b][1]) for b in order}
        mask, m64, fresh = f"{self.mode.mask:#x}", f"{MASK64:#x}", count()
        recipe = []     # each step's (j, block, step index)
        # Each value the region defines has a local; one it computes inline
        # (kept, with its block) reaches the frame only where spilled.
        names, kept, head, entry, body = {}, {}, [], [], []
        for b in order:
            for instr in self.blocks[b].instrs:
                if instr.dest is not None:
                    names[instr.dest] = f"v{next(fresh)}"
                    if instr.op not in HANDLERS:
                        kept[instr.dest] = b

        def read(v):
            if not isinstance(v, str):
                return str(v & MASK64)
            if v not in names:
                names[v] = f"v{next(fresh)}"
                entry.append(f"{names[v]} = env[{v!r}]")
            return names[v]

        def spill(values):
            return [f"env[{v!r}] = {names[v]}" for v in values if v in kept]

        def copy(to, pred, source):
            # The parallel copy of to's phis on the edge from pred.
            phis = self[to][0]
            return [", ".join(names[d] for d, _ in phis) + " = " + ", ".join(
                source(inc[pred]) for _, inc in phis)] if phis else []

        def used(instr, sites):     # what a step and its sites read
            return (*instr.values_read(), *(s.ksa for s in sites),
                    *(s.escape_value for s in sites))

        # The values the interpreter may read after an exit: those the blocks
        # outside the region read, with this backend's sites.  An edge into
        # the region from outside copies its phis from the frame.
        site_table = self.site_tables[which]
        outside = {v for b, block in self.blocks.items() if b not in order
                   for instr in block.instrs
                   for v in used(instr, site_table.get(id(instr), ()))}
        outside.update(v for _, incoming in self[label][0]
                       for pred, v in incoming.items() if pred not in order)

        # What each region block's steps and sites read before it sets it.
        reads = {b: {v for instr, _, sites in self[b][1]
                     for v in used(instr, sites[which] if sites else ())}
                 - {instr.dest for instr in self.blocks[b].instrs}
                 for b in order}

        def leave(b, to):
            # Leave by the edge b -> to, with the values defined on the way
            # there that are read later in the frame (`i` is set at the
            # terminator), or copy to's phis and go on.  A run handed `to`
            # ends in it, so reads only to's phis' values from b and reads[to].
            later = outside if to not in order else reads[to] | {
                inc[b] for _, inc in self[to][0]}
            back = spill(v for v, d in kept.items() if v in later
                         and cfg.block_dominates(d, b)) + [
                f"return {b!r}, {to!r}"]
            if to not in order:
                return back
            # Hand `to` back if its steps would cross the limit.
            return [f"if s > limit - {length[b] + length[to]}:",
                    *_indent(back), f"s += {length[b]}", *copy(to, b, read),
                    f"b = {order.index(to)}"] + ["continue"] * (
                        order.index(to) <= order.index(b))

        # Each backend's site text.  At a load or store, `a` already holds
        # the step's stripped address.
        def check_sites(j, instr, sites):
            for n, site in enumerate(sites):
                call, test = f"vm._check_access(S{j}[{n}], I{j}, env)", "if"
                k, value, p = read(site.ksa), site.escape_value, "p"
                if site.kind == "Escape":
                    call = f"vm._check_escape(S{j}[{n}], env)"
                    if not isinstance(value, str):
                        out.append(call)
                        continue
                    # As escape_check: a zero-size check of the stripped
                    # value, none at all where a phi or select is its KSA.
                    out.append(f"p = {read(value)} & {mask}")
                    if site.maybe_equal:
                        out.append(f"if p == {k} & {mask}: pass")
                        test = "elif"
                    guard = fast_pass(self.mode, k, p, 0)
                else:
                    value, offset, span, wraps = _window(site, instr)
                    if offset or wraps:
                        ptr = f"({read(value)} & {mask}) + {offset}"
                        out.append(f"p = ({ptr}) & {m64}" if wraps else
                                   f"p = {ptr}")
                    else:           # the window is the step's address
                        p = "a"
                    guard = fast_pass(self.mode, k, p, span,
                                      site.status == LOWER_DROPPED)
                out.extend([f"{test} {guard}:", "    stats.dynamic_checks += 1",
                            "else:", *_indent(spill((site.ksa, value))),
                            f"    {call}"])

        def oracle_sites(j, instr, sites):
            # As _oracle_sites, with classify's IN_BOUNDS case inline.
            for n, site in enumerate(sites):
                pad, k, addr = "", read(site.ksa), "a"
                if site.kind == "Escape":   # storing null is legitimate
                    out.extend([f"e = {read(site.escape_value)} & {mask}",
                                "if e:"])
                    pad, addr = "    ", "e"
                # A local holding the KSA's record, or the text that finds
                # it: a lookup, or the record an alloc of this block made.
                r = records.get(site.ksa, f"at({k} & {mask}, {k})")
                if not r.isidentifier():
                    out.append(f"{pad}r{j}_{n} = {r}")
                    r = f"r{j}_{n}"
                    if not pad:
                        records[site.ksa] = r
                out.append(f"{pad}if {r} is None or {addr} < {r}.sa or "
                           f"{addr} + {site.size} > {r}.ea: vm._oracle_check("
                           f"S{j}[{n}], {k}, {addr}, {r})")

        run_sites, prologue = ((check_sites, "stats = vm.stats"),
                               (oracle_sites, "at = mem.record_at"))[which]
        for n, b in enumerate(order):
            phis, steps = self[b]
            # i counts the block's steps taken, for vm.steps on the way out.
            out, records, i = [], {}, len(phis)
            for at, (instr, handler, sites) in enumerate(steps):
                op, dest, args = instr.op, instr.dest, instr.operands
                i += 1
                j = next(fresh)
                recipe.append((j, b, at))
                sites = sites[which] if sites else ()
                if sites or op not in _PURE:    # it may raise or leave
                    out.append(f"i = {i}")
                step = _step_source(instr, read, mask, names.get(dest, "_"),
                                    instr.size) if op in _STEPS else []
                out += step[:op in _MEMORY]     # `a`, which sites read
                run_sites(j, instr, sites)
                out += step[op in _MEMORY:]
                if op == "ret":
                    out.append(f"return {b!r}, _Return("
                               f"{read(args[0]) if args else None})")
                elif op == "br":
                    out += leave(b, instr.labels[0])
                elif op == "condbr":
                    then, other = (leave(b, to) for to in instr.labels)
                    out += [f"if {read(args[0])}:", *_indent(then), "else:",
                            *_indent(other)]
                elif op in HANDLERS:        # run by its handler
                    out += [*spill(args), f"H{j}(vm, I{j}, env)"]
                    if dest is not None:
                        out.append(f"{names[dest]} = env[{dest!r}]")
                if op in HANDLERS:
                    records.clear()
                elif op == "alloc":     # record_at(k & mask, k) of its k
                    records = {dest: "mem.records[-1]"}
            body += [f"if b == {n}:", *_indent(out)] \
                if len(order) > 1 else out
        phis = self[label][0]
        for n, pred in enumerate(phis[0][1] if phis else ()):
            # Entered from prev, the region reads its phis from the frame.
            head += [f"{'elif' if n else 'if'} prev == {pred!r}:", *_indent(
                copy(label, pred, lambda v: f"env[{v!r}]"
                     if isinstance(v, str) else read(v)))]
        src = "\n    ".join(
            ["def region(vm, env, prev):", "s = vm.steps",
             f"if s > vm.step_limit - {length[label]}: return None", *head,
             *_SCOPE, prologue, "limit = vm.step_limit", "b = 0", *entry,
             "try:",
             "    while True:", *_indent(_indent(body)),
             "finally:", "    vm.steps = s + i"])
        code = _region_code(src, label)
        if key:
            if len(_CODES) >= _MAX_CODES:
                del _CODES[next(iter(_CODES))]      # the oldest, as `re` drops
            _CODES[key] = code, recipe
        return self._bind(code, recipe, which)

    def _bind(self, code, recipe, which: int):
        """Region `code` run in a namespace of its own binding each step's
        I{j}, S{j} and H{j}, found by its (j, block, step index) in recipe."""
        ns = dict(_NAMES)
        for j, b, n in recipe:
            instr, handler, sites = self[b][1][n]
            ns[f"I{j}"], ns[f"S{j}"], ns[f"H{j}"] = (
                instr, sites[which] if sites else (), handler)
        exec(code, ns)
        return ns.pop("region")     # no cycle through its globals


def _region_code(src: str, label: str):
    """The code object of region text `src` headed by `label`."""
    return compile(src, f"<region {label}>", "exec")


def _indent(lines) -> list:
    return ["    " + line for line in lines]


def _step_source(instr, read, mask: str, dest: str, size) -> list:
    """Python source lines of step `instr` (an op in _STEPS), each operand
    as `read` gives it: its value set to `dest`, or its access of `size`
    bytes, whose address the first line strips into `a`.  The text takes
    _NAMES and the names _SCOPE sets from its scope."""
    # None pads the operands of a one-operand op.
    op, (x, y, *z) = instr.op, [*map(read, instr.operands), None]
    if op in _MEMORY:
        head, fits = [f"a = {x} & {mask}"], f"o <= {PAGE - size}"
        if size not in CODECS:      # SimMemory's slow path alone
            return head + [f"{dest} = mem.read_int(a, {size})" if op[0] == "l"
                           else f"mem.write_int(a, {size}, {y})"]
        # SimMemory's page fast path, inline, with the size's codec.
        head += ["o = a & 0xFFFF", "g = get(a - o)"]
        if op[0] == "l":
            return head + [f"{dest} = U{size}(g, o)[0] if g is not None and "
                           f"{fits} else mem.read_int(a, {size})"]
        return head + [f"if isinstance(g, bytearray) and {fits}: P{size}(g, "
                       f"o, {y} & {(1 << 8 * size) - 1:#x})",
                       f"else: mem.write_int(a, {size}, {y})"]
    if op == "alloc":       # its size is signed
        value = f"alloc({x} - {1 << 64:#x} if {x} >> 63 else {x})"
    elif op == "gep":
        value = f"({x} + {instr.gep_const}" + "".join(
            f" + {read(v)} * {scale}" for v, scale in instr.gep_terms) \
            + f") & {MASK64:#x}"
    elif op == "select":
        value = f"{y} if {x} else {z[0]}"
    elif op == "mask":
        value = f"{x} & {mask}"
    elif op in _PY_OPS:
        value = f"({x} {_PY_OPS[op]} {y}) & {MASK64:#x}"
    else:
        if op == "icmp" and instr.cmp not in ("eq", "ne"):
            # Flipping the sign bit orders 64-bit values as signed.
            x, y = f"({x} ^ {1 << 63:#x})", f"({y} ^ {1 << 63:#x})"
        value = f"1 if {x} {_PY_OPS[instr.cmp]} {y} else 0"
    return [f"{dest} = {value}"]


def _handler(op: str, mask: str, shape):
    """The interpreter's handler for `op` of `shape` (a gep's term count, a
    comparison or an access size) at address mask `mask`: its step text,
    reading operands and gep constants from the instruction."""
    xs = [f"x{n}" for n in range(len(OPS[op].values))]
    terms = [(f"t{n}", f"k{n}") for n in range(shape)] if op == "gep" else []
    lines = ["def handler(vm, instr, env):",
             ", ".join(xs) + ", = instr.operands"]
    if op == "gep":
        lines.append("c, (" + "".join(f"({t}, {k}), " for t, k in terms)
                     + ") = instr.gep_const, instr.gep_terms")
    elif op in _MEMORY or op == "alloc":    # mem, and get or alloc
        lines += _SCOPE[:2] if op in _MEMORY else _SCOPE[::2]
    model = Instr(op, operands=xs, gep_const="c", gep_terms=terms, cmp=shape)
    ns = dict(_NAMES)
    exec(compile("\n    ".join(lines + _step_source(
        model, "env[{}]".format, mask, "env[instr.dest]", shape)),
        f"<{op} handler>", "exec"), ns)
    return ns["handler"]


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
            # A region returns the block it left by and that block's result,
            # or None to have its first block run here instead.
            if code is None or (left := code(self, env, prev)) is None:
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
            else:
                label, nxt = left
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
        mask = self.mode.mask
        for site in sites:
            escape = site.kind == "Escape"
            addr = env[site.escape_value if escape
                       else site.origin.operands[0]] & mask
            if addr or not escape:  # storing null is always legitimate
                ksa = env[site.ksa]
                self._oracle_check(site, ksa, addr,
                                   self.mem.record_at(ksa & mask, ksa))

    def _oracle_check(self, site, ksa, addr, rec) -> None:
        """Classify one access, or one escaping pointer, against `rec`, the
        record `SimMemory.record_at` gives for the KSA; dead records still
        count, as the sandbox does not model temporal bugs."""
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
        self._abort(site, kind, reason, addr, self.mode.strip(ksa))


# ----------------------------------------------------------------- handlers
# An op without a dest stores its result under None, which no operand names.

def _stackalloc(vm, instr, env):
    env[instr.dest] = vm.mem.alloc_stack_escaped(instr.size)


def _alloca_dyn(vm, instr, env):
    size = _signed(env[instr.operands[0]])
    if size < 1:
        raise VmError(f"dynamic stack allocation of {size} bytes")
    env[instr.dest] = vm.mem.alloc_stack_dynamic(size)


def _gaddr(vm, instr, env):
    env[instr.dest] = vm.genv[instr.callee]


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


# The ops _step_source does not write; a region calls all but br, condbr, ret.
HANDLERS = {"stackalloc": _stackalloc, "alloca_dyn": _alloca_dyn,
            "gaddr": _gaddr, "free": _free, "call": _call, "extern": _extern,
            "br": _br, "condbr": _condbr, "ret": _ret}
# Of the ops _step_source writes, only _MEMORY ops and alloc may fail.  Its
# text takes the names _SCOPE sets, and Python's operator of each _PY_OPS.
_MEMORY = ("load", "loadp", "store", "storep")
_STEPS = {*_MEMORY, "alloc", "gep", "select", "mask", "icmp", "ptrcmp",
          "add", "sub", "mul", "ptrsub"}
_PURE = _STEPS - {*_MEMORY, "alloc"}
_SCOPE = ("mem = vm.mem", "get = mem.pages.get", "alloc = mem.alloc")
_PY_OPS = {"add": "+", "sub": "-", "mul": "*", "ptrsub": "-", "eq": "==",
           "ne": "!=", "lt": "<", "le": "<=", "gt": ">", "ge": ">="}
# The globals of step text: U<size> and P<size> are an access size's codec.
_NAMES = {"_Return": _Return, **{
    f"{c}{size}": f for size, pair in CODECS.items() for c, f in zip("UP", pair)}}


class _Shapes(dict):
    """One op's handlers by shape, each built on first use."""

    def __init__(self, op: str, mask: str):
        self.op, self.mask = op, mask

    def __missing__(self, shape):
        handler = self[shape] = _handler(self.op, self.mask, shape)
        return handler


@cache
def _table(mask: int) -> dict:
    """The handlers by op of every plan of a mode with address mask `mask`:
    HANDLERS and those of _STEPS by shape, `instr.cmp or instr.size or
    len(instr.gep_terms)`."""
    return {**HANDLERS, **{op: _Shapes(op, f"{mask:#x}") for op in _STEPS}}
