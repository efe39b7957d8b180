"""Compiler-style instrumentation over the SSA IR.

Computes the statically known starting address (KSA) of every pointer by
rolling back pointer arithmetic, inserts access and escape check sites,
rebuilds address chains over tag-masked values, and then runs the check
elimination passes: q-padding elision, lower-bound drop, check combining,
and loop hoisting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .analysis import CfgInfo
from .ir import Block, Function, Instr, Program, parse
from .tagging import Mode
from .verify import FunctionInfo, require_valid

ALL_OPTS = ("qpad", "lower", "combine", "hoist")
COMBINE_CAP = 1 << 22        # 4MB cap on combined constants
LOWER_BOUND_CAP = 1 << 30    # 1GB cap for lower-bound elimination
HOIST_CAP = 1 << 30

KSA_ROOT_OPS = ("alloc", "stackalloc", "alloca_dyn", "gaddr", "loadp",
                "extern", "call")

# Site statuses.  LOWER_DROPPED sites still execute an upper-bound-only check.
ACTIVE = "Active"
ELIDED_Q = "ElidedByQ"
ELIDED_COMBINE = "ElidedByCombine"
ELIDED_DOMINANCE = "ElidedByDominance"
LOWER_DROPPED = "LowerBoundDropped"

EXECUTING = (ACTIVE, LOWER_DROPPED)


@dataclass
class CheckSite:
    sid: int
    kind: str                    # 'Access' | 'Escape' | 'LoopHoisted'
    fn: str
    instr: Instr                 # anchor: the checked access / escape / the
                                 # preheader terminator for hoisted sites
    origin: Instr = None         # the access this site was created for
    ksa: object = None           # value name or literal
    size: int = 0                # access size in bytes (0 for escapes)
    window: tuple | None = None  # (c1, c2) byte offsets from KSA, if constant
    var_key: tuple | None = None
    status: str = ACTIVE
    q_used: int = 0
    widened: bool = False        # window grew past the origin's own footprint
    base_offset: int = 0         # origin's c1 before widening (re-anchoring)
    escape_value: object = None
    maybe_equal: bool = False

    @property
    def executes(self) -> bool:
        return self.status in EXECUTING

    def describe(self, cfg: CfgInfo) -> dict:
        block, index = cfg.position(self.instr)
        return {
            "sid": self.sid,
            "kind": self.kind,
            "fn": self.fn,
            "block": block,
            "index": index,
            "ksa": self.ksa if isinstance(self.ksa, str) else str(self.ksa),
            "size": self.size,
            "window": list(self.window) if self.window else None,
            "variable": self.var_key is not None,
            "status": self.status,
            "q_used": self.q_used,
        }


@dataclass
class InstrumentedProgram:
    program: Program
    mode: Mode
    opts: tuple
    sites: list[CheckSite]
    infos: dict[str, FunctionInfo]
    cfgs: dict[str, CfgInfo]
    sites_by_instr: dict[int, list[CheckSite]] = field(default_factory=dict)
    sites_by_origin: dict[int, list[CheckSite]] = field(default_factory=dict)
    mask_counts: dict[str, int] = field(default_factory=dict)
    ksa_maps: dict[str, dict] = field(default_factory=dict)
    # The VM's decoded block plans, by function (see vm.py).
    plans: dict[str, dict] = field(default_factory=dict)

    def rebuild_index(self) -> None:
        self.sites_by_instr = {}
        self.sites_by_origin = {}
        self.plans = {}
        for site in self.sites:
            self.sites_by_instr.setdefault(id(site.instr), []).append(site)
            self.sites_by_origin.setdefault(id(site.origin), []).append(site)

    def active_count(self, fn: str | None = None) -> int:
        return sum(1 for s in self.sites
                   if s.executes and (fn is None or s.fn == fn))

    def elided_counts(self) -> dict[str, int]:
        counts = {"qpad": 0, "combine": 0, "lower_bound": 0, "hoist": 0}
        for s in self.sites:
            if s.status == ELIDED_Q:
                counts["qpad"] += 1
            elif s.status in (ELIDED_COMBINE, ELIDED_DOMINANCE):
                counts["combine"] += 1
            if s.status == LOWER_DROPPED:
                counts["lower_bound"] += 1
            if s.kind == "LoopHoisted":
                counts["hoist"] += 1
        return counts

    def site_table(self) -> list[dict]:
        return [s.describe(self.cfgs[s.fn]) for s in self.sites]


def instrument(program: Program, mode: Mode,
               opts: tuple = ALL_OPTS) -> InstrumentedProgram:
    """Insert checks and run the enabled optimizations.  Mutates `program`."""
    infos = require_valid(program)
    sites: list[CheckSite] = []
    mask_counts: dict[str, int] = {}
    ksa_maps: dict[str, dict] = {}
    sid = [0]
    for fn in program.functions.values():
        worker = _FnInstrumenter(fn, infos[fn.name], sid)
        worker.compute_ksa_all()
        worker.insert_access_sites(sites)
        worker.insert_escape_sites(sites)
        worker.reset_metadata()
        worker.instrument_ptr_cmp_sub()
        mask_counts[fn.name] = worker.mask_count
        ksa_maps[fn.name] = dict(worker.ksa)
    program.renumber()
    for info in infos.values():
        info.cfg.refresh_positions()
    cfgs = {name: info.cfg for name, info in infos.items()}
    iprog = InstrumentedProgram(program=program, mode=mode, opts=tuple(opts),
                                sites=sites, infos=infos, cfgs=cfgs,
                                mask_counts=mask_counts, ksa_maps=ksa_maps)
    if "qpad" in opts:
        opt_qpad(iprog)
    if "lower" in opts:
        opt_lower_bound(iprog)
    if "combine" in opts:
        opt_combine(iprog)
    if "hoist" in opts:
        opt_loop_hoist(iprog)
    iprog.rebuild_index()
    return iprog


def instrument_text(text: str, mode: Mode,
                    opts: tuple = ALL_OPTS) -> InstrumentedProgram:
    return instrument(parse(text), mode, opts)


def _drive(call):
    """Run a generator-coded recursion on an explicit stack.

    The generator yields a generator for each nested call and is sent back
    that call's result, so a long chain of guest values costs heap, not
    Python frames.
    """
    stack, result = [call], None
    while stack:
        try:
            nested = stack[-1].send(result)
        except StopIteration as done:
            stack.pop()
            result = done.value
        else:
            stack.append(nested)
            result = None
    return result


def offset_shape(defs: dict, v):
    """(anchor, const, terms) of v's byte offset walked back through geps."""
    const = 0
    terms: dict = {}
    while isinstance(v, str):
        d = defs.get(v)
        if d is None or d == "param" or d.op != "gep":
            break
        const += d.gep_const
        for idx, scale in d.gep_terms:
            if isinstance(idx, str):
                terms[idx] = terms.get(idx, 0) + scale
            else:
                const += idx * scale
        v = d.operands[0]
    terms = {k: s for k, s in terms.items() if s}
    return v, const, tuple(sorted(terms.items()))


class _FnInstrumenter:
    def __init__(self, fn: Function, info: FunctionInfo, sid: list):
        self.fn = fn
        self.info = info
        self.sid = sid
        self.ksa: dict = {}
        self.reset_map: dict = {}
        self.mask_count = 0
        self._names = set(info.defs)
        self._self_ksa: dict | None = None

    # ------------------------------------------------------------- plumbing

    def _fresh(self, base: str) -> str:
        name = base
        n = 0
        while name in self._names:
            n += 1
            name = f"{base}{n}"
        self._names.add(name)
        return name

    def _def(self, v):
        return self.info.defs.get(v) if isinstance(v, str) else None

    def _block_of(self, instr: Instr) -> Block:
        for block in self.fn.blocks:
            if instr in block.instrs:
                return block
        raise KeyError(f"instruction not found in @{self.fn.name}")

    def _insert_after(self, anchor: Instr, new: Instr) -> None:
        block = self._block_of(anchor)
        block.instrs.insert(block.instrs.index(anchor) + 1, new)
        self.info.defs[new.dest] = new

    def _insert_at_phi_head(self, block: Block, new: Instr) -> None:
        idx = 0
        while idx < len(block.instrs) and block.instrs[idx].op == "phi":
            idx += 1
        block.instrs.insert(idx, new)
        self.info.defs[new.dest] = new

    # ------------------------------------------------------------------ KSA

    def compute_ksa_all(self) -> None:
        for instr in list(self.fn.instructions()):
            if instr.dest and self.info.types.get(instr.dest) == "ptr":
                self.ksa_of(instr.dest)
        for name, ty in self.fn.params:
            if ty == "ptr":
                self.ksa_of(name)

    def ksa_of(self, v):
        """Roll pointer arithmetic back to the value's provenance root."""
        return _drive(self._ksa(v))

    def _ksa(self, v):
        if not isinstance(v, str):
            return v
        if v in self.ksa:
            return self.ksa[v]
        d = self._def(v)
        if d is None or d == "param" or d.op in KSA_ROOT_OPS:
            self.ksa[v] = v
            return v
        if d.op in ("gep", "mask"):
            result = yield self._ksa(d.operands[0])
            self.ksa[v] = result
            return result
        if d.op == "phi":
            name = self._fresh(f"{v}.ksa")
            mirror = Instr(op="phi", dest=name, line=d.line)
            self.ksa[v] = name  # break cycles before filling operands
            self._insert_at_phi_head(self._block_of(d), mirror)
            incomings = []
            for op, lbl in d.incomings:
                incomings.append(((yield self._ksa(op)), lbl))
            mirror.incomings = incomings
            return name
        if d.op == "select":
            name = self._fresh(f"{v}.ksa")
            mirror = Instr(op="select", dest=name, line=d.line)
            self.ksa[v] = name
            self._insert_after(d, mirror)
            mirror.operands = [d.operands[0],
                               (yield self._ksa(d.operands[1])),
                               (yield self._ksa(d.operands[2]))]
            return name
        # Non-pointer producing op ended up here; treat as its own root.
        self.ksa[v] = v
        return v

    def self_ksa(self, v) -> bool:
        """Is v statically guaranteed to equal its KSA at runtime?"""
        if self._self_ksa is None:
            self._compute_self_ksa()
        if not isinstance(v, str):
            return True
        return self._self_ksa.get(v, False)

    def _compute_self_ksa(self) -> None:
        flags = dict.fromkeys(self.info.provenance, True)
        changed = True
        while changed:
            changed = False
            for v in flags:
                if not flags[v]:
                    continue
                d = self._def(v)
                if d is None or d == "param" or d.op in KSA_ROOT_OPS:
                    ok = True
                elif d.op == "gep":
                    base = d.operands[0]
                    ok = (not d.gep_terms and d.gep_const == 0
                          and (not isinstance(base, str) or flags.get(base, False)))
                elif d.op == "phi":
                    ok = all(not isinstance(op, str) or flags.get(op, False)
                             for op, _ in d.incomings)
                elif d.op == "select":
                    ok = all(not isinstance(op, str) or flags.get(op, False)
                             for op in d.operands[1:])
                elif d.op == "mask":
                    base = d.operands[0]
                    ok = not isinstance(base, str) or flags.get(base, False)
                else:
                    ok = False
                if not ok:
                    flags[v] = False
                    changed = True
        self._self_ksa = flags

    def canon(self, v):
        """Strip zero-geps and masks: the static-alias normal form."""
        while isinstance(v, str):
            d = self._def(v)
            if d is None or d == "param":
                return v
            if d.op == "gep" and not d.gep_terms and d.gep_const == 0:
                v = d.operands[0]
            elif d.op == "mask":
                v = d.operands[0]
            else:
                return v
        return v

    def window_of(self, ptr, size: int):
        """Constant window (c1, c2) relative to the KSA, or (None, var_key)."""
        anchor, const, terms = offset_shape(self.info.defs, ptr)
        if not self.self_ksa(anchor):
            return None, None
        if not terms:
            return (const, const + size), None
        # Variable windows keep their constant part so same-variable checks
        # can be merged; they stay var-keyed and are never q-elided.
        return (const, const + size), (anchor, terms)

    # ---------------------------------------------------------------- sites

    def _new_site(self, **kw) -> CheckSite:
        site = CheckSite(sid=self.sid[0], fn=self.fn.name,
                         origin=kw["instr"], **kw)
        self.sid[0] += 1
        return site

    def insert_access_sites(self, sites: list[CheckSite]) -> None:
        for instr in list(self.fn.instructions()):
            if instr.op not in ("load", "loadp", "store", "storep"):
                continue
            ptr = instr.operands[0]
            window, var_key = self.window_of(ptr, instr.size)
            sites.append(self._new_site(
                kind="Access", instr=instr, ksa=self.ksa_of(ptr),
                size=instr.size, window=window, var_key=var_key))

    def insert_escape_sites(self, sites: list[CheckSite]) -> None:
        for instr in list(self.fn.instructions()):
            escaping = []
            if instr.op == "storep":
                escaping.append(instr.operands[1])
            elif instr.op == "call":
                escaping += [v for v in instr.operands
                             if isinstance(v, str)
                             and self.info.types.get(v) == "ptr"]
            elif instr.op == "ret" and instr.operands:
                v = instr.operands[0]
                if isinstance(v, str) and self.info.types.get(v) == "ptr":
                    escaping.append(v)
            for v in escaping:
                if not isinstance(v, str):
                    if v == 0:
                        continue  # storing null is always legitimate
                    # A non-null integer literal escaping as a pointer (the
                    # (void*)-1 sentinel pattern) is checked and will abort.
                    sites.append(self._new_site(
                        kind="Escape", instr=instr, ksa=v, size=0,
                        window=(0, 0), var_key=None, escape_value=v))
                    continue
                ksa = self.ksa_of(v)
                if self.canon(v) == self.canon(ksa):
                    continue  # static alias of its KSA needs no check
                d = self._def(v)
                maybe_equal = (d not in (None, "param")
                               and d.op in ("phi", "select"))
                window, var_key = self.window_of(v, 0)
                sites.append(self._new_site(
                    kind="Escape", instr=instr, ksa=ksa, size=0,
                    window=window, var_key=var_key, escape_value=v,
                    maybe_equal=maybe_equal))

    # ------------------------------------------------------- metadata reset

    def reset(self, v):
        """Masked clone of the address chain computing v; memoized per KSA."""
        return _drive(self._reset(v))

    def _reset(self, v):
        if not isinstance(v, str):
            return v
        if v in self.reset_map:
            return self.reset_map[v]
        d = self._def(v)
        if d == "param" or d is None or d.op in KSA_ROOT_OPS:
            name = self._fresh(f"{v}.m")
            mask = Instr(op="mask", dest=name, operands=[v])
            if d in ("param", None):
                self._insert_at_phi_head(self.fn.entry, mask)
            else:
                self._insert_after(d, mask)
            self.mask_count += 1
            self.reset_map[v] = name
            return name
        if d.op == "mask":
            self.reset_map[v] = v
            return v
        if d.op == "gep":
            name = self._fresh(f"{v}.m")
            clone = Instr(op="gep", dest=name,
                          operands=[(yield self._reset(d.operands[0]))],
                          gep_const=d.gep_const,
                          gep_terms=list(d.gep_terms))
            self._insert_after(d, clone)
            self.reset_map[v] = name
            return name
        if d.op == "phi":
            name = self._fresh(f"{v}.m")
            clone = Instr(op="phi", dest=name)
            self.reset_map[v] = name
            self._insert_at_phi_head(self._block_of(d), clone)
            incomings = []
            for op, lbl in d.incomings:
                incomings.append(((yield self._reset(op)), lbl))
            clone.incomings = incomings
            return name
        if d.op == "select":
            name = self._fresh(f"{v}.m")
            clone = Instr(op="select", dest=name)
            self.reset_map[v] = name
            self._insert_after(d, clone)
            clone.operands = [d.operands[0],
                              (yield self._reset(d.operands[1])),
                              (yield self._reset(d.operands[2]))]
            return name
        self.reset_map[v] = v
        return v

    def reset_metadata(self) -> None:
        for instr in list(self.fn.instructions()):
            if instr.op in ("load", "loadp", "store", "storep"):
                instr.operands[0] = self.reset(instr.operands[0])

    def instrument_ptr_cmp_sub(self) -> None:
        # Conservative: an operand may always be a tagged duplicate of an
        # escaped stack/global address, so both operands are masked.
        for instr in list(self.fn.instructions()):
            if instr.op in ("ptrcmp", "ptrsub"):
                instr.operands = [self.reset(v) for v in instr.operands]


# -------------------------------------------------------------- optimization

def opt_qpad(iprog: InstrumentedProgram) -> None:
    q = iprog.mode.q
    for site in iprog.sites:
        if (site.kind != "Access" or not site.executes
                or site.window is None or site.var_key is not None):
            continue
        c1, c2 = site.window
        if 0 <= c1 and c2 <= q:
            site.status = ELIDED_Q
            site.q_used = q


def opt_lower_bound(iprog: InstrumentedProgram) -> None:
    for site in iprog.sites:
        _maybe_drop_lower(site)


def _maybe_drop_lower(site: CheckSite) -> None:
    if site.status != ACTIVE or site.window is None \
            or site.var_key is not None:
        return
    c1, c2 = site.window
    if 0 <= c1 <= c2 <= LOWER_BOUND_CAP:
        site.status = LOWER_DROPPED


def opt_combine(iprog: InstrumentedProgram) -> None:
    groups: dict = {}
    for site in iprog.sites:
        if site.kind != "Access" or not site.executes:
            continue
        groups.setdefault((site.fn, site.ksa), []).append(site)
    for (fn, _ksa), group in groups.items():
        cfg = iprog.cfgs[fn]
        order = {label: i for i, label in
                 enumerate(b.label for b in cfg.fn.blocks)}
        group.sort(key=lambda s: (order[cfg.position(s.instr)[0]],
                                  cfg.position(s.instr)[1]))
        for j, later in enumerate(group):
            if not later.executes or later.window is None:
                continue
            for earlier in group[:j]:
                if not earlier.executes or earlier.window is None:
                    continue
                if earlier.var_key != later.var_key:
                    continue
                if not cfg.dominates(earlier.instr, later.instr):
                    continue
                if _combine_pair(earlier, later, cfg):
                    break


def _combine_pair(earlier: CheckSite, later: CheckSite, cfg: CfgInfo) -> bool:
    e1, e2 = earlier.window
    l1, l2 = later.window
    if max(abs(e1), abs(e2), abs(l1), abs(l2)) > COMBINE_CAP:
        return False
    if earlier.var_key is None:
        # KSA-invariant rule: with non-negative offsets both windows behave
        # as [ksa, ksa+c2], so a dominating check with the larger end covers
        # the later one.  Constant windows are never widened: that would
        # merge adjacent field accesses into one check and lose the
        # per-field q-elision granularity.
        if e1 >= 0 and l1 >= 0 and e2 >= l2:
            later.status = ELIDED_COMBINE
            return True
        if e1 <= l1 and l2 <= e2:
            later.status = ELIDED_DOMINANCE
            return True
        return False
    if e1 <= l1 and l2 <= e2:
        later.status = ELIDED_DOMINANCE
        return True
    if cfg.postdominates(later.instr, earlier.instr):
        if not earlier.widened:
            # Remember where the checked operand sits inside the merged
            # window so the VM can re-anchor the widened check.
            earlier.base_offset = e1
        earlier.window = (min(e1, l1), max(e2, l2))
        earlier.widened = True
        later.status = ELIDED_COMBINE
        return True
    return False


def opt_loop_hoist(iprog: InstrumentedProgram) -> None:
    for fn_name, cfg in iprog.cfgs.items():
        info = iprog.infos[fn_name]
        for loop in cfg.loops:
            if loop.preheader is None:
                continue
            ind = _induction_of(cfg, info, loop)
            if ind is None:
                continue
            ind_name, start, last, body_entry = ind
            preheader_term = cfg.fn.block(loop.preheader).terminator
            for site in iprog.sites:
                if (site.fn != fn_name or site.kind != "Access"
                        or not site.executes or site.var_key is None
                        or site.widened):
                    continue
                block, _ = cfg.position(site.instr)
                if block not in loop.body:
                    continue
                if not cfg.block_postdominates(block, body_entry):
                    continue
                _, terms = site.var_key
                if len(terms) != 1 or terms[0][0] != ind_name:
                    continue
                if not _ksa_available(info, cfg, site.ksa, loop):
                    continue
                # Offset of the checked (already masked) address operand.
                anchor, const, _ = offset_shape(info.defs,
                                                site.instr.operands[0])
                scale = terms[0][1]
                ends = sorted((scale * start, scale * last))
                lo = const + ends[0]
                hi = const + site.size + ends[1]
                if max(abs(lo), abs(hi)) > HOIST_CAP:
                    continue
                site.kind = "LoopHoisted"
                site.instr = preheader_term
                site.window = (lo, hi)
                site.var_key = None
                site.status = ACTIVE
                site.widened = True  # aborts earlier than the covered accesses
                if "lower" in iprog.opts:
                    _maybe_drop_lower(site)


def _ksa_available(info: FunctionInfo, cfg: CfgInfo, ksa, loop) -> bool:
    """The KSA must be computable in the preheader (defined outside the loop)."""
    if not isinstance(ksa, str):
        return True
    d = info.defs.get(ksa)
    if d is None or d == "param":
        return True
    return cfg.position(d)[0] not in loop.body


def _induction_of(cfg: CfgInfo, info: FunctionInfo, loop):
    """Recognize `for i = c0; i < cN; i += cstep` with a guaranteed first trip.

    Returns (name, first, last, body_entry) or None.
    """
    header = cfg.fn.block(loop.header)
    term = header.terminator
    if term is None or term.op != "condbr":
        return None
    then_label, else_label = term.labels
    if then_label in loop.body and else_label not in loop.body:
        body_entry = then_label
    else:
        return None
    cond = term.operands[0]
    d_cond = info.defs.get(cond) if isinstance(cond, str) else None
    if d_cond in (None, "param") or d_cond.op != "icmp" or d_cond.cmp != "lt":
        return None
    ivar, bound = d_cond.operands
    if not isinstance(ivar, str) or isinstance(bound, str):
        return None
    d_phi = info.defs.get(ivar)
    if d_phi in (None, "param") or d_phi.op != "phi":
        return None
    if cfg.position(d_phi)[0] != loop.header or len(d_phi.incomings) != 2:
        return None
    start = step = None
    for value, label in d_phi.incomings:
        if label == loop.preheader and not isinstance(value, str):
            start = value
        elif label == loop.latch and isinstance(value, str):
            d_next = info.defs.get(value)
            if (d_next not in (None, "param") and d_next.op == "add"
                    and d_next.operands[0] == ivar
                    and not isinstance(d_next.operands[1], str)):
                step = d_next.operands[1]
    if start is None or step is None or step <= 0 or start >= bound:
        return None
    last = start + ((bound - 1 - start) // step) * step
    return ivar, start, last, body_entry
