"""Compiler-style instrumentation over the SSA IR.

Computes the statically known starting address (KSA) of every pointer by
rolling back pointer arithmetic, inserts access and escape check sites,
rebuilds address chains over tag-masked values, and then runs the check
elimination passes: q-padding elision, lower-bound drop, check combining,
and loop hoisting.  Each function starts from what validation found
(`FunctionInfo`): its values' definitions, types and blocks, its CFG, and
its accesses, escapes and pointer comparisons in program order.

A hoisted or widened check runs before the accesses it covers.  Three
rules keep it from stopping a correct program.  A loop is hoisted only if it
leaves from its header alone, so every trip the induction variable counts
runs.  A check is widened over a later access only if control cannot leave
the check's block and come back to it without passing the access's block,
so the widened check never runs again before that access has run.  And no
op that may end the run (`_ENDS_RUN`: a call, an extern, an allocation or a
free) may lie in a hoisted loop or on a path from a widened check to the
access it covers, so the covered accesses run once the check has passed
unless the step limit ends the run first.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .analysis import CfgInfo
from .heap import TOP_GUARD
from .ir import Block, Function, Instr, Program, parse
from .tagging import Mode
from .verify import FunctionInfo, require_valid

ALL_OPTS = ("qpad", "lower", "combine", "hoist")
COMBINE_CAP = 1 << 22        # 4MB cap on combined constants
HOIST_CAP = 1 << 30

KSA_ROOT_OPS = ("alloc", "stackalloc", "alloca_dyn", "gaddr", "loadp",
                "extern", "call")
_LINKS = ("gep", "mask")         # a pointer's KSA is its base's
_MIRRORED = ("phi", "select")    # the KSA and the masked clone are copies
_CHAINED = _LINKS + _MIRRORED

# Site statuses.  LOWER_DROPPED sites still execute an upper-bound-only check.
ACTIVE = "Active"
ELIDED_Q = "ElidedByQ"
ELIDED_COMBINE = "ElidedByCombine"
ELIDED_DOMINANCE = "ElidedByDominance"
LOWER_DROPPED = "LowerBoundDropped"

EXECUTING = (ACTIVE, LOWER_DROPPED)


@dataclass(slots=True)
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
    sites_by_instr: dict[int, list[CheckSite]] = field(default_factory=dict)
    sites_by_origin: dict[int, list[CheckSite]] = field(default_factory=dict)
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

    def active_count(self) -> int:
        return sum(1 for s in self.sites if s.executes)

    def elided_counts(self) -> dict[str, int]:
        status = Counter(s.status for s in self.sites)
        return {"qpad": status[ELIDED_Q],
                "combine": status[ELIDED_COMBINE] + status[ELIDED_DOMINANCE],
                "lower_bound": status[LOWER_DROPPED],
                "hoist": sum(s.kind == "LoopHoisted" for s in self.sites)}

    def site_table(self) -> list[dict]:
        return [s.describe(self.infos[s.fn].cfg) for s in self.sites]


def instrument(program: Program, mode: Mode,
               opts: tuple = ALL_OPTS) -> InstrumentedProgram:
    """Insert checks and run the enabled optimizations.  Mutates `program`."""
    infos = require_valid(program)
    sites: list[CheckSite] = []
    ksa_maps: dict[str, dict] = {}
    sid = [0]
    for fn in program.functions.values():
        worker = _FnInstrumenter(fn, infos[fn.name], sid)
        worker.compute_ksa_all()
        worker.insert_access_sites(sites)
        worker.insert_escape_sites(sites)
        worker.reset_metadata()
        worker.instrument_ptr_cmp_sub()
        ksa_maps[fn.name] = worker.ksa
    iprog = InstrumentedProgram(program=program, mode=mode, opts=tuple(opts),
                                sites=sites, infos=infos, ksa_maps=ksa_maps)
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


def _pointer_operands(d: Instr) -> list:
    """The operands a gep, mask, phi or select takes its pointer from."""
    if d.op == "phi":
        return [v for v, _ in d.incomings]
    return d.operands[:1] if d.op in _LINKS else d.operands[1:]


def offset_shape(defs: dict, v):
    """(anchor, const, terms) of v's byte offset walked back through geps."""
    const = 0
    terms: dict = {}
    while isinstance(v, str):
        d = defs[v]
        if d == "param" or d.op != "gep":
            break
        const += d.gep_const
        for idx, scale in d.gep_terms:
            terms[idx] = terms.get(idx, 0) + scale
        v = d.operands[0]
    if not terms:
        return v, const, ()
    terms = {k: s for k, s in terms.items() if s}
    return v, const, tuple(sorted(terms.items()))


class _FnInstrumenter:
    def __init__(self, fn: Function, info: FunctionInfo, sid: list):
        self.fn = fn
        self.info = info
        self.sid = sid
        self.ksa: dict = {}
        self.reset_map: dict = {}
        self._self_ksa: dict | None = None
        # What the passes below read, in program order, from validation.
        # They insert only value definitions, so these lists stay complete.
        self.accesses = info.groups["access"]
        self.escapes = info.groups["escape"]
        self.ptr_cmps = info.groups["ptr_cmp"]
        self.ptr_defs = [v for v in info.where if info.types[v] == "ptr"]

    # ------------------------------------------------------------- plumbing

    def _fresh(self, base: str) -> str:
        # Each fresh name is defined before the next one is asked for.
        name = base
        n = 0
        while name in self.info.defs:
            n += 1
            name = f"{base}{n}"
        return name

    def _insert_after(self, anchor: Instr, new: Instr) -> None:
        label, at = self.info.where[anchor.dest]
        block = self.fn.block(label)
        self._insert(block, block.instrs.index(anchor, at) + 1, new)

    def _insert_at_phi_head(self, block: Block, new: Instr) -> None:
        idx = 0
        while idx < len(block.instrs) and block.instrs[idx].op == "phi":
            idx += 1
        self._insert(block, idx, new)

    def _insert(self, block: Block, idx: int, new: Instr) -> None:
        block.instrs.insert(idx, new)
        self.info.defs[new.dest] = new
        self.info.where[new.dest] = block.label, idx

    # ------------------------------------------------------------------ KSA

    def compute_ksa_all(self) -> None:
        for name in self.ptr_defs:
            self.ksa_of(name)
        for name, ty in self.fn.params:
            if ty == "ptr":
                self.ksa_of(name)

    def ksa_of(self, v):
        """Roll pointer arithmetic back to the value's root, its KSA."""
        known = self._known_ksa(v)
        return _drive(self._ksa(v)) if known is None else known

    def _known_ksa(self, v):
        """v's KSA if finding it needs no recursion, else None."""
        if not isinstance(v, str) or v in self.ksa:
            return self.ksa.get(v, v)
        d = self.info.defs[v]
        if d == "param" or d.op not in _CHAINED:
            # A root (KSA_ROOT_OPS), or a non-pointer op that ended up here.
            self.ksa[v] = v
        elif d.op in _LINKS and (not isinstance(d.operands[0], str)
                                 or d.operands[0] in self.ksa):
            self.ksa[v] = self._known_ksa(d.operands[0])
        return self.ksa.get(v)

    def _ksa(self, v):
        known = self._known_ksa(v)
        if known is not None:
            return known
        d = self.info.defs[v]
        if d.op in _MIRRORED:
            return (yield from self._mirror(v, d, ".ksa", self.ksa, self._ksa,
                                            d.line))
        result = self.ksa[v] = yield self._ksa(d.operands[0])
        return result

    def _mirror(self, v, d: Instr, suffix: str, memo: dict, recurse,
                line: int = 0):
        """A copy of phi or select d choosing between recurse(operand)s."""
        name = memo[v] = self._fresh(v + suffix)   # breaks cycles
        new = Instr(d.op, name, line=line)
        if d.op == "phi":
            self._insert_at_phi_head(self.fn.block(self.info.where[v][0]), new)
            incomings = []
            for op, lbl in d.incomings:
                incomings.append(((yield recurse(op)), lbl))
            new.incomings = incomings
        else:
            self._insert_after(d, new)
            new.operands = [d.operands[0], (yield recurse(d.operands[1])),
                            (yield recurse(d.operands[2]))]
        return name

    def self_ksa(self, v) -> bool:
        """Is v statically guaranteed to equal its KSA at runtime?"""
        if self._self_ksa is None:
            self._compute_self_ksa()
        if not isinstance(v, str):
            return True
        return self._self_ksa.get(v, False)

    def _compute_self_ksa(self) -> None:
        # The pointer values in definition order: one sweep settles all
        # but those fed back through a phi.
        flags = {v: True for v, ty in self.info.types.items() if ty == "ptr"}
        defs = self.info.defs
        changed = True
        while changed:
            changed = False
            for v in flags:
                d = defs[v]
                if not flags[v] or d == "param" or d.op in KSA_ROOT_OPS:
                    continue
                # Zero-offset links, phis and selects of such values only.
                ok = d.op in _CHAINED and (
                    d.op != "gep" or not d.gep_terms and d.gep_const == 0
                ) and all(not isinstance(op, str) or flags.get(op, False)
                          for op in _pointer_operands(d))
                if not ok:
                    flags[v] = False
                    changed = True
        self._self_ksa = flags

    def canon(self, v):
        """Strip zero-geps and masks: the static-alias normal form."""
        while isinstance(v, str):
            d = self.info.defs[v]
            if d == "param":
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

    def _new_site(self, kind: str, instr: Instr, ksa, size: int, window,
                  var_key, **escape) -> CheckSite:
        site = CheckSite(self.sid[0], kind, self.fn.name, instr, instr, ksa,
                         size, window, var_key, **escape)
        self.sid[0] += 1
        return site

    def insert_access_sites(self, sites: list[CheckSite]) -> None:
        for instr in self.accesses:
            ptr = instr.operands[0]
            window, var_key = self.window_of(ptr, instr.size)
            sites.append(self._new_site("Access", instr, self.ksa_of(ptr),
                                        instr.size, window, var_key))

    def insert_escape_sites(self, sites: list[CheckSite]) -> None:
        for instr in self.escapes:
            # A stored pointer escapes; so does a pointer-typed name passed
            # to a call or returned.
            escaping = [instr.operands[1]] if instr.op == "storep" else [
                v for v in instr.operands
                if isinstance(v, str) and self.info.types.get(v) == "ptr"]
            for v in escaping:
                if not isinstance(v, str):
                    if v == 0:
                        continue  # storing null is always legitimate
                    # A non-null integer literal escaping as a pointer (the
                    # (void*)-1 sentinel pattern) is checked and will abort.
                    sites.append(self._new_site(
                        "Escape", instr, v, 0, (0, 0), None, escape_value=v))
                    continue
                ksa = self.ksa_of(v)
                if self.canon(v) == self.canon(ksa):
                    continue  # static alias of its KSA needs no check
                d = self.info.defs[v]
                maybe_equal = d != "param" and d.op in ("phi", "select")
                window, var_key = self.window_of(v, 0)
                sites.append(self._new_site(
                    "Escape", instr, ksa, 0, window, var_key, escape_value=v,
                    maybe_equal=maybe_equal))

    # ------------------------------------------------------- metadata reset

    def reset(self, v):
        """Masked clone of the address chain computing v; memoized per KSA."""
        known = self.reset_map.get(v) if isinstance(v, str) else v
        return _drive(self._reset(v)) if known is None else known

    def _reset(self, v):
        if not isinstance(v, str) or v in self.reset_map:
            return self.reset_map.get(v, v)
        d = self.info.defs[v]
        if d == "param" or d.op in KSA_ROOT_OPS:
            name = self.reset_map[v] = self._fresh(v + ".m")
            mask = Instr("mask", name, [v])
            if d == "param":
                self._insert_at_phi_head(self.fn.entry, mask)
            else:
                self._insert_after(d, mask)
            return name
        if d.op not in _CHAINED or d.op == "mask":
            self.reset_map[v] = v
            return v
        if d.op in _MIRRORED:
            return (yield from self._mirror(v, d, ".m", self.reset_map,
                                            self._reset))
        base = yield self._reset(d.operands[0])
        name = self.reset_map[v] = self._fresh(v + ".m")
        self._insert_after(d, Instr("gep", name, [base], None, d.gep_const,
                                    d.gep_terms))
        return name

    def reset_metadata(self) -> None:
        for instr in self.accesses:
            instr.operands[0] = self.reset(instr.operands[0])

    def instrument_ptr_cmp_sub(self) -> None:
        # Conservative: an operand may always be a tagged duplicate of an
        # escaped stack/global address, so both operands are masked.
        for instr in self.ptr_cmps:
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
    # A window within TOP_GUARD of the KSA cannot wrap below it.
    if 0 <= c1 <= c2 <= TOP_GUARD:
        site.status = LOWER_DROPPED


def opt_combine(iprog: InstrumentedProgram) -> None:
    # A site covers only sites of its own function, KSA and variable part,
    # and only a site with a window covers or is covered.  Access sites are
    # made in program order, so each group is in program order.
    groups: dict = {}
    for site in iprog.sites:
        if site.kind != "Access" or not site.executes or site.window is None:
            continue
        groups.setdefault((site.fn, site.ksa, site.var_key), []).append(site)
    for (fn, _ksa, _var), group in groups.items():
        cfg = iprog.infos[fn].cfg
        # Only `later` changes status, so each site still executes here.
        for j, later in enumerate(group):
            for earlier in group[:j]:
                if not earlier.executes:
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
    if (cfg.postdominates(later.instr, earlier.instr)
            and _may_widen(cfg, earlier.instr, later.instr)):
        if not earlier.widened:
            # Remember where the checked operand sits inside the merged
            # window so the VM can re-anchor the widened check.
            earlier.base_offset = e1
        earlier.window = (min(e1, l1), max(e2, l2))
        earlier.widened = True
        later.status = ELIDED_COMBINE
        return True
    return False


# Ops that may end a run with a VmError.  A check moved ahead of one aborts
# where the unoptimized run would end in that error instead, so hoisting
# and widening move no check over one (a must-execute test).  Any step can
# cross the step limit; that case is not covered.
_ENDS_RUN = frozenset({"call", "extern", "alloc", "alloca_dyn", "stackalloc",
                       "free"})


def _ends_run(instrs) -> bool:
    return any(instr.op in _ENDS_RUN for instr in instrs)


def _may_widen(cfg: CfgInfo, earlier: Instr, later: Instr) -> bool:
    """May a check at `earlier` cover the access at `later` too?  Not if
    control can leave `earlier`'s block and come back to it without passing
    `later`'s: the check would run again, on new values, before `later` has
    run.  Nor if an instruction on a path between them may end the run
    (`_ends_run`): the check would abort where the run ends otherwise."""
    (block, at), (stop, end) = cfg.position(earlier), cfg.position(later)
    instrs = cfg.fn.block(block).instrs
    if block == stop:
        return not _ends_run(instrs[at + 1:end])
    seen, stack = set(), list(cfg.succ[block])
    while stack:
        label = stack.pop()
        if label == block:
            return False
        if label != stop and label not in seen:
            seen.add(label)
            stack.extend(cfg.succ[label])
    return not _ends_run([*instrs[at + 1:], *cfg.fn.block(stop).instrs[:end],
                          *(i for label in seen
                            for i in cfg.fn.block(label).instrs)])


def _leaves_only_from_header(cfg: CfgInfo, loop) -> bool:
    """Does every trip that enters the body run on to the latch?  No block
    but the header may branch out of the loop, to a `ret` or elsewhere."""
    return all(loop.body.issuperset(cfg.succ[label])
               for label in loop.body if label != loop.header)


def opt_loop_hoist(iprog: InstrumentedProgram) -> None:
    # The candidate sites of each function and induction name, in site order.
    candidates = {}
    for site in iprog.sites:
        if (site.kind == "Access" and site.executes
                and site.var_key is not None and not site.widened
                and len(site.var_key[1]) == 1):
            key = site.fn, site.var_key[1][0][0]
            candidates.setdefault(key, []).append(site)
    for fn_name, info in iprog.infos.items():
        cfg = info.cfg
        if not cfg.loops:
            continue
        enders = {b.label for b in cfg.fn.blocks if _ends_run(b.instrs)}
        for loop in cfg.loops:
            if loop.preheader is None \
                    or not _leaves_only_from_header(cfg, loop) \
                    or not enders.isdisjoint(loop.body):
                continue
            ind = _induction_of(cfg, info, loop)
            if ind is None:
                continue
            ind_name, start, last, body_entry = ind
            preheader_term = cfg.fn.block(loop.preheader).terminator
            # An induction phi heads one loop, so no site comes up twice.
            for site in candidates.get((fn_name, ind_name), ()):
                terms = site.var_key[1]
                block, _ = cfg.position(site.instr)
                if block not in loop.body:
                    continue
                if not cfg.block_postdominates(block, body_entry):
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
    if term.op != "condbr":
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
    d_phi = info.defs[ivar]
    if d_phi == "param" or d_phi.op != "phi":
        return None
    if cfg.position(d_phi)[0] != loop.header or len(d_phi.incomings) != 2:
        return None
    start = step = None
    for value, label in d_phi.incomings:
        if label == loop.preheader and not isinstance(value, str):
            start = value
        elif label == loop.latch and isinstance(value, str):
            d_next = info.defs[value]
            if (d_next != "param" and d_next.op == "add"
                    and d_next.operands[0] == ivar
                    and not isinstance(d_next.operands[1], str)):
                step = d_next.operands[1]
    if start is None or step is None or step <= 0 or start >= bound:
        return None
    last = start + ((bound - 1 - start) // step) * step
    return ivar, start, last, body_entry
