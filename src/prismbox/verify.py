"""Program validation: SSA discipline, dominance and typing.

Each function's `FunctionInfo` hands instrumentation what validation found:
each value's definition, type and (block, index), the CFG, and the accesses,
escapes and pointer comparisons in program order (`GROUPS`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .analysis import CfgInfo
from .ir import OPS, TERMINATORS, Function, Instr, Program


# The groups of each op that instrumentation reads: an access is checked, an
# escape (a pointer stored, passed or returned) too, and a pointer
# comparison has its operands masked.
GROUPS = {"load": ("access",), "loadp": ("access",), "store": ("access",),
          "storep": ("access", "escape"), "call": ("escape",),
          "ret": ("escape",), "ptrcmp": ("ptr_cmp",), "ptrsub": ("ptr_cmp",)}


@dataclass
class FunctionInfo:
    """What validation finds in one function, in one pass over it."""
    fn: Function
    cfg: CfgInfo | None = None                       # once structure is sound
    types: dict = field(default_factory=dict)        # value -> 'int'|'ptr'
    defs: dict = field(default_factory=dict)         # value -> Instr | 'param'
    # instruction-defined value -> (block label, index), in program order;
    # an index only grows as instrumentation inserts before it.
    where: dict = field(default_factory=dict)
    groups: dict = field(default_factory=lambda: {
        "access": [], "escape": [], "ptr_cmp": []})  # GROUPS name -> [Instr]
    inferred: list = field(default_factory=list)     # defs typed from others
    rets: list = field(default_factory=list)         # returned operands
    late: list = field(default_factory=list)         # unknown names, after
                                                     # entry's diagnostics


class ValidationError(Exception):
    def __init__(self, diagnostics: list[str]):
        super().__init__("; ".join(diagnostics))
        self.diagnostics = diagnostics


def validate(program: Program) -> list[str]:
    """Return diagnostics; empty means the program is well-formed."""
    _, diagnostics = analyze(program)
    return diagnostics


def analyze(program: Program) -> tuple[dict[str, FunctionInfo], list[str]]:
    # Structural errors come first and alone: without one definition per
    # value and known branch targets, neither a CFG nor the types exist.
    diags: list[str] = []
    ret_types: dict = {}
    # What each referencing op's callee must name, and the word for a miss.
    known = {"gaddr": ({g.name for g in program.globals}, "unknown global"),
             "call": (program.functions, "call to unknown function"),
             "extern": (program.externs, "undeclared extern")}
    infos = {fn.name: _collect(fn, program, known, ret_types, diags)
             for fn in program.functions.values()}
    if diags:
        return {}, diags

    if program.entry not in program.functions:
        diags.append(f"missing entry function @{program.entry}")
    else:
        entry = program.functions[program.entry]
        for name, ty in entry.params:
            if ty != "int":
                diags.append(
                    f"entry parameter %{name} must be int (got {ty})")

    for fn in program.functions.values():
        info = infos[fn.name]
        diags += info.late
        info.cfg = cfg = CfgInfo(fn)
        for block in fn.blocks:
            if block.label not in cfg.reachable:
                diags.append(f"@{fn.name} ^{block.label}: unreachable block")
    _infer_types(program, infos, ret_types)
    for info in infos.values():
        _check_uses(info, program, diags)
    return infos, diags


def _collect(fn: Function, program: Program, known: dict, ret_types: dict,
             diags: list[str]) -> FunctionInfo:
    """Visit each instruction once: find each value's definition and site,
    diagnose structural errors, and type values in program order."""
    f = FunctionInfo(fn)
    defs, where, types, groups = f.defs, f.where, f.types, f.groups
    for name, ty in fn.params:
        if name in defs:
            diags.append(f"@{fn.name}: duplicate parameter %{name}")
        defs[name] = "param"
        types[name] = ty

    labels = fn.blockmap()
    for block in fn.blocks:
        instrs = block.instrs
        if not instrs or instrs[-1].op not in TERMINATORS:
            diags.append(f"@{fn.name} ^{block.label}: missing terminator")
        last = len(instrs) - 1
        seen_non_phi = False
        for idx, instr in enumerate(instrs):
            op = instr.op
            if op in TERMINATORS:
                if idx != last:
                    diags.append(
                        f"@{fn.name} ^{block.label}: terminator not last "
                        f"(line {instr.line})")
                for label in instr.labels:
                    if label not in labels:
                        diags.append(
                            f"@{fn.name}: branch to unknown block ^{label} "
                            f"(line {instr.line})")
            if op != "phi":
                seen_non_phi = True
            elif seen_non_phi:
                diags.append(
                    f"@{fn.name} ^{block.label}: phi after non-phi "
                    f"(line {instr.line})")
            dest = instr.dest
            if dest is not None:
                if dest in defs:
                    diags.append(
                        f"@{fn.name}: value %{dest} defined twice "
                        f"(line {instr.line})")
                defs[dest] = instr
                where[dest] = (block.label, idx)
                ty = OPS[op].result
                if ty is None:
                    f.inferred.append(instr)
                    ty = _result_type(instr, types, ret_types, program)
                if ty is not None:
                    types[dest] = ty
            elif op == "ret" and instr.operands:
                f.rets.append(instr.operands[0])
            for name in GROUPS.get(op, ()):
                groups[name].append(instr)
            if op in known and instr.callee not in known[op][0]:
                f.late.append(f"@{fn.name}: {known[op][1]} @{instr.callee} "
                              f"(line {instr.line})")
    _note_ret_type(fn.name, f, ret_types)
    return f


def _result_type(instr: Instr, types: dict, ret_types: dict,
                 program: Program):
    """The type of a value whose op has no fixed result type, if known."""
    if instr.op in ("phi", "select"):
        operands = ([v for v, _ in instr.incomings] if instr.op == "phi"
                    else instr.operands[1:])
        for v in operands:
            if isinstance(v, str) and v in types:
                return types[v]
        if all(not isinstance(v, str) for v in operands):
            return "int"
        return None
    if instr.op == "call":
        return ret_types.get(instr.callee)
    # An extern: no other op without a fixed result type names a value.
    return "ptr" if program.externs.get(instr.callee) == "alloc" else "int"


def _infer_types(program: Program, infos: dict[str, FunctionInfo],
                 ret_types: dict) -> None:
    # After `_collect`'s pass, only the types taken from other values (phi,
    # select, call, extern) and the return types can change.
    changed = True
    while changed:
        changed = False
        for name, f in infos.items():
            types = f.types
            for instr in f.inferred:
                ty = _result_type(instr, types, ret_types, program)
                if ty is not None and types.get(instr.dest) != ty:
                    types[instr.dest] = ty
                    changed = True
            changed |= _note_ret_type(name, f, ret_types)
    # Anything still untyped defaults to int (e.g. a phi of literals only).
    for f in infos.values():
        for instr in f.inferred:
            f.types.setdefault(instr.dest, "int")


def _note_ret_type(name: str, f: FunctionInfo, ret_types: dict) -> bool:
    """Record a function's return type; say whether it changed."""
    rt = None
    for v in f.rets:
        rt = rt or (f.types.get(v) if isinstance(v, str) else "int")
    if rt is not None and ret_types.get(name) != rt:
        ret_types[name] = rt
        return True
    return False


def _expect(info: FunctionInfo, instr: Instr, v, want: str,
            what: str, diags: list[str]) -> None:
    # Literals are polymorphic (null doubles as the zero pointer), and an
    # `any` operand takes either type.
    if isinstance(v, str) and want != "any":
        ty = info.types.get(v)
        if ty != want:
            diags.append(f"@{info.fn.name}: {what} of {instr.op} must be "
                         f"{want}, got {ty} (line {instr.line})")


def _check_uses(info: FunctionInfo, program: Program,
                diags: list[str]) -> None:
    """Diagnose undefined, undominated and ill-typed uses.  A definition at
    `where` (a, j) dominates a use at (b, i) if a == b and j < i, or if
    block a dominates block b: b's preorder number lies in a's interval."""
    fn, cfg, defs, types = info.fn, info.cfg, info.defs, info.types
    where, dom = info.where, cfg.dom
    for block in fn.blocks:
        label = block.label
        reachable = label in cfg.reachable
        pre = dom[label][0] if reachable else None
        for idx, instr in enumerate(block.instrs):
            op = instr.op
            values = instr.values_read()
            undominated = None
            for v in values:
                site = where.get(v)
                if site is None:
                    if isinstance(v, str) and v not in defs:
                        diags.append(f"@{fn.name}: use of undefined value "
                                     f"%{v} (line {instr.line})")
                elif reachable and op != "phi" and not (
                        site[1] < idx if site[0] == label
                        else pre in range(*dom.get(site[0], (0, 0)))):
                    undominated = (undominated or []) + [v]
            if not reachable:
                continue
            for v in undominated or ():
                diags.append(f"@{fn.name}: use of %{v} not dominated by its "
                             f"definition (line {instr.line})")
            if op == "phi":
                # The value must dominate the end of the edge's source.
                for v, pred in instr.incomings:
                    site = where.get(v)
                    if (site is not None and site[0] != pred
                            and pred in cfg.succ
                            and not cfg.block_dominates(site[0], pred)):
                        diags.append(
                            f"@{fn.name}: %{v} does not dominate its phi "
                            f"edge from ^{pred} (line {instr.line})")
            for v, (role, kind) in zip(instr.operands, OPS[op].values):
                if isinstance(v, str) and types.get(v) != kind:
                    _expect(info, instr, v, kind, role, diags)
            if op in ("gep", "phi", "call", "extern"):
                _check_instr_types(info, instr, program, diags)
        if block is fn.entry and block.instrs[0].op == "phi":
            # A call enters here on no edge that an incoming could name.
            diags.append(f"@{fn.name} ^{label}: phi in the entry block "
                         f"(line {block.instrs[0].line})")
        elif reachable and block.instrs[0].op == "phi":
            want = sorted(cfg.pred[label])
            for instr in block.instrs:
                if instr.op == "phi":
                    got = sorted(lbl for _, lbl in instr.incomings)
                    if want != got:
                        diags.append(
                            f"@{fn.name} ^{label}: phi incomings "
                            f"{got} do not match predecessors {want} "
                            f"(line {instr.line})")
                    first = {}      # a condbr may name one target twice
                    for v, lbl in instr.incomings:
                        if first.setdefault(lbl, v) != v:
                            diags.append(
                                f"@{fn.name} ^{label}: phi %{instr.dest} has "
                                f"two values from ^{lbl} (line {instr.line})")


# The argument count of each extern kind that fixes one; `pure` takes any.
_EXTERN_ARGS = {"alloc": 1, "copy": 3}


def _check_instr_types(info: FunctionInfo, instr: Instr, program: Program,
                       diags: list[str]) -> None:
    """The typing rules of the ops whose operands OPS does not list."""
    op = instr.op
    if op == "gep":
        for idx, _scale in instr.gep_terms:
            _expect(info, instr, idx, "int", "index", diags)
    elif op == "phi":
        # Literals take either type; undefined values (diagnosed) have none.
        tys = {info.types.get(v) for v, _ in instr.incomings
               if isinstance(v, str)} - {None}
        if len(tys) > 1:
            diags.append(f"@{info.fn.name}: phi mixes {sorted(tys)} "
                         f"(line {instr.line})")
    elif op == "call":
        callee = program.functions.get(instr.callee)
        if callee is None:
            return
        if len(instr.operands) != len(callee.params):
            diags.append(f"@{info.fn.name}: call to @{instr.callee} with "
                         f"{len(instr.operands)} args, expected "
                         f"{len(callee.params)} (line {instr.line})")
            return
        for v, (_pname, pty) in zip(instr.operands, callee.params):
            _expect(info, instr, v, pty, "argument", diags)
    else:       # extern
        want = _EXTERN_ARGS.get(program.externs.get(instr.callee))
        if want is not None and len(instr.operands) != want:
            diags.append(f"@{info.fn.name}: extern @{instr.callee} with "
                         f"{len(instr.operands)} args, expected {want} "
                         f"(line {instr.line})")


def require_valid(program: Program) -> dict[str, FunctionInfo]:
    infos, diags = analyze(program)
    if diags:
        raise ValidationError(diags)
    return infos
