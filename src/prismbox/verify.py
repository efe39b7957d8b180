"""Program validation: SSA discipline, dominance, typing, and provenance."""

from __future__ import annotations

from dataclasses import dataclass, field

from .analysis import CfgInfo
from .ir import OPS, TERMINATORS, Function, Instr, Program


@dataclass
class FunctionInfo:
    fn: Function
    cfg: CfgInfo
    types: dict = field(default_factory=dict)        # value -> 'int'|'ptr'
    provenance: set = field(default_factory=set)     # the pointer-typed values
    defs: dict = field(default_factory=dict)         # value -> Instr | 'param'


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
    defs = {fn.name: _collect_defs(fn, diags)
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

    infos = {fn.name: _collect_function(fn, program, defs[fn.name], diags)
             for fn in program.functions.values()}
    _infer_types(program, infos, diags)
    for info in infos.values():
        _check_uses(info, program, infos, diags)
        info.provenance = {v for v, ty in info.types.items() if ty == "ptr"}
    return infos, diags


def _collect_defs(fn: Function, diags: list[str]) -> dict:
    """Map each value to its definition; diagnose structural errors."""
    defs: dict = {}
    for name, _ty in fn.params:
        if name in defs:
            diags.append(f"@{fn.name}: duplicate parameter %{name}")
        defs[name] = "param"

    labels = {b.label for b in fn.blocks}
    for block in fn.blocks:
        if not block.instrs or block.instrs[-1].op not in TERMINATORS:
            diags.append(f"@{fn.name} ^{block.label}: missing terminator")
        seen_non_phi = False
        for idx, instr in enumerate(block.instrs):
            if instr.op in TERMINATORS and idx != len(block.instrs) - 1:
                diags.append(
                    f"@{fn.name} ^{block.label}: terminator not last "
                    f"(line {instr.line})")
            if instr.op == "phi":
                if seen_non_phi:
                    diags.append(
                        f"@{fn.name} ^{block.label}: phi after non-phi "
                        f"(line {instr.line})")
            else:
                seen_non_phi = True
            if instr.dest is not None:
                if instr.dest in defs:
                    diags.append(
                        f"@{fn.name}: value %{instr.dest} defined twice "
                        f"(line {instr.line})")
                defs[instr.dest] = instr
            for label in instr.labels:
                if label not in labels:
                    diags.append(
                        f"@{fn.name}: branch to unknown block ^{label} "
                        f"(line {instr.line})")
    return defs


def _collect_function(fn: Function, program: Program, defs: dict,
                      diags: list[str]) -> FunctionInfo:
    for instr in fn.instructions():
        if instr.op == "gaddr" and program.global_named(instr.callee) is None:
            diags.append(f"@{fn.name}: unknown global @{instr.callee} "
                         f"(line {instr.line})")
        if instr.op == "call" and instr.callee not in program.functions:
            diags.append(f"@{fn.name}: call to unknown function "
                         f"@{instr.callee} (line {instr.line})")
        if instr.op == "extern" and instr.callee not in program.externs:
            diags.append(f"@{fn.name}: undeclared extern @{instr.callee} "
                         f"(line {instr.line})")

    cfg = CfgInfo(fn)
    for block in fn.blocks:
        if block.label not in cfg.reachable:
            diags.append(f"@{fn.name} ^{block.label}: unreachable block")
    return FunctionInfo(fn=fn, cfg=cfg, defs=defs)


def _result_type(instr: Instr, types: dict, ret_types: dict,
                 program: Program):
    result = OPS[instr.op].result
    if result is not None:
        return result
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
    if instr.op == "extern":
        return "ptr" if program.externs.get(instr.callee) == "alloc" else "int"
    return None


def _infer_types(program: Program, infos: dict[str, FunctionInfo],
                 diags: list[str]) -> None:
    ret_types: dict = {}
    changed = True
    while changed:
        changed = False
        for info in infos.values():
            types = info.types
            for name, ty in info.fn.params:
                if types.get(name) != ty:
                    types[name] = ty
                    changed = True
            for instr in info.fn.instructions():
                if instr.dest is None:
                    continue
                ty = _result_type(instr, types, ret_types, program)
                if ty is not None and types.get(instr.dest) != ty:
                    types[instr.dest] = ty
                    changed = True
            rt = None
            for instr in info.fn.instructions():
                if instr.op != "ret" or not instr.operands:
                    continue
                v = instr.operands[0]
                if isinstance(v, str):
                    rt = rt or types.get(v)
                else:
                    rt = rt or "int"
            if rt is not None and ret_types.get(info.fn.name) != rt:
                ret_types[info.fn.name] = rt
                changed = True
    # Anything still untyped defaults to int (e.g. a phi of literals only).
    for info in infos.values():
        for instr in info.fn.instructions():
            if instr.dest is not None and instr.dest not in info.types:
                info.types[instr.dest] = "int"


def _type_of(info: FunctionInfo, v):
    if isinstance(v, str):
        return info.types.get(v)
    return "literal"


def _expect(info: FunctionInfo, instr: Instr, v, want: str,
            what: str, diags: list[str]) -> None:
    ty = _type_of(info, v)
    # Literals are polymorphic (null doubles as the zero pointer), and an
    # `any` operand takes either type.
    if ty == "literal" or want == "any":
        return
    if ty != want:
        diags.append(f"@{info.fn.name}: {what} of {instr.op} must be {want}, "
                     f"got {ty} (line {instr.line})")


def _check_uses(info: FunctionInfo, program: Program,
                infos: dict[str, FunctionInfo], diags: list[str]) -> None:
    fn, cfg = info.fn, info.cfg
    blockmap = fn.blockmap()
    for block in fn.blocks:
        for instr in block.instrs:
            for v in instr.values_read():
                if isinstance(v, str) and v not in info.defs:
                    diags.append(f"@{fn.name}: use of undefined value %{v} "
                                 f"(line {instr.line})")
            if block.label not in cfg.reachable:
                continue
            _check_dominance(info, block.label, instr, blockmap, diags)
            _check_instr_types(info, instr, program, infos, diags)
        if block.label in cfg.reachable:
            for instr in block.instrs:
                if instr.op == "phi":
                    want = sorted(cfg.pred[block.label])
                    got = sorted(lbl for _, lbl in instr.incomings)
                    if want != got:
                        diags.append(
                            f"@{fn.name} ^{block.label}: phi incomings "
                            f"{got} do not match predecessors {want} "
                            f"(line {instr.line})")


def _check_dominance(info: FunctionInfo, label: str, instr: Instr,
                     blockmap: dict, diags: list[str]) -> None:
    cfg = info.cfg
    if instr.op == "phi":
        for v, pred_label in instr.incomings:
            if not isinstance(v, str):
                continue
            d = info.defs.get(v)
            if d is None or d == "param" or pred_label not in blockmap:
                continue
            pred_term = blockmap[pred_label].instrs[-1]
            if d is not pred_term and not cfg.dominates(d, pred_term):
                diags.append(
                    f"@{info.fn.name}: %{v} does not dominate its phi edge "
                    f"from ^{pred_label} (line {instr.line})")
        return
    for v in instr.values_read():
        if not isinstance(v, str):
            continue
        d = info.defs.get(v)
        if d is None or d == "param":
            continue
        if not cfg.dominates(d, instr):
            diags.append(f"@{info.fn.name}: use of %{v} not dominated by its "
                         f"definition (line {instr.line})")


def _check_instr_types(info: FunctionInfo, instr: Instr, program: Program,
                       infos: dict[str, FunctionInfo],
                       diags: list[str]) -> None:
    op = instr.op
    for v, (role, kind) in zip(instr.operands, OPS[op].values):
        _expect(info, instr, v, kind, role, diags)
    if op == "gep":
        for idx, _scale in instr.gep_terms:
            _expect(info, instr, idx, "int", "index", diags)
    elif op == "phi":
        # An undefined value has no type; its use is diagnosed already.
        tys = {_type_of(info, v) for v, _ in instr.incomings}
        tys -= {"literal", None}
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


def require_valid(program: Program) -> dict[str, FunctionInfo]:
    infos, diags = analyze(program)
    if diags:
        raise ValidationError(diags)
    return infos
