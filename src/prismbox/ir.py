"""Miniature SSA IR with pointer provenance.

Textual format (.pir), one instruction per line:

    ; comment
    global @buf size=64 escapes=true
    extern @copy kind=copy
    fn @main(%n: int) {
    ^entry:
      %a = alloc 24
      %p = gep %a, %n*4, 8
      %v = load %p, 4
      store %p, 4, %v
      condbr %c, ^then, ^else
      ret %v
    }

Offsets are byte-granular; there are no first-class struct types.  `null`
is the untyped zero pointer literal.  `loadp`/`storep` move 8-byte pointer
values and are the only way a pointer enters or leaves memory.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

EXTERN_KINDS = ("copy", "alloc", "pure")
CMP_OPS = ("eq", "ne", "lt", "le", "gt", "ge")

TERMINATORS = ("br", "condbr", "ret")
PTR_RESULT_OPS = ("alloc", "stackalloc", "alloca_dyn", "gep", "gaddr",
                  "loadp", "mask")
INT_RESULT_OPS = ("load", "icmp", "add", "sub", "mul", "ptrcmp", "ptrsub")


class ParseError(Exception):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


# Compared by identity: passes find an instruction in its block's list.
@dataclass(eq=False)
class Instr:
    op: str
    dest: str | None = None
    operands: list = field(default_factory=list)      # value names or int literals
    size: int | None = None                           # access/alloc byte count
    gep_const: int = 0
    gep_terms: list = field(default_factory=list)     # [(index value, scale)]
    incomings: list = field(default_factory=list)     # [(value, block label)]
    labels: list = field(default_factory=list)
    callee: str | None = None
    cmp: str | None = None
    line: int = 0
    iid: int = -1

    def values_read(self) -> list:
        vals = list(self.operands)
        vals += [idx for idx, _ in self.gep_terms]
        vals += [v for v, _ in self.incomings]
        return vals


@dataclass
class Block:
    label: str
    instrs: list[Instr] = field(default_factory=list)

    @property
    def terminator(self) -> Instr | None:
        if self.instrs and self.instrs[-1].op in TERMINATORS:
            return self.instrs[-1]
        return None


@dataclass
class Function:
    name: str
    params: list[tuple[str, str]]                     # (name, 'int'|'ptr')
    blocks: list[Block] = field(default_factory=list)

    @property
    def entry(self) -> Block:
        return self.blocks[0]

    def block(self, label: str) -> Block:
        return self.blockmap()[label]

    def blockmap(self) -> dict[str, Block]:
        return {b.label: b for b in self.blocks}

    def instructions(self):
        for block in self.blocks:
            yield from block.instrs


@dataclass
class Global:
    name: str
    size: int
    escapes: bool


@dataclass
class Program:
    functions: dict[str, Function] = field(default_factory=dict)
    globals: list[Global] = field(default_factory=list)
    externs: dict[str, str] = field(default_factory=dict)
    entry: str = "main"

    def renumber(self) -> None:
        nid = 0
        for fn in self.functions.values():
            for instr in fn.instructions():
                instr.iid = nid
                nid += 1

    def global_named(self, name: str) -> Global | None:
        for g in self.globals:
            if g.name == name:
                return g
        return None


# --------------------------------------------------------------------- parse

_NAME = r"%[A-Za-z_][A-Za-z0-9_.]*"
_SYM = r"@[A-Za-z_][A-Za-z0-9_.]*"
_LABEL = r"\^[A-Za-z_][A-Za-z0-9_.]*"

_RE_GLOBAL = re.compile(
    rf"^global\s+({_SYM})\s+size=(\d+)\s+escapes=(true|false)$")
_RE_EXTERN = re.compile(rf"^extern\s+({_SYM})\s+kind=(\w+)$")
_RE_FN = re.compile(rf"^fn\s+({_SYM})\s*\(([^)]*)\)\s*\{{$")
_RE_PARAM = re.compile(rf"^({_NAME})\s*:\s*(int|ptr)$")
_RE_BLOCK = re.compile(rf"^({_LABEL}):$")
_RE_ASSIGN = re.compile(rf"^({_NAME})\s*=\s*(.+)$")
_RE_CALLARGS = re.compile(rf"^({_SYM})\s*\(([^)]*)\)$")
_RE_TERM = re.compile(rf"^({_NAME})\s*\*\s*(-?\d+)$")
_RE_INCOMING = re.compile(rf"^\[\s*(.+?)\s*,\s*({_LABEL})\s*\]$")


def _parse_value(tok: str, line: int):
    tok = tok.strip()
    if tok == "null":
        return 0
    if re.fullmatch(_NAME, tok):
        return tok[1:]
    if re.fullmatch(r"-?\d+", tok):
        return int(tok)
    if re.fullmatch(r"-?0x[0-9a-fA-F]+", tok):
        return int(tok, 16)
    raise ParseError(f"bad value operand {tok!r}", line)


def _split_args(text: str) -> list[str]:
    """Split on top-level commas, respecting [value, ^label] brackets."""
    parts, depth, cur = [], 0, ""
    for ch in text:
        if ch == "," and depth == 0:
            parts.append(cur)
            cur = ""
            continue
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        cur += ch
    if cur.strip():
        parts.append(cur)
    return [p.strip() for p in parts if p.strip()]


def parse(text: str) -> Program:
    program = Program()
    fn: Function | None = None
    block: Block | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split(";", 1)[0].strip()
        if not line:
            continue
        if fn is None:
            m = _RE_GLOBAL.match(line)
            if m:
                program.globals.append(
                    Global(m.group(1)[1:], int(m.group(2)),
                           m.group(3) == "true"))
                continue
            m = _RE_EXTERN.match(line)
            if m:
                kind = m.group(2)
                if kind not in EXTERN_KINDS:
                    raise ParseError(f"unknown extern kind {kind!r}", lineno)
                program.externs[m.group(1)[1:]] = kind
                continue
            m = _RE_FN.match(line)
            if m:
                params = []
                for part in _split_args(m.group(2)):
                    pm = _RE_PARAM.match(part)
                    if not pm:
                        raise ParseError(f"bad parameter {part!r}", lineno)
                    params.append((pm.group(1)[1:], pm.group(2)))
                name = m.group(1)[1:]
                if name in program.functions:
                    raise ParseError(f"duplicate function @{name}", lineno)
                fn = Function(name, params)
                program.functions[name] = fn
                block = None
                continue
            raise ParseError(f"unexpected top-level line {line!r}", lineno)
        if line == "}":
            if not fn.blocks:
                raise ParseError(f"function @{fn.name} has no blocks", lineno)
            fn = None
            block = None
            continue
        m = _RE_BLOCK.match(line)
        if m:
            label = m.group(1)[1:]
            if label in (b.label for b in fn.blocks):
                raise ParseError(f"duplicate block ^{label}", lineno)
            block = Block(label)
            fn.blocks.append(block)
            continue
        if block is None:
            raise ParseError("instruction outside a block", lineno)
        block.instrs.append(_parse_instr(line, lineno))
    if fn is not None:
        raise ParseError(f"unterminated function @{fn.name}", lineno)
    program.renumber()
    return program


def _parse_instr(line: str, lineno: int) -> Instr:
    dest = None
    body = line
    m = _RE_ASSIGN.match(line)
    if m:
        dest = m.group(1)[1:]
        body = m.group(2).strip()
    op, _, rest = body.partition(" ")
    rest = rest.strip()
    instr = Instr(op=op, dest=dest, line=lineno)

    def vals(text):
        return [_parse_value(t, lineno) for t in _split_args(text)]

    if op in ("alloc", "alloca_dyn"):
        instr.operands = vals(rest)
        if len(instr.operands) != 1:
            raise ParseError(f"{op} takes one size operand", lineno)
    elif op == "stackalloc":
        if not re.fullmatch(r"\d+", rest):
            raise ParseError("stackalloc takes a constant size", lineno)
        instr.size = int(rest)
    elif op == "gep":
        parts = _split_args(rest)
        if not parts:
            raise ParseError("gep needs a base", lineno)
        instr.operands = [_parse_value(parts[0], lineno)]
        for part in parts[1:]:
            tm = _RE_TERM.match(part)
            if tm:
                instr.gep_terms.append((tm.group(1)[1:], int(tm.group(2))))
            elif re.fullmatch(r"-?\d+", part):
                instr.gep_const += int(part)
            else:
                raise ParseError(f"bad gep term {part!r}", lineno)
    elif op == "gaddr":
        if not re.fullmatch(_SYM, rest):
            raise ParseError("gaddr takes a global symbol", lineno)
        instr.callee = rest[1:]
    elif op == "load":
        parts = _split_args(rest)
        if len(parts) != 2 or not re.fullmatch(r"\d+", parts[1]):
            raise ParseError("load takes: ptr, size", lineno)
        instr.operands = [_parse_value(parts[0], lineno)]
        instr.size = int(parts[1])
    elif op == "loadp":
        instr.operands = vals(rest)
        if len(instr.operands) != 1:
            raise ParseError("loadp takes one pointer operand", lineno)
        instr.size = 8
    elif op == "store":
        parts = _split_args(rest)
        if len(parts) != 3 or not re.fullmatch(r"\d+", parts[1]):
            raise ParseError("store takes: ptr, size, value", lineno)
        instr.operands = [_parse_value(parts[0], lineno),
                          _parse_value(parts[2], lineno)]
        instr.size = int(parts[1])
    elif op == "storep":
        instr.operands = vals(rest)
        if len(instr.operands) != 2:
            raise ParseError("storep takes: ptr, value", lineno)
        instr.size = 8
    elif op == "phi":
        for part in _split_args(rest):
            im = _RE_INCOMING.match(part)
            if not im:
                raise ParseError(f"bad phi incoming {part!r}", lineno)
            instr.incomings.append(
                (_parse_value(im.group(1), lineno), im.group(2)[1:]))
        if not instr.incomings:
            raise ParseError("phi needs incomings", lineno)
    elif op == "select":
        instr.operands = vals(rest)
        if len(instr.operands) != 3:
            raise ParseError("select takes: cond, a, b", lineno)
    elif op in ("call", "extern"):
        cm = _RE_CALLARGS.match(rest)
        if not cm:
            raise ParseError(f"bad {op} syntax", lineno)
        instr.callee = cm.group(1)[1:]
        instr.operands = vals(cm.group(2))
    elif op in ("icmp", "ptrcmp"):
        kind, _, ops = rest.partition(" ")
        if kind not in CMP_OPS:
            raise ParseError(f"bad comparison {kind!r}", lineno)
        instr.cmp = kind
        instr.operands = vals(ops)
        if len(instr.operands) != 2:
            raise ParseError(f"{op} takes two operands", lineno)
    elif op in ("add", "sub", "mul", "ptrsub"):
        instr.operands = vals(rest)
        if len(instr.operands) != 2:
            raise ParseError(f"{op} takes two operands", lineno)
    elif op in ("mask", "free"):
        instr.operands = vals(rest)
        if len(instr.operands) != 1:
            raise ParseError(f"{op} takes one operand", lineno)
    elif op == "br":
        if not re.fullmatch(_LABEL, rest):
            raise ParseError("br takes a label", lineno)
        instr.labels = [rest[1:]]
    elif op == "condbr":
        parts = _split_args(rest)
        if (len(parts) != 3 or not re.fullmatch(_LABEL, parts[1])
                or not re.fullmatch(_LABEL, parts[2])):
            raise ParseError("condbr takes: cond, ^then, ^else", lineno)
        instr.operands = [_parse_value(parts[0], lineno)]
        instr.labels = [parts[1][1:], parts[2][1:]]
    elif op == "ret":
        instr.operands = vals(rest) if rest else []
        if len(instr.operands) > 1:
            raise ParseError("ret takes at most one operand", lineno)
    else:
        raise ParseError(f"unknown opcode {op!r}", lineno)
    return instr


# --------------------------------------------------------------------- print

def _fmt_value(v) -> str:
    return f"%{v}" if isinstance(v, str) else str(v)


def format_instr(instr: Instr) -> str:
    op = instr.op
    if op in ("alloc", "alloca_dyn", "loadp", "mask", "free"):
        body = f"{op} {_fmt_value(instr.operands[0])}"
    elif op == "stackalloc":
        body = f"stackalloc {instr.size}"
    elif op == "gep":
        parts = [_fmt_value(instr.operands[0])]
        parts += [f"{_fmt_value(i)}*{s}" for i, s in instr.gep_terms]
        if instr.gep_const or len(parts) == 1:
            parts.append(str(instr.gep_const))
        body = "gep " + ", ".join(parts)
    elif op == "gaddr":
        body = f"gaddr @{instr.callee}"
    elif op == "load":
        body = f"load {_fmt_value(instr.operands[0])}, {instr.size}"
    elif op == "store":
        body = (f"store {_fmt_value(instr.operands[0])}, {instr.size}, "
                f"{_fmt_value(instr.operands[1])}")
    elif op == "storep":
        body = (f"storep {_fmt_value(instr.operands[0])}, "
                f"{_fmt_value(instr.operands[1])}")
    elif op == "phi":
        body = "phi " + ", ".join(
            f"[{_fmt_value(v)}, ^{lbl}]" for v, lbl in instr.incomings)
    elif op == "select":
        body = "select " + ", ".join(_fmt_value(v) for v in instr.operands)
    elif op in ("call", "extern"):
        args = ", ".join(_fmt_value(v) for v in instr.operands)
        body = f"{op} @{instr.callee}({args})"
    elif op in ("icmp", "ptrcmp"):
        body = (f"{op} {instr.cmp} " +
                ", ".join(_fmt_value(v) for v in instr.operands))
    elif op in ("add", "sub", "mul", "ptrsub"):
        body = f"{op} " + ", ".join(_fmt_value(v) for v in instr.operands)
    elif op == "br":
        body = f"br ^{instr.labels[0]}"
    elif op == "condbr":
        body = (f"condbr {_fmt_value(instr.operands[0])}, "
                f"^{instr.labels[0]}, ^{instr.labels[1]}")
    elif op == "ret":
        body = "ret" if not instr.operands else f"ret {_fmt_value(instr.operands[0])}"
    else:  # pragma: no cover
        raise ValueError(f"cannot print op {op!r}")
    if instr.dest is not None:
        return f"%{instr.dest} = {body}"
    return body


def print_program(program: Program) -> str:
    lines = []
    for g in program.globals:
        lines.append(f"global @{g.name} size={g.size} "
                     f"escapes={'true' if g.escapes else 'false'}")
    for name, kind in program.externs.items():
        lines.append(f"extern @{name} kind={kind}")
    for fn in program.functions.values():
        params = ", ".join(f"%{n}: {t}" for n, t in fn.params)
        lines.append(f"fn @{fn.name}({params}) {{")
        for block in fn.blocks:
            lines.append(f"^{block.label}:")
            for instr in block.instrs:
                lines.append("  " + format_instr(instr))
        lines.append("}")
    return "\n".join(lines) + "\n"
