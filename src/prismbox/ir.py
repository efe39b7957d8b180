"""Miniature SSA IR with typed pointers.

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

`OPS` is the instruction grammar: each op's result type and operands.  The
value-less ops (`store`, `storep`, `free`, `br`, `condbr`, `ret`) take no
`%x =`.  A function's entry block holds no phi, since a call enters it on no
edge that an incoming could name; a branch back to it is allowed.  A phi
gives a predecessor one value on all its edges.  Offsets are byte-granular;
there are no first-class struct types.  `null` is the untyped zero pointer
literal.  `loadp`/`storep` move 8-byte pointer values and are the only way a
pointer enters or leaves memory.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import NamedTuple

EXTERN_KINDS = ("copy", "alloc", "pure")
CMP_OPS = ("eq", "ne", "lt", "le", "gt", "ge")

TERMINATORS = ("br", "condbr", "ret")
VALUELESS = ("store", "storep", "free") + TERMINATORS
VALUE_KINDS = ("int", "ptr", "any")


class OpSpec(NamedTuple):
    result: str | None      # 'ptr', 'int', or None: inferred, or no value
    operands: tuple         # (role, kind) pairs in source order
    required: int           # how many operands may not be omitted
    size: int | None        # the access size the op implies
    values: tuple           # the (role, kind) pairs held in Instr.operands

    def syntax(self) -> str:
        return ", ".join(f"{role}:{kind}" + "?" * (i >= self.required)
                         for i, (role, kind) in enumerate(self.operands))


def _op(result: str | None, operands: str = "", size: int | None = None):
    pairs = tuple(tuple(o.rstrip("?").split(":")) for o in operands.split())
    values = tuple(p for p in pairs if p[1] in VALUE_KINDS)
    return OpSpec(result, pairs, len(pairs) - operands.count("?"), size,
                  values)


# Operand kinds: `int`, `ptr` and `any` values go to `Instr.operands`, a
# decimal `size` to `Instr.size`, an `@` symbol to `Instr.callee` and a `^`
# label to `Instr.labels`; `?` marks an optional trailing operand.  gep
# index terms, phi incomings, call/extern `@f(args)` and the icmp/ptrcmp
# comparison word are parsed and printed by hand.
OPS = {
    "alloc": _op("ptr", "size:int"),
    "alloca_dyn": _op("ptr", "size:int"),
    "stackalloc": _op("ptr", "size:size"),
    "gep": _op("ptr", "base:ptr"),
    "gaddr": _op("ptr", "global:@"),
    "load": _op("int", "address:ptr size:size"),
    "loadp": _op("ptr", "address:ptr", size=8),
    "store": _op(None, "address:ptr size:size value:int"),
    "storep": _op(None, "address:ptr value:ptr", size=8),
    "phi": _op(None),
    "select": _op(None, "condition:int a:any b:any"),
    "call": _op(None),
    "extern": _op(None),
    "icmp": _op("int", "operand:int operand:int"),
    "ptrcmp": _op("int", "operand:ptr operand:ptr"),
    "add": _op("int", "operand:int operand:int"),
    "sub": _op("int", "operand:int operand:int"),
    "mul": _op("int", "operand:int operand:int"),
    "ptrsub": _op("int", "operand:ptr operand:ptr"),
    "mask": _op("ptr", "operand:ptr"),
    "free": _op(None, "operand:ptr"),
    "br": _op(None, "target:^"),
    "condbr": _op(None, "condition:int then:^ else:^"),
    "ret": _op(None, "value:any?"),
}


class ParseError(Exception):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


# Compared by identity: passes find an instruction in its block's list.
@dataclass(eq=False, slots=True)
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

    def values_read(self) -> list:     # may be self.operands, not a copy
        vals = self.operands
        if self.gep_terms:
            vals = vals + [idx for idx, _ in self.gep_terms]
        if self.incomings:
            vals = vals + [v for v, _ in self.incomings]
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
    _blockmap: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def entry(self) -> Block:
        return self.blocks[0]

    def block(self, label: str) -> Block:
        return self.blockmap()[label]

    def blockmap(self) -> dict[str, Block]:
        # Blocks are only ever appended: a map as long as the list is current.
        if len(self._blockmap) != len(self.blocks):
            self._blockmap = {b.label: b for b in self.blocks}
        return self._blockmap

    def instructions(self) -> list[Instr]:
        return [instr for block in self.blocks for instr in block.instrs]


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


# --------------------------------------------------------------------- parse

_IDENT = r"[A-Za-z_][A-Za-z0-9_.]*"
_NAME = "%" + _IDENT
_SYM = r"@[A-Za-z_][A-Za-z0-9_.]*"
_LABEL = r"\^[A-Za-z_][A-Za-z0-9_.]*"

_RE_GLOBAL = re.compile(
    rf"^global\s+({_SYM})\s+size=(\d+)\s+escapes=(true|false)$")
_RE_EXTERN = re.compile(rf"^extern\s+({_SYM})\s+kind=(\w+)$")
_RE_FN = re.compile(rf"^fn\s+({_SYM})\s*\(([^)]*)\)\s*\{{$")
_RE_PARAM = re.compile(rf"^({_NAME})\s*:\s*(int|ptr)$")
_RE_BLOCK = re.compile(rf"^({_LABEL}):$")
# `%dest = op rest`: the op runs to the first space, as in an unassigned line.
_RE_ASSIGN = re.compile(rf"^%({_IDENT})\s*=\s*([^ ]+)(?: (.*))?$")
_RE_CALLARGS = re.compile(rf"^({_SYM})\s*\(([^)]*)\)$")
_RE_TERM = re.compile(rf"^({_NAME})\s*\*\s*(-?\d+)$")
_RE_INCOMING = re.compile(rf"^\[\s*(.+?)\s*,\s*({_LABEL})\s*\]$")
_RE_VALUE = re.compile(rf"({_NAME})|(-?\d+)|(-?0x[0-9a-fA-F]+)")
_RE_INT = re.compile(r"-?\d+")
_RE_KIND = {"size": re.compile(r"\d+"), "@": re.compile(_SYM),
            "^": re.compile(_LABEL)}


def _parse_value(tok: str, op: str, line: int):
    """A stripped token's value: a name, an int literal or null."""
    m = _RE_VALUE.fullmatch(tok)
    if m is None:
        if tok == "null":
            return 0
        raise ParseError(f"bad {op} operand {tok!r}", line)
    alt = m.lastindex       # a name, a decimal or a hex literal
    if alt == 1:
        return tok[1:]
    return int(tok, 10 if alt == 2 else 16)


def _split_args(text: str, what: str, line: int) -> list[str]:
    """Split on top-level commas, respecting [value, ^label] brackets.

    Blank text is an empty list; an empty argument is an error.
    """
    if "[" not in text and "]" not in text:
        parts = [p.strip() for p in text.split(",")]
    else:       # a comma inside brackets joins its neighbours
        parts, depth = [], 0
        for piece in text.split(","):
            if depth:
                parts[-1] += "," + piece
            else:
                parts.append(piece)
            depth += piece.count("[") - piece.count("]")
        parts = [p.strip() for p in parts]
    if "" in parts:
        if len(parts) == 1:         # blank text
            return []
        raise ParseError(f"empty argument in {what}", line)
    return parts


def parse(text: str) -> Program:
    program = Program()
    fn: Function | None = None
    block: Block | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = (raw.partition(";")[0] if ";" in raw else raw).strip()
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
                for part in _split_args(m.group(2), m.group(1), lineno):
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
        m = _RE_BLOCK.match(line) if line[-1] == ":" else None
        if m:
            label = m.group(1)[1:]
            if label in fn._blockmap:
                raise ParseError(f"duplicate block ^{label}", lineno)
            block = fn._blockmap[label] = Block(label)
            fn.blocks.append(block)
            continue
        if block is None:
            raise ParseError("instruction outside a block", lineno)
        block.instrs.append(_parse_instr(line, lineno))
    if fn is not None:
        raise ParseError(f"unterminated function @{fn.name}", lineno)
    return program


def _parse_instr(line: str, lineno: int) -> Instr:
    m = _RE_ASSIGN.match(line) if line[0] == "%" else None
    if m:
        dest, op, rest = m.groups("")
    else:
        dest = None
        op, _, rest = line.partition(" ")
    spec = OPS.get(op)
    if spec is None:
        raise ParseError(f"unknown opcode {op!r}", lineno)
    if dest is not None and op in VALUELESS:
        raise ParseError(f"{op} has no value for %{dest}", lineno)
    # Positional: the cheapest way to build one.
    instr = Instr(op, dest, [], spec.size, 0, [], [], [], None, None, lineno)
    if op in ("call", "extern"):
        cm = _RE_CALLARGS.match(rest.strip())
        if not cm:
            raise ParseError(f"bad {op} syntax", lineno)
        instr.callee = cm.group(1)[1:]
        instr.operands = [_parse_value(t, op, lineno)
                          for t in _split_args(cm.group(2), op, lineno)]
        return instr
    if op in ("icmp", "ptrcmp"):
        instr.cmp, _, rest = rest.strip().partition(" ")
        if instr.cmp not in CMP_OPS:
            raise ParseError(f"bad {op} comparison {instr.cmp!r}", lineno)
    parts = _split_args(rest, op, lineno)
    if op == "phi":
        for part in parts:
            im = _RE_INCOMING.match(part)
            if not im:
                raise ParseError(f"bad phi incoming {part!r}", lineno)
            instr.incomings.append(
                (_parse_value(im.group(1).strip(), op, lineno),
                 im.group(2)[1:]))
        if not instr.incomings:
            raise ParseError("phi needs incomings", lineno)
        return instr
    if op == "gep":
        parts, terms = parts[:1], parts[1:]
        for part in terms:
            tm = _RE_TERM.match(part)
            if tm:
                instr.gep_terms.append((tm.group(1)[1:], int(tm.group(2))))
            elif _RE_INT.fullmatch(part):
                instr.gep_const += int(part)
            else:
                raise ParseError(f"bad gep term {part!r}", lineno)
    if not spec.required <= len(parts) <= len(spec.operands):
        raise ParseError(f"{op} takes: {spec.syntax()}", lineno)
    for part, (role, kind) in zip(parts, spec.operands):
        if kind in VALUE_KINDS:
            instr.operands.append(_parse_value(part, op, lineno))
        elif not _RE_KIND[kind].fullmatch(part):
            raise ParseError(f"bad {op} {role} {part!r}", lineno)
        elif kind == "size":
            instr.size = int(part)
        elif kind == "@":
            instr.callee = part[1:]
        else:
            instr.labels.append(part[1:])
    return instr


# --------------------------------------------------------------------- print

def _fmt_value(v) -> str:
    return f"%{v}" if isinstance(v, str) else str(v)


def format_instr(instr: Instr) -> str:
    op = instr.op
    if op == "gep":
        parts = [_fmt_value(instr.operands[0])]
        parts += [f"{_fmt_value(i)}*{s}" for i, s in instr.gep_terms]
        if instr.gep_const or len(parts) == 1:
            parts.append(str(instr.gep_const))
    elif op == "phi":
        parts = [f"[{_fmt_value(v)}, ^{lbl}]" for v, lbl in instr.incomings]
    elif op in ("call", "extern"):
        args = ", ".join(_fmt_value(v) for v in instr.operands)
        parts = [f"@{instr.callee}({args})"]
    else:
        values, labels = iter(instr.operands), iter(instr.labels)
        parts = []
        for _role, kind in OPS[op].operands:
            if kind == "size":
                parts.append(str(instr.size))
            elif kind == "@":
                parts.append(f"@{instr.callee}")
            elif kind == "^":
                parts.append(f"^{next(labels)}")
            else:
                v = next(values, None)
                if v is None:       # an omitted optional operand
                    break
                parts.append(_fmt_value(v))
    body = " ".join(filter(None, (op, instr.cmp, ", ".join(parts))))
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
