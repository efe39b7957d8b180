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
`%x =`.  An instruction line is matched whole by its op's pattern, made from
`OPS` on the op's first use (gep, phi, call/extern and icmp/ptrcmp by hand);
the match fills the `Instr`, and a line that no pattern matches is
diagnosed.  A function's entry block holds no phi, since a call enters it on
no edge that an incoming could name; a branch back to it is allowed.  A phi
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
    # Most instructions leave these empty, so they share one `()`; no pass
    # changes them in place.
    gep_terms: list | tuple = ()                      # [(index value, scale)]
    incomings: list | tuple = ()                      # [(value, block label)]
    labels: list | tuple = ()
    callee: str | None = None
    cmp: str | None = None
    line: int = 0

    def values_read(self) -> list:     # may be self.operands, not a copy
        if self.gep_terms:
            return [*self.operands, *(idx for idx, _ in self.gep_terms)]
        if self.incomings:
            return [*self.operands, *(v for v, _ in self.incomings)]
        return self.operands


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
_SYM = "@" + _IDENT
_LABEL = r"\^" + _IDENT
_VALUE = rf"-?0x[0-9a-fA-F]+|-?\d+|{_NAME}|null"

_RE_GLOBAL = re.compile(
    rf"^global\s+({_SYM})\s+size=(\d+)\s+escapes=(true|false)$")
_RE_EXTERN = re.compile(rf"^extern\s+({_SYM})\s+kind=(\w+)$")
_RE_FN = re.compile(rf"^fn\s+({_SYM})\s*\(([^)]*)\)\s*\{{$")
_RE_PARAM = re.compile(rf"^({_NAME})\s*:\s*(int|ptr)$")
_RE_BLOCK = re.compile(rf"^({_LABEL}):$")
_DEST = rf"(?:%({_IDENT})\s*=\s*)?"
# A line's `%dest =`, op and operand text: the op runs to the first space.
_RE_HEAD = re.compile(rf"{_DEST}([^ ]+)(?: (.*))?")
_VALUES = re.compile(_VALUE).findall
_INCOMINGS = re.compile(rf"\[\s*({_VALUE})\s*,\s*\^({_IDENT})").findall
_GEP_TERMS = re.compile(rf"({_NAME})\s*\*\s*(-?\d+)").findall
_GEP_CONSTS = re.compile(r",\s*(-?\d+)").findall

# An operand between commas, by kind; a value's is _V.
_V = rf"\s*({_VALUE})\s*"
_KIND = {"size": r"\s*(\d+)\s*", "@": rf"\s*@({_IDENT})\s*",
         "^": rf"\s*\^({_IDENT})\s*"}
_INCOMING = rf"\s*\[\s*(?:{_VALUE})\s*,\s*{_LABEL}\s*\]\s*"
_ARGS = rf"(?:{_VALUE})\s*(?:,\s*(?:{_VALUE})\s*)*"
# The hand-written ops: the pattern after `op `, and Instr fields by group
# (group 1 is the %dest).
_HAND = {
    "gep": (rf"{_V}((?:,\s*(?:{_NAME}\s*\*\s*-?\d+|-?\d+)\s*)*)",
            {"operands": "v[m[2]]",
             "gep": "sum(map(int, _GEP_CONSTS(m[3]))), "
                    "[(v[a], int(b)) for a, b in _GEP_TERMS(m[3])] or ()"}),
    "phi": (rf"({_INCOMING}(?:,{_INCOMING})*)",
            {"incomings": "[(v[a], b) for a, b in _INCOMINGS(m[2])]"}),
    "call": (rf"\s*@({_IDENT})\s*\(\s*((?:{_ARGS})?)\)",
             {"callee": "m[2]", "operands": "*map(v.__getitem__, "
                                            "_VALUES(m[3]))"}),
    "icmp": (rf"\s*({'|'.join(CMP_OPS)}) {_V},{_V}",
             {"cmp": "m[2]", "operands": "v[m[3]], v[m[4]]"}),
}
_HAND["extern"], _HAND["ptrcmp"] = _HAND["call"], _HAND["icmp"]
_SYNTAX = {"gep": "base:ptr, %index*scale or offset, ...", "call": "@f(args)",
           "extern": "@f(args)", "phi": "[value, ^label], ..."}


class _Rules(dict):
    """Each op's rule, made on the op's first use: the fullmatch of its line
    pattern, and the function that builds its Instr from a match, the line
    number and the value memo.  A word that is no op matches nothing."""

    def __missing__(self, op: str) -> tuple:
        if op not in OPS:
            return (lambda line: None), None
        spec, g = OPS[op], 1 + (op not in VALUELESS)    # g: 1st operand group
        body, fields = _HAND.get(op, ("", {}))
        f = {"dest": "m[1]" if g == 2 else None, "operands": "",
             "size": spec.size, "gep": "0, ()", "incomings": "()",
             "labels": "", "callee": None, "cmp": None, **fields}
        for i, (_role, kind) in enumerate(() if fields else spec.operands):
            ref, piece, sep = f"m[{g + i}]", _KIND.get(kind, _V), "," * (i > 0)
            body += sep + piece if i < spec.required else f"(?:{sep}{piece}"
            if kind == "size":
                f["size"] = f"v[{ref}]"
            elif kind == "@":
                f["callee"] = ref
            elif kind == "^":
                f["labels"] += f"{ref}, "
            else:   # a value; an optional one is trailing
                f["operands"] += (f"v[{ref}], " if i < spec.required
                                  else f"*([v[{ref}]] if {ref} else ()), ")
        body += ")?" * (len(spec.operands) - spec.required)
        text = _DEST * (g == 2) + (f"{op} {body}" if spec.required or fields
                                   else f"{op}(?: {body})?")
        rule = self[op] = re.compile(text).fullmatch, eval(
            "lambda m, n, v: Instr({op!r}, {dest}, [{operands}], {size}, "
            "{gep}, {incomings}, ({labels}), {callee}, {cmp}, n)"
            .format(op=op, **f), globals())
        return rule


_RULES = _Rules()


class _Values(dict):
    """Each value token's value, made once per parse: tokens repeat."""

    def __missing__(self, tok: str):
        value = self[tok] = (tok[1:] if tok[0] == "%" else 0 if tok == "null"
                             else int(tok, 16 if "x" in tok else 10))
        return value


def _too_long(line: int) -> ParseError:
    """The error for a literal that int() refuses: over 4300 digits."""
    return ParseError("integer literal has too many digits", line)


def _split_args(text: str, what: str, line: int) -> list[str]:
    """Comma-separated parts: none in blank text, and no empty one."""
    parts = [p.strip() for p in text.split(",")]
    if "" in parts and len(parts) > 1:
        raise ParseError(f"empty argument in {what}", line)
    return [] if parts == [""] else parts


def _diagnose(line: str, lineno: int):
    """Raise the ParseError of an instruction line that no pattern matched."""
    dest, op, rest = _RE_HEAD.match(line).groups("")
    if op not in OPS:
        raise ParseError(f"unknown opcode {op!r}", lineno)
    if dest and op in VALUELESS:
        raise ParseError(f"{op} has no value for %{dest}", lineno)
    if op in ("icmp", "ptrcmp"):
        cmp, _, rest = rest.strip().partition(" ")
        if cmp not in CMP_OPS:
            raise ParseError(f"bad {op} comparison {cmp!r}", lineno)
    elif op in ("call", "extern"):
        rest = rest.partition("(")[2].rpartition(")")[0]
    _split_args(rest, op, lineno)
    syntax = _SYNTAX.get(op) or OPS[op].syntax()
    raise ParseError(f"{op} takes: {syntax}", lineno)


def parse(text: str) -> Program:
    program = Program()
    fn: Function | None = None
    block: Block | None = None
    rules, values = _RULES, _Values()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = (raw.partition(";")[0] if ";" in raw else raw).strip()
        if not line:
            continue
        if fn is None:
            m = _RE_GLOBAL.match(line)
            if m:
                try:
                    size = int(m[2])
                except ValueError:
                    raise _too_long(lineno) from None
                program.globals.append(Global(m[1][1:], size, m[3] == "true"))
                continue
            m = _RE_EXTERN.match(line)
            if m:
                if m[2] not in EXTERN_KINDS:
                    raise ParseError(f"unknown extern kind {m[2]!r}", lineno)
                program.externs[m[1][1:]] = m[2]
                continue
            m = _RE_FN.match(line)
            if m:
                params = []
                for part in _split_args(m[2], m[1], lineno):
                    pm = _RE_PARAM.match(part)
                    if not pm:
                        raise ParseError(f"bad parameter {part!r}", lineno)
                    params.append((pm[1][1:], pm[2]))
                name = m[1][1:]
                if name in program.functions:
                    raise ParseError(f"duplicate function @{name}", lineno)
                fn = program.functions[name] = Function(name, params)
                continue
            raise ParseError(f"unexpected top-level line {line!r}", lineno)
        if line == "}":
            if not fn.blocks:
                raise ParseError(f"function @{fn.name} has no blocks", lineno)
            fn = block = None
            continue
        m = _RE_BLOCK.match(line) if line[-1] == ":" else None
        if m:
            label = m[1][1:]
            if label in fn._blockmap:
                raise ParseError(f"duplicate block ^{label}", lineno)
            block = fn._blockmap[label] = Block(label)
            fn.blocks.append(block)
            continue
        if block is None:
            raise ParseError("instruction outside a block", lineno)
        # The op is the word after `%dest =`, or the first word.
        head = line.partition("=")[2].lstrip() if line[0] == "%" else line
        match, build = rules[head.partition(" ")[0]]
        m = match(line) or _diagnose(line, lineno)
        try:
            block.instrs.append(build(m, lineno, values))
        except ValueError:
            raise _too_long(lineno) from None
    if fn is not None:
        raise ParseError(f"unterminated function @{fn.name}", lineno)
    return program


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
