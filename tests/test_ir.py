"""Parser, printer, and validator tests for the textual IR."""

import pytest

from conftest import (ENTRY_PHI_PIR, REPEATED_PRED_PHI_PIR,
                      STRUCTURAL_DEFECTS, corpus_text, python_isolated)
from prismbox import fuzz
from prismbox.ir import (Block, Function, Instr, ParseError, parse,
                         print_program)
from prismbox.verify import ValidationError, analyze, require_valid, validate

CORPUS_FILES = ["linked_list.pir", "cost_compare.pir", "partial_struct.pir",
                "negative_index.pir", "negative_copy.pir", "end_escape.pir",
                "off_by_one.pir", "backward.pir"]


@pytest.mark.parametrize("name", CORPUS_FILES)
def test_print_parse_fixpoint_corpus(name):
    program = parse(corpus_text(name))
    text1 = print_program(program)
    text2 = print_program(parse(text1))
    assert text1 == text2


@pytest.mark.parametrize("seed", range(25))
def test_print_parse_fixpoint_generated(seed):
    text, _ = fuzz.generate(seed)
    text1 = print_program(parse(text))
    assert print_program(parse(text1)) == text1


def test_linked_list_shape():
    program = parse(corpus_text("linked_list.pir"))
    walk = program.functions["walk"]
    accesses = [i for i in walk.instructions()
                if i.op in ("load", "loadp", "store", "storep")]
    assert len(accesses) == 3
    assert len(walk.blocks) == 4  # entry, loop header, body, exit


def test_empty_function_valid():
    program = parse("fn @main() {\n^entry:\n  ret 0\n}\n")
    assert validate(program) == []


def test_syntax_error_reports_line():
    with pytest.raises(ParseError) as exc:
        parse("fn @main() {\n^entry:\n  %x = bogus 1, 2\n  ret 0\n}\n")
    assert exc.value.line == 3


def test_unbalanced_function_rejected():
    with pytest.raises(ParseError):
        parse("fn @main() {\n^entry:\n  ret 0\n")


@pytest.mark.parametrize("text,message", [
    ("extern @e kind=magic\n", "line 1: unknown extern kind 'magic'"),
    ("fn @f() {\n^entry:\n  ret\n}\nfn @f() {\n^entry:\n  ret\n}\n",
     "line 5: duplicate function @f"),
], ids=["unknown_extern_kind", "duplicate_function"])
def test_malformed_declaration_rejected(text, message):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert str(exc.value) == message


def test_bare_ret_prints_as_written():
    text = "fn @main() {\n^entry:\n  ret\n}\n"
    assert print_program(parse(text)) == text


def test_function_built_without_the_parser():
    # The block map follows the block list; a block that does not end in
    # a terminator has none.
    fn = Function("main", [])
    fn.blocks.append(Block("entry", [Instr("add", "x", [1, 2])]))
    assert fn.block("entry").terminator is None
    fn.blocks.append(Block("exit", [Instr("ret", operands=[0])]))
    assert fn.block("exit").terminator.op == "ret"
    assert Block("empty").terminator is None


def test_use_before_def_diagnosed():
    program = parse("fn @main() {\n^entry:\n  %y = add %x, 1\n"
                    "  %x = add 1, 1\n  ret %y\n}\n")
    assert validate(program)


def test_phi_incoming_mismatch_diagnosed():
    text = """
fn @main() {
^entry:
  br ^next
^next:
  %v = phi [1, ^entry], [2, ^nowhere]
  ret %v
}
"""
    assert validate(parse(text))


def test_pointer_used_as_int_diagnosed():
    text = """
fn @main() {
^entry:
  %p = alloc 8
  %x = add %p, 1
  ret %x
}
"""
    assert validate(parse(text))


def test_missing_terminator_diagnosed():
    text = "fn @main() {\n^entry:\n  %p = alloc 8\n}\n"
    diags = validate(parse(text))
    assert diags


def test_require_valid_raises_with_diagnostics():
    program = parse("fn @main() {\n^entry:\n  %y = add %x, 1\n  ret %y\n}\n")
    with pytest.raises(ValidationError) as exc:
        require_valid(program)
    assert exc.value.diagnostics


def test_globals_parse_and_print():
    text = ("global @buf size=64 escapes=true\n"
            "fn @main() {\n^entry:\n  %p = gaddr @buf\n"
            "  %v = load %p, 8\n  ret %v\n}\n")
    program = parse(text)
    g, = program.globals
    assert g.size == 64 and g.escapes
    assert print_program(parse(print_program(program))) \
        == print_program(program)


def test_duplicate_value_rejected():
    text = ("fn @main() {\n^entry:\n  %x = add 1, 1\n  %x = add 2, 2\n"
            "  ret %x\n}\n")
    try:
        program = parse(text)
    except ParseError:
        return
    assert validate(program)


@pytest.mark.parametrize("name", sorted(STRUCTURAL_DEFECTS))
def test_structural_error_diagnosed(name):
    text, word = STRUCTURAL_DEFECTS[name]
    code = ("import sys; from prismbox.ir import parse; "
            "from prismbox.verify import validate; "
            "print(*validate(parse(sys.stdin.read())), sep='\\n')")
    proc = python_isolated(code, stdin=text)
    assert proc.returncode == 0, proc.stderr
    assert word in proc.stdout


def test_structural_errors_reported_alone():
    # The undefined %x and the int-typed pointer are not reported: types
    # and uses are only checked once the structure is sound.
    text = ("fn @main(%n: ptr) {\n^entry:\n  %y = add %x, %n\n"
            "  br ^nowhere\n}\n")
    infos, diags = analyze(parse(text))
    assert infos == {}
    assert diags == ["@main: branch to unknown block ^nowhere (line 4)"]


# Wrong operand counts and kinds, including a size that `\d` rejects but a
# digit test such as str.isdigit would accept (the superscript two).
@pytest.mark.parametrize("line", [
    "%x = load %p", "%x = load %p, 8, 8", "%x = load %p, ²",
    "%x = load %p, -8", "store %p, %v, 8", "%x = stackalloc %n",
    "%x = gaddr buf", "br entry", "condbr 1, ^a", "ret 1, 2",
    "%x = icmp eq %a", "%x = icmp lt", "%x = gep", "%x = gep %p, %i*x",
    "%x = phi", "%x = phi [1 ^a]", "%x = call @f(", "%x = alloc 0x",
    "free", "%x = add %a, %%b", "%s = store %p, 8, 1", "%s = storep %c, %p",
    "%f = free %p", "%x = br ^next", "%x = condbr 1, ^a, ^b", "%r = ret 0",
])
def test_malformed_instruction_names_op_and_line(line):
    with pytest.raises(ParseError) as exc:
        parse(f"fn @main() {{\n^entry:\n  {line}\n  ret 0\n}}\n")
    assert exc.value.line == 3
    assert line.split("= ")[-1].split()[0] in str(exc.value)


def test_value_literals():
    program = parse("fn @main() {\n^entry:\n  %x = add 0x1F, -0x2\n"
                    "  %y = add -7, null\n  ret %y\n}\n")
    first, second = program.functions["main"].entry.instrs[:2]
    assert first.operands == [31, -2] and second.operands == [-7, 0]


def test_phi_of_undefined_value_diagnosed():
    text = """
fn @main(%n: int) {
^entry:
  condbr %n, ^left, ^right
^left:
  br ^join
^right:
  br ^join
^join:
  %v = phi [%a, ^left], [%n, ^right]
  ret %v
}
"""
    assert validate(parse(text)) == [
        "@main: use of undefined value %a (line 10)"]


# An empty argument is an error in every argument list; `()` is not.
@pytest.mark.parametrize("line", [
    "%x = add 1,, 2", "ret %x,", "%x = gep %p, , 8", "store ,%p, 8, 1",
    "%x = call @f(1,, 2)", "%x = call @f(1,)", "%x = extern @e(, 1)",
    "%x = phi [0, ^a],, [1, ^b]", "%x = phi [0, ^a],",
])
def test_empty_argument_rejected(line):
    with pytest.raises(ParseError, match="empty argument") as exc:
        parse(f"fn @main() {{\n^entry:\n  {line}\n  ret 0\n}}\n")
    assert exc.value.line == 3
    assert line.split("= ")[-1].split()[0] in str(exc.value)


def test_empty_parameter_rejected():
    with pytest.raises(ParseError, match="empty argument in @main") as exc:
        parse("fn @main(%n: int,) {\n^entry:\n  ret 0\n}\n")
    assert exc.value.line == 1


def test_empty_argument_lists_parse():
    program = parse("extern @e kind=pure\nfn @f() {\n^entry:\n  ret 1\n}\n"
                    "fn @main() {\n^entry:\n  %x = call @f( )\n"
                    "  %y = extern @e()\n  ret\n}\n")
    call, ext, ret = program.functions["main"].entry.instrs
    assert call.operands == ext.operands == ret.operands == []
    assert program.functions["f"].params == []


_TWO_WAY = """fn @main(%n: int) {
^entry:
  %p = alloc 8
  %c = icmp lt %n, 1
  condbr %c, ^a, ^b
^a:
  %x = add %n, 1
  br ^join
^b:
  br ^join
^join:
  %v = phi PHI
  ret 0
}
"""


@pytest.mark.parametrize("text,message", [
    ("fn @helper() {\n^entry:\n  ret 0\n}\n",
     "missing entry function @main"),
    ("fn @main(%p: ptr) {\n^entry:\n  ret 0\n}\n",
     "entry parameter %p must be int (got ptr)"),
    ("fn @main(%x: int, %x: int) {\n^entry:\n  ret %x\n}\n",
     "@main: duplicate parameter %x"),
    (_TWO_WAY.replace("PHI", "[%x, ^a], [%x, ^b]"),
     "@main: %x does not dominate its phi edge from ^b (line 12)"),
    (_TWO_WAY.replace("PHI", "[%p, ^a], [%n, ^b]"),
     "@main: phi mixes ['int', 'ptr'] (line 12)"),
    ("fn @f(%x: int) {\n^entry:\n  ret %x\n}\n"
     "fn @main() {\n^entry:\n  %r = call @f(1, 2)\n  ret %r\n}\n",
     "@main: call to @f with 2 args, expected 1 (line 7)"),
    ("extern @new kind=alloc\nfn @main() {\n^entry:\n"
     "  %p = extern @new(8, 8)\n  ret 0\n}\n",
     "@main: extern @new with 2 args, expected 1 (line 4)"),
    ("extern @copy kind=copy\nfn @main() {\n^entry:\n  %p = alloc 8\n"
     "  extern @copy(%p, %p)\n  ret 0\n}\n",
     "@main: extern @copy with 2 args, expected 3 (line 5)"),
    (ENTRY_PHI_PIR, "@main ^entry: phi in the entry block (line 3)"),
    (REPEATED_PRED_PHI_PIR,
     "@main ^b: phi %x has two values from ^entry (line 5)"),
], ids=["missing_entry", "entry_param_not_int", "duplicate_param",
        "phi_value_not_dominating_edge", "phi_mixes_int_and_ptr",
        "call_arg_count", "extern_alloc_arg_count", "extern_copy_arg_count",
        "entry_block_phi", "repeated_predecessor_phi"])
def test_validator_diagnostic(text, message):
    assert validate(parse(text)) == [message]
