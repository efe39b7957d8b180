"""Parser, printer, and validator tests for the textual IR."""

import pytest

from conftest import STRUCTURAL_DEFECTS, corpus_text, python_isolated
from prismbox import fuzz
from prismbox.ir import ParseError, parse, print_program
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
    g = program.global_named("buf")
    assert g.size == 64 and g.escapes
    assert print_program(parse(print_program(program))) \
        == print_program(program)


def test_every_ptr_value_has_provenance():
    program = parse(corpus_text("linked_list.pir"))
    infos = require_valid(program)
    for name, info in infos.items():
        for v, ty in info.types.items():
            if ty == "ptr":
                assert v in info.provenance


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
    "free", "%x = add %a, %%b",
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
