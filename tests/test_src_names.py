"""Keep code that only tests call out of `src/`."""

import ast
import re
from collections import Counter
from pathlib import Path

import prismbox

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "prismbox"

# Second implementations that tests check the program's own code against.
ORACLES = {"bounds_check_2k", "record_for_sa", "check_no_overlap"}


def test_every_src_definition_is_named_outside_the_tests():
    defined = Counter(
        node.name for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)))
    named = Counter(
        word for folder in (SRC, ROOT / "tools", ROOT / "perfbench")
        for path in folder.glob("*.py")
        for word in re.findall(r"\w+", path.read_text()))
    exempt = ORACLES | set(prismbox.__all__)
    unused = sorted(name for name, count in defined.items()
                    if name not in exempt
                    and not re.fullmatch(r"__\w+__", name)
                    and named[name] <= count)
    assert unused == []
