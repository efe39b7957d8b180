"""List the executable lines of src/prismbox that the test suite never runs.

Usage, from the repository root:

    python tools/untraced_lines.py [pytest arguments]

It runs `pytest.main` (with `-p no:cacheprovider` and the given arguments)
under `sys.settrace` and `threading.settrace`, and records every line event
in `src/prismbox`.  A line is executable if some code object nested in its
module (a function, method, class body or comprehension) holds bytecode
for it, as `co_lines()` reports; the module's own top-level lines run on
import and count as run.  Each executable line with no event is printed as
`file:line: source`; the exit status is 1 if there is any, else pytest's.
Code run in a child process is not seen.  Tracing makes the suite five to
six times slower.
"""

from __future__ import annotations

import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "prismbox"


def executable_lines(path: Path) -> set[int]:
    """The lines of the code objects nested in the module at `path`."""
    module = compile(path.read_text(), str(path), "exec")
    lines: set[int] = set()
    stack = [c for c in module.co_consts if isinstance(c, types.CodeType)]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines()
                     if line is not None)
        stack += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    return lines


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    prefix = str(PACKAGE) + "/"
    hits: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        return local(frame, event, arg)

    import pytest

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-p", "no:cacheprovider", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        ran = {line for name, line in hits if name == str(path)}
        missed += [(path, line, source[line - 1].strip())
                   for line in sorted(executable_lines(path) - ran)]
    for path, line, text in missed:
        print(f"{path.relative_to(ROOT)}:{line}: {text}")
    print(f"{len(missed)} executable lines in src/prismbox never ran")
    return 1 if missed else int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
