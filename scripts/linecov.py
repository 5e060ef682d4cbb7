"""Line coverage of src/confalg under a pytest run, with the standard library only.

Runs pytest in this process under ``sys.settrace`` and prints, for each module
of src/confalg, the lines that never ran.  Def, class and import lines and
docstrings are left out: they run at import, or not at all.  The tracer is set
again before each test, because an exception raised inside a trace function
(a RecursionError, say) unsets it.  Child processes are not traced.

Usage: python scripts/linecov.py [pytest arguments]
"""

import ast
import os
import sys
import types
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "confalg"


def executable_lines(source: str, filename: str) -> set[int]:
    """The lines that hold bytecode, less def, class, import and docstring lines."""
    lines, codes = set(), [compile(source, filename, "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        codes.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            lines.difference_update(range(first, node.body[0].lineno))
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            lines.difference_update(range(node.lineno, node.end_lineno + 1))
        if isinstance(node, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return lines


def ranges(missed: list[int], lines: list[int]) -> str:
    """``missed`` as runs of consecutive entries of ``lines``, "a-b" or "a"."""
    index = {line: n for n, line in enumerate(lines)}
    runs: list[list[int]] = []
    for line in missed:
        if runs and index[line] == index[runs[-1][-1]] + 1:
            runs[-1][-1] = line
        else:
            runs.append([line, line])
    return ", ".join(f"{a}" if a == b else f"{a}-{b}" for a, b in runs)


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(PACKAGE.parent))
    modules = {str(path): path.name for path in sorted(PACKAGE.glob("*.py"))}
    # read before the run, so that a module edited during it is listed as it ran
    sources = {path: Path(path).read_text(encoding="utf-8") for path in modules}
    hits: dict[str, set[int]] = {name: set() for name in modules.values()}
    names: dict[str, str | None] = {}  # a code object's filename -> its module, or None

    def local(frame, event, arg):
        if event == "line":
            hits[names[frame.f_code.co_filename]].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in names:
            names[filename] = modules.get(os.path.realpath(filename))
        return local if names[filename] else None

    class Rearm:
        @pytest.hookimpl(tryfirst=True)
        def pytest_runtest_protocol(self, item, nextitem):
            sys.settrace(tracer)

    sys.settrace(tracer)
    try:
        code = pytest.main(argv, plugins=[Rearm()])
    finally:
        sys.settrace(None)
    print(f"\nlines of src/confalg that never ran under pytest {' '.join(argv)}".rstrip())
    print("(child processes are not traced, so what only they run is listed too):")
    for path, name in modules.items():
        lines = sorted(executable_lines(sources[path], path))
        missed = [line for line in lines if line not in hits[name]]
        print(f"  {name}: {ranges(missed, lines) if missed else 'none'}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
