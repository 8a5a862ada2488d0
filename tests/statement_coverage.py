"""List the statements of ``src/flagmn`` that ``pytest tests`` never runs.

Run from the repository root:

    python tests/statement_coverage.py

It runs ``pytest tests`` in this process under a stdlib
``sys.settrace`` line tracer, then prints how many ``ast`` statements of
``src/flagmn`` never ran and where they are, one ``path:line: source`` a
line.  Only the pytest process is traced: code run in a subprocess counts
as unrun.  A statement counts as run when any of its lines ran, so a
compound statement runs when its header or any of its body does.
Docstrings, ``global`` / ``nonlocal`` and bare annotations inside a
function compile to no code and are not counted.  Tracing makes the suite
several times slower than an untraced run.

pytest does not collect this file: its name does not match ``test_*.py``.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "flagmn"


def _is_docstring(node: ast.stmt, parent: ast.AST) -> bool:
    return (
        isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and parent.body[0] is node
        and isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def statements(source: str) -> list[tuple[int, int]]:
    """The (first line, last line) of every statement that compiles to code.

    The first line of a decorated definition is its first decorator's.
    """
    out = []

    def visit(parent: ast.AST, in_function: bool) -> None:
        for node in ast.iter_child_nodes(parent):
            if isinstance(node, ast.stmt) and not (
                _is_docstring(node, parent)
                or isinstance(node, (ast.Global, ast.Nonlocal))
                or (isinstance(node, ast.AnnAssign) and node.value is None and in_function)
            ):
                decorators = getattr(node, "decorator_list", [])
                first = min([node.lineno] + [d.lineno for d in decorators])
                out.append((first, node.end_lineno))
            inner = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(node, in_function or inner)

    visit(ast.parse(source), False)
    return out


def unrun(source: str, ran: set[int]) -> list[int]:
    """The first lines of the statements none of whose lines is in ``ran``."""
    return [
        first
        for first, last in statements(source)
        if not any(line in ran for line in range(first, last + 1))
    ]


def _trace() -> tuple[int, dict[str, set[int]]]:
    """Run ``pytest tests`` under the line tracer; (exit code, lines run by file)."""
    prefix = str(PACKAGE) + "/"
    ran: dict[str, set[int]] = {}
    tracers: dict[str, object] = {}

    def local_for(lines: set[int]):
        add = lines.add

        def local(frame, event, arg):
            add(frame.f_lineno)
            return local

        return local

    def global_trace(frame, event, arg):
        name = frame.f_code.co_filename
        tracer = tracers.get(name)
        if tracer is None and name.startswith(prefix):
            tracer = tracers[name] = local_for(ran.setdefault(name, set()))
        return tracer

    sys.path.insert(0, str(SRC))
    threading.settrace(global_trace)
    sys.settrace(global_trace)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return code, ran


def main() -> int:
    code, ran = _trace()
    total = 0
    missed = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        total += len(statements(source))
        for first in unrun(source, ran.get(str(path), set())):
            missed.append(f"{path.relative_to(ROOT)}:{first}: {lines[first - 1].strip()}")
    print(f"{len(missed)} of {total} statements in src/flagmn never run")
    print("\n".join(missed))
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
