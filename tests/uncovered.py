"""Print each src/ptobs statement that no tier-1 test executes.

Runs the tier-1 suite in this process under a sys.settrace line collector
limited to src/ptobs (coverage.py is not a dependency), then prints, as
path:line, every statement of the package's modules that the suite never
reached.  Statements come from each module's AST; docstrings, def, class
and import lines, and the body of an `if __name__ == "__main__":` block
(it runs only in a child process, which this tracer cannot see) are
skipped.  A statement counts as reached when any line of it ran: the whole
of a simple statement, the header of a compound one.  Takes about twice as
long as plain tier-1.  Not collected by pytest:

    PYTHONPATH=src python tests/uncovered.py [pytest args]

Extra arguments go to pytest (default: -q -p no:cacheprovider tests).  Exits
with pytest's status, so a failing suite is not read as a coverage result.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ptobs"
_SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom)


def statements(source: str) -> dict[int, range]:
    """First line -> the lines that count as running it, per statement."""
    out, tree = {}, ast.parse(source)
    guarded = {
        id(inner) for node in ast.walk(tree)
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
        for stmt in node.body for inner in ast.walk(stmt)
    }
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, _SKIPPED) or id(node) in guarded:
            continue
        if isinstance(node, ast.Expr) and isinstance(getattr(node.value, "value", None), str):
            continue  # a docstring (or another bare string) runs no code
        body = getattr(node, "body", None)
        end = node.end_lineno if not body else max(node.lineno, body[0].lineno - 1)
        out[node.lineno] = range(node.lineno, end + 1)
    return out


def run_traced(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit status over args, and the lines run per file under PACKAGE."""
    prefix, hits = str(PACKAGE), {}

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        lines = hits.setdefault(name, set())

        def line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return line

        return line

    sys.settrace(trace)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
    return int(status), hits


def main(argv: list[str]) -> int:
    status, hits = run_traced(argv or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    for path in sorted(PACKAGE.glob("*.py")):
        ran = hits.get(str(path), set())
        for first, lines in sorted(statements(path.read_text()).items()):
            if ran.isdisjoint(lines):
                print(f"{path.relative_to(ROOT)}:{first}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
