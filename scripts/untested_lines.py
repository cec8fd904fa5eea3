"""List the lines of src/ that the tier-1 test suite never executes.

Runs the tier-1 command (``pytest -q --continue-on-collection-errors``)
in this process under a stdlib ``sys.settrace`` hook, set on every
thread, and prints each executable ``src/`` line that no test reached,
as ``path:line: text``.  The bodies of ``if TYPE_CHECKING:`` and
``if __name__ == "__main__":`` are skipped: neither runs on import.
Lines reached only from a subprocess a test starts count as unreached.

The hook traces lines only in frames of ``src/`` files.  The stdlib
``trace`` module cannot be limited that way: its ignore list is keyed by
file basename, so an ignored stdlib ``utils.py`` hides ours, and without
one it traces every line of pytest too, several times slower.

Exits 1 if any line is left or the suite fails, else 0.  It takes about
three times as long as the suite itself.  Run from anywhere in the checkout:

    python3 scripts/untested_lines.py
"""

from __future__ import annotations

import ast
import contextlib
import dis
import os
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def executable_lines(code) -> set[int]:
    lines = {line for _, line in dis.findlinestarts(code) if line}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= executable_lines(const)
    return lines


def skipped_lines(tree: ast.Module) -> set[int]:
    """Lines inside ``if TYPE_CHECKING:`` and ``if __name__ == "__main__":``."""
    skipped: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.If) and ast.unparse(node.test) in ("TYPE_CHECKING", "__name__ == '__main__'"):
            skipped.update(range(node.body[0].lineno, node.body[-1].end_lineno + 1))
    return skipped


@contextlib.contextmanager
def reached_lines():
    """Yield the set that collects (file, line) of each ``src/`` line
    executed on any thread inside the block."""
    reached: set[tuple[str, int]] = set()
    prefix = str(SRC) + os.sep

    def on_line(frame, event, arg):
        if event == "line":
            reached.add((frame.f_code.co_filename, frame.f_lineno))
        return on_line

    def on_call(frame, event, arg):
        return on_line if frame.f_code.co_filename.startswith(prefix) else None

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        yield reached
    finally:
        sys.settrace(None)
        threading.settrace(None)


def main() -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    import pytest

    with reached_lines() as reached:
        status = pytest.main(["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"])

    missed = []
    for path in sorted(SRC.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = executable_lines(compile(source, str(path), "exec")) - skipped_lines(ast.parse(source))
        text = source.splitlines()
        missed += [
            f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}"
            for line in sorted(lines)
            if (str(path), line) not in reached
        ]
    print("\n".join(missed) if missed else "every src/ line ran")
    return 1 if missed or status != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
