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

With ``--pipelines`` it instead lists each line the suite runs but no
real pipeline does, which shows whether code serves any traffic.  The
pipelines are perfbench's ``catalog``, ``drug`` and ``live`` workloads
at seeds 7 and 11 (``setup``, then the seven stages in-process, ``live``
against perfbench's loopback stub) and the golden pipeline of
``tests/helpers.py``, in a temporary directory.  They run under the same
hook in a forked process, before the suite has warmed any cache.  This
mode is a report, not a gate: it exits 0.
"""

from __future__ import annotations

import ast
import contextlib
import dis
import importlib.util
import multiprocessing
import os
import sys
import tempfile
import threading
import types
from concurrent.futures import ProcessPoolExecutor
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


def pipeline_lines() -> set[tuple[str, int]]:
    """(file, line) of each ``src/`` line the benchmark's pipelines and the
    golden pipeline reach.  The environment is set as ``perfbench/run.py``
    sets it for its stages."""
    os.environ.pop("RETROANCHOR_TEMPLATE_DIR", None)
    os.environ["RETROANCHOR_API_KEY"] = "perfbench-key"
    os.environ["NO_PROXY"] = os.environ["no_proxy"] = "127.0.0.1"
    with tempfile.TemporaryDirectory() as tmp, reached_lines() as reached:  # module bodies count too
        spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
        bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench)
        sys.path.insert(0, str(ROOT / "tests"))
        from helpers import run_golden_pipeline

        for name in ("catalog", "drug", "live"):
            for seed in (7, 11):
                work = Path(tmp) / f"{name}-{seed}"
                inputs = work / "inputs"
                wl = bench.setup(name, seed, inputs)
                stub = bench.Stub(inputs / "table.json") if wl.spec.live else None
                try:
                    cache = work / "cache" if stub else inputs / "cache"
                    for stage, argv in bench.stage_argvs(wl, inputs, work, cache, stub and stub.endpoint):
                        if bench.run_stage_inprocess(argv) != 0:
                            raise RuntimeError(f"{name} seed {seed}: stage {stage} failed")
                finally:
                    if stub:
                        stub.stop()
        run_golden_pipeline(Path(tmp) / "golden")
    return reached


def listing(keep) -> list[str]:
    """``path:line: text`` of each executable ``src/`` line where ``keep(file, line)``."""
    lines = []
    for path in sorted(SRC.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        numbers = executable_lines(compile(source, str(path), "exec")) - skipped_lines(ast.parse(source))
        text = source.splitlines()
        lines += [
            f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}"
            for line in sorted(numbers)
            if keep(str(path), line)
        ]
    return lines


def run_suite() -> tuple[set[tuple[str, int]], int]:
    """The lines the tier-1 suite reaches, run in this process, and its exit status."""
    import pytest

    with reached_lines() as reached:
        status = pytest.main(["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"])
    return reached, status


def main(argv: list[str]) -> int:
    if argv not in ([], ["--pipelines"]):
        print("usage: python3 scripts/untested_lines.py [--pipelines]", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    if argv:
        with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork")) as pool:
            served = pool.submit(pipeline_lines)  # forks now, before the suite imports anything
            tier1 = run_suite()[0]
            served = served.result()
        lines = listing(lambda path, line: (path, line) in tier1 and (path, line) not in served)
        print("\n".join([*lines, f"{len(lines)} src/ lines run by tier-1 and by no pipeline"]))
        return 0
    reached, status = run_suite()
    missed = listing(lambda path, line: (path, line) not in reached)
    print("\n".join(missed) if missed else "every src/ line ran")
    return 1 if missed or status != 0 else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
