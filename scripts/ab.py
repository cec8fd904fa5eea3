"""Paired A/B runs of perfbench: a base revision against this checkout.

Makes two fresh copies under ``.perfbench_work/``: the committed files
of ``--base`` (``git archive``), and the working tree's files as they are
on disk (the head: tracked files plus untracked ones that are not
ignored).  Neither copy holds bytecode that the other lacks.  Then runs
``perfbench/run.py`` alternately in the two copies, ``--pairs`` times
(10 by default):
the base runs first in odd pairs, the head first in even ones.  Each side
runs its own perfbench.  A run that is not ``correct: true`` stops the
comparison, and so does a pair whose ``outputs`` hash lines differ.  The
copies are removed afterwards.

Every run lasts ``BENCHMARK.json``'s ``run_seconds``.  Results are merged
into ``BENCH_<n>.json`` at the repo root, one entry per workload and seed:
the base and head ids with the line count of each one's ``src/**/*.py``
(as ``wc -l`` counts it), the seed, the run conditions (``python``,
``cpus`` and ``bytecode_written``, false when the environment the stage
processes inherit sets ``PYTHONDONTWRITEBYTECODE``, so that every stage
process compiles the package), each run's end-to-end values, and per
metric the medians, quartiles, the pairs the head won, ``sign_p`` (the
exact two-sided sign-test p-value over the pairs with a strict winner,
1.0 when none has one) and a verdict.  A gain is shown when the head wins at least nine tenths of the pairs (ties
count for neither) and the medians differ by more than the base's
interquartile range.  The verdict reads the metric's ``bound`` as a share
of the base median: ``gain`` when a gain is shown; ``regression`` when the
head median is worse by more than the bound and the base interquartile
range is within it; ``unresolved`` when that range exceeds the bound,
unless every head run beats every base run; ``no change`` otherwise.  The head is identified by ``tree_digest``, a digest of its
``src/`` and ``perfbench/``: an uncommitted change has no commit id yet,
so a dirty head records the commit it sits on as ``parent_commit``.  All
workloads in one file must measure the same base commit and head tree.
Run from the repo root:

    python3 scripts/ab.py --base HEAD --workload catalog --seed 7 --bench 12
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".perfbench_work"


class AbError(RuntimeError):
    """A run or pair that cannot be compared."""


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def head_identity() -> dict:
    """The working tree: a digest of ``src/`` and ``perfbench/`` as they
    are on disk, and its commit, or its parent commit if it has changes."""
    digest = hashlib.sha256()
    for base in (ROOT / "src", ROOT / "perfbench"):
        for path in sorted(base.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    dirty = bool(_git("status", "--porcelain", "--", "src", "perfbench"))
    commit_key = "parent_commit" if dirty else "commit"
    return {commit_key: _git("rev-parse", "HEAD"), "tree_digest": digest.hexdigest()}


def src_lines(checkout: Path) -> int:
    """Lines of ``src/**/*.py`` in a checkout, counted as ``wc -l`` does."""
    return sum(path.read_bytes().count(b"\n") for path in (checkout / "src").rglob("*.py"))


def run_conditions(env=os.environ) -> dict:
    """The interpreter version and CPU count perfbench runs with, and
    whether its stage processes, which inherit ``env``, write bytecode."""
    return {
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "bytecode_written": not env.get("PYTHONDONTWRITEBYTECODE"),
    }


def _fresh(directory: Path) -> Path:
    if directory.exists():
        shutil.rmtree(directory)
    directory.mkdir(parents=True)
    return directory


def snapshot_worktree(dest: Path, root: Path = ROOT) -> None:
    """Copy the files of ``root``'s working tree as they are on disk into
    ``dest``: tracked files and untracked ones that are not ignored."""
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=root, check=True, capture_output=True,
    ).stdout
    for name in filter(None, os.fsdecode(listed).split("\0")):
        if (root / name).is_file():  # a tracked file deleted on disk is listed too
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(root / name, dest / name)


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[dict, str]:
    """One perfbench run: its end-to-end metrics and its outputs line."""
    argv = [
        sys.executable, "perfbench/run.py",
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise AbError(f"{checkout}: no result (exit {proc.returncode}): {proc.stderr[-2000:]}") from None
    if result.get("correct") is not True:
        raise AbError(f"{checkout}: run is not correct: {proc.stderr[-2000:]}")
    outputs = [line for line in lines if line.startswith("outputs ")]
    if len(outputs) != 1:
        raise AbError(f"{checkout}: expected one outputs line, got {len(outputs)}")
    return {name: m["value"] for name, m in result["metrics"].items()}, outputs[0]


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def sign_p(won: int, lost: int) -> float:
    """Exact two-sided sign-test p-value of ``won`` against ``lost`` pairs
    (ties already dropped); 1.0 when no pair has a winner."""
    n = won + lost
    tail = sum(math.comb(n, k) for k in range(min(won, lost) + 1)) / 2**n
    return min(1.0, 2 * tail)


def _verdict(base: list[float], head: list[float], sign: int, bound: float, gain_shown: bool) -> str:
    allowed = bound * abs(statistics.median(base))
    q1, q3 = _quartiles(base)
    if gain_shown:
        return "gain"
    if sign * (statistics.median(head) - statistics.median(base)) > allowed and q3 - q1 <= allowed:
        return "regression"
    if q3 - q1 > allowed and not all(sign * (b - h) > 0 for b in base for h in head):
        return "unresolved"
    return "no change"


def summarize(base_runs: list[dict], head_runs: list[dict], declared: list[dict]) -> dict:
    """Medians, quartiles, pairs won and a verdict for every declared
    end-to-end metric."""
    out = {}
    for spec in declared:
        name = spec["name"]
        base = [run[name] for run in base_runs]
        head = [run[name] for run in head_runs]
        sign = 1 if spec["better"] == "lower" else -1
        won = sum(sign * (b - h) > 0 for b, h in zip(base, head))
        lost = sum(sign * (b - h) < 0 for b, h in zip(base, head))
        base_q = _quartiles(base)
        base_median, head_median = statistics.median(base), statistics.median(head)
        gain_shown = won >= 0.9 * len(base) and sign * (base_median - head_median) > base_q[1] - base_q[0]
        out[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "base": base,
            "head": head,
            "base_median": base_median,
            "base_quartiles": base_q,
            "head_median": head_median,
            "head_quartiles": _quartiles(head),
            "change": (head_median - base_median) / base_median if base_median else None,
            "head_won": won,
            "head_lost": lost,
            "sign_p": sign_p(won, lost),
            "gain_shown": gain_shown,
            "verdict": _verdict(base, head, sign, spec["bound"], gain_shown),
        }
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description="paired perfbench runs, base against head")
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--bench", type=int, required=True, help="writes BENCH_<n>.json")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = declared["run_seconds"]
    base_commit = _git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    head = head_identity()
    out_path = ROOT / f"BENCH_{args.bench}.json"
    bench = json.loads(out_path.read_text(encoding="utf-8")) if out_path.exists() else {}
    if bench and (bench["base"]["commit"], bench["head"]["tree_digest"]) != (
        base_commit, head["tree_digest"]
    ):
        print(f"error: {out_path.name} measures another base or head", file=sys.stderr)
        return 2

    base_dir = _fresh(WORK / f"ab-base-{base_commit[:12]}")
    head_dir = _fresh(WORK / f"ab-head-{head['tree_digest'][:12]}")
    archive = subprocess.run(
        ["git", "archive", base_commit], cwd=ROOT, check=True, capture_output=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(base_dir, filter="data")
    snapshot_worktree(head_dir)
    lines = {"base": src_lines(base_dir), "head": src_lines(head_dir)}
    try:
        base_runs, head_runs, order = [], [], []
        for pair in range(1, args.pairs + 1):
            sides = ("base", "head") if pair % 2 else ("head", "base")
            outputs = {}
            for side in sides:
                checkout = base_dir if side == "base" else head_dir
                values, outputs[side] = run_once(checkout, args.workload, args.seed, seconds)
                (base_runs if side == "base" else head_runs).append(values)
                print(f"pair {pair} {side}: " + " ".join(
                    f"{spec['name']}={values[spec['name']]:.4g}" for spec in declared["end_to_end"]
                ), file=sys.stderr, flush=True)
            if outputs["base"] != outputs["head"]:
                raise AbError(f"pair {pair}: outputs differ: {outputs['base']} / {outputs['head']}")
            order.append(list(sides))
    except AbError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(base_dir)
        shutil.rmtree(head_dir)

    bench["base"] = {"rev": args.base, "commit": base_commit, "src_lines": lines["base"]}
    bench["head"] = {**head, "src_lines": lines["head"]}
    bench.setdefault("workloads", {})[f"{args.workload}:{args.seed}"] = {
        "seed": args.seed,
        "seconds": seconds,
        "pairs": args.pairs,
        "order": order,
        "outputs": outputs["head"].split()[1:],
        **run_conditions(),
        "metrics": summarize(base_runs, head_runs, declared["end_to_end"]),
    }
    out_path.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out_path.name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
