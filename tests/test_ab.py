"""``scripts/ab.py``: the paired A/B summary (pairs won, quartiles, the
sign test, when a gain counts as shown and each metric's verdict), its
default of ten pairs, the run conditions it records and the head's
snapshot of a working tree.  No perfbench process runs."""

from __future__ import annotations

import importlib.util
import os
import platform
import subprocess
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "ab", Path(__file__).resolve().parents[1] / "scripts" / "ab.py"
)
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)

LOWER = [{"name": "t_s", "unit": "s", "better": "lower", "bound": 0.25}]
HIGHER = [{"name": "hit", "unit": "ratio", "better": "higher", "bound": 0.25}]

# Ten base runs: median 1.0, quartiles 0.9825 and 1.0175 (IQR 0.035).
BASE = [0.95, 0.96, 0.98, 0.99, 1.0, 1.0, 1.01, 1.02, 1.04, 1.05]


def _summary(base: list[float], head: list[float], declared=LOWER) -> dict:
    name = declared[0]["name"]
    return ab.summarize([{name: v} for v in base], [{name: v} for v in head], declared)[name]


def test_nine_of_ten_wins_with_a_gap_above_the_iqr_is_shown():
    head = [v - 0.1 for v in BASE[:9]] + [BASE[9] + 0.01]
    out = _summary(BASE, head)
    assert (out["head_won"], out["head_lost"]) == (9, 1)
    assert out["base_median"] == 1.0
    assert out["base_quartiles"] == pytest.approx([0.9825, 1.0175])
    assert out["gain_shown"] is True
    assert out["verdict"] == "gain"


def test_eight_of_ten_wins_is_not_shown():
    head = [v - 0.1 for v in BASE[:8]] + [v + 0.01 for v in BASE[8:]]
    out = _summary(BASE, head)
    assert (out["head_won"], out["head_lost"]) == (8, 2)
    assert out["gain_shown"] is False
    assert out["verdict"] == "no change"


def test_every_pair_won_by_less_than_the_iqr_is_not_shown():
    out = _summary(BASE, [v - 0.03 for v in BASE])
    assert out["head_won"] == 10
    assert 1.0 - out["head_median"] == pytest.approx(0.03)
    assert out["gain_shown"] is False


def test_ties_count_for_neither_side():
    nine = _summary(BASE, [v - 0.1 for v in BASE[:9]] + BASE[9:])
    assert (nine["head_won"], nine["head_lost"]) == (9, 0)
    assert nine["gain_shown"] is True
    eight = _summary(BASE, [v - 0.1 for v in BASE[:8]] + BASE[8:])
    assert (eight["head_won"], eight["head_lost"]) == (8, 0)
    assert eight["gain_shown"] is False


def test_higher_is_better_flips_the_sign():
    out = _summary(BASE, [v + 0.1 for v in BASE], HIGHER)
    assert (out["head_won"], out["head_lost"]) == (10, 0)
    assert out["gain_shown"] is True
    assert out["verdict"] == "gain"
    assert _summary(BASE, [v * 0.7 for v in BASE], HIGHER)["verdict"] == "regression"
    assert _summary(BASE, [v - 0.1 for v in BASE], HIGHER)["head_lost"] == 10


def test_a_single_run_has_its_value_as_both_quartiles():
    out = _summary([2.0], [1.5])
    assert out["base_quartiles"] == [2.0, 2.0]
    assert out["head_quartiles"] == [1.5, 1.5]
    assert out["change"] == pytest.approx(-0.25)
    assert out["gain_shown"] is True


def test_identical_runs_are_no_change():
    out = _summary(BASE, list(BASE))
    assert (out["head_won"], out["head_lost"], out["gain_shown"]) == (0, 0, False)
    assert out["verdict"] == "no change"


def test_a_base_spread_wider_than_the_bound_is_unresolved():
    # Interquartile range 0.4 around a median of 1.0, against a 0.25 bound.
    wide = [0.6, 0.7, 0.8, 0.8, 1.0, 1.0, 1.2, 1.2, 1.3, 1.4]
    assert _summary(wide, list(wide))["verdict"] == "unresolved"
    assert _summary(wide, [v * 1.3 for v in wide])["verdict"] == "unresolved"
    # Unless every head run beats every base run: here by less than the
    # base's interquartile range (0.4125), so no gain is shown either.
    skewed = [0.9, 0.9, 0.95, 1.0, 1.0, 1.0, 1.3, 1.4, 1.5, 1.6]
    out = _summary(skewed, [0.85] * 10)
    assert out["gain_shown"] is False
    assert out["verdict"] == "no change"


def test_a_head_slower_by_more_than_the_bound_over_a_tight_base_is_a_regression():
    out = _summary(BASE, [v * 1.3 for v in BASE])
    assert out["change"] == pytest.approx(0.3)
    assert out["verdict"] == "regression"
    # Within the bound it is no change.
    assert _summary(BASE, [v * 1.2 for v in BASE])["verdict"] == "no change"


def test_sign_p_is_the_exact_two_sided_sign_test_over_pairs_with_a_winner():
    assert _summary(BASE, [v - 0.1 for v in BASE])["sign_p"] == 2 / 1024
    assert _summary(BASE, [v + 0.1 for v in BASE])["sign_p"] == 2 / 1024
    nine = _summary(BASE, [v - 0.1 for v in BASE[:9]] + [BASE[9] + 0.01])
    assert nine["sign_p"] == 22 / 1024
    # Ties are dropped: nine wins and one tie is nine of nine.
    assert _summary(BASE, [v - 0.1 for v in BASE[:9]] + BASE[9:])["sign_p"] == 2 / 512
    assert _summary(BASE, list(BASE))["sign_p"] == 1.0
    # Five each way: the doubled tail exceeds 1 and is capped.
    assert ab.sign_p(5, 5) == 1.0


def test_pairs_default_to_ten():
    assert ab.build_parser().parse_args(["--base", "HEAD", "--workload", "drug", "--seed", "7",
                                         "--bench", "1"]).pairs == 10


def test_head_snapshot_is_the_working_tree_without_ignored_files(tmp_path):
    repo, dest = tmp_path / "repo", tmp_path / "snapshot"
    files = {
        ".gitignore": "__pycache__/\n*.log\n",
        "src/pkg/mod.py": "X = 1\n",
        "src/pkg/gone.py": "Y = 2\n",
        "tests/test_mod.py": "",
    }
    for name, text in files.items():
        (repo / name).parent.mkdir(parents=True, exist_ok=True)
        (repo / name).write_text(text)
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@example.org", "-c", "commit.gpgsign=false"]
    for argv in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "seed"]):
        subprocess.run(git + argv, cwd=repo, check=True, capture_output=True)
    (repo / "src/pkg/mod.py").write_text("X = 3  # uncommitted\n")
    (repo / "src/pkg/gone.py").unlink()
    (repo / "src/pkg/new.py").write_text("Z = 4\n")
    (repo / "src/pkg/__pycache__").mkdir()
    (repo / "src/pkg/__pycache__/mod.cpython-311.pyc").write_bytes(b"stale")
    (repo / "run.log").write_text("ignored\n")

    ab.snapshot_worktree(dest, root=repo)
    copied = sorted(str(p.relative_to(dest)) for p in dest.rglob("*") if p.is_file())
    assert copied == [".gitignore", "src/pkg/mod.py", "src/pkg/new.py", "tests/test_mod.py"]
    assert (dest / "src/pkg/mod.py").read_text() == "X = 3  # uncommitted\n"
    assert not (dest / "src/pkg/__pycache__").exists()


def test_src_lines_counts_newlines_of_python_files_under_src(tmp_path):
    files = {
        "src/a.py": "x = 1\ny = 2\n",
        "src/pkg/b.py": "z = 3\n\nw = 4",  # wc -l counts no unterminated last line
        "src/pkg/notes.txt": "not\ncode\n",
        "tests/test_a.py": "assert True\n",
    }
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    assert ab.src_lines(tmp_path) == 4


def test_run_conditions_name_the_interpreter_the_cpus_and_bytecode_writing():
    written = ab.run_conditions({})
    assert written == {"python": platform.python_version(), "cpus": os.cpu_count(), "bytecode_written": True}
    assert ab.run_conditions({"PYTHONDONTWRITEBYTECODE": "1"})["bytecode_written"] is False
    assert ab.run_conditions({"PYTHONDONTWRITEBYTECODE": ""})["bytecode_written"] is True  # as Python reads it
