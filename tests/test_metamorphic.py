"""Metamorphic relations over the golden pipeline.

Inputs that mean the same thing to the harness must give the same
prompts, digests and reports; no model and no oracle output is needed.
Each relation builds a source input from the golden fixture rows, then a
follow-up from the source, both with transforms from ``helpers``; it runs
the whole replayed pipeline on each and names the artifacts that must
come out byte-identical and those that must hold the same lines in any
order.
"""

from __future__ import annotations

import random

import pytest

from helpers import (
    add_reagents,
    golden_fixture_dir,
    respell_a_name,
    respell_atom_order,
    reverse_reagents,
    reverse_rows,
    run_golden_pipeline,
    shuffle_rows,
)

from retroanchor.utils import read_jsonl, write_jsonl

REPORTS = tuple(
    f"run_{arm}/report/{name}"
    for arm in ("position", "transition")
    for name in ("report.json", "rows.csv", "confusion_class.csv", "confusion_name.csv", "summary.txt")
)
RUN_LINES = tuple(
    f"run_{arm}/{name}.jsonl" for arm in ("position", "transition") for name in ("outcomes", "manifest")
)


def unchanged(eval_rows, train_rows, rng):
    return eval_rows, train_rows


# name: (source transform, follow-up transform,
#        artifacts byte-identical, artifacts equal as sets of lines)
RELATIONS = {
    "row order": (unchanged, shuffle_rows, (*REPORTS, "ontology.json"), RUN_LINES),
    "row order, a name spelled two ways": (
        respell_a_name, reverse_rows, (*REPORTS, "ontology.json"), RUN_LINES,
    ),
    # Manifests carry the request digests.
    "mapped atom order": (unchanged, respell_atom_order, (*REPORTS, *RUN_LINES), ()),
    "reagent order": (add_reagents, reverse_reagents, (*REPORTS, *RUN_LINES, "ontology.json"), ()),
}


@pytest.mark.parametrize("name", list(RELATIONS))
def test_relation_holds(name, tmp_path):
    source, follow_up, identical, same_lines = RELATIONS[name]
    rng = random.Random(1)
    golden = [read_jsonl(golden_fixture_dir() / f) for f in ("eval_raw.jsonl", "train.jsonl")]
    source_rows = source(*golden, rng)
    follow_up_rows = follow_up(*source_rows, rng)
    assert follow_up_rows != source_rows

    works = []
    for tag, (eval_rows, train_rows) in (("source", source_rows), ("follow_up", follow_up_rows)):
        work = tmp_path / tag
        write_jsonl(work / "eval_raw.jsonl", eval_rows)
        write_jsonl(work / "train.jsonl", train_rows)
        run_golden_pipeline(work, work / "eval_raw.jsonl", work / "train.jsonl")
        works.append(work)

    first, second = works
    for path in identical:
        assert (first / path).read_bytes() == (second / path).read_bytes(), path
    for path in same_lines:
        lines = [sorted((work / path).read_text(encoding="utf-8").splitlines()) for work in works]
        assert lines[0] == lines[1], path
