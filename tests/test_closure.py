"""What a run stage writes, ``evaluate`` reads back.

A seeded mutation test over both arms' golden replies: each mutant is
parsed as ``run-position``/``run-transition`` parse a reply, every kept
item goes through ``to_row`` -> JSON -> ``from_row`` as it does between
``outcomes.jsonl`` and ``evaluate``, and must come back equal.  Every
stored reactant text must parse, or ``evaluate`` refuses the whole run.
The same mutants check that the canonical-text cache the transition parser
reads reply texts through changes no outcome.
"""

from __future__ import annotations

import json
import random

import pytest

from helpers import golden_fixture_dir

from retroanchor.chem import canon, parse_smiles
from retroanchor.datasets import build_ontology, ingest_dataset
from retroanchor.outputs import from_row, parse_position_output, parse_transition_output, to_row

CASES = 1500

# Spliced into a string: SMILES syntax, a mapped atom, and JSON syntax.
TOKENS = (".", "..", "(", ")", "=", "#", "1", "%10", "[", "]", "C", "c", "N", "[C:1]", "*", "@", "/", ":", '"', ",", "{")
# Put in place of a decoded value.
VALUES = (None, True, False, 0, 3, -1, 2.5, "", ".", "x", [], {}, ["C"], [1, 2])


def _mutate_string(text: str, rng: random.Random) -> str:
    """``text`` with a random slice replaced by a token, or deleted."""
    i = rng.randint(0, len(text))
    j = rng.randint(i, len(text))
    return text[:i] + rng.choice(("", *TOKENS)) + text[j:]


def _mutate_value(value, rng: random.Random):
    """A copy of the decoded ``value`` with one leaf changed or one key dropped."""
    if isinstance(value, dict) and value:
        key = rng.choice(sorted(value))
        if rng.random() < 0.1:
            return {k: v for k, v in value.items() if k != key}
        return {**value, key: _mutate_value(value[key], rng)}
    if isinstance(value, list) and value:
        i = rng.randrange(len(value))
        return [*value[:i], _mutate_value(value[i], rng), *value[i + 1:]]
    if isinstance(value, str) and rng.random() < 0.8:
        return _mutate_string(value, rng)
    return rng.choice(VALUES)


def mutate(raw: str, rng: random.Random) -> str:
    """One to three edits of a reply's JSON object, then maybe one of its raw
    text; a reply without an object gets the text edit only."""
    start, end = raw.find("{"), raw.rfind("}") + 1
    if start < 0:
        return _mutate_string(raw, rng)
    value = json.loads(raw[start:end])
    for _ in range(rng.randint(1, 3)):
        value = _mutate_value(value, rng)
    text = raw[:start] + json.dumps(value) + raw[end:]
    if rng.random() < 0.2:
        text = _mutate_string(text, rng)
    return text


def _assert_closed(parsed) -> int:
    for item in parsed.ok:
        row = json.loads(json.dumps(to_row(item)))
        assert from_row(type(item), row) == item
        for text in getattr(item, "reactants", ()):
            parse_smiles(text)
    return len(parsed.ok)


@pytest.fixture(scope="module")
def golden():
    fixture_dir = golden_fixture_dir()
    records, _ = ingest_dataset(fixture_dir / "eval_raw.jsonl")
    train, _ = ingest_dataset(fixture_dir / "train.jsonl", parse=False)
    replies = {
        arm: json.loads((fixture_dir / "completions" / f"{arm}.json").read_text())
        for arm in ("position", "transition")
    }
    return {r.record_id: r for r in records}, build_ontology(train, "train"), replies


def test_position_items_survive_write_then_read(golden):
    by_id, ontology, replies = golden
    rng = random.Random(26)
    ids = sorted(replies["position"])
    kept = 0
    for _ in range(CASES):
        rid = rng.choice(ids)
        raw = mutate(replies["position"][rid], rng)
        kept += _assert_closed(parse_position_output(raw, by_id[rid].product, ontology))
    assert kept > CASES // 10  # enough mutants leave items to check


def test_transition_items_survive_write_then_read(golden):
    _by_id, _ontology, replies = golden
    rng = random.Random(26)
    ids = sorted(replies["transition"])
    kept = 0
    for _ in range(CASES):
        raw = mutate(replies["transition"][rng.choice(ids)], rng)
        kept += _assert_closed(parse_transition_output(raw))
    assert kept > CASES // 10


# One text kept under ``is_template: true``, then dropped as a wildcard where
# it is not; one unparsable text, repeated.
MEMO_CASES = (
    json.dumps({"reaction_analysis": [{"forward_reaction_name": "X", "reactant_permutations": [
        {"reactants": ["[*][CH2:1]O"], "is_valid": True, "is_template": True},
        {"reactants": ["CC", "[*][CH2:1]O"], "is_valid": True, "is_template": False},
    ]}]}),
    json.dumps({"reaction_analysis": [{"forward_reaction_name": "X", "reactant_permutations": [
        {"reactants": ["CC", "C1CC("], "is_valid": True, "is_template": False},
        {"reactants": ["C1CC("], "is_valid": True, "is_template": False},
    ]}]}),
)


def test_transition_memo_changes_no_outcome(golden, monkeypatch):
    """Every mutant parses to an equal outcome from an empty cache and from
    one warmed by all the replies before it, and again from the cache its
    own parse filled: the same items, the same drops in the same order,
    the same failure class.  The cache holds strings only."""
    _by_id, _ontology, replies = golden
    rng = random.Random(27)
    ids = sorted(replies["transition"])
    raws = [*MEMO_CASES, *(mutate(replies["transition"][rng.choice(ids)], rng) for _ in range(CASES))]
    warm: dict = {}
    for raw in [*raws, *MEMO_CASES]:
        monkeypatch.setattr(canon, "_CANONICAL_TEXTS", {})
        cold = parse_transition_output(raw)
        monkeypatch.setattr(canon, "_CANONICAL_TEXTS", warm)
        assert parse_transition_output(raw) == cold
        assert parse_transition_output(raw) == cold
    assert len(warm) > 20
    assert all(type(t) is str and type(c) is str for (t, _maps, _stereo), c in warm.items())

    template_then_wildcard, repeated_unparsable = (parse_transition_output(raw) for raw in MEMO_CASES)
    assert [p.is_template for p in template_then_wildcard.ok] == [True]
    assert [d["reason"] for d in template_then_wildcard.dropped] == ["wildcard atom in non-template prediction"]
    reasons = [d["reason"] for d in repeated_unparsable.dropped]
    assert len(reasons) == 2 and reasons[0] == reasons[1] and reasons[0].startswith("syntactically invalid SMILES")
