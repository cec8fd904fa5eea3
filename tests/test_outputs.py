"""Tests for model-output parsing and salvage behavior."""

from __future__ import annotations

import json

import pytest

from retroanchor.chem import parse_smiles
from retroanchor.datasets import Ontology, OntologyEntry
from retroanchor.outputs import (
    ALL_ITEMS_INVALID,
    NO_JSON,
    SCHEMA_VIOLATION,
    ParseOutcome,
    extract_json_object,
    parse_center_tokens,
    parse_position_output,
    parse_transition_output,
)

PRODUCT = parse_smiles("CC(C)C(=O)O[C:12](=O)[N:14]([CH3:15])C")
ONTOLOGY = Ontology(
    entries=(
        OntologyEntry(id="Carboxylic acid to amide conversion", reaction_class="Acylation"),
        OntologyEntry(id="Suzuki coupling", reaction_class="C-C Coupling"),
    ),
    source_split="train",
)


def _reaction(name="Carboxylic acid to amide conversion", importance=4, priority=1, **extra):
    reaction = {
        "forwardReaction": name,
        "isInOntology": True,
        "forwardReactionClass": "Acylation",
        "Retrosynthesis Importance": importance,
        "Priority": priority,
        "rationale": "Convergent disconnection of the amide bond.",
    }
    reaction.update(extra)
    return reaction


def _payload(*entries):
    return json.dumps({"disconnections": list(entries)})


class TestExtractJsonObject:
    def test_bare_object(self):
        assert extract_json_object('{"a": 1}') == {"a": 1}

    def test_fenced_with_language_tag(self):
        raw = 'Here you go:\n```json\n{"a": 1}\n```\nDone.'
        assert extract_json_object(raw) == {"a": 1}

    def test_prose_wrapped(self):
        raw = 'The answer is {"a": {"b": 2}} as requested.'
        assert extract_json_object(raw) == {"a": {"b": 2}}

    def test_braces_inside_strings_do_not_confuse(self):
        raw = 'x {"a": "te{xt", "b": "}"} y'
        assert extract_json_object(raw) == {"a": "te{xt", "b": "}"}

    def test_array_root_is_skipped_for_inner_object(self):
        assert extract_json_object('[1, 2] {"a": 1}') == {"a": 1}

    def test_no_object_returns_none(self):
        assert extract_json_object("no json here") is None
        assert extract_json_object("{broken") is None


class TestParseCenterTokens:
    def test_mixed_case_tokens(self):
        product = parse_smiles("[cH:18]1[cH:19][cH:20][cH:21][cH:22][c:23]1[N:17]")
        s = parse_center_tokens("N:17 c:18", product)
        assert s.sorted() == [17, 18]

    def test_malformed_token_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            parse_center_tokens("C12", PRODUCT)

    def test_unresolvable_map_rejected(self):
        with pytest.raises(ValueError, match="99"):
            parse_center_tokens("C:99", PRODUCT)

    def test_empty_string_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            parse_center_tokens("   ", PRODUCT)


class TestParsePositionOutput:
    def test_valid_entry_parsed(self):
        raw = _payload({"disconnection": "C:12 N:14", "reactions": [_reaction()]})
        outcome = parse_position_output(raw, PRODUCT, ONTOLOGY)
        assert not outcome.failed
        (candidate,) = outcome.ok
        assert candidate.s.sorted() == [12, 14]
        assert candidate.reaction_name == "Carboxylic acid to amide conversion"
        assert candidate.importance == 4
        assert candidate.priority == 1
        assert candidate.in_ontology

    def test_envelope_robustness(self):
        bare = _payload({"disconnection": "C:12", "reactions": [_reaction()]})
        wrapped = f"Sure! Here is the analysis:\n```json\n{bare}\n```\nLet me know."
        a = parse_position_output(bare, PRODUCT, ONTOLOGY)
        b = parse_position_output(wrapped, PRODUCT, ONTOLOGY)
        assert a.ok == b.ok

    def test_no_braces_is_no_json(self):
        outcome = parse_position_output("I cannot help with that.", PRODUCT, ONTOLOGY)
        assert outcome.failed
        assert outcome.failure_class == NO_JSON

    def test_wrong_root_is_schema_violation(self):
        outcome = parse_position_output('{"results": []}', PRODUCT, ONTOLOGY)
        assert outcome.failure_class == SCHEMA_VIOLATION
        assert outcome.dropped[0]["reason"].startswith("root key")

    def test_empty_disconnections_means_all_items_invalid(self):
        outcome = parse_position_output(_payload(), PRODUCT, ONTOLOGY)
        assert outcome.failed
        assert outcome.failure_class == ALL_ITEMS_INVALID

    def test_unresolvable_map_salvages_other_entries(self):
        raw = _payload(
            {"disconnection": "C:99", "reactions": [_reaction()]},
            {"disconnection": "C:12 N:14", "reactions": [_reaction()]},
        )
        outcome = parse_position_output(raw, PRODUCT, ONTOLOGY)
        assert len(outcome.ok) == 1
        assert outcome.ok[0].s.sorted() == [12, 14]
        assert any("99" in d["reason"] for d in outcome.dropped)

    def test_importance_out_of_range_dropped(self):
        raw = _payload({"disconnection": "C:12", "reactions": [_reaction(importance=5)]})
        outcome = parse_position_output(raw, PRODUCT, ONTOLOGY)
        assert outcome.failed
        assert "importance" in outcome.dropped[0]["reason"]

    @pytest.mark.parametrize("field", ["importance", "priority"])
    def test_boolean_importance_or_priority_dropped(self, field):
        # JSON true is no integer, though Python's bool subclasses int.
        raw = _payload({"disconnection": "C:12", "reactions": [_reaction(**{field: True})]})
        outcome = parse_position_output(raw, PRODUCT, ONTOLOGY)
        assert outcome.failed
        assert field in outcome.dropped[0]["reason"]

    def test_nonpositive_priority_dropped(self):
        raw = _payload({"disconnection": "C:12", "reactions": [_reaction(priority=0)]})
        outcome = parse_position_output(raw, PRODUCT, ONTOLOGY)
        assert outcome.failed
        assert "priority" in outcome.dropped[0]["reason"]

    def test_empty_reaction_list_dropped(self):
        raw = _payload({"disconnection": "C:12", "reactions": []})
        outcome = parse_position_output(raw, PRODUCT, ONTOLOGY)
        assert outcome.failure_class == ALL_ITEMS_INVALID

    def test_in_ontology_recomputed_not_trusted(self):
        raw = _payload(
            {
                "disconnection": "C:12",
                "reactions": [_reaction(name="Rare macrolactonization")],
            }
        )
        outcome = parse_position_output(raw, PRODUCT, ONTOLOGY)
        (candidate,) = outcome.ok
        assert candidate.claimed_in_ontology is True
        assert candidate.in_ontology is False

    def test_ontology_match_ignores_case_and_spacing(self):
        raw = _payload(
            {"disconnection": "C:12", "reactions": [_reaction(name="SUZUKI  coupling")]}
        )
        outcome = parse_position_output(raw, PRODUCT, ONTOLOGY)
        assert outcome.ok[0].in_ontology is True

    def test_duplicate_pairs_keep_first_priority(self):
        raw = _payload(
            {"disconnection": "C:12 N:14", "reactions": [_reaction(priority=1)]},
            {"disconnection": "N:14 C:12", "reactions": [_reaction(priority=7)]},
        )
        outcome = parse_position_output(raw, PRODUCT, ONTOLOGY)
        assert len(outcome.ok) == 1
        assert outcome.ok[0].priority == 1
        assert any("duplicate" in d["reason"] for d in outcome.dropped)

    def test_flattening_yields_one_candidate_per_reaction(self):
        raw = _payload(
            {
                "disconnection": "C:12 N:14",
                "reactions": [
                    _reaction(),
                    _reaction(name="Schotten-Baumann reaction", priority=2),
                ],
            }
        )
        outcome = parse_position_output(raw, PRODUCT, ONTOLOGY)
        assert len(outcome.ok) == 2
        assert {c.reaction_name for c in outcome.ok} == {
            "Carboxylic acid to amide conversion",
            "Schotten-Baumann reaction",
        }

    def test_prose_named_reaction_list_key_accepted(self):
        raw = json.dumps(
            {
                "disconnections": [
                    {"disconnection": "C:12", "Reaction": [_reaction()]}
                ]
            }
        )
        outcome = parse_position_output(raw, PRODUCT, ONTOLOGY)
        assert len(outcome.ok) == 1

    def test_salvage_monotonicity(self):
        good = {"disconnection": "C:12 N:14", "reactions": [_reaction()]}
        clean = parse_position_output(_payload(good), PRODUCT, ONTOLOGY)
        noisy = parse_position_output(
            _payload(good, {"disconnection": 42}, "not even a dict"),
            PRODUCT,
            ONTOLOGY,
        )
        assert clean.ok == noisy.ok
        assert len(noisy.dropped) == 2


def _permutation(reactants, is_valid=True, is_template=False, reasoning="ok"):
    return {
        "reactants": reactants,
        "is_valid": is_valid,
        "is_template": is_template,
        "reasoning": reasoning,
    }


def _transition_payload(*groups):
    return json.dumps({"reaction_analysis": list(groups)})


def _group(name="Amide coupling", *permutations):
    return {"forward_reaction_name": name, "reactant_permutations": list(permutations)}


class TestParseTransitionOutput:
    def test_valid_permutation_parsed(self):
        raw = _transition_payload(_group("Amide coupling", _permutation(["CC(=O)O", "CN"])))
        outcome = parse_transition_output(raw, PRODUCT)
        (prediction,) = outcome.ok
        assert len(prediction.reactants) == 2
        assert prediction.is_valid
        assert not prediction.is_template
        assert prediction.reaction_name == "Amide coupling"
        assert prediction.reasoning == "ok"

    def test_broken_smiles_dropped(self):
        raw = _transition_payload(
            _group(
                "X",
                _permutation(["CC(=O)O", "CC("]),
                _permutation(["CC(=O)O", "CN"]),
            )
        )
        outcome = parse_transition_output(raw, PRODUCT)
        assert len(outcome.ok) == 1
        assert "invalid SMILES" in outcome.dropped[0]["reason"]

    def test_template_wildcards_accepted(self):
        raw = _transition_payload(
            _group("X", _permutation(["[*]C(=O)O", "[F,Cl,Br,I]C"], is_template=True))
        )
        outcome = parse_transition_output(raw, PRODUCT)
        (prediction,) = outcome.ok
        assert prediction.is_template
        assert any(a.is_wildcard for a in prediction.reactants[0].atoms)
        assert any(a.is_element_list for a in prediction.reactants[1].atoms)

    def test_wildcard_in_non_template_dropped(self):
        raw = _transition_payload(
            _group("X", _permutation(["[*]C(=O)O"], is_template=False))
        )
        outcome = parse_transition_output(raw, PRODUCT)
        assert outcome.failed
        assert "wildcard" in outcome.dropped[0]["reason"]

    def test_missing_booleans_dropped(self):
        raw = _transition_payload(
            _group("X", {"reactants": ["CC"], "reasoning": "no flags"})
        )
        outcome = parse_transition_output(raw, PRODUCT)
        assert outcome.failed
        assert "boolean" in outcome.dropped[0]["reason"]

    def test_string_boolean_dropped(self):
        raw = _transition_payload(
            _group("X", _permutation(["CC"], is_valid="true"))
        )
        outcome = parse_transition_output(raw, PRODUCT)
        assert outcome.failed

    def test_empty_reactants_dropped(self):
        raw = _transition_payload(_group("X", _permutation([])))
        outcome = parse_transition_output(raw, PRODUCT)
        assert outcome.failed
        assert "non-empty" in outcome.dropped[0]["reason"]

    def test_no_json_and_schema_classes(self):
        assert parse_transition_output("nope", PRODUCT).failure_class == NO_JSON
        wrong_root = parse_transition_output('{"analysis": []}', PRODUCT)
        assert wrong_root.failure_class == SCHEMA_VIOLATION

    def test_all_invalid_class(self):
        raw = _transition_payload(_group("X", _permutation(["CC("])))
        outcome = parse_transition_output(raw, PRODUCT)
        assert outcome.failure_class == ALL_ITEMS_INVALID

    def test_is_valid_false_still_parsed(self):
        raw = _transition_payload(_group("X", _permutation(["CC"], is_valid=False)))
        outcome = parse_transition_output(raw, PRODUCT)
        assert len(outcome.ok) == 1
        assert outcome.ok[0].is_valid is False

    def test_multiple_groups_flattened(self):
        raw = _transition_payload(
            _group("A", _permutation(["CC"])),
            _group("B", _permutation(["CO"]), _permutation(["CN"])),
        )
        outcome = parse_transition_output(raw, PRODUCT)
        assert [p.reaction_name for p in outcome.ok] == ["A", "B", "B"]


class TestParseOutcomeInvariant:
    def test_failure_class_required_when_empty(self):
        with pytest.raises(ValueError):
            ParseOutcome(ok=(), dropped=(), failure_class=None)

    def test_failure_class_forbidden_when_nonempty(self):
        with pytest.raises(ValueError):
            ParseOutcome(ok=(1,), dropped=(), failure_class=NO_JSON)
