"""Tests for model-output parsing and salvage behavior."""

from __future__ import annotations

import json
import random

import pytest

from test_cli import HUB_SMILES

from retroanchor import outputs
from retroanchor.chem import AnchorTable, canonical_smiles, parse_smiles
from retroanchor.datasets import Ontology, OntologyEntry
from retroanchor.outputs import (
    ALL_ITEMS_INVALID,
    NO_JSON,
    SCHEMA_VIOLATION,
    ParseOutcome,
    extract_json_object,
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

    def test_agrees_with_decoding_at_every_brace(self):
        """Skipping a brace that cannot open an object changes no result:
        the reference tries ``raw_decode`` at every ``{``."""

        def reference(raw):
            candidates = [m.group(1) for m in outputs._FENCE_RE.finditer(raw)] + [raw]
            decoder = json.JSONDecoder()
            for text in candidates:
                for brace in (i for i, ch in enumerate(text) if ch == "{"):
                    try:
                        value, _ = decoder.raw_decode(text[brace:])
                    except (json.JSONDecodeError, RecursionError):
                        continue
                    if isinstance(value, dict):
                        return value
            return None

        pieces = [
            "{", "}", "[", "]", '"', ":", ",", " ", "\n", "\t", "\r", "\\", "a", "1", "null",
            '"k"', '{"a": 1}', "{}", '{"c": {"d": "}"}}', "```json\n", "```\n",
        ]
        # Objects after each kind of whitespace, JSON's four and one it lacks.
        pieces += [f'{{{ws}"b": [2]}}' for ws in (" ", "\t", "\n", "\r", " \r\n\t", "\f")]
        pieces += [f"{{{ws}}}" for ws in ("\r", "\t\n", "\f")]
        rng = random.Random(5)
        for _ in range(3000):
            raw = "".join(rng.choice(pieces) for _ in range(rng.randrange(30)))
            if rng.random() < 0.3:
                raw = f"prose {raw}\n```json\n{raw}\n```\n{raw}"
            assert extract_json_object(raw) == reference(raw), raw

    def test_brace_flood_tries_only_object_starts(self, monkeypatch):
        attempts = []
        raw_decode = json.JSONDecoder.raw_decode

        def counting(self, text, *args):
            attempts.append(len(text))
            return raw_decode(self, text, *args)

        monkeypatch.setattr(json.JSONDecoder, "raw_decode", counting)
        for flood in ("{" * 20_000, "x{" * 20_000, "{ \n" * 10_000, "{[" * 10_000):
            assert extract_json_object(flood) is None
            assert extract_json_object(flood + '{"a": 1}') == {"a": 1}
        assert attempts == [len('{"a": 1}')] * 4
        assert extract_json_object('{"a" ' * 3 + "{ }") == {}
        assert len(attempts) == 4 + 4


class TestParseCenterTokens:
    """A reply's ``Elem:id`` tokens, read back through the product's anchor table."""

    def test_mixed_case_tokens(self):
        product = parse_smiles("[cH:18]1[cH:19][cH:20][cH:21][cH:22][c:23]1[N:17]")
        s = AnchorTable(product).read("N:17 c:18")
        assert s == {17, 18}

    def test_malformed_token_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            AnchorTable(PRODUCT).read("C12")

    def test_non_ascii_digits_are_malformed(self):
        product = parse_smiles("CC(C)C(=O)O[C:12](=O)[N:14]([CH3:15])C")
        for text in ("C:\uff11\uff12", "N:\u0660\u0661\u0664"):  # full-width 12, Arabic-Indic 014
            with pytest.raises(ValueError, match="malformed"):
                AnchorTable(product).read(text)

    def test_unresolvable_map_rejected(self):
        with pytest.raises(ValueError, match="99"):
            AnchorTable(PRODUCT).read("C:99")

    def test_empty_string_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            AnchorTable(PRODUCT).read("   ")


class TestParsePositionOutput:
    def test_valid_entry_parsed(self):
        raw = _payload({"disconnection": "C:12 N:14", "reactions": [_reaction()]})
        outcome = parse_position_output(raw, PRODUCT, ONTOLOGY)
        assert outcome.ok
        (candidate,) = outcome.ok
        assert candidate.s == {12, 14}
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
        assert not outcome.ok
        assert outcome.failure_class == NO_JSON

    def test_wrong_root_is_schema_violation(self):
        outcome = parse_position_output('{"results": []}', PRODUCT, ONTOLOGY)
        assert outcome.failure_class == SCHEMA_VIOLATION
        assert outcome.dropped[0]["reason"].startswith("root key")

    def test_empty_disconnections_means_all_items_invalid(self):
        outcome = parse_position_output(_payload(), PRODUCT, ONTOLOGY)
        assert not outcome.ok
        assert outcome.failure_class == ALL_ITEMS_INVALID

    def test_unresolvable_map_salvages_other_entries(self):
        raw = _payload(
            {"disconnection": "C:99", "reactions": [_reaction()]},
            {"disconnection": "C:12 N:14", "reactions": [_reaction()]},
        )
        outcome = parse_position_output(raw, PRODUCT, ONTOLOGY)
        assert len(outcome.ok) == 1
        assert outcome.ok[0].s == {12, 14}
        assert any("99" in d["reason"] for d in outcome.dropped)

    def test_importance_out_of_range_dropped(self):
        raw = _payload({"disconnection": "C:12", "reactions": [_reaction(importance=5)]})
        outcome = parse_position_output(raw, PRODUCT, ONTOLOGY)
        assert not outcome.ok
        assert "importance" in outcome.dropped[0]["reason"]

    @pytest.mark.parametrize("field", ["importance", "priority"])
    def test_boolean_importance_or_priority_dropped(self, field):
        # JSON true is no integer, though Python's bool subclasses int.
        raw = _payload({"disconnection": "C:12", "reactions": [_reaction(**{field: True})]})
        outcome = parse_position_output(raw, PRODUCT, ONTOLOGY)
        assert not outcome.ok
        assert field in outcome.dropped[0]["reason"]

    def test_nonpositive_priority_dropped(self):
        raw = _payload({"disconnection": "C:12", "reactions": [_reaction(priority=0)]})
        outcome = parse_position_output(raw, PRODUCT, ONTOLOGY)
        assert not outcome.ok
        assert "priority" in outcome.dropped[0]["reason"]

    def test_reaction_that_is_not_an_object_dropped(self):
        raw = _payload({"disconnection": "C:12", "reactions": [5, _reaction()]})
        outcome = parse_position_output(raw, PRODUCT, ONTOLOGY)
        assert len(outcome.ok) == 1
        assert [d["reason"] for d in outcome.dropped] == ["reaction is not an object"]

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
        outcome = parse_transition_output(raw)
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
        outcome = parse_transition_output(raw)
        assert len(outcome.ok) == 1
        assert "invalid SMILES" in outcome.dropped[0]["reason"]

    def test_a_number_of_thousands_of_digits_is_dropped_not_raised(self):
        # int() refuses a text of more than 4,300 digits with a ValueError.
        huge = "1" * 5000
        raw = _transition_payload(
            _group("X", *(_permutation([text]) for text in (f"[CH3:{huge}]O", f"[{huge}CH3]O", f"[CH{huge}]O")))
        )
        outcome = parse_transition_output(raw)
        assert outcome.failure_class == ALL_ITEMS_INVALID
        assert [d["reason"] for d in outcome.dropped] == [
            "syntactically invalid SMILES: malformed bracket atom (at position 0)"
        ] * 3

    def test_template_wildcards_accepted(self):
        raw = _transition_payload(
            _group("X", _permutation(["[*]C(=O)O", "[F,Cl,Br,I]C"], is_template=True))
        )
        outcome = parse_transition_output(raw)
        (prediction,) = outcome.ok
        assert prediction.is_template
        acid, halide = (parse_smiles(text) for text in prediction.reactants)
        assert any(a.is_wildcard for a in acid.atoms)
        assert any(a.is_element_list for a in halide.atoms)

    def test_reactants_are_canonical_mapped_text(self):
        texts = ["[CH3:1][C:2](=[O:3])[OH:4]", "N[CH3:5]"]
        raw = _transition_payload(_group("X", _permutation(texts)))
        (prediction,) = parse_transition_output(raw).ok
        assert prediction.reactants == tuple(
            canonical_smiles(parse_smiles(t), include_maps=True) for t in texts
        )
        assert prediction.reactants == ("[C:2]([CH3:1])(=[O:3])[OH:4]", "[CH3:5]N")

    def test_unwritable_permutation_dropped_in_reply_order(self):
        """A reactant with more than 99 ring closures open at once parses
        but has no canonical spelling: its permutation is dropped where
        the reply lists it, shown as the reply wrote it."""
        unwritable = _permutation([HUB_SMILES])
        raw = _transition_payload(
            _group("X", _permutation(["CC("]), unwritable, _permutation(["CN"]), {"reactants": ["C"]})
        )
        outcome = parse_transition_output(raw)
        assert [p.reactants for p in outcome.ok] == [("CN",)]
        reasons = [d["reason"] for d in outcome.dropped]
        assert reasons[0].startswith("syntactically invalid SMILES")
        assert reasons[1].startswith("reactants cannot be written as canonical SMILES")
        assert "more than 99" in reasons[1]
        assert "boolean" in reasons[2]
        assert outcome.dropped[1]["fragment"] == json.dumps(unwritable)[:300] + "..."

    def test_wildcard_in_non_template_dropped(self):
        texts = ["[*]C(=O)O", "*C", "[Cl,Br]C"]  # an element list counts as a wildcard
        raw = _transition_payload(
            _group("X", *(_permutation([text], is_template=False) for text in texts))
        )
        outcome = parse_transition_output(raw)
        assert not outcome.ok
        assert all("wildcard" in d["reason"] for d in outcome.dropped)
        assert len(outcome.dropped) == len(texts)

    def test_reasons_within_a_permutation_rank_parse_then_template_then_spelling(self):
        """Whatever the text order: a text that does not parse, then a
        template atom in a non-template permutation, then a text with no
        canonical spelling."""
        cases = [
            (([HUB_SMILES, "CC("], False), "syntactically invalid SMILES"),
            ((["[*]C", "CC("], False), "syntactically invalid SMILES"),
            (([HUB_SMILES, "[*]C"], False), "wildcard atom in non-template prediction"),
            (([HUB_SMILES, "[*]C"], True), "reactants cannot be written as canonical SMILES"),
        ]
        perms = [_permutation(texts, is_template=is_template) for (texts, is_template), _ in cases]
        outcome = parse_transition_output(_transition_payload(_group("X", *perms)))
        assert [d["reason"].split(":")[0] for d in outcome.dropped] == [reason for _, reason in cases]

    def test_missing_booleans_dropped(self):
        raw = _transition_payload(
            _group("X", {"reactants": ["CC"], "reasoning": "no flags"})
        )
        outcome = parse_transition_output(raw)
        assert not outcome.ok
        assert "boolean" in outcome.dropped[0]["reason"]

    def test_string_boolean_dropped(self):
        raw = _transition_payload(
            _group("X", _permutation(["CC"], is_valid="true"))
        )
        outcome = parse_transition_output(raw)
        assert not outcome.ok

    def test_permutation_that_is_not_an_object_dropped(self):
        raw = _transition_payload(_group("X", 5, _permutation(["CC"])))
        outcome = parse_transition_output(raw)
        assert len(outcome.ok) == 1
        assert [d["reason"] for d in outcome.dropped] == ["permutation is not an object"]

    def test_empty_reactants_dropped(self):
        raw = _transition_payload(_group("X", _permutation([])))
        outcome = parse_transition_output(raw)
        assert not outcome.ok
        assert "non-empty" in outcome.dropped[0]["reason"]

    def test_no_json_and_schema_classes(self):
        assert parse_transition_output("nope").failure_class == NO_JSON
        wrong_root = parse_transition_output('{"analysis": []}')
        assert wrong_root.failure_class == SCHEMA_VIOLATION

    def test_all_invalid_class(self):
        raw = _transition_payload(_group("X", _permutation(["CC("])))
        outcome = parse_transition_output(raw)
        assert outcome.failure_class == ALL_ITEMS_INVALID

    def test_is_valid_false_still_parsed(self):
        raw = _transition_payload(_group("X", _permutation(["CC"], is_valid=False)))
        outcome = parse_transition_output(raw)
        assert len(outcome.ok) == 1
        assert outcome.ok[0].is_valid is False

    def test_multiple_groups_flattened(self):
        raw = _transition_payload(
            _group("A", _permutation(["CC"])),
            _group("B", _permutation(["CO"]), _permutation(["CN"])),
        )
        outcome = parse_transition_output(raw)
        assert [p.reaction_name for p in outcome.ok] == ["A", "B", "B"]


# A text field holding another JSON type; ``str`` of it, once stored, read 'None' or "['a', 1]".
NOT_TEXT = [pytest.param(None, id="null"), pytest.param(["a", 1], id="list")]


class TestTextFieldsMustBeStrings:
    """A text field present with another type drops its item, where ``str``
    once stored a text the model never wrote; an absent one reads ``""``."""

    @pytest.mark.parametrize("value", NOT_TEXT)
    @pytest.mark.parametrize("field", ["forwardReactionClass", "rationale"])
    def test_position_reaction_dropped(self, field, value):
        raw = _payload(
            {"disconnection": "C:12", "reactions": [_reaction(**{field: value}), _reaction("Suzuki coupling")]}
        )
        outcome = parse_position_output(raw, PRODUCT, ONTOLOGY)
        (candidate,) = outcome.ok
        assert candidate.reaction_name == "Suzuki coupling"
        assert str(value) not in (candidate.reaction_class, candidate.rationale)
        assert [d["reason"] for d in outcome.dropped] == [f"{field} is not a string"]

    @pytest.mark.parametrize("value", NOT_TEXT)
    def test_transition_group_dropped_for_its_name(self, value):
        named = {"forward_reaction_name": value, "reactant_permutations": [_permutation(["CC"])]}
        outcome = parse_transition_output(_transition_payload(named, _group("B", _permutation(["CO"]))))
        assert [(p.reaction_name, p.reactants) for p in outcome.ok] == [("B", ("CO",))]
        assert [d["reason"] for d in outcome.dropped] == ["forward_reaction_name is not a string"]

    @pytest.mark.parametrize("value", NOT_TEXT)
    def test_transition_permutation_dropped_for_its_reasoning(self, value):
        raw = _transition_payload(_group("X", _permutation(["CC"], reasoning=value), _permutation(["CO"])))
        outcome = parse_transition_output(raw)
        assert [(p.reactants, p.reasoning) for p in outcome.ok] == [(("CO",), "ok")]
        assert [d["reason"] for d in outcome.dropped] == ["reasoning is not a string"]

    def test_absent_fields_read_empty(self):
        bare = {k: v for k, v in _reaction().items() if k not in ("forwardReactionClass", "rationale")}
        (candidate,) = parse_position_output(
            _payload({"disconnection": "C:12", "reactions": [bare]}), PRODUCT, ONTOLOGY
        ).ok
        assert (candidate.reaction_class, candidate.rationale) == ("", "")
        permutation = {k: v for k, v in _permutation(["CC"]).items() if k != "reasoning"}
        raw = _transition_payload({"reactant_permutations": [permutation]})
        (prediction,) = parse_transition_output(raw).ok
        assert (prediction.reaction_name, prediction.reasoning) == ("", "")


class TestParseOutcomeInvariant:
    def test_failure_class_required_when_empty(self):
        with pytest.raises(ValueError):
            ParseOutcome(ok=(), dropped=(), failure_class=None)

    def test_failure_class_forbidden_when_nonempty(self):
        with pytest.raises(ValueError):
            ParseOutcome(ok=(1,), dropped=(), failure_class=NO_JSON)


class TestDeepNesting:
    """A reply nested past the recursion limit is no JSON, and one decoded
    just under it is dropped item by item: neither parser raises."""

    def test_too_deep_reply_is_no_json(self):
        raw = 'Sure: {"disconnections": ' + "[" * 3000
        assert parse_position_output(raw, PRODUCT, ONTOLOGY).failure_class == NO_JSON
        assert parse_transition_output(raw).failure_class == NO_JSON

    def test_depth_sweep_never_raises(self):
        classes = {NO_JSON, SCHEMA_VIOLATION, ALL_ITEMS_INVALID}
        for depth in range(900, 1101):
            lists = "[" * depth + "]" * depth
            objects = f'{{"a": {lists}}}'
            position_text = json.dumps({"disconnection": "C:12", "reactions": [_reaction()]})
            transition_text = json.dumps(_permutation(["CC"]))
            payloads = [
                f'{{"disconnections": {lists}}}',
                f'{{"disconnections": [{objects}]}}',
                f'{{"reaction_analysis": {lists}}}',
                f'{{"reaction_analysis": [{objects}]}}',
                f'{{"other": {lists}}}',
                position_text.replace('"Convergent disconnection of the amide bond."', lists),
                transition_text.replace('"ok"', lists),
            ]
            for raw in payloads:
                assert parse_position_output(raw, PRODUCT, ONTOLOGY).failure_class in classes | {None}
                assert parse_transition_output(raw).failure_class in classes | {None}
