"""Tests for prompt template loading and rendering."""

from __future__ import annotations

import hashlib
import json

import pytest

from retroanchor.chem import AtomMapSet, canonical_smiles, parse_smiles
from retroanchor.datasets import Ontology, OntologyEntry
from retroanchor.prompts import (
    TEMPLATE_DIGESTS,
    TEMPLATE_PLACEHOLDERS,
    load_template,
    render_position_prompt,
    render_transition_prompt,
)


def _ontology(*names):
    entries = tuple(OntologyEntry(id=n, reaction_class="C-C Coupling") for n in names)
    return Ontology(entries=entries, source_split="train")


MAPPED_PRODUCT = parse_smiles("[CH3:1][C:2](=[O:3])[NH:4][CH3:5]")
POSITION = load_template("position")
TRANSITION = load_template("transition")
TRANSITION_SHORT = load_template("transition_short")


class TestLoadTemplate:
    @pytest.mark.parametrize("name", sorted(TEMPLATE_DIGESTS))
    def test_shipped_bodies_match_pinned_digests(self, name):
        template = load_template(name)
        assert template.digest == TEMPLATE_DIGESTS[name]
        assert hashlib.sha256("".join(template.pieces).encode()).hexdigest() == TEMPLATE_DIGESTS[name]

    @pytest.mark.parametrize("name", sorted(TEMPLATE_DIGESTS))
    def test_packaged_body_must_match_pinned_digest(self, name, monkeypatch):
        monkeypatch.setitem(TEMPLATE_DIGESTS, name, hashlib.sha256(b"edited").hexdigest())
        with pytest.raises(ValueError, match=f"packaged template '{name}' does not match"):
            load_template(name)

    def test_packaged_bodies_are_the_only_source(self, tmp_path, monkeypatch):
        # A template directory named in the environment is never read.
        for name, tokens in TEMPLATE_PLACEHOLDERS.items():
            (tmp_path / f"{name}.txt").write_text("custom " + " ".join(tokens))
        monkeypatch.setenv("RETROANCHOR_TEMPLATE_DIR", str(tmp_path))
        for name in TEMPLATE_PLACEHOLDERS:
            assert load_template(name).digest == TEMPLATE_DIGESTS[name]

    @pytest.mark.parametrize("name", sorted(TEMPLATE_PLACEHOLDERS))
    def test_declared_placeholders_present(self, name):
        template = load_template(name)
        for token in TEMPLATE_PLACEHOLDERS[name]:
            assert token in "".join(template.pieces)

    @pytest.mark.parametrize("name", sorted(TEMPLATE_PLACEHOLDERS))
    def test_no_literal_piece_holds_a_placeholder(self, name):
        # Every template's placeholders, so a body never carries another's.
        tokens = {token for declared in TEMPLATE_PLACEHOLDERS.values() for token in declared}
        for piece in load_template(name).pieces[::2]:
            assert not [token for token in tokens if token in piece]

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown template"):
            load_template("mystery")

    @pytest.mark.parametrize("name", sorted(TEMPLATE_PLACEHOLDERS))
    def test_pieces_hold_declared_placeholders(self, name):
        template = load_template(name)
        assert set(template.pieces[1::2]) == set(TEMPLATE_PLACEHOLDERS[name])


class TestPositionPrompt:
    def test_contains_spacing_instruction(self):
        rendered = render_position_prompt(MAPPED_PRODUCT, _ontology("Amide coupling"), POSITION)
        assert "atoms must be separated by spaces" in rendered.text

    def test_substitutes_ontology_and_product(self):
        ontology = _ontology("Amide coupling", "Suzuki coupling")
        rendered = render_position_prompt(MAPPED_PRODUCT, ontology, POSITION)
        assert '"id": "Amide coupling"' in rendered.text
        assert "[CH3:1]" in rendered.text
        assert "<reaction_ontology>" not in rendered.text
        assert "<canonicalized_product>" not in rendered.text

    def test_substitution_record_digests_values(self):
        ontology = _ontology("A", "B")
        rendered = render_position_prompt(MAPPED_PRODUCT, ontology, POSITION)
        assert rendered.example_count == 0

    def test_rendering_is_deterministic(self):
        ontology = _ontology("A")
        first = render_position_prompt(MAPPED_PRODUCT, ontology, POSITION)
        second = render_position_prompt(MAPPED_PRODUCT, ontology, POSITION)
        assert first.text == second.text

    @pytest.mark.parametrize("token", ["<canonicalized_product>", "<REACTION_NAME>"])
    def test_placeholder_in_ontology_name_renders_literally(self, token):
        name = f"Coupling {token}"
        rendered = render_position_prompt(MAPPED_PRODUCT, _ontology(name), POSITION)
        assert f'"id": "{name}"' in rendered.text
        product = canonical_smiles(MAPPED_PRODUCT, include_maps=True)
        assert rendered.text.count(product) == 1

    def test_unmapped_product_rejected(self):
        with pytest.raises(ValueError, match="no atom maps"):
            render_position_prompt(parse_smiles("CCO"), _ontology("A"), POSITION)

    def test_other_template_rejected(self):
        with pytest.raises(ValueError, match="expected position template, got 'transition'"):
            render_position_prompt(MAPPED_PRODUCT, _ontology("A"), TRANSITION)

    def test_empty_ontology_rejected(self):
        empty = Ontology(entries=(), source_split="train")
        with pytest.raises(ValueError, match="ontology is empty"):
            render_position_prompt(MAPPED_PRODUCT, empty, POSITION)

    def test_product_recanonicalized_consistently(self):
        variant = parse_smiles("[CH3:5][NH:4][C:2]([CH3:1])=[O:3]")
        first = render_position_prompt(MAPPED_PRODUCT, _ontology("A"), POSITION)
        second = render_position_prompt(variant, _ontology("A"), POSITION)
        assert first.text == second.text


class TestTransitionPrompt:
    def test_position_tokens_quoted_in_input_block(self):
        product = parse_smiles("CC(C)C(=O)O[C:12](=O)[N:14]C")
        rendered = render_transition_prompt(
            product,
            AtomMapSet.of({12, 14}),
            "Carboxylic acid to amide conversion",
            (),
            "full",
            TRANSITION,
        )
        assert '"reaction_center_atoms": "C:12 N:14"' in rendered.text

    def test_absent_name_renders_null(self):
        rendered = render_transition_prompt(
            MAPPED_PRODUCT, AtomMapSet.of({2, 4}), None, (), "full", TRANSITION
        )
        assert '"forward_reaction_name": null' in rendered.text

    def test_examples_serialized_as_json_array(self):
        rendered = render_transition_prompt(
            MAPPED_PRODUCT, AtomMapSet.of({2, 4}), "Amide coupling", ("CCO>>CC.O", "CCN>>CC.N"), "full", TRANSITION
        )
        assert '"CCO>>CC.O"' in rendered.text
        assert rendered.example_count == 2

    def test_empty_library_renders_empty_array(self):
        rendered = render_transition_prompt(
            MAPPED_PRODUCT, AtomMapSet.of({2, 4}), "Amide coupling", (), "full", TRANSITION
        )
        assert '"retrosynthesis_reaction_examples": []' in rendered.text
        assert rendered.example_count == 0

    def test_variants_pick_distinct_templates(self):
        full = render_transition_prompt(
            MAPPED_PRODUCT, AtomMapSet.of({2, 4}), "n", (), "full", TRANSITION
        )
        short = render_transition_prompt(
            MAPPED_PRODUCT, AtomMapSet.of({2, 4}), "n", (), "short", TRANSITION_SHORT
        )
        assert full.template_digest == TEMPLATE_DIGESTS["transition"]
        assert short.template_digest == TEMPLATE_DIGESTS["transition_short"]
        assert full.text != short.text

    def test_no_declared_placeholder_survives(self):
        rendered = render_transition_prompt(
            MAPPED_PRODUCT, AtomMapSet.of({2, 4}), None, ("A>>B",), "full", TRANSITION
        )
        for token in TEMPLATE_PLACEHOLDERS["transition"]:
            assert token not in rendered.text

    @pytest.mark.parametrize("variant", ["full", "short"])
    def test_placeholder_in_reaction_name_renders_literally(self, variant):
        name = "Coupling <PRODUCT_SMILES>"
        template = TRANSITION if variant == "full" else TRANSITION_SHORT
        rendered = render_transition_prompt(
            MAPPED_PRODUCT, AtomMapSet.of({2, 4}), name, (), variant, template
        )
        assert json.dumps(name) in rendered.text
        product = canonical_smiles(MAPPED_PRODUCT, include_maps=True)
        assert rendered.text.count(product) == 1

    def test_unresolvable_map_rejected(self):
        with pytest.raises(ValueError, match="99"):
            render_transition_prompt(
                MAPPED_PRODUCT, AtomMapSet.of({99}), "n", (), "full", TRANSITION
            )

    def test_empty_disconnection_rejected(self):
        with pytest.raises(ValueError, match="empty disconnection set"):
            render_transition_prompt(MAPPED_PRODUCT, AtomMapSet.of(()), "n", (), "full", TRANSITION)

    def test_bad_variant_rejected(self):
        with pytest.raises(ValueError, match="variant"):
            render_transition_prompt(
                MAPPED_PRODUCT, AtomMapSet.of({2}), "n", (), "tiny", TRANSITION
            )

    @pytest.mark.parametrize("variant", ["full", "short"])
    def test_template_of_the_other_variant_rejected(self, variant):
        template = TRANSITION_SHORT if variant == "full" else TRANSITION
        with pytest.raises(ValueError, match=f"got '{template.name}'"):
            render_transition_prompt(MAPPED_PRODUCT, AtomMapSet.of({2}), "n", (), variant, template)

    def test_aromatic_tokens_keep_lowercase(self):
        product = parse_smiles("[cH:1]1[cH:2][cH:3][cH:4][cH:5][c:6]1[CH2:7][NH2:8]")
        rendered = render_transition_prompt(product, AtomMapSet.of({6}), "n", (), "full", TRANSITION)
        assert '"c:6"' in rendered.text
