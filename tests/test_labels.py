"""Tests for disconnection-site extraction from mapped reactions."""

from __future__ import annotations

import random

import pytest

from retroanchor.chem import AnchorTable, parse_smiles
from retroanchor.datasets import ingest_dataset, record_from_row
from retroanchor.labels import extract_structural_label

from helpers import golden_fixture_dir, label_oracle, random_labeled_reaction


def _record(reaction_smiles: str):
    return record_from_row(
        {
            "id": "t",
            "reaction_smiles": reaction_smiles,
            "reaction_name": "n",
            "reaction_class": "c",
            "split": "train",
        }
    )


def _label(reaction_smiles: str):
    label = extract_structural_label(_record(reaction_smiles))
    return set(label.maps), label.kind


class TestHandCases:
    def test_amide_coupling_marks_both_new_bond_ends(self):
        maps, kind = _label(
            "[CH3:1][C:2](=[O:3])[OH:9].[NH2:4][CH3:5]"
            ">>[CH3:1][C:2](=[O:3])[NH:4][CH3:5]"
        )
        assert maps == {2, 4}
        assert kind == "connectivity"

    def test_unmapped_leaving_group_marks_surviving_atom(self):
        maps, kind = _label("[CH3:1][CH2:2]Br.[OH:3][CH3:4]>>[CH3:1][CH2:2][O:3][CH3:4]")
        assert maps == {2, 3}
        assert kind == "connectivity"

    def test_mapped_vanishing_atom_marks_surviving_partner_only(self):
        maps, kind = _label("CC(C)(C)OC(=O)[NH:1][CH3:2]>>[NH2:1][CH3:2]")
        assert maps == {1}
        assert kind == "connectivity"

    def test_product_bond_to_an_atom_no_reactant_maps_is_skipped(self):
        maps, kind = _label("[CH3:1]Br>>[CH3:1][OH:2]")
        assert maps == {1}
        assert kind == "connectivity"

    def test_hydrogenation_is_bond_order_only(self):
        maps, kind = _label("[CH2:1]=[CH:2][CH3:3]>>[CH3:1][CH2:2][CH3:3]")
        assert maps == {1, 2}
        assert kind == "bond_order"

    def test_connectivity_takes_priority_over_order_change(self):
        maps, kind = _label(
            "[CH2:1]=[CH:2][CH3:3].[CH4:4]>>[CH3:1][CH2:2][CH2:3][CH3:4]"
        )
        assert maps == {3, 4}
        assert kind == "connectivity"

    def test_identity_reaction_is_empty(self):
        maps, kind = _label("[CH3:1][OH:2]>>[CH3:1][OH:2]")
        assert maps == set()
        assert kind == "empty"

    def test_reagents_do_not_contribute(self):
        maps, kind = _label(
            "[CH3:1][CH2:2]Br.[OH:3][CH3:4]>O=C([O-])[O-]>"
            "[CH3:1][CH2:2][O:3][CH3:4]"
        )
        assert maps == {2, 3}
        assert kind == "connectivity"

    def test_intramolecular_bond_break_marks_both_ends(self):
        maps, kind = _label(
            "[CH2:1]1[CH2:2][CH2:3][O:4]1>>[CH3:1][CH2:2][CH2:3][OH:4]"
        )
        assert maps == {1, 4}
        assert kind == "connectivity"

    def test_formed_bond_within_one_reactant_molecule(self):
        maps, kind = _label(
            "[CH3:1][CH2:2][CH2:3][OH:4]>>[CH2:1]1[CH2:2][CH2:3][O:4]1"
        )
        assert maps == {1, 4}
        assert kind == "connectivity"

    def test_aromatic_coupling_on_ring_carbon(self):
        maps, kind = _label(
            "[cH:1]1[cH:2][cH:3][c:4](Br)[cH:5][cH:6]1.[OH:7][CH3:8]"
            ">>[cH:1]1[cH:2][cH:3][c:4]([O:7][CH3:8])[cH:5][cH:6]1"
        )
        assert maps == {4, 7}
        assert kind == "connectivity"

    def test_double_to_single_within_kept_bond(self):
        maps, kind = _label(
            "[CH3:1][C:2](=[O:3])[CH3:4]>>[CH3:1][CH:2]([OH:3])[CH3:4]"
        )
        assert maps == {2, 3}
        assert kind == "bond_order"

    def test_unmapped_product_spectators_are_ignored(self):
        maps, kind = _label("[CH3:1][CH2:2]O.[NH3:3]>>[CH3:1][CH2:2][NH2:3]")
        assert maps == {2, 3}
        assert kind == "connectivity"


class TestOracleAgreement:
    def test_synthetic_reactions_match_oracle(self):
        rng = random.Random(20260819)
        kinds = set()
        for _ in range(400):
            record, expected_maps, expected_kind = random_labeled_reaction(rng)
            label = extract_structural_label(record)
            oracle_maps, oracle_kind = label_oracle(record)
            assert oracle_maps == expected_maps
            assert oracle_kind == expected_kind
            assert label.maps == expected_maps
            assert label.kind == expected_kind
            kinds.add(expected_kind)
        assert kinds == {"connectivity", "bond_order", "empty"}

    def test_sorted_accessor_orders_maps_ascending(self):
        rng = random.Random(3)
        for _ in range(50):
            record, _, _ = random_labeled_reaction(rng)
            label = extract_structural_label(record)
            ordered = sorted(label.maps)
            assert ordered == sorted(set(ordered))
            assert len(ordered) == len(label.maps)


def _labeled_products():
    """(anchor table, label) of 300 synthetic reactions and every golden row."""
    rng = random.Random(2131)
    records = [random_labeled_reaction(rng)[0] for _ in range(300)]
    for name in ("eval_raw.jsonl", "train.jsonl"):
        golden, rejects = ingest_dataset(golden_fixture_dir() / name)
        assert not rejects
        records += golden
    return [(AnchorTable(r.product), extract_structural_label(r).maps) for r in records]


class TestAnchorRoundTrip:
    """The anchor table reads back the ids it writes."""

    def test_written_tokens_read_back_as_the_label(self):
        checked = 0
        for anchors, label in _labeled_products():
            if label:
                assert anchors.read(anchors.tokens(label)) == label
                checked += 1
        assert checked > 200

    def test_text_names_each_id_once(self):
        for anchors, _ in _labeled_products():
            written = [a.atom_map for a in parse_smiles(anchors.text).atoms if a.atom_map is not None]
            assert sorted(written) == sorted(anchors.index)

    def test_element_prefix_is_information_only(self):
        rng = random.Random(2132)
        for anchors, label in _labeled_products():
            if not label:
                continue
            tokens = anchors.tokens(label).split()
            respelled = [rng.choice(("", "C", "n", "Br", "*", "[Cl,Br]")) + t[t.index(":"):] for t in tokens]
            assert anchors.read(" ".join(respelled)) == label
