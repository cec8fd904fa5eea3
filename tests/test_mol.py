"""Molecular graph model basics."""

from __future__ import annotations

import pytest

from retroanchor.chem import AtomMapSet
from retroanchor.chem.canon import AnchorTable
from retroanchor.chem.mol import implicit_hydrogens
from retroanchor.chem.smiles import parse_smiles


@pytest.mark.parametrize(
    "element,aromatic,order_sum,expected",
    [
        ("C", False, 0.0, 4),
        ("C", False, 1.0, 3),
        ("C", False, 4.0, 0),
        ("C", False, 5.0, 0),
        ("C", True, 3.0, 1),
        ("C", True, 4.0, 0),
        ("C", True, 4.5, 0),
        ("N", False, 1.0, 2),
        ("N", False, 4.0, 1),
        ("N", True, 3.0, 0),
        ("O", False, 1.0, 1),
        ("O", True, 3.0, 0),
        ("S", False, 3.0, 1),
        ("S", True, 3.0, 0),
        ("Cl", False, 0.0, 1),
        ("Cl", False, 1.0, 0),
        ("Na", False, 0.0, 0),
    ],
)
def test_implicit_hydrogens(element, aromatic, order_sum, expected):
    assert implicit_hydrogens(element, aromatic, order_sum) == expected


def test_atom_map_index_and_resolution():
    mol = parse_smiles("[CH3:7][C:2](=[O:3])[NH:4][CH3:5]")
    anchors = AnchorTable(mol)
    assert [mol.atoms[anchors.index[m]].atom_map for m in (2, 4)] == [2, 4]
    # Each map resolves to its own atom, in ascending map order.
    assert anchors.tokens(AtomMapSet.of([4, 2])) == "C:2 N:4"
    with pytest.raises(ValueError, match=r"not present in molecule: \[99, 100\]$"):
        anchors.tokens(AtomMapSet.of([2, 100, 99]))


def test_position_tokens_ascending_and_aromatic_case():
    mol = parse_smiles("[CH3:12][C:3](=[O:9])[NH:14][c:2]1[cH:1][cH:6][cH:7][cH:8][cH:10]1")
    anchors = AnchorTable(mol)
    assert anchors.tokens(AtomMapSet.of([14, 3])) == "C:3 N:14"
    assert anchors.tokens(AtomMapSet.of([2])) == "c:2"
    with pytest.raises(ValueError, match=r"not present in molecule: \[404\]$"):
        anchors.tokens(AtomMapSet.of([3, 404]))


def test_site_is_a_frozenset_of_ids():
    from retroanchor.outputs import DisconnectionCandidate, from_row, to_row

    assert not AtomMapSet() and not AtomMapSet.of(())
    site = AtomMapSet.of([2, 1])
    assert isinstance(site, frozenset) and site == frozenset({1, 2})
    assert (len(site), 2 in site, sorted(site), site & {2, 3}) == (2, True, [1, 2], {2})
    cand = DisconnectionCandidate(
        s=site, reaction_name="n", reaction_class="", in_ontology=True, importance=4, priority=1, rationale=""
    )
    row = to_row(cand)
    assert row["s"] == [1, 2]
    back = from_row(DisconnectionCandidate, row)
    assert back == cand and type(back.s) is AtomMapSet


def test_components():
    mol = parse_smiles("CCO.[Na+].[Cl-]")
    assert mol.components() == [[0, 1, 2], [3], [4]]


def test_parsed_atoms_and_bonds_stay_immutable():
    # Equal atoms and bonds are shared between molecules, which is safe
    # only while assignment keeps failing.
    mol = parse_smiles("[CH3:1]C=O")
    atom, bond = mol.atoms[0], mol.bonds[1]
    with pytest.raises(AttributeError):
        atom.atom_map = 2
    with pytest.raises(AttributeError):
        bond.kind = "single"
    assert atom._replace(atom_map=2).atom_map == 2
    assert bond._replace(stereo="/").stereo == "/"
    assert (atom.atom_map, bond.kind, bond.stereo) == (1, "double", None)
    again = parse_smiles("[CH3:1]C=O")
    assert (again.atoms, again.bonds, again.source_text) == (mol.atoms, mol.bonds, mol.source_text)
