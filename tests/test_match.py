"""Substructure embedding against a brute-force enumeration oracle."""

from __future__ import annotations

import itertools
import random

import pytest

from helpers import random_molecule
from retroanchor.chem import parse_smiles, substructure_match
from retroanchor.chem.match import atoms_compatible, find_embedding
from retroanchor.chem.mol import Molecule


def brute_force_match(pattern: Molecule, target: Molecule) -> bool:
    """Try every injective atom assignment; exponential, oracle only."""
    n_p, n_t = len(pattern.atoms), len(target.atoms)
    if n_p > n_t:
        return False
    for image in itertools.permutations(range(n_t), n_p):
        if not all(
            atoms_compatible(pattern.atoms[i], target.atoms[image[i]])
            for i in range(n_p)
        ):
            continue
        ok = True
        for bond in pattern.bonds:
            t_bond = target.bond_between(image[bond.a], image[bond.b])
            if t_bond is None or t_bond.kind != bond.kind:
                ok = False
                break
        if ok:
            return True
    return False


def test_empty_pattern_embeds_as_the_empty_assignment():
    empty = Molecule(atoms=(), bonds=())
    assert find_embedding(empty, parse_smiles("CC")) == {}
    assert find_embedding(empty, empty) == {}
    assert substructure_match(empty, parse_smiles("C"))


def test_exact_self_match():
    mol = parse_smiles("CC(=O)O")
    assert substructure_match(mol, mol)


def test_simple_positive_and_negative():
    target = parse_smiles("CC(=O)OCC")
    assert substructure_match(parse_smiles("C(=O)O"), target)
    assert substructure_match(parse_smiles("CC"), target)
    assert not substructure_match(parse_smiles("N"), target)
    assert not substructure_match(parse_smiles("C#C"), target)


def test_aromatic_flag_must_agree():
    benzene = parse_smiles("c1ccccc1")
    hexane = parse_smiles("C1CCCCC1")
    assert substructure_match(parse_smiles("cc"), benzene)
    assert not substructure_match(parse_smiles("cc"), hexane)
    assert not substructure_match(parse_smiles("CC"), benzene)


def test_bond_kind_must_be_identical():
    assert substructure_match(parse_smiles("C=C"), parse_smiles("CC=CC"))
    assert not substructure_match(parse_smiles("C=C"), parse_smiles("CCCC"))


@pytest.mark.parametrize(
    ("pattern", "target", "expected"),
    [
        pytest.param("C1CCC1", "C1CCCCC1", False, id="four-ring into six-ring"),
        pytest.param("C1CCC1", "CC1CCC1", True, id="four-ring into methylcyclobutane"),
    ],
)
def test_ring_closure_needs_a_bond_between_matched_atoms(pattern, target, expected):
    # The ring-closing bond joins two atoms that are both matched already,
    # so only the check against matched neighbours can reject it.
    pattern, target = parse_smiles(pattern), parse_smiles(target)
    assert brute_force_match(pattern, target) == expected
    assert substructure_match(pattern, target) == expected


def test_wildcard_matches_any_atom():
    target = parse_smiles("CC(=O)Nc1ccccc1")
    assert substructure_match(parse_smiles("[*]C(=O)N"), target)
    assert substructure_match(parse_smiles("N[*]"), target)


def test_element_list():
    assert substructure_match(parse_smiles("[F,Cl,Br,I]C"), parse_smiles("ClCC"))
    assert not substructure_match(parse_smiles("[F,Cl,Br,I]C"), parse_smiles("OCC"))


def test_charge_checked_only_when_pattern_charged():
    anion = parse_smiles("[O-]C=O")
    assert substructure_match(parse_smiles("[O-]"), anion)
    assert not substructure_match(parse_smiles("[O-]"), parse_smiles("OC=O"))
    # Uncharged pattern oxygen matches charged target oxygen.
    assert substructure_match(parse_smiles("OC"), anion)


def test_injectivity():
    # Two distinct pattern carbons need two distinct target atoms.
    assert not substructure_match(parse_smiles("ClCCl"), parse_smiles("ClC"))


def test_embedding_is_a_valid_assignment():
    pattern = parse_smiles("C(=O)N")
    target = parse_smiles("CC(=O)NC")
    embedding = find_embedding(pattern, target)
    assert embedding is not None
    assert len(set(embedding.values())) == len(pattern.atoms)
    for bond in pattern.bonds:
        t_bond = target.bond_between(embedding[bond.a], embedding[bond.b])
        assert t_bond is not None and t_bond.kind == bond.kind


def test_disconnected_pattern():
    target = parse_smiles("CC(=O)O.CN")
    assert substructure_match(parse_smiles("O.N"), target)
    assert not substructure_match(parse_smiles("S.N"), target)


def test_agrees_with_brute_force_on_random_pairs():
    rng = random.Random(20250818)
    checked_true = checked_false = 0
    for _ in range(300):
        target = random_molecule(rng, n_atoms=rng.randint(1, 6), decorate=False)
        pattern = random_molecule(rng, n_atoms=rng.randint(1, 4), decorate=False)
        expected = brute_force_match(pattern, target)
        assert substructure_match(pattern, target) == expected
        checked_true += expected
        checked_false += not expected
    assert checked_true > 20 and checked_false > 20
