"""Canonical ordering: permutation invariance, ring normalization,
pinned canonical text."""

from __future__ import annotations

import json
import random
from dataclasses import replace
from pathlib import Path

import pytest

from helpers import molecules_isomorphic, permute_molecule, random_aromatic_molecule, random_molecule
from retroanchor.chem import (
    canon,
    canonical_smiles,
    parse_smiles,
    write_smiles,
)
from retroanchor.chem.mol import DOUBLE, SINGLE, Molecule


def test_permutation_invariance_hand_case():
    texts = ["OCC", "C(O)C", "CCO", "C(C)O"]
    canon = {canonical_smiles(parse_smiles(t)) for t in texts}
    assert len(canon) == 1


def test_permutation_invariance_random():
    rng = random.Random(7)
    for _ in range(60):
        mol = random_molecule(rng, with_maps=rng.random() < 0.5)
        reference = canonical_smiles(mol, include_maps=True)
        for _ in range(8):
            shuffled = permute_molecule(mol, rng)
            assert canonical_smiles(shuffled, include_maps=True) == reference


def test_permutation_invariance_aromatic():
    rng = random.Random(8)
    for _ in range(40):
        mol = random_aromatic_molecule(rng, with_maps=True)
        reference = canonical_smiles(mol, include_maps=True)
        for _ in range(6):
            assert canonical_smiles(permute_molecule(mol, rng), include_maps=True) == reference


def test_kekulized_benzene_collapses():
    assert canonical_smiles(parse_smiles("C1=CC=CC=C1")) == canonical_smiles(parse_smiles("c1ccccc1"))
    assert canonical_smiles(parse_smiles("C1C=CC=CC=1")) == canonical_smiles(parse_smiles("c1ccccc1"))


def test_kekulized_pyridine_and_substituted_rings_collapse():
    assert canonical_smiles(parse_smiles("N1=CC=CC=C1")) == canonical_smiles(parse_smiles("n1ccccc1"))
    assert canonical_smiles(parse_smiles("CC1=CC=CC=C1")) == canonical_smiles(parse_smiles("Cc1ccccc1"))
    assert canonical_smiles(parse_smiles("O=C(O)C1=CC=CC=C1")) == canonical_smiles(
        parse_smiles("O=C(O)c1ccccc1")
    )


def test_five_ring_kekulized_not_rewritten():
    # Only alternating six-rings of C/N are rewritten; a kekulized
    # thiophene keeps its spelling and stays distinct from the aromatic one.
    assert canonical_smiles(parse_smiles("C1=CC=CS1")) != canonical_smiles(parse_smiles("c1cccs1"))


def test_canonical_text_is_a_fixpoint():
    rng = random.Random(9)
    for _ in range(40):
        text = canonical_smiles(random_molecule(rng, with_maps=rng.random() < 0.5), include_maps=True)
        assert canonical_smiles(parse_smiles(text), include_maps=True) == text


def test_canonical_text_reparses_to_isomorphic_molecule():
    rng = random.Random(10)
    for _ in range(40):
        mol = random_molecule(rng, with_maps=True)
        assert molecules_isomorphic(mol, parse_smiles(canonical_smiles(mol, include_maps=True)))


def test_text_written_in_any_rank_order_reparses_to_isomorphic_molecule():
    rng = random.Random(11)
    for k in range(60):
        mol = random_molecule(rng, with_maps=True) if k % 2 else random_aromatic_molecule(rng, with_maps=True)
        for _ in range(4):
            ranks = list(range(len(mol.atoms)))
            rng.shuffle(ranks)
            assert molecules_isomorphic(mol, parse_smiles(write_smiles(mol, ranks=ranks))), ranks


def test_canonical_smiles_strips_maps_by_default():
    assert ":" not in canonical_smiles(parse_smiles("[CH3:1][OH:2]"))


PINS_PATH = Path(__file__).parent / "fixtures" / "canonical_pins.json"


def _six_rings_enumerated_then_checked(molecule):
    """Reference for ``canon._qualifying_six_rings``: every 6-path of
    eligible atoms from an anchor, then a check that its six bonds
    alternate single/double."""

    def eligible(idx):
        atom = molecule.atoms[idx]
        return atom.element in ("C", "N") and not atom.aromatic and not atom.is_element_list

    def alternates(path):
        kinds = []
        for k in range(6):
            bond = molecule.bond_between(path[k], path[(k + 1) % 6])
            if bond is None or bond.kind not in (SINGLE, DOUBLE):
                return False
            kinds.append(bond.kind)
        return all(kinds[k] != kinds[(k + 1) % 6] for k in range(6))

    found = {}

    def extend(path):
        if len(path) == 6:
            if molecule.bond_between(path[-1], path[0]) is not None and alternates(path):
                found.setdefault(frozenset(path), tuple(path))
            return
        for nbr, _ in molecule.neighbors(path[-1]):
            if nbr > path[0] and nbr not in path and eligible(nbr):
                path.append(nbr)
                extend(path)
                path.pop()

    for start in range(len(molecule.atoms)):
        if eligible(start) and any(
            bond.kind == DOUBLE and eligible(nbr) for nbr, bond in molecule.neighbors(start)
        ):
            extend([start])
    return list(found.values())


def _kekulized(molecule, rng):
    """A ``random_aromatic_molecule`` with its ring (atoms 0-5) spelled in
    alternating single and double bonds; one time in three one ring bond
    repeats its predecessor's kind, so the ring no longer alternates."""
    kinds = [DOUBLE, SINGLE] * 3
    if rng.random() < 1 / 3:
        k = rng.randrange(6)
        kinds[k] = kinds[k - 1]
    atoms = tuple(replace(a, aromatic=False) if i < 6 else a for i, a in enumerate(molecule.atoms))
    bonds = tuple(replace(b, kind=kinds[b.a]) if b.b < 6 else b for b in molecule.bonds)
    return Molecule(atoms=atoms, bonds=bonds)


# Six-rings that must not be rewritten, each one step from an alternating ring.
SIX_RING_NEAR_MISSES = {
    "triple bond in the ring": "C1=CC=CC#C1",
    "two adjacent doubles": "C1=C=CC=CC=1",
    "aromatic bond in the ring": "C1=CC=CC:C1",
    "oxygen in the ring": "C1=CC=C[O+]=C1",
    "closing bond the kind of the fifth": "C1=CC=CC=C=1",
}


def test_six_ring_search_equals_enumerate_then_check():
    pins = json.loads(PINS_PATH.read_text(encoding="utf-8"))
    corpus = (PINS_PATH.parent / "smiles_corpus.txt").read_text(encoding="utf-8").splitlines()
    assert len(corpus) == 560
    texts = ["C1=CC=CC=C1", "N1=CC=CC=C1", "C1=CC=C2C=CC=CC2=C1", *corpus, *pins]
    molecules = [parse_smiles(text) for text in texts]
    rng = random.Random(22)
    molecules += [permute_molecule(mol, rng) for mol in molecules[:200]]
    molecules += [random_molecule(rng, with_maps=rng.random() < 0.5) for _ in range(200)]
    aromatic = [random_aromatic_molecule(rng, with_maps=True) for _ in range(100)]
    kekulized = [_kekulized(mol, rng) for mol in aromatic]
    molecules += aromatic + kekulized + [permute_molecule(mol, rng) for mol in kekulized]
    n_rings = 0
    for mol in molecules:
        rings = canon._qualifying_six_rings(mol)
        assert rings == _six_rings_enumerated_then_checked(mol), write_smiles(mol)
        n_rings += len(rings)
    assert n_rings > 100


@pytest.mark.parametrize("case", sorted(SIX_RING_NEAR_MISSES))
def test_six_ring_near_miss_is_not_rewritten(case):
    mol = parse_smiles(SIX_RING_NEAR_MISSES[case])
    assert canon._qualifying_six_rings(mol) == []
    assert _six_rings_enumerated_then_checked(mol) == []


def test_written_and_canonical_text_match_pins():
    # Regenerate only for a deliberate canonical-text change:
    # python3 scripts/gen_canonical_pins.py
    pins = json.loads(PINS_PATH.read_text(encoding="utf-8"))
    corpus = (PINS_PATH.parent / "smiles_corpus.txt").read_text(encoding="utf-8").splitlines()
    assert set(corpus) <= set(pins)
    for text, (written, canonical, canonical_maps) in pins.items():
        mol = parse_smiles(text)
        assert write_smiles(mol) == written, text
        assert canonical_smiles(mol) == canonical, text
        assert canonical_smiles(mol, include_maps=True) == canonical_maps, text


def test_refinement_never_runs_a_round_on_a_discrete_partition(monkeypatch):
    # A round on a partition where every atom has its own rank can only
    # return it unchanged, so ranking stops before one.
    discrete_inputs = []
    real_round = canon._refine_round

    def counting_round(neighbors, ranks):
        discrete_inputs.append(len(set(ranks)) == len(ranks))
        return real_round(neighbors, ranks)

    monkeypatch.setattr(canon, "_refine_round", counting_round)
    pins = json.loads(PINS_PATH.read_text(encoding="utf-8"))
    for text, (_, canonical, canonical_maps) in pins.items():
        mol = parse_smiles(text)
        assert canonical_smiles(mol) == canonical, text
        assert canonical_smiles(mol, include_maps=True) == canonical_maps, text
    assert discrete_inputs.count(False) > len(pins)
    assert discrete_inputs.count(True) == 0
