"""Canonical ordering: permutation invariance, ring normalization,
pinned canonical text."""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from helpers import molecules_isomorphic, permute_molecule, random_aromatic_molecule, random_molecule
from retroanchor.chem import (
    canon,
    canonical_smiles,
    parse_smiles,
    write_smiles,
)


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
