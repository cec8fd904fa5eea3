"""SMILES reader and writer."""

from __future__ import annotations

import random

import pytest

from helpers import (
    brute_force_isomorphic,
    molecules_isomorphic,
    permute_molecule,
    random_aromatic_molecule,
    random_molecule,
)
from retroanchor.chem import SmilesError, parse_smiles, smiles, write_smiles
from retroanchor.chem.mol import AROMATIC, DOUBLE, SINGLE, TRIPLE, Atom


def test_linear_chain():
    mol = parse_smiles("CCO")
    assert [a.element for a in mol.atoms] == ["C", "C", "O"]
    assert [a.implicit_h for a in mol.atoms] == [3, 2, 1]
    assert len(mol.bonds) == 2
    assert all(b.kind == SINGLE for b in mol.bonds)


def test_bond_kinds():
    mol = parse_smiles("C=C-C#N")
    assert [b.kind for b in mol.bonds] == [DOUBLE, SINGLE, TRIPLE]
    assert [a.implicit_h for a in mol.atoms] == [2, 1, 0, 0]


def test_branches_and_rings():
    mol = parse_smiles("CC(=O)OC1CCCCC1")
    assert len(mol.atoms) == 10
    assert len(mol.bonds) == 10
    ring_bond = mol.bond_between(4, 9)
    assert ring_bond is not None and ring_bond.kind == SINGLE


def test_percent_ring_closure_and_digit_reuse():
    assert len(parse_smiles("C%12CCCCC%12").bonds) == 6
    mol = parse_smiles("C1CC1C1CC1")
    assert len(mol.bonds) == 7


def test_aromatic_ring_implicit_h():
    benzene = parse_smiles("c1ccccc1")
    assert all(a.aromatic and a.implicit_h == 1 for a in benzene.atoms)
    assert all(b.kind == AROMATIC for b in benzene.bonds)

    pyridine = parse_smiles("n1ccccc1")
    assert pyridine.atoms[0].implicit_h == 0

    thiophene = parse_smiles("c1ccsc1")
    assert thiophene.atoms[3].element == "S"
    assert thiophene.atoms[3].implicit_h == 0

    furan = parse_smiles("c1ccoc1")
    assert furan.atoms[3].implicit_h == 0


def test_bracket_attributes():
    atom = parse_smiles("[13C@@H2-2:45]").atoms[0]
    assert atom.isotope == 13
    assert atom.chirality == "@@"
    assert atom.implicit_h == 2
    assert atom.charge == -2
    assert atom.atom_map == 45

    assert parse_smiles("[NH4+]").atoms[0].charge == 1
    assert parse_smiles("[O--]").atoms[0].charge == -2
    assert parse_smiles("[Fe+3]").atoms[0].charge == 3
    assert parse_smiles("[nH]").atoms[0].aromatic is True
    assert parse_smiles("[se]").atoms[0].element == "Se"


def test_wildcard_and_element_list():
    mol = parse_smiles("[*]N")
    assert mol.atoms[0].is_wildcard
    assert mol.atoms[0].implicit_h == 0

    bare = parse_smiles("*N")
    assert bare.atoms[0].is_wildcard

    listed = parse_smiles("[F,Cl,Br,I]c1ccccc1").atoms[0]
    assert listed.is_element_list
    assert listed.element_options == ("F", "Cl", "Br", "I")
    assert listed.implicit_h == 0


def test_stereo_marks_kept_lexically():
    mol = parse_smiles("C/C=C\\C")
    marks = [b.stereo for b in mol.bonds]
    assert marks == ["/", None, "\\"]
    assert [b.kind for b in mol.bonds] == [SINGLE, DOUBLE, SINGLE]


def test_ring_closure_bond_symbol_at_both_ends():
    # Both ends may carry the same symbol: one bond, the opener's mark kept.
    double = parse_smiles("C=1CCCCC=1")
    assert [(b.a, b.b) for b in double.bonds if b.kind == DOUBLE] == [(0, 5)]
    assert parse_smiles("C/1CCCCC/1").bond_between(0, 5).stereo == "/"
    # A mark only at the closer reads toward the opener, so it flips.
    assert parse_smiles("C-1CCCCC/1").bond_between(0, 5).stereo == "\\"


def test_dot_separates_components():
    mol = parse_smiles("[Na+].[Cl-]")
    assert len(mol.bonds) == 0
    assert len(mol.components()) == 2


def test_default_bond_between_aromatic_atoms_is_aromatic():
    mol = parse_smiles("cc")
    assert mol.bonds[0].kind == AROMATIC
    biphenyl = parse_smiles("c1ccccc1-c1ccccc1")
    linking = biphenyl.bond_between(5, 6)
    assert linking.kind == SINGLE


# (text, id fragment, exact reason, exact position).  The later rows put
# a malformed token after valid ones, so a bracket token already read
# (and cached) precedes the fault.
PARSE_ERRORS = [
    ("", "empty", "empty SMILES", 0),
    ("C(", "unclosed branch", "unclosed branch", 1),
    ("C)", "unmatched", "unmatched ')'", 1),
    ("C()", "empty branch", "empty branch", 2),
    ("C1CC", "unpaired ring closure", "unpaired ring closure 1", 1),
    ("CC=", "dangling bond", "dangling bond at end of input", 2),
    ("=CC", "bond with no preceding atom", "bond with no preceding atom", 0),
    ("C=.C", "adjacent to '.'", "bond symbol adjacent to '.'", 2),
    ("C.=C", "bond with no preceding atom", "bond with no preceding atom", 2),
    # A dot stands only between two atoms: a leading, trailing or doubled
    # one is an error, not an empty component.
    (".", "not between two atoms", "'.' not between two atoms", 0),
    ("..", "not between two atoms", "'.' not between two atoms", 0),
    (".C", "not between two atoms", "'.' not between two atoms", 0),
    ("C.", "not between two atoms", "'.' not between two atoms", 1),
    ("C..C", "not between two atoms", "'.' not between two atoms", 2),
    ("C(C.)", "not between two atoms", "'.' not between two atoms", 3),
    ("C==C", "two bond symbols", "two bond symbols in a row", 2),
    ("C11", "itself", "ring closure bonds an atom to itself", 2),
    ("C12C12", "duplicate bond", "duplicate bond between atoms 0 and 1", 4),
    ("[Xx]", "unknown element", "unknown element 'Xx'", 0),
    ("[xx]", "unknown element", "unknown element 'xx'", 0),
    ("[C", "unclosed bracket", "unclosed bracket atom", 0),
    ("[]", "malformed bracket", "malformed bracket atom", 0),
    ("[C+H]", "malformed bracket", "malformed bracket atom", 0),
    ("[0C]", "isotope", "isotope must be positive", 0),
    ("[CH4:0]", "atom map", "atom map must be positive", 0),
    ("[*H2]", "no hydrogen count", "wildcard and element-list atoms take no hydrogen count", 0),
    ("[F,Cl,Br,I]C[F,Xq]", "unknown element", "unknown element 'Xq' in element list", 12),
    ("C$C", "unexpected character", "unexpected character '$'", 1),
    ("1CC", "ring closure with no preceding atom", "ring closure with no preceding atom", 0),
    ("C%1C", "two digits", "'%' ring closure needs two digits", 1),
    ("C=1CC-1", "conflicting bond symbols", "conflicting bond symbols on ring closure", 6),
    ("[cl]", "cannot be aromatic", "element 'Cl' cannot be aromatic", 0),
    ("[HH]", "hydrogen count", "hydrogen atom with a hydrogen count", 0),
    ("[C:1]C[Zz]", "unknown element", "unknown element 'Zz'", 6),
    ("[C:1]C[C:1", "unclosed bracket", "unclosed bracket atom", 6),
    ("[C:1]C[C:0]", "atom map", "atom map must be positive", 6),
    ("[NH4+].[C+H]", "malformed bracket", "malformed bracket atom", 7),
    ("[OH-]C(=O)[C+16]", "charge", "charge magnitude 16 out of range", 10),
    # A bracket number takes at most nine digits, so int() never sees thousands.
    ("C[CH3:1234567890]", "malformed bracket", "malformed bracket atom", 1),
    ("C[1234567890CH4]", "malformed bracket", "malformed bracket atom", 1),
    ("C[CH1234567890]", "malformed bracket", "malformed bracket atom", 1),
    ("[C:1]C(", "unclosed branch", "unclosed branch", 6),
    ("[C:1][C:1]1[C:1]1", "duplicate bond", "duplicate bond between atoms 1 and 2", 16),
    ("C\u00b2", "unexpected character", "unexpected character '\u00b2'", 1),
    ("C%\u00b2\u00b3C", "two digits", "'%' ring closure needs two digits", 1),
    # OpenSMILES digits are ASCII: int() would read these Arabic-Indic ones.
    ("C\u0661CC\u0661", "unexpected character", "unexpected character '\u0661'", 1),
    ("[CH3:\u0661\u0662]C", "malformed bracket", "malformed bracket atom", 0),
    ("[\u0661\u0663CH4]", "malformed bracket", "malformed bracket atom", 0),
    ("[CH\u0663]C", "malformed bracket", "malformed bracket atom", 0),
    ("C%\u0661\u0662CC%\u0661\u0662", "two digits", "'%' ring closure needs two digits", 1),
]


@pytest.mark.parametrize(
    "text,fragment,reason,position",
    PARSE_ERRORS,
    ids=[f"{text}-{fragment}" for text, fragment, _, _ in PARSE_ERRORS],
)
def test_parse_errors_carry_position(text, fragment, reason, position, monkeypatch):
    # Cold from an empty token cache, then warm: the first attempt cached
    # every bracket token that parsed before the fault.
    monkeypatch.setattr(smiles, "_BRACKET_ATOMS", {})
    for _ in range(2):
        with pytest.raises(SmilesError) as excinfo:
            parse_smiles(text)
        assert fragment in excinfo.value.reason
        assert (excinfo.value.reason, excinfo.value.position) == (reason, position)
        assert str(excinfo.value) == f"{reason} (at position {position})"


def test_bracket_token_gives_equal_atoms_in_any_bond_context(monkeypatch):
    # One token in different molecules: alone, after a single or double
    # bond, opening a ring, in a branch and in an aromatic ring.
    texts = ["[CH2:7]", "C[CH2:7]", "C=[CH2:7]", "[CH2:7]1CC1", "C([CH2:7])(=O)O", "c1cc[CH2:7]cc1"]
    expected = Atom("C", False, 0, None, 2, 7, None, ())
    monkeypatch.setattr(smiles, "_BRACKET_ATOMS", {})
    for _ in range(2):  # cold, then from the cache
        for text in texts:
            [atom] = [a for a in parse_smiles(text).atoms if a.atom_map == 7]
            assert atom == expected
    assert list(smiles._BRACKET_ATOMS) == ["[CH2:7]"]
    # Only tokens that parse are stored.
    with pytest.raises(SmilesError):
        parse_smiles("[C:1]C[Zz]")
    assert list(smiles._BRACKET_ATOMS) == ["[CH2:7]", "[C:1]"]
    # Bare atoms take their hydrogens from their bonds.
    assert [a.implicit_h for a in parse_smiles("C=CC").atoms] == [2, 1, 3]


def test_duplicate_bond_via_ring_closure():
    with pytest.raises(SmilesError):
        parse_smiles("C1C1")


@pytest.mark.parametrize(
    "text",
    [
        "CCO",
        "CC(=O)O",
        "c1ccccc1",
        "C1=CC=CC=C1",
        "c1ccc2ccccc2c1",
        "O=C(O)c1ccc(N)cc1",
        "[CH3:1][C:2](=[O:3])[NH:4][CH3:5]",
        "[Na+].[Cl-]",
        "C/C=C/C(=O)O",
        "F[C@@H](Cl)Br",
        "[13CH4]",
        "[*]N([*])C(=O)[F,Cl,Br,I]",
        "C%11CCCC%11",
        "[nH]1cccc1",
        "[O-]C(=O)c1ccccc1[N+](=O)[O-]",
        "S(=O)(=O)(O)O",
        "C(#N)c1ccncc1",
    ],
)
def test_round_trip_hand_cases(text):
    mol = parse_smiles(text)
    rewritten = write_smiles(mol)
    assert molecules_isomorphic(mol, parse_smiles(rewritten))


def test_round_trip_random_molecules():
    rng = random.Random(20250817)
    for _ in range(150):
        mol = random_molecule(rng, with_maps=rng.random() < 0.5)
        rewritten = write_smiles(mol)
        assert molecules_isomorphic(mol, parse_smiles(rewritten)), rewritten


def test_long_chain_writes_without_recursion():
    assert write_smiles(parse_smiles("C" * 5000)) == "C" * 5000


def test_identity_ranks_write_the_default_text():
    """Without ``ranks`` an atom's rank is its index, so passing the
    identity ranks changes nothing; neighbour lists are in bond order, so
    this fails for a writer that skips sorting them when no ranks are
    given."""
    rng = random.Random(1313)
    for k in range(200):
        if k % 2:
            mol = random_aromatic_molecule(rng, with_maps=rng.random() < 0.5)
        else:
            mol = random_molecule(rng, with_maps=rng.random() < 0.5)
        for molecule in (mol, permute_molecule(mol, rng)):
            identity = list(range(len(molecule.atoms)))
            assert write_smiles(molecule) == write_smiles(molecule, ranks=identity)


def test_isomorphism_oracle_agrees_with_brute_force():
    rng = random.Random(91)
    for _ in range(120):
        m1 = random_molecule(rng, n_atoms=rng.randint(1, 6))
        m2 = parse_smiles(write_smiles(m1))
        assert brute_force_isomorphic(m1, m2) == molecules_isomorphic(m1, m2) is True
        m3 = random_molecule(rng, n_atoms=rng.randint(1, 6))
        assert brute_force_isomorphic(m1, m3) == molecules_isomorphic(m1, m3)


def test_write_without_maps():
    mol = parse_smiles("[CH3:1][C:2](=[O:3])[OH:9]")
    assert write_smiles(mol, include_maps=False) == "CC(=O)O"


def test_write_bracket_when_hydrogens_differ_from_default():
    mol = parse_smiles("[CH2]C")
    rewritten = write_smiles(mol)
    assert rewritten == "[CH2]C"
    assert parse_smiles(rewritten).atoms[0].implicit_h == 2


def test_write_charge_styles():
    assert write_smiles(parse_smiles("[O-]")) == "[O-]"
    assert write_smiles(parse_smiles("[O--]")) == "[O-2]"
    assert write_smiles(parse_smiles("[NH4+]")) == "[NH4+]"
