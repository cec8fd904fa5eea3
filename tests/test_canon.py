"""Canonical ordering: permutation invariance, ring normalization,
pinned canonical text."""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from helpers import molecules_isomorphic, permute_molecule, random_aromatic_molecule, random_molecule
from retroanchor.chem import SmilesError, canon, strip_atom_maps, strip_stereo
from retroanchor.chem.canon import canonical_smiles, canonical_text
from retroanchor.chem.mol import DOUBLE, SINGLE, Molecule
from retroanchor.chem.smiles import parse_smiles, write_smiles


def test_permutation_invariance_hand_case():
    texts = ["OCC", "C(O)C", "CCO", "C(C)O"]
    canon = {canonical_smiles(parse_smiles(t)) for t in texts}
    assert len(canon) == 1


def test_empty_molecule_writes_and_canonicalizes_to_empty_text():
    empty = Molecule(atoms=(), bonds=())
    assert write_smiles(empty) == write_smiles(empty, ranks=[]) == ""
    assert canonical_smiles(empty) == canonical_smiles(empty, include_maps=True) == ""


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
    atoms = tuple(a._replace(aromatic=False) if i < 6 else a for i, a in enumerate(molecule.atoms))
    bonds = tuple(b._replace(kind=kinds[b.a]) if b.b < 6 else b for b in molecule.bonds)
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
    # A round on a partition where every atom has its own cell can only
    # return it unchanged, so ranking stops before one.  Re-keying an atom
    # reads its neighbour list; an atom alone in its cell is never re-keyed.
    rounds = []
    real_refine = canon._refine

    class ReadLog(list):
        def __getitem__(self, i):
            self.read.add(i)
            return list.__getitem__(self, i)

    def logging_refine(cells, neighbors, rank):
        log = ReadLog(neighbors)
        log.read = set()
        refined = real_refine(cells, log, rank)
        alone = {cell[0] for cell in cells if len(cell) == 1}
        rounds.append((len(cells) == len(rank), log.read & alone))
        return refined

    monkeypatch.setattr(canon, "_refine", logging_refine)
    pins = json.loads(PINS_PATH.read_text(encoding="utf-8"))
    for text, (_, canonical, canonical_maps) in pins.items():
        mol = parse_smiles(text)
        assert canonical_smiles(mol) == canonical, text
        assert canonical_smiles(mol, include_maps=True) == canonical_maps, text
    discrete = [on_discrete for on_discrete, _ in rounds]
    assert discrete.count(False) > len(pins)
    assert discrete.count(True) == 0
    assert all(not rekeyed_alone for _, rekeyed_alone in rounds)


def _dense_ranks(keys: list) -> list[int]:
    rank_of = {key: rank for rank, key in enumerate(sorted(set(keys)))}
    return [rank_of[key] for key in keys]


def _ranks_rescanning_every_atom(molecule):
    """Reference for ``canon._canonical_ranks``: every round re-keys every
    atom by (rank, sorted neighbour ranks) and re-ranks densely; a stable
    round promotes one member of the lowest tied rank."""
    n = len(molecule.atoms)
    neighbors = [[j for j, _ in molecule.neighbors(i)] for i in range(n)]
    ranks = _dense_ranks([
        (a.element, a.element_options, a.aromatic, a.charge, a.isotope or 0, a.implicit_h, len(neighbors[i]))
        for i, a in enumerate(molecule.atoms)
    ])
    while len(set(ranks)) < n:
        refined = _dense_ranks(
            [(ranks[i], tuple(sorted([ranks[j] for j in nbrs]))) for i, nbrs in enumerate(neighbors)]
        )
        if refined != ranks:
            ranks = refined
            continue
        target = min(r for r in set(ranks) if ranks.count(r) > 1)
        chosen = min((i for i in range(n) if ranks[i] == target), key=lambda i: canon._promotion_key(molecule, i))
        ranks = _dense_ranks([(ranks[i], 0 if i == chosen else 1) for i in range(n)])
    return ranks


def test_cell_ranks_equal_ranks_from_rescanning_every_atom():
    rng = random.Random(30)
    pins = json.loads(PINS_PATH.read_text(encoding="utf-8"))
    texts = (PINS_PATH.parent / "smiles_corpus.txt").read_text(encoding="utf-8").splitlines()
    molecules = [parse_smiles(text) for text in dict.fromkeys(texts + list(pins))]
    molecules += [random_molecule(rng, with_maps=rng.random() < 0.5) for _ in range(200)]
    aromatic = [random_aromatic_molecule(rng, with_maps=rng.random() < 0.5) for _ in range(100)]
    molecules += aromatic + [_kekulized(mol, rng) for mol in aromatic]
    molecules += [permute_molecule(mol, rng) for mol in molecules]
    molecules += [strip_atom_maps(mol) for mol in molecules]
    for mol in molecules:
        assert canon._canonical_ranks(mol) == _ranks_rescanning_every_atom(mol), write_smiles(mol)


CORPUS = (Path(__file__).parent / "fixtures" / "smiles_corpus.txt").read_text(encoding="utf-8").splitlines()


def _uncached_text(text: str, include_maps: bool, ignore_stereo: bool) -> str:
    molecule = parse_smiles(text) if include_maps else strip_atom_maps(parse_smiles(text))
    return canonical_smiles(strip_stereo(molecule) if ignore_stereo else molecule, include_maps)


def _random_texts(rng: random.Random, count: int) -> list[str]:
    """Strings of SMILES tokens, template atoms among them; many do not parse."""
    tokens = ["C", "c", "N", "O", "Cl", "*", "(", ")", "=", "#", "1", "2", ".", ":", "/",
              "[CH3:4]", "[C@@H]", "[*]", "[*:2]", "[C,N]", "[Cl,Br,I:3]", "[nH]", ","]
    return ["".join(rng.choice(tokens) for _ in range(rng.randint(1, 8))) for _ in range(count)]


class TestCanonicalText:
    """``canonical_text`` is ``canonical_smiles`` of the parsed text, read
    through one cache of strings that stores no failure."""

    @pytest.fixture(autouse=True)
    def empty_cache(self, monkeypatch):
        monkeypatch.setattr(canon, "_CANONICAL_TEXTS", {})

    def test_equals_uncached_text_in_either_order(self):
        rng = random.Random(21)
        generated = [random_molecule(rng, with_maps=True) for _ in range(30)]
        generated += [random_aromatic_molecule(rng, with_maps=True) for _ in range(30)]
        permuted = [permute_molecule(parse_smiles(t), rng) for t in CORPUS[::4]]
        permuted += [permute_molecule(m, rng) for m in generated]
        # Colons outside brackets are aromatic bonds, not atom maps.
        bonds = ["c1cc:c:cc1[CH3:5]", "[cH:1]1:c:c:c:c:c:1", "C1:C:C:C:C:C:1", "[13CH3:2]c1ccccc:1"]
        texts = CORPUS + [write_smiles(m, include_maps=True) for m in generated + permuted] + bonds
        flags = [(include_maps, ignore_stereo) for include_maps in (False, True) for ignore_stereo in (False, True)]
        for order in (texts, texts[::-1]):  # the second order reads what the first wrote
            for text in order:
                for include_maps, ignore_stereo in flags:
                    expected = _uncached_text(text, include_maps, ignore_stereo)
                    assert canonical_text(text, include_maps, ignore_stereo) == expected, text
        assert len(canon._CANONICAL_TEXTS) < 4 * len(set(texts))  # differently mapped spellings share

    def test_cache_holds_strings_only(self):
        for text in [*CORPUS[:50], "[CH3:1]C", "[CH3:2]C"]:
            for include_maps in (False, True):
                canonical_text(text, include_maps)
        assert canon._CANONICAL_TEXTS
        for (text, include_maps, ignore_stereo), canonical in canon._CANONICAL_TEXTS.items():
            assert (type(text), type(include_maps), type(ignore_stereo), type(canonical)) == (str, bool, bool, str)

    def test_a_cached_spelling_never_admits_a_text_the_parser_rejects(self):
        for text in ("[CH3:1]C", "C", "[CH3]C", "[C]"):
            canonical_text(text)
        # A zero map, a ten-digit map, and colons and brackets outside a
        # bracket atom: each key differs from every cached one.
        rejected = {"[CH3:0]C": 0, "[CH3:00]C": 0, "[CH3:1234567890]C": 0, "C:1]": 3, "[C]:1]": 5}
        for text, position in rejected.items():
            for _ in range(2):  # a failure is not stored, so it raises again
                with pytest.raises(SmilesError) as excinfo:
                    canonical_text(text)
                assert excinfo.value.position == position, text
        assert len(canon._CANONICAL_TEXTS) == 3  # "[CH3:1]C" and "[CH3]C" share a key

    def test_a_map_in_non_ascii_digits_misses_the_map_free_spelling(self):
        canonical_text("[CH3]C")
        with pytest.raises(SmilesError, match="malformed bracket atom"):
            canonical_text("[CH3:\u0661\u0662]C")

    def test_a_failing_text_raises_the_same_error_each_time(self):
        for text in ("C1CC(", "[Zz]", "C" + "1" * 60):
            errors = []
            for _ in range(2):
                with pytest.raises(ValueError) as excinfo:
                    canonical_text(text, include_maps=True)
                errors.append((type(excinfo.value), str(excinfo.value)))
            assert errors[0] == errors[1]
        assert canon._CANONICAL_TEXTS == {}

    def test_template_atoms_show_in_the_text(self):
        """For a text that parses, a wildcard or an element list is read
        from the text alone: it holds ``*`` or ``,``."""
        rng = random.Random(28)
        parsed = 0
        for text in [*CORPUS, *_random_texts(rng, 20_000)]:
            try:
                molecule = parse_smiles(text)
            except SmilesError:
                continue
            parsed += 1
            has_template_atoms = any(a.is_wildcard or a.is_element_list for a in molecule.atoms)
            assert ("*" in text or "," in text) == has_template_atoms, text
        assert parsed > len(CORPUS) + 1_000

    def test_a_parsed_molecule_reads_as_its_source_text_and_is_not_parsed_again(self, monkeypatch):
        molecules = [parse_smiles(text) for text in CORPUS[::7]]
        parses = []
        monkeypatch.setattr(canon, "parse_smiles", lambda text: parses.append(text) or parse_smiles(text))
        flags = [(include_maps, ignore_stereo) for include_maps in (False, True) for ignore_stereo in (False, True)]
        for molecule in molecules:
            for include_maps, ignore_stereo in flags:
                expected = _uncached_text(molecule.source_text, include_maps, ignore_stereo)
                assert canonical_text(molecule, include_maps, ignore_stereo) == expected
                assert canonical_text(molecule.source_text, include_maps, ignore_stereo) == expected
        assert parses == []  # the texts hit what the molecules stored

    def test_a_rewritten_molecule_is_refused(self):
        molecule = parse_smiles("[CH3:1]C=O")
        for rewritten in (strip_atom_maps(molecule), strip_stereo(molecule), Molecule(molecule.atoms, molecule.bonds)):
            with pytest.raises(ValueError, match="no source text"):
                canonical_text(rewritten)
        assert canon._CANONICAL_TEXTS == {}
