"""Canonical SMILES: rank the atoms, then write the text in rank order.

The ranking starts from per-atom invariants (element, aromatic flag,
charge, isotope, implicit hydrogen count, degree), refines each atom by
the sorted multiset of its neighbors' ranks until the partition is
stable or discrete, and resolves residual ties by promoting one member of
the lowest tied class and refining again.  A discrete partition, where
every atom has its own rank, cannot split, so no refinement round runs on
one, whether the invariants, a round or a promotion made it.  The
promoted member is chosen by atom map when one is present, else by input
position; for the symmetric ties this resolves, the choices are
interchangeable.  ``write_smiles`` then emits the text in one depth-first
traversal ordered by rank (Weininger, Weininger & Weininger, J. Chem.
Inf. Comput. Sci. 29:97, 1989).  The text does not depend on input atom order, except for
chirality tags and directional bond marks: they are copied as written,
not re-derived for the emission order, so equivalent stereo spellings
can give different texts.

Before ranking, any six-ring of plain carbons and nitrogens whose bonds
strictly alternate single/double is rewritten to aromatic form, so the
two kekulized spellings of such a ring collapse to one canonical text.

``canonical_text`` is the one text-to-canonical-text cache; see the
README, "Scoring".  A hit implies the text parses: a bracket atom with a
map parses exactly when it does without, and the key keeps every map
the parser rejects (all zeros, or more than nine digits).
"""

from __future__ import annotations

import re

from retroanchor.chem.mol import AROMATIC, DOUBLE, SINGLE, Molecule, _atom, _bond, strip_atom_maps, strip_stereo
from retroanchor.chem.smiles import parse_smiles, write_smiles

# A bracket atom's map as the parser reads one: one to nine digits, not all zeros.
_ATOM_MAP_RE = re.compile(r"(\[[^\[\]:]*):(?!0+\])\d{1,9}\]")
_CANONICAL_TEXTS: dict[tuple[str, bool, bool], str] = {}


def canonical_smiles(molecule: Molecule, include_maps: bool = False) -> str:
    """Canonical SMILES text; atom maps are dropped unless requested."""
    normalized = _normalize_alternating_rings(molecule)
    return write_smiles(
        normalized, include_maps=include_maps, ranks=_canonical_ranks(normalized)
    )


def canonical_text(text: str, include_maps: bool = False, ignore_stereo: bool = False) -> str:
    """``canonical_smiles`` of the molecule ``text`` spells, stereo marks
    removed when ``ignore_stereo``; SmilesError for text that does not
    parse, ValueError for a molecule with no spelling."""
    key = (text if include_maps else _ATOM_MAP_RE.sub(r"\1]", text), include_maps, ignore_stereo)
    if key not in _CANONICAL_TEXTS:  # a miss parses the text as written; a failure is not stored
        molecule = parse_smiles(text) if include_maps else strip_atom_maps(parse_smiles(text))
        molecule = strip_stereo(molecule) if ignore_stereo else molecule
        _CANONICAL_TEXTS[key] = canonical_smiles(molecule, include_maps)
    return _CANONICAL_TEXTS[key]


def _normalize_alternating_rings(molecule: Molecule) -> Molecule:
    rings = _qualifying_six_rings(molecule)
    if not rings:
        return molecule
    ring_atoms: set[int] = set()
    ring_bonds: set[tuple[int, int]] = set()
    for atom_path in rings:
        ring_atoms.update(atom_path)
        for k in range(6):
            a, b = atom_path[k], atom_path[(k + 1) % 6]
            ring_bonds.add((a, b) if a < b else (b, a))
    atoms = tuple(
        _atom(a.element, True, a.charge, a.isotope, a.implicit_h, a.atom_map, a.chirality, a.element_options)
        if i in ring_atoms
        else a
        for i, a in enumerate(molecule.atoms)
    )
    bonds = tuple(
        _bond(b.a, b.b, AROMATIC, b.stereo) if b.key() in ring_bonds else b
        for b in molecule.bonds
    )
    return Molecule(atoms=atoms, bonds=bonds)  # not the parse of any source text


def _qualifying_six_rings(molecule: Molecule) -> list[tuple[int, ...]]:
    """Six-rings of non-aromatic C/N whose bonds alternate single/double."""

    def eligible(idx: int) -> bool:
        atom = molecule.atoms[idx]
        return atom.element in ("C", "N") and not atom.aromatic and not atom.is_element_list

    found: dict[frozenset[int], tuple[int, ...]] = {}

    def extend(path: list[int], last: str | None) -> None:
        # Each bond is single or double and differs from the one before it;
        # in an even ring the closing bond then alternates once it differs
        # from the fifth.
        for nbr, bond in molecule.neighbors(path[-1]):
            if bond.kind not in (SINGLE, DOUBLE) or bond.kind == last:
                continue
            if len(path) == 6:
                if nbr == path[0]:
                    found.setdefault(frozenset(path), tuple(path))
            # Anchor enumeration at the smallest ring atom to visit each
            # ring a bounded number of times.
            elif nbr > path[0] and nbr not in path and eligible(nbr):
                path.append(nbr)
                extend(path, bond.kind)
                path.pop()

    # Every atom of an alternating ring has a double bond to a ring
    # neighbour, so only such atoms can anchor one.
    for start in range(len(molecule.atoms)):
        if eligible(start) and any(
            bond.kind == DOUBLE and eligible(nbr) for nbr, bond in molecule.neighbors(start)
        ):
            extend([start], None)
    return list(found.values())


def _dense_ranks(keys: list) -> list[int]:
    rank_of = {key: rank for rank, key in enumerate(sorted(set(keys)))}
    return [rank_of[key] for key in keys]


def _refine_round(neighbors: list[list[int]], ranks: list[int]) -> list[int]:
    """Split each rank class by its members' sorted neighbor ranks."""
    return _dense_ranks(
        [(ranks[i], tuple(sorted([ranks[j] for j in nbrs]))) for i, nbrs in enumerate(neighbors)]
    )


def _canonical_ranks(molecule: Molecule) -> list[int]:
    n = len(molecule.atoms)
    neighbors = [[j for j, _ in molecule.neighbors(i)] for i in range(n)]
    initial = [
        (
            atom.element,
            atom.element_options,
            atom.aromatic,
            atom.charge,
            atom.isotope or 0,
            atom.implicit_h,
            len(neighbors[i]),
        )
        for i, atom in enumerate(molecule.atoms)
    ]
    ranks = _dense_ranks(initial)
    while len(set(ranks)) < n:  # until discrete: every atom its own rank
        refined = _refine_round(neighbors, ranks)
        if refined != ranks:
            ranks = refined
            continue
        # Stable with ties: promote one member of the lowest tied class.
        class_sizes: dict[int, int] = {}
        for rank in ranks:
            class_sizes[rank] = class_sizes.get(rank, 0) + 1
        target = min(rank for rank, size in class_sizes.items() if size > 1)
        members = [i for i in range(n) if ranks[i] == target]
        chosen = min(members, key=lambda i: _promotion_key(molecule, i))
        ranks = _dense_ranks(
            [(ranks[i], 0 if i == chosen else 1) for i in range(n)]
        )
    return ranks


def _promotion_key(molecule: Molecule, idx: int) -> tuple[int, int]:
    atom_map = molecule.atoms[idx].atom_map
    return (0, atom_map) if atom_map is not None else (1, idx)
