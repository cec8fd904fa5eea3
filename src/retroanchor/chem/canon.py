"""Canonical SMILES: rank the atoms, then write the text in rank order.

The ranking keeps the partition as an ordered list of cells, each a
list of atoms of equal rank; an atom's rank is the number of atoms in
lower cells.  The first cells group the atoms by per-atom invariants
(element, aromatic flag, charge, isotope, implicit hydrogen count,
degree).  A round re-keys only the members of tied cells, by the sorted
ranks of each atom's neighbors, and splits each such cell in key order;
an atom alone in its cell keeps its place whatever its key.  Rounds run
until the partition is stable or discrete.  A stable partition with ties
is resolved by promoting one member of the first tied cell and refining
again; a discrete one, where every atom has its own cell, ends the
ranking.  The promoted member is chosen by atom map when one is present,
else by input position; for the symmetric ties this resolves, the
choices are interchangeable.  ``write_smiles`` then emits the text in one
depth-first traversal ordered by rank (Weininger, Weininger & Weininger,
J. Chem. Inf. Comput. Sci. 29:97, 1989).  The text does not depend on
input atom order, except for chirality tags and directional bond marks:
they are copied as written, not re-derived for the emission order, so
equivalent stereo spellings can give different texts.

Before ranking, any six-ring of plain carbons and nitrogens whose bonds
strictly alternate single/double is rewritten to aromatic form, so the
two kekulized spellings of such a ring collapse to one canonical text.

``canonical_text`` is the one text-to-canonical-text cache; see the
README, "Scoring".  It also takes a parsed molecule, looked up by its
source text, so a miss need not parse that text again.  A hit implies
the text parses: a bracket atom with a map parses exactly when it does
without, and the key keeps every map the parser rejects (all zeros, or
more than nine digits).

``AnchorTable`` alone reads and writes a product's atom identifiers: an
id is the dataset's atom map, unique in a product (ingest checks), and a
site is ascending ``Elem:id`` tokens, aromatic atoms in lower case.  A
reply's token resolves by id alone; its element is only information.
"""

from __future__ import annotations

import re
from functools import cached_property
from itertools import groupby

from retroanchor.chem.mol import AROMATIC, DOUBLE, SINGLE, AtomMapSet, Molecule, _atom, _bond
from retroanchor.chem.mol import strip_atom_maps, strip_stereo
from retroanchor.chem.smiles import parse_smiles, write_smiles

# A bracket atom's map as the parser reads one: one to nine ASCII digits, not all zeros.
_ATOM_MAP_RE = re.compile(r"(\[[^\[\]:]*):(?!0+\])[0-9]{1,9}\]")
_CANONICAL_TEXTS: dict[tuple[str, bool, bool], str] = {}


def canonical_smiles(molecule: Molecule, include_maps: bool = False) -> str:
    """Canonical SMILES text; atom maps are dropped unless requested."""
    normalized = _normalize_alternating_rings(molecule)
    return write_smiles(
        normalized, include_maps=include_maps, ranks=_canonical_ranks(normalized)
    )


def canonical_text(text: str | Molecule, include_maps: bool = False, ignore_stereo: bool = False) -> str:
    """``canonical_smiles`` of the molecule ``text`` spells, stereo marks
    removed when ``ignore_stereo``; SmilesError for text that does not
    parse, ValueError for a molecule with no spelling.  ``text`` may be a
    parsed molecule, read as its source text; a miss then canonicalizes
    it without parsing again.  A rewritten molecule, with no source text,
    is refused with ValueError."""
    molecule, text = (text, text.source_text) if isinstance(text, Molecule) else (None, text)
    if molecule is not None and not text:
        raise ValueError("a rewritten molecule has no source text to look up")
    key = (text if include_maps else _ATOM_MAP_RE.sub(r"\1]", text), include_maps, ignore_stereo)
    if key not in _CANONICAL_TEXTS:  # a miss reads the text as written; a failure is not stored
        molecule = parse_smiles(text) if molecule is None else molecule
        molecule = molecule if include_maps else strip_atom_maps(molecule)
        molecule = strip_stereo(molecule) if ignore_stereo else molecule
        _CANONICAL_TEXTS[key] = canonical_smiles(molecule, include_maps)
    return _CANONICAL_TEXTS[key]


class AnchorTable:
    """One product's anchors: ``index`` maps each id to its atom index,
    and ``text`` is the product's canonical text written with the ids."""

    def __init__(self, product: Molecule):
        self.product = product
        self.index = {atom.atom_map: i for i, atom in enumerate(product.atoms) if atom.atom_map is not None}

    @cached_property
    def text(self) -> str:
        return canonical_smiles(self.product, include_maps=True)

    def tokens(self, site: AtomMapSet) -> str:
        """``site`` as tokens such as ``"C:12 c:14"``; ValueError for an id the product lacks."""
        missing = sorted(site - self.index.keys())
        if missing:
            raise ValueError(f"atom maps not present in molecule: {missing}")
        atoms = [(self.product.atoms[self.index[value]], value) for value in sorted(site)]
        return " ".join(f"{a.element.lower() if a.aromatic else a.element}:{value}" for a, value in atoms)

    def read(self, text: str) -> AtomMapSet:
        """Tokens back to a site; ValueError for none, a malformed one or an id the product lacks."""
        tokens = text.split()
        if not tokens:
            raise ValueError("empty disconnection string")
        values = []
        for token in tokens:
            match = re.fullmatch(r"[A-Za-z*\[\],]*:([0-9]+)", token)
            if match is None:
                raise ValueError(f"malformed atom token {token!r}")
            value = int(match.group(1))
            if value not in self.index:
                raise ValueError(f"atom map {value} does not resolve against the product")
            values.append(value)
        return AtomMapSet.of(values)


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


def _parts(cell, key) -> list[list[int]]:
    """The members of ``cell`` grouped by ``key``, in ascending key order."""
    return [list(part) for _, part in groupby(sorted(cell, key=key), key)]


def _refine(cells: list[list[int]], neighbors: list[list[int]], rank: list[int]) -> list[list[int]]:
    """One round: split each tied cell by its members' sorted neighbor ranks."""
    refined = []
    for cell in cells:
        if len(cell) == 1:  # alone in its cell: keeps its place whatever its key
            refined.append(cell)
        else:
            keys = {i: sorted([rank[j] for j in neighbors[i]]) for i in cell}
            refined += _parts(cell, keys.__getitem__)
    return refined


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
    cells = _parts(range(n), initial.__getitem__)
    rank = [0] * n
    while True:
        start = 0  # an atom's rank: the number of atoms in lower cells
        for cell in cells:
            if rank[cell[0]] != start:  # the members of a cell share their old rank
                for i in cell:
                    rank[i] = start
            start += len(cell)
        if len(cells) == n:  # discrete: every atom its own cell
            return rank
        refined = _refine(cells, neighbors, rank)
        if len(refined) == len(cells):
            # Stable with ties: promote one member of the first tied cell.
            at = next(k for k, cell in enumerate(cells) if len(cell) > 1)
            chosen = min(cells[at], key=lambda i: _promotion_key(molecule, i))
            refined[at : at + 1] = [[chosen], [i for i in cells[at] if i != chosen]]
        cells = refined


def _promotion_key(molecule: Molecule, idx: int) -> tuple[int, int]:
    atom_map = molecule.atoms[idx].atom_map
    return (0, atom_map) if atom_map is not None else (1, idx)
