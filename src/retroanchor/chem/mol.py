"""Molecular graph model.

Molecules are immutable graphs of attributed atoms and bonds.  Atom
indices are positional (0-based, in SMILES reading order); atom maps
are the 1-based integer tags carried in ``[C:5]``-style SMILES atoms
and are the currency used to anchor disconnection sites.

Atoms and bonds are values: the parser and the rewrites below build
them through shared constructors, so equal atoms and bonds, within a
molecule and across molecules, are often one object.  Compare them with
``==``; identity means nothing.

A molecule builds its graph, the adjacency lists and the bond lookup, on
first read, so one parsed only to validate a row never builds it.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from typing import Iterable, NamedTuple

SINGLE = "single"
DOUBLE = "double"
TRIPLE = "triple"
AROMATIC = "aromatic"

# Aromatic bonds contribute 1.5 to each endpoint's bond-order sum, so a
# matched pair of them counts as three: one pair behaves like one single
# plus one double bond for hydrogen bookkeeping.
BOND_ORDER = {SINGLE: 1.0, DOUBLE: 2.0, TRIPLE: 3.0, AROMATIC: 1.5}

# Default valences for the organic subset.  Atoms written without
# brackets take the smallest valence that accommodates their bonds.
DEFAULT_VALENCES: dict[str, tuple[int, ...]] = {
    "B": (3,),
    "C": (4,),
    "N": (3, 5),
    "O": (2,),
    "P": (3, 5),
    "S": (2, 4, 6),
    "F": (1,),
    "Cl": (1,),
    "Br": (1,),
    "I": (1,),
}

ORGANIC_SUBSET = frozenset(DEFAULT_VALENCES)

# Elements that may carry the aromatic (lowercase) flag.
AROMATIC_ELEMENTS = frozenset({"B", "C", "N", "O", "P", "S", "Se", "As", "Te"})

# Aromatic symbols writable without brackets.
AROMATIC_ORGANIC = frozenset({"b", "c", "n", "o", "p", "s"})

ELEMENT_SYMBOLS = frozenset(
    """
    H He Li Be B C N O F Ne Na Mg Al Si P S Cl Ar K Ca Sc Ti V Cr Mn Fe
    Co Ni Cu Zn Ga Ge As Se Br Kr Rb Sr Y Zr Nb Mo Tc Ru Rh Pd Ag Cd In
    Sn Sb Te I Xe Cs Ba La Ce Pr Nd Pm Sm Eu Gd Tb Dy Ho Er Tm Yb Lu Hf
    Ta W Re Os Ir Pt Au Hg Tl Pb Bi Po At Rn Fr Ra Ac Th Pa U Np Pu Am
    Cm Bk Cf Es Fm Md No Lr Rf Db Sg Bh Hs Mt Ds Rg Cn Nh Fl Mc Lv Ts Og
    """.split()
)

WILDCARD = "*"


class SmilesError(ValueError):
    """Raised for malformed SMILES text, with the offending position."""

    def __init__(self, message: str, position: int = 0):
        super().__init__(f"{message} (at position {position})")
        self.reason = message
        self.position = position


def implicit_hydrogens(element: str, aromatic: bool, bond_order_sum: float) -> int:
    """Hydrogen count implied by default valence for a bare organic-subset atom.

    The smallest default valence that accommodates the bond-order sum
    applies; if every valence is exceeded the count is zero.  Aromatic
    atoms use only their lowest default valence, so an unsubstituted
    aromatic ring carbon (two aromatic bonds, sum 3.0) gets one hydrogen
    while an aromatic sulfur (sum 3.0 against valence 2) gets none.
    """
    valences = DEFAULT_VALENCES.get(element)
    if valences is None:
        return 0
    if aromatic:
        valences = valences[:1]
    for valence in valences:
        if valence + 1e-9 >= bond_order_sum:
            return int(valence - bond_order_sum + 1e-9)
    return 0


class Atom(NamedTuple):
    """One atom.  ``element`` is a periodic-table symbol, or ``*`` for the
    wildcard and element-list markers used by reaction templates."""

    element: str
    aromatic: bool = False
    charge: int = 0
    isotope: int | None = None
    implicit_h: int = 0
    atom_map: int | None = None
    chirality: str | None = None
    # Non-empty for [F,Cl,Br,I]-style atoms: the allowed element symbols.
    element_options: tuple[str, ...] = ()

    @property
    def is_wildcard(self) -> bool:
        return self.element == WILDCARD and not self.element_options

    @property
    def is_element_list(self) -> bool:
        return bool(self.element_options)

    @property
    def is_heavy(self) -> bool:
        return self.element != "H"


class Bond(NamedTuple):
    """An undirected bond between atom indices ``a`` and ``b``.

    ``stereo`` keeps the ``/`` or ``\\`` mark exactly as written for the
    stored ``a -> b`` direction; it is lexical only and never interpreted
    geometrically.
    """

    a: int
    b: int
    kind: str = SINGLE
    stereo: str | None = None

    def key(self) -> tuple[int, int]:
        return (self.a, self.b) if self.a < self.b else (self.b, self.a)


# Shared constructors.  A NamedTuple's __new__ is Python code, which
# costs more than a cache hit, and a whole pipeline builds only a few
# thousand distinct atoms and bonds, so equal ones become one object.
# The caches are unbounded because chemistry bounds the key space;
# typed=True keeps True and 1 apart.  Callers pass every field
# positionally, so one value has one cache key.  The SMILES reader and
# writer keep one more each, from token text to Atom and back.
_atom = lru_cache(maxsize=None, typed=True)(Atom)
_bond = lru_cache(maxsize=None, typed=True)(Bond)


class Molecule:
    """An immutable attributed graph plus the text it was read from.  Not
    a NamedTuple: the graph is cached on the instance."""

    def __init__(self, atoms: tuple[Atom, ...], bonds: tuple[Bond, ...], source_text: str = ""):
        self.atoms, self.bonds, self.source_text = atoms, bonds, source_text

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Molecule) and (self.atoms, self.bonds, self.source_text) == (
            other.atoms, other.bonds, other.source_text
        )

    # Bonds are not re-checked: parse_smiles checks every new bond list,
    # and the rewrites keep the endpoints of an already checked one.
    @cached_property
    def _adjacency(self) -> tuple[tuple[tuple[int, Bond], ...], ...]:
        adjacency: list[list[tuple[int, Bond]]] = [[] for _ in self.atoms]
        for bond in self.bonds:
            adjacency[bond.a].append((bond.b, bond))
            adjacency[bond.b].append((bond.a, bond))
        return tuple(tuple(row) for row in adjacency)

    @cached_property
    def _bond_lookup(self) -> dict[tuple[int, int], Bond]:
        return {bond.key(): bond for bond in self.bonds}

    def neighbors(self, idx: int) -> tuple[tuple[int, Bond], ...]:
        return self._adjacency[idx]

    def degree(self, idx: int) -> int:
        return len(self.neighbors(idx))

    def bond_between(self, a: int, b: int) -> Bond | None:
        key = (a, b) if a < b else (b, a)
        return self._bond_lookup.get(key)

    def atom_maps(self) -> set[int]:
        return {a.atom_map for a in self.atoms if a.atom_map is not None}

    def components(self) -> list[list[int]]:
        """Connected components, each listed in ascending index order."""
        seen = [False] * len(self.atoms)
        components: list[list[int]] = []
        for start in range(len(self.atoms)):
            if seen[start]:
                continue
            stack = [start]
            seen[start] = True
            members = []
            while stack:
                current = stack.pop()
                members.append(current)
                for nbr, _ in self.neighbors(current):
                    if not seen[nbr]:
                        seen[nbr] = True
                        stack.append(nbr)
            components.append(sorted(members))
        return components


class AtomMapSet(frozenset):
    """A set of atom-map values naming a disconnection site."""

    __slots__ = ()

    @classmethod
    def of(cls, values: Iterable[int]) -> "AtomMapSet":
        return cls(int(v) for v in values)


def strip_atom_maps(molecule: Molecule) -> Molecule:
    """Copy of the molecule with every atom-map tag removed."""
    atoms = tuple(
        _atom(a.element, a.aromatic, a.charge, a.isotope, a.implicit_h, None, a.chirality, a.element_options)
        for a in molecule.atoms
    )
    return Molecule(atoms=atoms, bonds=molecule.bonds, source_text="")


def strip_stereo(molecule: Molecule) -> Molecule:
    """Copy of the molecule with chirality tags and bond stereo marks removed."""
    atoms = tuple(
        _atom(a.element, a.aromatic, a.charge, a.isotope, a.implicit_h, a.atom_map, None, a.element_options)
        for a in molecule.atoms
    )
    bonds = tuple(_bond(b.a, b.b, b.kind, None) for b in molecule.bonds)
    return Molecule(atoms=atoms, bonds=bonds, source_text="")
