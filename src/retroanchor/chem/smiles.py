"""SMILES reader and writer for the desk-scale dialect used here.

Supported: the organic subset, bracket atoms with isotopes, charges,
hydrogen counts, chirality tags and atom maps, aromatic lowercase
forms, ring closures (including %nn), branches, dots, explicit bond
symbols, directional single-bond marks, wildcard atoms, and bracket
element lists such as [F,Cl,Br,I].  Chirality and directional marks
are carried lexically; nothing geometric is derived from them.

Aromaticity is trusted as written.  There is no aromatic perception
and no kekulization beyond the alternating-ring rewrite performed by
the canonicalizer.

Each bracket-atom token is parsed once per process.  A bracket atom
states its hydrogen count, so its token text alone decides its Atom,
and the reader keeps finished atoms keyed by that text.  The cache is
unbounded for the reason the constructor caches in mol.py are:
chemistry bounds the key space.  It holds lexical atom fields only.
Anything that depends on an atom's neighbours stays out of it: the
implicit hydrogens of bare organic-subset atoms, set in _finalize, and
stereo parity once chirality is interpreted rather than carried as text.
The writer sums each atom's bond orders in its one pass over the
neighbor lists and writes each atom's token once per call, from a cache
keyed by (atom, include_maps, bond-order sum), all that the token depends
on.  It then writes the text atom by atom in emission order, each atom
with the dot, branch marks and bond symbol before it and its ring-closure
digits after it.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Sequence

from retroanchor.chem.mol import (
    AROMATIC,
    AROMATIC_ELEMENTS,
    AROMATIC_ORGANIC,
    BOND_ORDER,
    DOUBLE,
    ELEMENT_SYMBOLS,
    ORGANIC_SUBSET,
    SINGLE,
    TRIPLE,
    WILDCARD,
    Atom,
    Bond,
    Molecule,
    SmilesError,
    _atom,
    _bond,
    implicit_hydrogens,
)

# A number takes one to nine ASCII digits: int() refuses a text of thousands, and reads "١".
_BRACKET_RE = re.compile(
    r"\[(?P<isotope>\d{1,9})?"
    r"(?P<symbols>\*|[A-Za-z][a-z]?(?:,[A-Za-z][a-z]?)+|[A-Za-z][a-z]?)"
    r"(?P<chiral>@{1,2})?"
    r"(?P<hcount>H\d{0,9})?"
    r"(?P<charge>\+\d{1,2}|-\d{1,2}|\++|-+)?"
    r"(?::(?P<map>\d{1,9}))?"
    r"\]",
    re.ASCII,
)

# Bond symbol -> (kind, stereo mark).  Directional marks are single bonds.
_BOND_CHARS = {
    "-": (SINGLE, None),
    "=": (DOUBLE, None),
    "#": (TRIPLE, None),
    ":": (AROMATIC, None),
    "/": (SINGLE, "/"),
    "\\": (SINGLE, "\\"),
}

_FLIP_STEREO = {"/": "\\", "\\": "/"}

_BOND_SYMBOL = {SINGLE: "-", DOUBLE: "=", TRIPLE: "#", AROMATIC: ":"}

_DIGITS = frozenset("0123456789")  # ring-closure digits; isdecimal() also passes "١"


# Bracket-atom token text -> finished Atom (see the module docstring).
# Only successful parses are stored; a miss parses the real text, so an
# error carries its absolute position.
_BRACKET_ATOMS: dict[str, Atom] = {}

# Atoms written without brackets, keyed by symbol, before _finalize sets
# their implicit hydrogens from the bonds.
_BARE_ATOMS: dict[str, Atom] = {
    symbol: _atom(symbol.capitalize(), symbol.islower(), 0, None, 0, None, None, ())
    for symbol in (*ORGANIC_SUBSET, *AROMATIC_ORGANIC, WILDCARD)
}


def _parse_charge(token: str | None, pos: int) -> int:
    if token is None:
        return 0
    sign = 1 if token[0] == "+" else -1
    digits = token.lstrip("+-")
    if digits:
        value = int(digits)
    else:
        value = len(token)
    if value > 15:
        raise SmilesError(f"charge magnitude {value} out of range", pos)
    return sign * value


def _parse_bracket(text: str, pos: int) -> Atom:
    match = _BRACKET_RE.match(text, pos)
    if match is None:
        if "]" not in text[pos:]:
            raise SmilesError("unclosed bracket atom", pos)
        raise SmilesError("malformed bracket atom", pos)

    symbols = match["symbols"]
    element, aromatic, options = WILDCARD, False, ()
    if symbols == WILDCARD:
        pass
    elif "," in symbols:
        options = tuple(symbols.split(","))
        for option in options:
            if option not in ELEMENT_SYMBOLS:
                raise SmilesError(f"unknown element {option!r} in element list", pos)
    elif symbols[0].isupper():
        if symbols not in ELEMENT_SYMBOLS:
            raise SmilesError(f"unknown element {symbols!r}", pos)
        element = symbols
    else:
        capitalized = symbols.capitalize()
        if capitalized not in ELEMENT_SYMBOLS:
            raise SmilesError(f"unknown element {symbols!r}", pos)
        if capitalized not in AROMATIC_ELEMENTS:
            raise SmilesError(f"element {capitalized!r} cannot be aromatic", pos)
        element, aromatic = capitalized, True

    hcount = 0
    hcount_token = match["hcount"]
    if hcount_token is not None:
        if element == WILDCARD:
            raise SmilesError("wildcard and element-list atoms take no hydrogen count", pos)
        if element == "H":
            raise SmilesError("hydrogen atom with a hydrogen count", pos)
        hcount = int(hcount_token[1:] or 1)

    isotope = int(match["isotope"]) if match["isotope"] else None
    if isotope == 0:
        raise SmilesError("isotope must be positive", pos)
    atom_map = int(match["map"]) if match["map"] else None
    if atom_map == 0:
        raise SmilesError("atom map must be positive", pos)

    charge = _parse_charge(match["charge"], pos)
    return _atom(element, aromatic, charge, isotope, hcount, atom_map, match["chiral"], options)


def parse_smiles(text: str) -> Molecule:
    """Parse SMILES text into a molecular graph.

    Raises SmilesError, carrying the offending character position, for
    malformed input: unbalanced brackets or parentheses, unpaired ring closures,
    unknown elements, malformed charges or isotopes, bonds with no atom to attach
    to, a dot not between two atoms, and duplicate bonds between one pair.
    """
    s = text.strip()
    if not s:
        raise SmilesError("empty SMILES", 0)

    atoms: list[Atom] = []
    bare: list[int] = []  # indices of atoms from _BARE_ATOMS
    bonds: list[tuple] = []  # (a, b, kind | None, stereo)
    bonded_pairs: set[tuple[int, int]] = set()
    branch_stack: list[tuple[int, int, int]] = []  # (prev, atom count, position)
    rings: dict[int, tuple[int, tuple | None, int]] = {}
    prev: int | None = None
    pending: tuple[str, str | None] | None = None
    pending_pos = 0

    def add_bond(a: int, b: int, kind: str | None, stereo: str | None, pos: int) -> None:
        if a == b:
            raise SmilesError("ring closure bonds an atom to itself", pos)
        key = (a, b) if a < b else (b, a)
        if key in bonded_pairs:
            raise SmilesError(f"duplicate bond between atoms {key[0]} and {key[1]}", pos)
        bonded_pairs.add(key)
        bonds.append((a, b, kind, stereo))

    i = 0
    while i < len(s):
        ch = s[i]
        if ch == "(":
            if prev is None:
                raise SmilesError("branch with no preceding atom", i)
            if pending:
                raise SmilesError("bond symbol before branch opening", i)
            branch_stack.append((prev, len(atoms), i))
            i += 1
        elif ch == ")":
            if not branch_stack:
                raise SmilesError("unmatched ')'", i)
            if pending:
                raise SmilesError("dangling bond before ')'", i)
            saved_prev, atom_count, _ = branch_stack.pop()
            if len(atoms) == atom_count:
                raise SmilesError("empty branch", i)
            prev = saved_prev
            i += 1
        elif ch == ".":
            if pending:
                raise SmilesError("bond symbol adjacent to '.'", i)
            if prev is None or s[i + 1 : i + 2] in ("", ")"):  # OpenSMILES: a dot joins two atoms
                raise SmilesError("'.' not between two atoms", i)
            prev = None
            i += 1
        elif ch in _BOND_CHARS:
            if pending:
                raise SmilesError("two bond symbols in a row", i)
            pending = _BOND_CHARS[ch]
            pending_pos = i
            i += 1
        elif ch in _DIGITS or ch == "%":
            if prev is None:
                raise SmilesError("ring closure with no preceding atom", i)
            if ch == "%":
                if len(s[i + 1 : i + 3]) < 2 or not set(s[i + 1 : i + 3]) <= _DIGITS:
                    raise SmilesError("'%' ring closure needs two digits", i)
                number = int(s[i + 1 : i + 3])
                width = 3
            else:
                number = int(ch)
                width = 1
            if number in rings:
                open_atom, open_spec, _ = rings.pop(number)
                kind, stereo = _combine_ring_specs(open_spec, pending, i)
                add_bond(open_atom, prev, kind, stereo, i)
            else:
                rings[number] = (prev, pending, i)
            pending = None
            i += width
        else:
            idx = len(atoms)
            if ch == "[":
                end = s.find("]", i) + 1
                token = s[i:end]
                atom = _BRACKET_ATOMS.get(token)
                if atom is None:
                    atom = _BRACKET_ATOMS[token] = _parse_bracket(s, i)
            else:
                token = s[i : i + 2]
                atom = _BARE_ATOMS.get(token)  # Cl and Br before C and B
                if atom is None:
                    token = ch
                    atom = _BARE_ATOMS.get(ch)
                    if atom is None:
                        raise SmilesError(f"unexpected character {ch!r}", i)
                end = i + len(token)
                bare.append(idx)
            atoms.append(atom)
            if prev is not None:
                kind, stereo = pending if pending else (None, None)
                add_bond(prev, idx, kind, stereo, i)
            elif pending:
                raise SmilesError("bond with no preceding atom", pending_pos)
            pending = None
            prev = idx
            i = end

    if pending:
        raise SmilesError("dangling bond at end of input", pending_pos)
    if branch_stack:
        raise SmilesError("unclosed branch", branch_stack[-1][2])
    if rings:
        number, (_, _, pos) = sorted(rings.items())[0]
        raise SmilesError(f"unpaired ring closure {number}", pos)

    return _finalize(atoms, bare, bonds, s)


def _combine_ring_specs(
    open_spec: tuple | None, close_spec: tuple | None, pos: int
) -> tuple[str | None, str | None]:
    # Stereo marks at the closing digit read toward the opener, so they
    # flip to the stored opener -> closer direction.
    if close_spec is not None:
        close_kind, close_stereo = close_spec
        close_spec = (close_kind, _FLIP_STEREO[close_stereo] if close_stereo else None)
    if open_spec and close_spec:
        if open_spec[0] != close_spec[0]:
            raise SmilesError("conflicting bond symbols on ring closure", pos)
        return open_spec[0], open_spec[1] or close_spec[1]
    return open_spec or close_spec or (None, None)


def _finalize(atoms: list[Atom], bare: list[int], bonds: list[tuple], source: str) -> Molecule:
    final_bonds = []
    order_sums = [0.0] * len(atoms)
    for a, b, kind, stereo in bonds:
        if kind is None:
            kind = AROMATIC if atoms[a].aromatic and atoms[b].aromatic else SINGLE
        final_bonds.append(_bond(a, b, kind, stereo))
        order = BOND_ORDER[kind]
        order_sums[a] += order
        order_sums[b] += order

    for idx in bare:
        atom = atoms[idx]
        hydrogens = implicit_hydrogens(atom.element, atom.aromatic, order_sums[idx])
        atoms[idx] = _atom(atom.element, atom.aromatic, 0, None, hydrogens, None, None, ())

    return Molecule(atoms=tuple(atoms), bonds=tuple(final_bonds), source_text=source)


@lru_cache(maxsize=None)
def _atom_token(atom: Atom, include_maps: bool, order_sum: float) -> str:
    map_value = atom.atom_map if include_maps else None
    bare_ok = (
        not atom.is_element_list
        and atom.charge == 0
        and atom.isotope is None
        and atom.chirality is None
        and map_value is None
    )
    if bare_ok and atom.is_wildcard:
        return WILDCARD
    if bare_ok and atom.element in ORGANIC_SUBSET:
        symbol = atom.element.lower() if atom.aromatic else atom.element
        if (not atom.aromatic or symbol in AROMATIC_ORGANIC) and (
            atom.implicit_h == implicit_hydrogens(atom.element, atom.aromatic, order_sum)
        ):
            return symbol

    if atom.is_element_list:
        symbol = ",".join(atom.element_options)
    elif atom.is_wildcard:
        symbol = WILDCARD
    else:
        symbol = atom.element.lower() if atom.aromatic else atom.element
    parts = ["["]
    if atom.isotope is not None:
        parts.append(str(atom.isotope))
    parts.append(symbol)
    if atom.chirality:
        parts.append(atom.chirality)
    if atom.implicit_h == 1:
        parts.append("H")
    elif atom.implicit_h > 1:
        parts.append(f"H{atom.implicit_h}")
    if atom.charge == 1:
        parts.append("+")
    elif atom.charge == -1:
        parts.append("-")
    elif atom.charge > 0:
        parts.append(f"+{atom.charge}")
    elif atom.charge < 0:
        parts.append(f"-{abs(atom.charge)}")
    if map_value is not None:
        parts.append(f":{map_value}")
    parts.append("]")
    return "".join(parts)


def write_smiles(
    molecule: Molecule, include_maps: bool = True, ranks: Sequence[int] | None = None
) -> str:
    """Serialize a molecule back to SMILES.

    ``ranks`` gives each atom index a distinct sort key; without it an
    atom's rank is its index.  The traversal is depth-first from the
    lowest-ranked atom of each component, visiting neighbors in
    ascending rank, components joined by dots in order of their lowest
    rank.  Parsing the output reconstructs an isomorphic molecule.
    """
    n = len(molecule.atoms)
    rank = ranks if ranks is not None else range(n)
    order = sorted(range(n), key=rank.__getitem__)
    # Atoms are visited in rank order, so each neighbor list comes out
    # ranked; the same pass sums each atom's bond orders for its token.
    ranked_neighbors: list[list[tuple[int, Bond]]] = [[] for _ in range(n)]
    order_sums = [0.0] * n
    for j in order:
        for i, bond in molecule.neighbors(j):
            ranked_neighbors[i].append((j, bond))
            order_sums[i] += BOND_ORDER[bond.kind]
    position = [-1] * n  # emission position; -1 until emitted
    tree_children: list[list[tuple[int, Bond]]] = [[] for _ in range(n)]
    ring_bonds_at: dict[int, list[tuple[int, Bond]]] = {}  # opener -> [(closer, bond)]
    emit_order: list[int] = []
    prefix = [""] * n  # the dot, branch marks and bond symbol written before an atom

    # The first atom in rank order not yet emitted roots the next component.
    for root in order:
        if position[root] >= 0:
            continue
        prefix[root] = "." if emit_order else ""
        position[root] = len(emit_order)
        emit_order.append(root)
        stack = [(root, -1, iter(ranked_neighbors[root]))]
        while stack:
            current, parent, nbr_iter = stack[-1]
            for nbr, bond in nbr_iter:
                if position[nbr] < 0:
                    position[nbr] = len(emit_order)
                    emit_order.append(nbr)
                    tree_children[current].append((nbr, bond))
                    stack.append((nbr, current, iter(ranked_neighbors[nbr])))
                    break
                if nbr != parent and position[nbr] < position[current]:
                    # Back edge: nbr was emitted earlier and opens the closure.
                    ring_bonds_at.setdefault(nbr, []).append((current, bond))
            else:
                stack.pop()

    def bond_symbol(bond: Bond, source: int, target: int) -> str:
        a_arom = molecule.atoms[bond.a].aromatic
        b_arom = molecule.atoms[bond.b].aromatic
        default = AROMATIC if (a_arom and b_arom) else SINGLE
        if bond.kind == SINGLE and bond.stereo:
            mark = bond.stereo if (bond.a, bond.b) == (source, target) else _FLIP_STEREO[bond.stereo]
            return mark
        if bond.kind == default:
            return ""
        return _BOND_SYMBOL[bond.kind]

    # Every child but the first closes its elder sibling's branch, and
    # every child but the last opens its own.
    for parent, children in enumerate(tree_children):
        for k, (child, bond) in enumerate(children):
            prefix[child] = ")" * (k > 0) + "(" * (k < len(children) - 1) + bond_symbol(bond, parent, child)

    # Assign ring-closure digits in emission order, reusing freed digits:
    # a digit is free again after the atom that closes it.  An atom writes
    # the digits it closes, then the bonds and digits it opens.
    rings = [""] * n
    open_digits: dict[int, int] = {}  # digit -> the atom that closes it
    for atom in sorted(ring_bonds_at, key=position.__getitem__):
        open_digits = {d: c for d, c in open_digits.items() if position[c] >= position[atom]}
        for closer, bond in sorted(ring_bonds_at[atom], key=lambda item: position[item[0]]):
            digit = 1
            while digit in open_digits:
                digit += 1
            if digit > 99:
                raise ValueError("more than 99 simultaneously open ring closures")
            open_digits[digit] = closer
            token = str(digit) if digit < 10 else f"%{digit:02d}"
            rings[atom] += bond_symbol(bond, atom, closer) + token
            rings[closer] += token

    atoms = molecule.atoms
    return "".join(
        prefix[i] + _atom_token(atoms[i], include_maps, order_sums[i]) + rings[i] for i in emit_order
    )
