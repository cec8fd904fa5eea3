"""Subgraph embedding of a pattern molecule into a target molecule.

Backtracking search over an injective atom assignment.  Pattern atoms
are tried in a connectivity-first order so each atom after the first in
its component is anchored by an already-assigned neighbor, which keeps
the candidate set to the neighbors of the anchor's image.
"""

from __future__ import annotations

from retroanchor.chem.mol import Atom, Molecule


def atoms_compatible(pattern_atom: Atom, target_atom: Atom) -> bool:
    """Wildcards match anything; element lists match their listed
    elements; ordinary atoms match on element, aromatic flag, and, when
    the pattern atom is charged, charge."""
    if pattern_atom.is_wildcard:
        return True
    if pattern_atom.is_element_list:
        return target_atom.element in pattern_atom.element_options
    if pattern_atom.element != target_atom.element:
        return False
    if pattern_atom.aromatic != target_atom.aromatic:
        return False
    if pattern_atom.charge != 0 and pattern_atom.charge != target_atom.charge:
        return False
    return True


def find_embedding(pattern: Molecule, target: Molecule) -> dict[int, int] | None:
    """One injective pattern-to-target atom assignment, or None.

    Every pattern bond must map onto a target bond of identical kind.
    """
    if len(pattern.atoms) > len(target.atoms):
        return None

    order: list[int] = []
    for component in pattern.components():
        seen = {component[0]}
        stack = [component[0]]
        while stack:
            current = stack.pop()
            order.append(current)
            for nbr, _ in sorted(pattern.neighbors(current)):
                if nbr not in seen:
                    seen.add(nbr)
                    stack.append(nbr)

    assignment: dict[int, int] = {}
    used: set[int] = set()

    def backtrack(depth: int) -> bool:
        if depth == len(order):
            return True
        p_idx = order[depth]
        p_atom = pattern.atoms[p_idx]
        anchors = [(q, bond) for q, bond in pattern.neighbors(p_idx) if q in assignment]
        if anchors:
            anchor_idx, anchor_bond = anchors[0]
            candidates = [
                t
                for t, t_bond in target.neighbors(assignment[anchor_idx])
                if t_bond.kind == anchor_bond.kind
            ]
        else:
            candidates = list(range(len(target.atoms)))
        for t_idx in candidates:
            if t_idx in used:
                continue
            if not atoms_compatible(p_atom, target.atoms[t_idx]):
                continue
            if target.degree(t_idx) < pattern.degree(p_idx):
                continue
            consistent = True
            for q, p_bond in pattern.neighbors(p_idx):
                if q in assignment:
                    t_bond = target.bond_between(t_idx, assignment[q])
                    if t_bond is None or t_bond.kind != p_bond.kind:
                        consistent = False
                        break
            if not consistent:
                continue
            assignment[p_idx] = t_idx
            used.add(t_idx)
            if backtrack(depth + 1):
                return True
            del assignment[p_idx]
            used.remove(t_idx)
        return False

    return assignment if backtrack(0) else None


def substructure_match(pattern: Molecule, target: Molecule) -> bool:
    """True when the pattern embeds into the target."""
    return find_embedding(pattern, target) is not None
