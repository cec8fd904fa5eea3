"""Ground-truth disconnection sites from atom-mapped reactions.

The label is the set of product atom maps incident to bonds that the
reaction formed or broke; when connectivity is unchanged, atoms whose
bond order changed stand in.  Bonds broken against atoms that vanish
into leaving groups contribute only the surviving product atom.
"""

from __future__ import annotations

from typing import NamedTuple

from retroanchor.chem import AtomMapSet
from retroanchor.chem.canon import AnchorTable
from retroanchor.datasets import ReactionRecord

CONNECTIVITY = "connectivity"
BOND_ORDER_KIND = "bond_order"
EMPTY = "empty"


class StructuralLabel(NamedTuple):
    maps: AtomMapSet
    kind: str


def extract_structural_label(record: ReactionRecord) -> StructuralLabel:
    """Label one reaction from the product's perspective.

    Connectivity changes (formed or broken bonds) take priority; bond
    order changes only label a reaction that has no connectivity change.
    Reagents never participate.  A reaction with no detectable change
    yields an empty label with kind ``"empty"``; callers exclude such
    records from evaluation sets.
    """
    product = record.product
    product_map_to_idx = AnchorTable(product).index

    # map value -> (reactant molecule position, atom index)
    reactant_map_to_loc: dict[int, tuple[int, int]] = {}
    for mol_pos, molecule in enumerate(record.reactants):
        for atom_idx, atom in enumerate(molecule.atoms):
            if atom.atom_map is not None and atom.atom_map not in reactant_map_to_loc:
                reactant_map_to_loc[atom.atom_map] = (mol_pos, atom_idx)

    connectivity_maps: set[int] = set()
    order_change_maps: set[int] = set()

    for bond in product.bonds:
        map_a = product.atoms[bond.a].atom_map
        map_b = product.atoms[bond.b].atom_map
        if map_a is None or map_b is None:
            continue
        loc_a = reactant_map_to_loc.get(map_a)
        loc_b = reactant_map_to_loc.get(map_b)
        if loc_a is None or loc_b is None:
            continue
        if loc_a[0] != loc_b[0]:
            connectivity_maps.update((map_a, map_b))  # formed across molecules
            continue
        reactant_bond = record.reactants[loc_a[0]].bond_between(loc_a[1], loc_b[1])
        if reactant_bond is None:
            connectivity_maps.update((map_a, map_b))  # formed within one molecule
        elif reactant_bond.kind != bond.kind:
            order_change_maps.update((map_a, map_b))

    for molecule in record.reactants:
        for bond in molecule.bonds:
            map_x = molecule.atoms[bond.a].atom_map
            map_y = molecule.atoms[bond.b].atom_map
            x_survives = map_x is not None and map_x in product_map_to_idx
            y_survives = map_y is not None and map_y in product_map_to_idx
            if x_survives and y_survives:
                idx_x = product_map_to_idx[map_x]
                idx_y = product_map_to_idx[map_y]
                if product.bond_between(idx_x, idx_y) is None:
                    connectivity_maps.update((map_x, map_y))  # broken, both kept
            elif x_survives:
                connectivity_maps.add(map_x)  # partner vanished
            elif y_survives:
                connectivity_maps.add(map_y)

    if connectivity_maps:
        return StructuralLabel(maps=AtomMapSet.of(connectivity_maps), kind=CONNECTIVITY)
    if order_change_maps:
        return StructuralLabel(maps=AtomMapSet.of(order_change_maps), kind=BOND_ORDER_KIND)
    return StructuralLabel(maps=AtomMapSet.of(()), kind=EMPTY)
