"""Molecular graphs and atom-map sets; the kernel is imported from its own
module: ``chem.smiles``, ``chem.canon`` or ``chem.match``."""

from __future__ import annotations

from retroanchor.chem.mol import (
    Atom,
    AtomMapSet,
    Bond,
    Molecule,
    SmilesError,
    strip_atom_maps,
    strip_stereo,
)

__all__ = [
    "Atom",
    "AtomMapSet",
    "Bond",
    "Molecule",
    "SmilesError",
    "strip_atom_maps",
    "strip_stereo",
]
