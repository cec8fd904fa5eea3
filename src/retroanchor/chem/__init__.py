"""Molecular graphs, SMILES I/O, canonical ordering, substructure search and anchor tables."""

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
from retroanchor.chem.smiles import parse_smiles, write_smiles
from retroanchor.chem.canon import AnchorTable, canonical_smiles, canonical_text
from retroanchor.chem.match import substructure_match

__all__ = [
    "AnchorTable",
    "Atom",
    "AtomMapSet",
    "Bond",
    "Molecule",
    "SmilesError",
    "canonical_smiles",
    "canonical_text",
    "parse_smiles",
    "strip_atom_maps",
    "strip_stereo",
    "substructure_match",
    "write_smiles",
]
