"""Molecular graphs, SMILES I/O, canonical ordering, and substructure search."""

from __future__ import annotations

from retroanchor.chem.mol import (
    Atom,
    AtomMapSet,
    Bond,
    Molecule,
    SmilesError,
    position_tokens,
    strip_atom_maps,
    strip_stereo,
)
from retroanchor.chem.smiles import parse_smiles, write_smiles
from retroanchor.chem.canon import canonical_smiles, canonical_text
from retroanchor.chem.match import substructure_match

__all__ = [
    "Atom",
    "AtomMapSet",
    "Bond",
    "Molecule",
    "SmilesError",
    "canonical_smiles",
    "canonical_text",
    "parse_smiles",
    "position_tokens",
    "strip_atom_maps",
    "strip_stereo",
    "substructure_match",
    "write_smiles",
]
