"""Regenerate tests/fixtures/smiles_corpus.txt.

The corpus mixes hand-curated strings covering every supported lexical
feature with grammar-generated random molecules.  Every line is checked
at generation time: it must parse, and its write->reparse image must be
canonically identical to the original parse.  Run from the repo root:

    python3 scripts/gen_smiles_corpus.py
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from retroanchor.chem.canon import canonical_smiles  # noqa: E402
from retroanchor.chem.smiles import parse_smiles, write_smiles  # noqa: E402

OUT_PATH = Path(__file__).resolve().parents[1] / "tests" / "fixtures" / "smiles_corpus.txt"
TARGET = 560

CURATED = [
    # chains, branches, bond orders
    "C", "CC", "CCO", "CC(C)C", "C(C)(C)(C)C", "CCCCCCCCCC", "CC(C)(C)CC",
    "C=C", "C#N", "CC=O", "O=C=O", "C#C", "CC#CC", "CC(=O)C", "N#CC#N",
    "CC(=O)OC", "COC", "CSC", "CCN(CC)CC", "NC(=O)N", "OCC(O)CO",
    "ClCCl", "FC(F)(F)F", "BrCCBr", "ICI", "CP(C)C", "OS(=O)(=O)O",
    # rings, fused and bridged
    "C1CC1", "C1CCC1", "C1CCCC1", "C1CCCCC1", "C1CCCCCC1",
    "C1CC2CCC1CC2", "C1CC2(CC1)CC2", "C1CCC2(CC1)CCCC2", "C1CC2CC1C2",
    "O1CCOCC1", "C1CCNCC1", "C1CCOC1", "C1CCSC1", "N1CCNCC1",
    # aromatics
    "c1ccccc1", "c1ccncc1", "c1cnccn1", "c1ccc2ccccc2c1", "c1cc[nH]c1",
    "c1ccoc1", "c1ccsc1", "c1cnc[nH]1", "c1ccc(O)cc1", "Cc1ccccc1",
    "c1ccc(-c2ccccc2)cc1", "c1ccc2[nH]ccc2c1", "Oc1ccc(Cl)cc1",
    "Nc1ncnc2[nH]cnc12", "Cn1cnc2c1c(=O)n(C)c(=O)n2C", "c1ccc2c(c1)oc1ccccc12",
    "COc1ccccc1", "CC(=O)Nc1ccc(O)cc1", "c1ccc(cc1)S(=O)(=O)N",
    # charges
    "[NH4+]", "[OH-]", "CC(=O)[O-]", "C[N+](C)(C)C", "[Na+].[Cl-]",
    "[O-]c1ccccc1", "[NH3+]CC([O-])=O", "C[N+](C)(C)CCO", "[K+].[I-]",
    "[O-][N+](=O)c1ccccc1", "C[S+](C)C", "[B-](F)(F)(F)F",
    # isotopes
    "[13CH4]", "[2H]O[2H]", "[13CH3]C", "[15NH3]", "[14CH3]C(=O)O",
    "[35Cl]C", "[13cH]1[cH][cH][cH][cH][cH]1",
    # atom maps
    "[CH3:1][OH:2]", "[CH2:10]=[CH:11][C:12](=[O:13])[OH:14]", "[CH4:105]",
    "[cH:1]1[cH:2][cH:3][cH:4][cH:5][cH:6]1", "[NH2:3][CH2:4][C:5](=[O:6])[OH:7]",
    "[CH3:1][C:2](=[O:3])[O:4][CH3:5]", "[OH:20][CH2:21][CH2:22][Cl:23]",
    # stereo (lexical)
    "N[C@@H](C)C(=O)O", "N[C@H](C)C(=O)O", "C[C@](N)(O)CC", "F/C=C/F",
    "F/C=C\\F", "C(/F)=C/Cl", "C[C@@H]1CC[C@H](C)CC1", "O[C@H]1CCCC[C@@H]1O",
    # wildcards and element lists
    "[*]", "C[*]", "[*:1]C(=O)O", "[*]c1ccccc1", "[*]C(=O)[*]",
    "[F,Cl,Br,I]c1ccccc1", "C(=O)[F,Cl]", "[C,N]1CCCC1", "[*:7][CH2:8][*:9]",
    # %nn ring closures
    "C%10CCCC%10", "c%12ccccc%12", "C%10CC%11CCC%10CC%11",
    "C1CCC%25CC1CC%25", "C%99CC%99",
    # hydrogen counts and bare bracket atoms
    "[CH4]", "[CH3]C", "[CH2](C)C", "[CH](C)(C)C", "[C](C)(C)(C)C",
    "[NH3]", "[NH2]C", "[SiH4]", "C[SiH2]C", "[SeH2]", "[SnH4]", "[BH3]",
    "[PH3]", "[AsH3]", "[GeH4]",
    # dots / multi-component
    "CCO.CCO", "[Na+].[O-]C(=O)C", "C1CCCCC1.c1ccccc1.CC",
    "CC(=O)O.CN.O", "[K+].[K+].[O-]C(=O)C([O-])=O",
    # explicit single bonds and mixed notation
    "C-C", "C-C-O", "CC(-C)C", "c1ccccc1-c1ccccc1",
]

ORGANIC_ALIPHATIC = ["C", "C", "C", "C", "N", "O", "O", "S", "F", "Cl", "Br", "I", "P"]
BRACKET_ELEMENTS = ["C", "C", "N", "O", "S", "P", "Si", "Se", "B", "Sn"]
AROMATIC_MOTIFS = [
    ("c1ccccc1", 6), ("c1ccncc1", 6), ("c1ccoc1", 5), ("c1ccsc1", 5),
    ("c1cc[nH]c1", 5), ("c1cnc[nH]1", 5), ("c1cnccn1", 6),
]


class Budget:
    def __init__(self, atoms: int, next_map: int):
        self.atoms = atoms
        self.next_map = next_map
        self.next_ring = 1


def bracket_atom(rng: random.Random, budget: Budget) -> str:
    element = rng.choice(BRACKET_ELEMENTS)
    isotope = ""
    if rng.random() < 0.15:
        isotope = str(rng.randint(2, 40))
    hydrogens = rng.randint(0, 3 if element in ("C", "Si") else 2)
    h_part = "" if hydrogens == 0 else ("H" if hydrogens == 1 else f"H{hydrogens}")
    charge = ""
    if rng.random() < 0.2:
        charge = rng.choice(["+", "-", "+2", "-2"])
    map_part = ""
    if rng.random() < 0.35:
        map_part = f":{budget.next_map}"
        budget.next_map += 1
    chiral = "@@" if rng.random() < 0.05 else ""
    return f"[{isotope}{element}{chiral}{h_part}{charge}{map_part}]"


def plain_atom(rng: random.Random, budget: Budget) -> str:
    if rng.random() < 0.22:
        return bracket_atom(rng, budget)
    if rng.random() < 0.03:
        return "[*]"
    return rng.choice(ORGANIC_ALIPHATIC)


def ring_token(budget: Budget) -> str:
    digit = budget.next_ring
    budget.next_ring += 1
    return str(digit) if digit < 10 else f"%{digit:02d}"


def chain(rng: random.Random, budget: Budget, depth: int) -> str:
    length = rng.randint(1, min(6, max(1, budget.atoms)))
    budget.atoms -= length
    atoms = [plain_atom(rng, budget) for _ in range(length)]
    ring_marks = [""] * length
    if length >= 4 and rng.random() < 0.45:
        i = rng.randrange(length - 3)
        j = rng.randrange(i + 2, length)
        token = ring_token(budget)
        ring_marks[i] += token
        ring_marks[j] += token
    parts: list[str] = []
    for index in range(length):
        parts.append(atoms[index] + ring_marks[index])
        if depth < 2 and budget.atoms > 0 and rng.random() < 0.25:
            parts.append("(" + chain(rng, budget, depth + 1) + ")")
        if index < length - 1:
            parts.append(rng.choice(["", "", "", "", "", "=", "#", "-"]))
    return "".join(parts)


def aromatic_entry(rng: random.Random, budget: Budget) -> str:
    motif, _size = rng.choice(AROMATIC_MOTIFS)
    if rng.random() < 0.5 and budget.atoms > 1:
        side = chain(rng, budget, 1)
        spot = motif.index("1", 2)
        return motif[: spot + 1] + "(" + side + ")" + motif[spot + 1 :]
    return motif


def random_entry(rng: random.Random) -> str:
    budget = Budget(atoms=rng.randint(1, 14), next_map=rng.randint(1, 50))
    if rng.random() < 0.18:
        budget.next_ring = rng.randint(10, 60)  # force %nn spelling
    if rng.random() < 0.25:
        text = aromatic_entry(rng, budget)
    else:
        text = chain(rng, budget, 0)
    if rng.random() < 0.15:
        second = Budget(atoms=rng.randint(1, 6), next_map=budget.next_map)
        text = text + "." + chain(rng, second, 1)
    return text


def verify(text: str) -> bool:
    try:
        first = parse_smiles(text)
        written = write_smiles(first)
        second = parse_smiles(written)
    except Exception:
        return False
    if len(first.atoms) != len(second.atoms) or len(first.bonds) != len(second.bonds):
        return False
    return canonical_smiles(first, include_maps=True) == canonical_smiles(
        second, include_maps=True
    )


def main() -> int:
    rng = random.Random(20250817)
    lines: list[str] = []
    seen: set[str] = set()

    rejected_curated = []
    for text in CURATED:
        if not verify(text):
            rejected_curated.append(text)
            continue
        if text not in seen:
            seen.add(text)
            lines.append(text)
    if rejected_curated:
        for text in rejected_curated:
            print(f"curated entry failed verification: {text!r}", file=sys.stderr)
        return 1

    attempts = 0
    while len(lines) < TARGET and attempts < TARGET * 200:
        attempts += 1
        text = random_entry(rng)
        if text in seen:
            continue
        if not verify(text):
            continue
        seen.add(text)
        lines.append(text)

    if len(lines) < TARGET:
        print(f"only {len(lines)} corpus entries generated", file=sys.stderr)
        return 1

    OUT_PATH.parent.mkdir(parents=True, exist_ok=True)
    OUT_PATH.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {len(lines)} entries -> {OUT_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
