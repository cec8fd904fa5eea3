"""Regenerate tests/fixtures/canonical_pins.json.

The file pins the exact SMILES text the chemistry kernels write.  Its
keys are every line of tests/fixtures/smiles_corpus.txt followed by
every molecule of the golden eval_raw.jsonl and train.jsonl rows (each
dot-separated part of each side of the reaction SMILES, first
occurrence kept).  Each value holds three texts for the parsed
molecule ``m``:

    [write_smiles(m), canonical_smiles(m), canonical_smiles(m, include_maps=True)]

The file changes only with a deliberate change to canonical text, and
that change is named in CHANGES.md together with its reason.  The next
planned one is the stereo-aware canonicalization of ROADMAP.md item 1.
A speed-up of the parser, writer or canonicalizer must leave it
byte-identical.  Run from the repo root:

    python3 scripts/gen_canonical_pins.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from retroanchor.chem.canon import canonical_smiles  # noqa: E402
from retroanchor.chem.smiles import parse_smiles, write_smiles  # noqa: E402

FIXTURES = ROOT / "tests" / "fixtures"
OUT_PATH = FIXTURES / "canonical_pins.json"
GOLDEN_INPUTS = ("eval_raw.jsonl", "train.jsonl")


def pinned_inputs() -> list[str]:
    texts = (FIXTURES / "smiles_corpus.txt").read_text(encoding="utf-8").splitlines()
    for name in GOLDEN_INPUTS:
        for line in (FIXTURES / "golden" / name).read_text(encoding="utf-8").splitlines():
            reaction = json.loads(line)["reaction_smiles"]
            for side in reaction.split(">"):
                texts.extend(part for part in side.split(".") if part)
    return list(dict.fromkeys(texts))


def pins_for(text: str) -> list[str]:
    molecule = parse_smiles(text)
    return [
        write_smiles(molecule),
        canonical_smiles(molecule),
        canonical_smiles(molecule, include_maps=True),
    ]


def main() -> int:
    pins = {text: pins_for(text) for text in pinned_inputs()}
    # One molecule per line, so a canonical-text change diffs line by line.
    lines = [f" {json.dumps(text)}: {json.dumps(texts)}" for text, texts in pins.items()]
    OUT_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"wrote {len(pins)} pinned molecules -> {OUT_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
