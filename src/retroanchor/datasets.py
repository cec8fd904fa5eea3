"""Reaction dataset handling.

Rows arrive as JSONL or CSV with columns id, reaction_smiles,
reaction_name, reaction_class, and split.  Reaction SMILES follow the
``reactants>reagents>product`` convention (``>>`` for no reagents),
with dots separating molecules on each side.  Atom maps form a partial
injection from product atoms onto reactant atoms; reagents are parsed
but neither kept nor labeled.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from retroanchor.utils import normalize_name, read_jsonl

if TYPE_CHECKING:
    from retroanchor.chem import Molecule

REQUIRED_COLUMNS = ("id", "reaction_smiles", "reaction_name", "reaction_class", "split")


class DatasetError(ValueError):
    """File-level dataset fault: unreadable file, missing columns, malformed line, empty split."""


class ReactionRecord:
    """One reaction row with passthrough metadata; molecules parse on first read."""

    def __init__(
        self, record_id: str, reaction_smiles: str, reaction_name: str, reaction_class: str, split: str, extra: dict
    ):
        self.record_id, self.reaction_smiles, self.reaction_name = record_id, reaction_smiles, reaction_name
        self.reaction_class, self.split, self.extra = reaction_class, split, extra

    @cached_property
    def name_key(self) -> str:
        return normalize_name(self.reaction_name)

    @cached_property
    def _molecules(self) -> tuple[tuple[Molecule, ...], Molecule]:
        """Reactants and product, parsed with the reagents; ValueError for
        malformed SMILES or a product atom map on two atoms of either side."""
        reactants, _reagents, product = parse_reaction_smiles(self.reaction_smiles)
        product_maps = Counter(atom.atom_map for atom in product.atoms if atom.atom_map is not None)
        repeated = sorted(m for m, n in product_maps.items() if n > 1)
        if repeated:
            raise ValueError(f"product repeats atom maps: {repeated}")
        reactant_maps = Counter(atom.atom_map for molecule in reactants for atom in molecule.atoms)
        duplicated = sorted(m for m in product_maps if reactant_maps[m] > 1)
        if duplicated:
            raise ValueError(f"product atom maps appear on multiple reactant atoms: {duplicated}")
        return tuple(reactants), product

    @property
    def reactants(self) -> tuple[Molecule, ...]:
        return self._molecules[0]

    @property
    def product(self) -> Molecule:
        return self._molecules[1]


class OntologyEntry(NamedTuple):
    id: str
    reaction_class: str


class Ontology:
    """Unique reaction names of one split with their majority classes."""

    def __init__(self, entries: tuple[OntologyEntry, ...], source_split: str = ""):
        self.entries, self.source_split = entries, source_split

    def __len__(self) -> int:
        return len(self.entries)

    @cached_property
    def _names(self) -> frozenset[str]:
        return frozenset(normalize_name(entry.id) for entry in self.entries)

    @cached_property
    def prompt_block(self) -> str:
        """The entries as the indented JSON the position prompt embeds."""
        return json.dumps(self.to_json_obj(), indent=2)

    def contains(self, name: str) -> bool:
        return normalize_name(name) in self._names

    def to_json_obj(self) -> list[dict]:
        return [{"id": e.id, "class": e.reaction_class} for e in self.entries]

    @classmethod
    def from_json_obj(cls, data: list[dict], source_split: str = "") -> "Ontology":
        entries = tuple(OntologyEntry(id=row["id"], reaction_class=row["class"]) for row in data)
        return cls(entries=entries, source_split=source_split)


def parse_reaction_smiles(text: str) -> tuple[list[Molecule], list[Molecule], Molecule]:
    """Split and parse a reaction SMILES into (reactants, reagents, product)."""
    from retroanchor.chem.smiles import parse_smiles

    segments = text.split(">")
    if len(segments) != 3:
        raise ValueError("reaction SMILES must have exactly two '>' separators")
    reactant_text, reagent_text, product_text = (s.strip() for s in segments)
    if not reactant_text:
        raise ValueError("reaction has no reactants")
    if not product_text:
        raise ValueError("reaction has no product")
    if "." in product_text:
        raise ValueError("product side must be a single molecule")

    reactants = [parse_smiles(part) for part in reactant_text.split(".")]
    reagents = [parse_smiles(part) for part in reagent_text.split(".")] if reagent_text else []
    product = parse_smiles(product_text)
    return reactants, reagents, product


def record_from_row(row: dict, parse: bool = True) -> ReactionRecord:
    """Build a record from one dataset row; with ``parse``, a malformed reaction raises here."""
    missing = [c for c in REQUIRED_COLUMNS if c not in row]
    if missing:
        raise ValueError(f"missing fields: {', '.join(missing)}")
    record = ReactionRecord(
        record_id=str(row["id"]),
        reaction_smiles=str(row["reaction_smiles"]),
        reaction_name=str(row["reaction_name"] or ""),
        reaction_class=str(row["reaction_class"] or ""),
        split=str(row["split"]),
        extra={k: v for k, v in row.items() if k not in REQUIRED_COLUMNS},
    )
    if parse:
        record._molecules  # parses and caches the molecules now
    return record


def ingest_dataset(path: Path | str, parse: bool = True) -> tuple[list[ReactionRecord], list[dict]]:
    """Read a dataset file into records plus a rejects report.

    A ``.csv`` suffix means CSV; any other means JSON lines.  Per-row
    faults (missing fields and, with ``parse``, malformed SMILES and
    duplicate-map injections) land in the rejects list as ``{"row",
    "id", "error"}``; file-level faults, a JSONL line that is not a JSON
    object among them, raise DatasetError.  Without ``parse``, a record
    parses its molecules when ``reactants`` or ``product`` is first read.
    """
    path = Path(path)
    try:
        if path.suffix.lower() == ".csv":
            import csv
            with open(path, newline="", encoding="utf-8-sig") as handle:
                reader = csv.DictReader(handle)
                if reader.fieldnames is None:
                    raise ValueError(f"{path}: empty CSV file")
                missing = [c for c in REQUIRED_COLUMNS if c not in reader.fieldnames]
                if missing:
                    raise ValueError(f"{path}: missing columns: {', '.join(missing)}")
                rows = list(reader)
        else:
            rows = read_jsonl(path)
    except OSError as exc:
        raise DatasetError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:  # a CSV file; read_jsonl names the line itself
        raise DatasetError(f"{path}: not UTF-8: {exc.reason}") from exc
    except ValueError as exc:
        raise DatasetError(str(exc)) from exc

    records: list[ReactionRecord] = []
    rejects: list[dict] = []
    for number, row in enumerate(rows, start=1):
        try:
            records.append(record_from_row(row, parse))
        except ValueError as exc:
            rejects.append({"row": number, "id": str(row.get("id", "")), "error": str(exc)})
    return records, rejects


def build_ontology(records: list[ReactionRecord], split: str) -> Ontology:
    """Unique reaction names in a split, each in its most frequent
    spelling with its majority class.

    Ties of either count break to the lexicographically smallest value;
    entries are ordered lexicographically by normalized name, so the
    result is a pure function of the record set, whatever its order.
    """
    if not any(r.split == split for r in records):
        raise DatasetError(f"no records in split {split!r}")
    tallies: dict[str, tuple[Counter, Counter]] = {}
    for record in records:
        if record.split == split and record.reaction_name:
            key = normalize_name(record.reaction_name)
            spellings, classes = tallies.setdefault(key, (Counter(), Counter()))
            spellings[record.reaction_name] += 1
            classes[record.reaction_class] += 1

    def majority(counts: Counter) -> str:
        return min(counts, key=lambda value: (-counts[value], value))

    entries = tuple(
        OntologyEntry(id=majority(spellings), reaction_class=majority(classes))
        for _, (spellings, classes) in sorted(tallies.items())
    )
    return Ontology(entries=entries, source_split=split)


def subsample_eval_set(
    records: list[ReactionRecord],
    cap: int,
    unclassified_label: str,
    seed: int,
) -> list[ReactionRecord]:
    """Balanced evaluation subsample.

    Takes up to ``cap`` records per reaction name, uniformly without
    replacement under the seed, then adds unclassified records (name
    empty or equal to ``unclassified_label``) so their share of the
    output matches their share of the input, rounding half up.  Output
    preserves input order; reruns with one seed are identical.
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    rng = random.Random(seed)
    unclassified_key = normalize_name(unclassified_label) if unclassified_label else ""

    def is_unclassified(record: ReactionRecord) -> bool:
        if not record.reaction_name:
            return True
        return normalize_name(record.reaction_name) == unclassified_key

    named: dict[str, list[ReactionRecord]] = {}
    unclassified: list[ReactionRecord] = []
    for record in records:
        if is_unclassified(record):
            unclassified.append(record)
        else:
            named.setdefault(normalize_name(record.reaction_name), []).append(record)

    chosen_ids: set[str] = set()
    for key in sorted(named):
        group = sorted(named[key], key=lambda r: r.record_id)
        take = min(cap, len(group))
        for record in rng.sample(group, take):
            chosen_ids.add(record.record_id)

    total = len(records)
    named_chosen = len(chosen_ids)
    if unclassified:
        if total == len(unclassified):
            target = min(cap, len(unclassified))
        else:
            share = len(unclassified) / (total - len(unclassified))
            target = min(int(named_chosen * share + 0.5), len(unclassified))
        pool = sorted(unclassified, key=lambda r: r.record_id)
        for record in rng.sample(pool, target):
            chosen_ids.add(record.record_id)

    return [r for r in records if r.record_id in chosen_ids]


def sample_examples(
    records: list[ReactionRecord],
    reaction_name: str,
    exclude_id: str,
    k: int,
    seed: int,
) -> tuple[str, ...]:
    """Up to k train-split reactions with the given name, excluding the
    query record, serialized retro style (product>>reactants) with atom
    maps intact."""
    key = normalize_name(reaction_name)
    pool = [
        r
        for r in records
        if r.split == "train"
        and r.record_id != exclude_id
        and r.name_key == key
    ]
    pool.sort(key=lambda r: r.record_id)
    rng = random.Random(seed)
    chosen = rng.sample(pool, min(k, len(pool))) if k > 0 else []
    return tuple(retro_example_text(r) for r in chosen)


def retro_example_text(record: ReactionRecord) -> str:
    """``product>>reactants`` using the original SMILES spellings."""
    segments = record.reaction_smiles.split(">")
    return f"{segments[2].strip()}>>{segments[0].strip()}"
