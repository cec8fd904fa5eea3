"""Parsing of raw model text into typed prediction candidates.

Both stages mandate a single JSON object; models wrap it in fences and
prose anyway.  Extraction peels the envelope, then per-entry validation
salvages whatever is well formed and files the rest under ``dropped``
with a reason.  Nothing here throws on bad model output.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

from retroanchor.chem import AtomMapSet, Molecule, SmilesError, parse_smiles
from retroanchor.datasets import Ontology
from retroanchor.utils import normalize_name

NO_JSON = "no_json"
SCHEMA_VIOLATION = "schema_violation"
ALL_ITEMS_INVALID = "all_items_invalid"

_FENCE_RE = re.compile(r"```(?:[A-Za-z0-9_-]+)?\s*\n(.*?)```", re.DOTALL)


@dataclass(frozen=True)
class DisconnectionCandidate:
    """One (site, reaction) pair flattened from the position output."""

    s: AtomMapSet
    reaction_name: str
    reaction_class: str
    in_ontology: bool
    importance: int
    priority: int
    rationale: str
    claimed_in_ontology: bool | None = None


@dataclass(frozen=True)
class TransitionPrediction:
    """One reactant-set permutation from the transition output."""

    reactants: tuple[Molecule, ...]
    is_valid: bool
    is_template: bool
    reasoning: str
    reaction_name: str


@dataclass(frozen=True)
class ParseOutcome:
    """Salvaged items plus an inventory of what was discarded and why."""

    ok: tuple
    dropped: tuple[dict, ...] = ()
    failure_class: str | None = None

    def __post_init__(self):
        if bool(self.ok) == (self.failure_class is not None):
            raise ValueError("failure_class must be set exactly when nothing parsed")

    @property
    def failed(self) -> bool:
        return not self.ok


def extract_json_object(raw: str) -> dict | None:
    """Outermost JSON object in possibly fenced, prose-wrapped text."""
    candidates = [m.group(1) for m in _FENCE_RE.finditer(raw)]
    candidates.append(raw)
    decoder = json.JSONDecoder()
    for text in candidates:
        start = 0
        while True:
            brace = text.find("{", start)
            if brace < 0:
                break
            try:
                value, _ = decoder.raw_decode(text[brace:])
            except json.JSONDecodeError:
                start = brace + 1
                continue
            if isinstance(value, dict):
                return value
            start = brace + 1
    return None


def parse_center_tokens(text: str, product: Molecule) -> AtomMapSet:
    """Space-separated ``Elem:map`` tokens into a resolved map set.

    The element prefix is informational; resolution is by map value only.
    Raises ValueError on malformed tokens or maps absent from product.
    """
    tokens = text.split()
    if not tokens:
        raise ValueError("empty disconnection string")
    product_maps = product.atom_maps()
    values: list[int] = []
    for token in tokens:
        match = re.fullmatch(r"[A-Za-z*\[\],]*:(\d+)", token)
        if match is None:
            raise ValueError(f"malformed atom token {token!r}")
        value = int(match.group(1))
        if value not in product_maps:
            raise ValueError(f"atom map {value} does not resolve against the product")
        values.append(value)
    return AtomMapSet.of(values)


def _drop(entry, reason: str) -> dict:
    fragment = json.dumps(entry, default=str)
    if len(fragment) > 300:
        fragment = fragment[:300] + "..."
    return {"fragment": fragment, "reason": reason}


def _importance_of(reaction: dict):
    for key in ("Retrosynthesis Importance", "importance", "Importance"):
        if key in reaction:
            return reaction[key]
    return None


def _priority_of(reaction: dict):
    for key in ("Priority", "priority"):
        if key in reaction:
            return reaction[key]
    return None


def parse_position_output(raw: str, product: Molecule, ontology: Ontology) -> ParseOutcome:
    """Validate the disconnection-stage payload against the product."""
    obj = extract_json_object(raw)
    if obj is None:
        return ParseOutcome(ok=(), dropped=(), failure_class=NO_JSON)
    entries = obj.get("disconnections")
    if not isinstance(entries, list):
        return ParseOutcome(
            ok=(),
            dropped=(_drop(obj, "root key 'disconnections' missing or not a list"),),
            failure_class=SCHEMA_VIOLATION,
        )

    ok: list[DisconnectionCandidate] = []
    dropped: list[dict] = []
    seen: set[tuple[frozenset, str]] = set()
    for entry in entries:
        if not isinstance(entry, dict):
            dropped.append(_drop(entry, "entry is not an object"))
            continue
        text = entry.get("disconnection")
        if not isinstance(text, str):
            dropped.append(_drop(entry, "missing disconnection string"))
            continue
        try:
            s = parse_center_tokens(text, product)
        except ValueError as exc:
            dropped.append(_drop(entry, str(exc)))
            continue
        reactions = entry.get("reactions", entry.get("Reaction"))
        if not isinstance(reactions, list) or not reactions:
            dropped.append(_drop(entry, "empty or missing reaction list"))
            continue
        for reaction in reactions:
            if not isinstance(reaction, dict):
                dropped.append(_drop(reaction, "reaction is not an object"))
                continue
            name = reaction.get("forwardReaction")
            if not isinstance(name, str) or not name.strip():
                dropped.append(_drop(reaction, "missing forwardReaction name"))
                continue
            importance = _importance_of(reaction)
            if type(importance) is not int or importance not in (1, 2, 3, 4):
                dropped.append(_drop(reaction, "importance out of range 1-4"))
                continue
            priority = _priority_of(reaction)
            if type(priority) is not int or priority < 1:
                dropped.append(_drop(reaction, "priority must be a positive integer"))
                continue
            key = (s.maps, normalize_name(name))
            if key in seen:
                dropped.append(_drop(reaction, "duplicate site/reaction pair"))
                continue
            seen.add(key)
            claimed = reaction.get("isInOntology")
            ok.append(
                DisconnectionCandidate(
                    s=s,
                    reaction_name=name,
                    reaction_class=str(reaction.get("forwardReactionClass", "")),
                    in_ontology=ontology.contains(name),
                    importance=importance,
                    priority=priority,
                    rationale=str(reaction.get("rationale", "")),
                    claimed_in_ontology=claimed if isinstance(claimed, bool) else None,
                )
            )
    failure = None if ok else ALL_ITEMS_INVALID
    return ParseOutcome(ok=tuple(ok), dropped=tuple(dropped), failure_class=failure)


def _has_template_atoms(molecule: Molecule) -> bool:
    return any(a.is_wildcard or a.is_element_list for a in molecule.atoms)


def parse_transition_output(raw: str, product: Molecule) -> ParseOutcome:
    """Validate the reactant-prediction payload."""
    obj = extract_json_object(raw)
    if obj is None:
        return ParseOutcome(ok=(), dropped=(), failure_class=NO_JSON)
    groups = obj.get("reaction_analysis")
    if not isinstance(groups, list):
        return ParseOutcome(
            ok=(),
            dropped=(_drop(obj, "root key 'reaction_analysis' missing or not a list"),),
            failure_class=SCHEMA_VIOLATION,
        )

    ok: list[TransitionPrediction] = []
    dropped: list[dict] = []
    for group in groups:
        if not isinstance(group, dict):
            dropped.append(_drop(group, "group is not an object"))
            continue
        name = str(group.get("forward_reaction_name", ""))
        permutations = group.get("reactant_permutations")
        if not isinstance(permutations, list):
            dropped.append(_drop(group, "missing reactant_permutations list"))
            continue
        for permutation in permutations:
            if not isinstance(permutation, dict):
                dropped.append(_drop(permutation, "permutation is not an object"))
                continue
            texts = permutation.get("reactants")
            if (
                not isinstance(texts, list)
                or not texts
                or not all(isinstance(t, str) for t in texts)
            ):
                dropped.append(_drop(permutation, "reactants must be a non-empty list of strings"))
                continue
            is_valid = permutation.get("is_valid")
            is_template = permutation.get("is_template")
            if not isinstance(is_valid, bool) or not isinstance(is_template, bool):
                dropped.append(_drop(permutation, "is_valid/is_template must be booleans"))
                continue
            try:
                molecules = tuple(parse_smiles(t) for t in texts)
            except SmilesError as exc:
                dropped.append(_drop(permutation, f"syntactically invalid SMILES: {exc}"))
                continue
            if not is_template and any(_has_template_atoms(m) for m in molecules):
                dropped.append(_drop(permutation, "wildcard atom in non-template prediction"))
                continue
            ok.append(
                TransitionPrediction(
                    reactants=molecules,
                    is_valid=is_valid,
                    is_template=is_template,
                    reasoning=str(permutation.get("reasoning", "")),
                    reaction_name=name,
                )
            )
    failure = None if ok else ALL_ITEMS_INVALID
    return ParseOutcome(ok=tuple(ok), dropped=tuple(dropped), failure_class=failure)
