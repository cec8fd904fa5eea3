"""Parsing of raw model text into typed prediction candidates.

Both stages mandate a single JSON object; models wrap it in fences and
prose anyway.  Extraction peels the envelope, then per-entry validation
salvages whatever is well formed and files the rest under ``dropped``
with a reason.  Nothing here throws on bad model output.
"""

from __future__ import annotations

import json
import re
from collections.abc import Callable, Iterator
from typing import TYPE_CHECKING, NamedTuple, get_args, get_type_hints

from retroanchor.chem import AtomMapSet, Molecule, SmilesError
from retroanchor.datasets import Ontology
from retroanchor.utils import normalize_name

if TYPE_CHECKING:
    from retroanchor.chem.canon import AnchorTable

NO_JSON = "no_json"
SCHEMA_VIOLATION = "schema_violation"
ALL_ITEMS_INVALID = "all_items_invalid"

_FENCE_RE = re.compile(r"```(?:[A-Za-z0-9_-]+)?\s*\n(.*?)```", re.DOTALL)
# Only a brace before a key or a closing brace can open a JSON object.
_OBJECT_START_RE = re.compile(r'\{[ \t\n\r]*["}]')


class DisconnectionCandidate(NamedTuple):
    """One (site, reaction) pair flattened from the position output."""

    s: AtomMapSet
    reaction_name: str
    reaction_class: str
    in_ontology: bool
    importance: int
    priority: int
    rationale: str
    claimed_in_ontology: bool | None = None


class TransitionPrediction(NamedTuple):
    """One reactant-set permutation, each reactant canonical mapped SMILES."""

    reactants: tuple[str, ...]
    is_valid: bool
    is_template: bool
    reasoning: str
    reaction_name: str


class ParseOutcome(NamedTuple):
    """Salvaged items plus an inventory of what was discarded and why."""

    ok: tuple
    dropped: tuple[dict, ...] = ()
    failure_class: str | None = None


def exact(value, *kinds: type):
    """``value`` when its type is exactly one of ``kinds`` (so JSON ``true``
    is no int); a wrongly typed field is never coerced."""
    if type(value) not in kinds:
        raise TypeError(f"expected {kinds[0].__name__}, got {value!r}")
    return value


def _field_reader(hint):
    if hint is AtomMapSet:
        return lambda v: AtomMapSet.of(exact(m, int) for m in exact(v, list))
    if hint == tuple[str, ...]:
        return lambda v: tuple(exact(t, str) for t in exact(v, list))
    kinds = get_args(hint) or (hint,)  # ``bool | None`` is either JSON type
    return lambda v: exact(v, *kinds)


_FIELD_READERS = {
    cls: {name: _field_reader(hint) for name, hint in get_type_hints(cls).items()}
    for cls in (DisconnectionCandidate, TransitionPrediction)  # hints resolved once, not per row
}


def to_row(item: DisconnectionCandidate | TransitionPrediction) -> dict:
    """An item's ``outcomes.jsonl`` row: its fields, a map set as its sorted list."""
    return {k: sorted(v) if isinstance(v, AtomMapSet) else v for k, v in item._asdict().items()}


def from_row(cls, row: dict):
    """``cls`` from its ``to_row`` row: KeyError for a missing field, TypeError for a wrong type."""
    return cls(**{name: read(row[name]) for name, read in _FIELD_READERS[cls].items()})


def extract_json_object(raw: str) -> dict | None:
    """Outermost JSON object in possibly fenced, prose-wrapped text."""
    candidates = [m.group(1) for m in _FENCE_RE.finditer(raw)]
    candidates.append(raw)
    decoder = json.JSONDecoder()
    for text in candidates:
        for match in _OBJECT_START_RE.finditer(text):
            try:
                return decoder.raw_decode(text[match.start():])[0]
            except (json.JSONDecodeError, RecursionError):
                continue
    return None


def _drop(entry, reason: str) -> dict:
    try:
        fragment = json.dumps(entry, default=str)
    except RecursionError:  # decoded nearly at the limit, a few frames up
        fragment = "<nested too deep to show>"
    if len(fragment) > 300:
        fragment = fragment[:300] + "..."
    return {"fragment": fragment, "reason": reason}


def _non_string(obj: dict, *keys: str) -> str | None:
    """The first of ``keys`` that ``obj`` holds as something other than a
    string; an absent key reads as ``""``."""
    return next((key for key in keys if not isinstance(obj.get(key, ""), str)), None)


def _first_present(obj: dict, *keys: str):
    """The value of the first of ``keys`` that ``obj`` holds, else None."""
    return next((obj[key] for key in keys if key in obj), None)


def _parse_items(raw: str, root: str, items: Callable[..., Iterator], *args) -> ParseOutcome:
    """The payload's ``root`` list read by ``items(entries, *args)``, which
    yields each kept item, and a ``_drop`` record for each discarded one,
    in reply order."""
    obj = extract_json_object(raw)
    if obj is None:
        return ParseOutcome(ok=(), dropped=(), failure_class=NO_JSON)
    entries = obj.get(root)
    if not isinstance(entries, list):
        reason = f"root key '{root}' missing or not a list"
        return ParseOutcome(ok=(), dropped=(_drop(obj, reason),), failure_class=SCHEMA_VIOLATION)
    ok, dropped = [], []
    for item in items(entries, *args):
        (dropped if isinstance(item, dict) else ok).append(item)
    return ParseOutcome(ok=tuple(ok), dropped=tuple(dropped), failure_class=None if ok else ALL_ITEMS_INVALID)


def _position_items(entries: list, anchors: AnchorTable, ontology: Ontology) -> Iterator:
    seen: set[tuple[frozenset, str]] = set()
    for entry in entries:
        if not isinstance(entry, dict):
            yield _drop(entry, "entry is not an object")
            continue
        text = entry.get("disconnection")
        if not isinstance(text, str):
            yield _drop(entry, "missing disconnection string")
            continue
        try:
            s = anchors.read(text)
        except ValueError as exc:
            yield _drop(entry, str(exc))
            continue
        reactions = entry.get("reactions", entry.get("Reaction"))
        if not isinstance(reactions, list) or not reactions:
            yield _drop(entry, "empty or missing reaction list")
            continue
        for reaction in reactions:
            if not isinstance(reaction, dict):
                yield _drop(reaction, "reaction is not an object")
                continue
            name = reaction.get("forwardReaction")
            if not isinstance(name, str) or not name.strip():
                yield _drop(reaction, "missing forwardReaction name")
                continue
            importance = _first_present(reaction, "Retrosynthesis Importance", "importance", "Importance")
            if type(importance) is not int or importance not in (1, 2, 3, 4):
                yield _drop(reaction, "importance out of range 1-4")
                continue
            priority = _first_present(reaction, "Priority", "priority")
            if type(priority) is not int or priority < 1:
                yield _drop(reaction, "priority must be a positive integer")
                continue
            wrong = _non_string(reaction, "forwardReactionClass", "rationale")
            if wrong:
                yield _drop(reaction, f"{wrong} is not a string")
                continue
            key = (s, normalize_name(name))
            if key in seen:
                yield _drop(reaction, "duplicate site/reaction pair")
                continue
            seen.add(key)
            claimed = reaction.get("isInOntology")
            yield DisconnectionCandidate(
                s=s,
                reaction_name=name,
                reaction_class=reaction.get("forwardReactionClass", ""),
                in_ontology=ontology.contains(name),
                importance=importance,
                priority=priority,
                rationale=reaction.get("rationale", ""),
                claimed_in_ontology=claimed if isinstance(claimed, bool) else None,
            )


def parse_position_output(raw: str, product: Molecule, ontology: Ontology) -> ParseOutcome:
    """Validate the disconnection-stage payload against the product."""
    from retroanchor.chem.canon import AnchorTable
    return _parse_items(raw, "disconnections", _position_items, AnchorTable(product), ontology)


def _canonical_reactants(texts: list[str], is_template: bool) -> tuple[str, ...] | str:
    """The texts' canonical mapped spellings, or why the permutation is
    dropped: the first text that does not parse, then a template atom
    (``*`` or an element list's ``,``, read from the text) where the
    permutation is no template, then the first text with no spelling."""
    from retroanchor.chem.canon import canonical_text
    canonical, unwritable = [], None
    for text in texts:
        try:
            canonical.append(canonical_text(text, include_maps=True))
        except SmilesError as exc:
            return f"syntactically invalid SMILES: {exc}"
        except ValueError as exc:  # more than 99 ring closures open at once have no spelling
            unwritable = unwritable or exc
    if not is_template and any("*" in text or "," in text for text in texts):
        return "wildcard atom in non-template prediction"
    if unwritable:
        return f"reactants cannot be written as canonical SMILES: {unwritable}"
    return tuple(canonical)


def _transition_items(groups: list) -> Iterator:
    for group in groups:
        if not isinstance(group, dict):
            yield _drop(group, "group is not an object")
            continue
        if _non_string(group, "forward_reaction_name"):
            yield _drop(group, "forward_reaction_name is not a string")
            continue
        name = group.get("forward_reaction_name", "")
        permutations = group.get("reactant_permutations")
        if not isinstance(permutations, list):
            yield _drop(group, "missing reactant_permutations list")
            continue
        for permutation in permutations:
            if not isinstance(permutation, dict):
                yield _drop(permutation, "permutation is not an object")
                continue
            texts = permutation.get("reactants")
            if not isinstance(texts, list) or not texts or not all(isinstance(t, str) for t in texts):
                yield _drop(permutation, "reactants must be a non-empty list of strings")
                continue
            is_valid = permutation.get("is_valid")
            is_template = permutation.get("is_template")
            if not isinstance(is_valid, bool) or not isinstance(is_template, bool):
                yield _drop(permutation, "is_valid/is_template must be booleans")
                continue
            if _non_string(permutation, "reasoning"):
                yield _drop(permutation, "reasoning is not a string")
                continue
            reactants = _canonical_reactants(texts, is_template)
            if isinstance(reactants, str):
                yield _drop(permutation, reactants)
                continue
            yield TransitionPrediction(
                reactants=reactants,
                is_valid=is_valid,
                is_template=is_template,
                reasoning=permutation.get("reasoning", ""),
                reaction_name=name,
            )


def parse_transition_output(raw: str) -> ParseOutcome:
    """Validate the reactant-prediction payload."""
    return _parse_items(raw, "reaction_analysis", _transition_items)
