"""Prompt rendering for the disconnection and reactant-prediction stages.

Templates ship as text assets pinned by digest, and only those load;
each caller passes the template it loaded.  Rendering substitutes
only the declared placeholders, in one pass, so no value is rescanned;
every other angle-bracket token is illustrative output-format text.
"""

from __future__ import annotations

import hashlib
import json
import re
from importlib import resources
from typing import NamedTuple

from retroanchor.chem import AtomMapSet, Molecule
from retroanchor.chem.canon import AnchorTable
from retroanchor.datasets import Ontology

# The transition template each prompt variant renders from.
TRANSITION_TEMPLATES = {"full": "transition", "short": "transition_short"}

TEMPLATE_PLACEHOLDERS: dict[str, tuple[str, ...]] = {
    "position": ("<reaction_ontology>", "<canonicalized_product>"),
    **dict.fromkeys(
        TRANSITION_TEMPLATES.values(),
        ("<REACTION_POSITION>", "<REACTION_NAME>", "<PRODUCT_SMILES>", "<TRAIN_REACTION_EXAMPLES>"),
    ),
}

# sha256 of the shipped template bodies; recorded when the assets were
# frozen so accidental edits fail loudly.
TEMPLATE_DIGESTS = {
    "position": "5c893983d571e7129b30daa73788e60d32da8bb842b7912336597b9012bebfba",
    "transition": "cc99ea00a8cc1f7c0bda416d8ae8a5d5dfe08fe8e7344ed197cbc49126229bd8",
    "transition_short": "4888cac87ca674c98bef6ae09963c16cbd7905b7ca330f7a1c109ae852f5aa51",
}


class PromptTemplate(NamedTuple):
    """One named template body, split at its declared placeholders."""

    name: str
    digest: str
    pieces: tuple[str, ...]  # body split at placeholders: literals at even indices


class RenderedPrompt(NamedTuple):
    """Final prompt as template segments interleaved with values."""

    template_name: str
    parts: tuple[str, ...]
    example_count: int
    template_digest: str

    @property
    def text(self) -> str:
        return "".join(self.parts)


def load_template(name: str) -> PromptTemplate:
    """Load a template by name from the package assets, which must match
    TEMPLATE_DIGESTS."""
    if name not in TEMPLATE_PLACEHOLDERS:
        raise ValueError(f"unknown template {name!r}")
    body = (
        resources.files("retroanchor")
        .joinpath("templates", f"{name}.txt")
        .read_text(encoding="utf-8")
    )
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    if digest != TEMPLATE_DIGESTS[name]:
        raise ValueError(f"packaged template {name!r} does not match its pinned digest")
    pieces = re.split("(" + "|".join(map(re.escape, TEMPLATE_PLACEHOLDERS[name])) + ")", body)
    return PromptTemplate(name, digest, tuple(pieces))


def _render(template: PromptTemplate, values: dict[str, str], example_count: int) -> RenderedPrompt:
    parts = tuple(values[piece] if i % 2 else piece for i, piece in enumerate(template.pieces))
    return RenderedPrompt(template.name, parts, example_count, template.digest)


def render_position_prompt(
    product: Molecule,
    ontology: Ontology,
    template: PromptTemplate,
) -> RenderedPrompt:
    """Fill the disconnection-stage prompt for one mapped product."""
    anchors = AnchorTable(product)
    if not anchors.index:
        raise ValueError("product has no atom maps")
    if len(ontology) == 0:
        raise ValueError("ontology is empty")
    if template.name != "position":
        raise ValueError(f"expected position template, got {template.name!r}")
    values = {
        "<reaction_ontology>": ontology.prompt_block,
        "<canonicalized_product>": anchors.text,
    }
    return _render(template, values, example_count=0)


def render_transition_prompt(
    product: Molecule,
    s: AtomMapSet,
    reaction_name: str | None,
    examples: tuple[str, ...],
    variant: str,
    template: PromptTemplate,
) -> RenderedPrompt:
    """Fill the reactant-prediction prompt for one disconnection site,
    with ``examples`` as ``sample_examples`` draws them."""
    name = TRANSITION_TEMPLATES.get(variant)
    if name is None:
        raise ValueError(f"variant must be 'full' or 'short', got {variant!r}")
    if not s:
        raise ValueError("empty disconnection set")
    if template.name != name:
        raise ValueError(f"expected {name} template, got {template.name!r}")
    anchors = AnchorTable(product)
    values = {
        "<REACTION_POSITION>": json.dumps(anchors.tokens(s)),
        "<REACTION_NAME>": json.dumps(reaction_name) if reaction_name else "null",
        "<PRODUCT_SMILES>": json.dumps(anchors.text),
        "<TRAIN_REACTION_EXAMPLES>": json.dumps(list(examples), indent=2),
    }
    return _render(template, values, example_count=len(examples))
