"""Scoring of disconnection and reactant predictions, plus aggregation.

Per-example scores are pure functions of candidates versus ground truth.
Aggregation turns aligned score rows into percentage tables, prediction
counts, and confusion matrices, each under an explicitly declared
denominator so every reported number can be re-derived from the rows.
"""

from __future__ import annotations

import csv
import io
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from retroanchor.chem import (
    AtomMapSet,
    Molecule,
    canonical_smiles,
    strip_atom_maps,
    strip_stereo,
    substructure_match,
)
from retroanchor.outputs import DisconnectionCandidate, TransitionPrediction
from retroanchor.utils import atomic_write_text, normalize_name, stable_json_dumps

MISCELLANEOUS = "Miscellaneous"
TEMPLATE_SHARE_THRESHOLD = 0.75


def jaccard(a, b) -> float:
    """|A∩B| / |A∪B| over atom-map sets; 1.0 when both are empty."""
    set_a = set(a.maps) if isinstance(a, AtomMapSet) else set(a)
    set_b = set(b.maps) if isinstance(b, AtomMapSet) else set(b)
    union = set_a | set_b
    if not union:
        return 1.0
    return len(set_a & set_b) / len(union)


@dataclass(frozen=True)
class PositionScore:
    partial_match: bool
    best_jaccard: float
    exact_match: bool
    reaction_match: bool | None
    reaction_match_in_ontology: bool | None
    n_predictions: int
    failed: bool

    def __post_init__(self):
        if self.exact_match and self.best_jaccard != 1.0:
            raise ValueError("exact_match requires best_jaccard == 1.0")
        if (self.reaction_match is not None) != self.partial_match:
            raise ValueError("reaction_match is defined exactly when partial_match")


@dataclass(frozen=True)
class TransitionScore:
    template_acc: bool
    reactant_acc: bool
    combined_acc: bool
    template_acc_alt: bool
    n_predictions: int
    failed: bool

    def __post_init__(self):
        if self.combined_acc != (self.template_acc or self.reactant_acc):
            raise ValueError("combined_acc must equal template_acc or reactant_acc")


@dataclass(frozen=True)
class ConfusionLabel:
    """Ground-truth and predicted naming for one example.

    ``class_pred``/``name_pred`` are None when the example contributes no
    matrix cell (no candidates, or the representative prediction is
    outside the ontology).
    """

    class_gt: str
    name_gt: str
    class_pred: str | None
    name_pred: str | None


@dataclass(frozen=True)
class EvaluationReport:
    kind: str
    rows: tuple[dict, ...]
    aggregates: dict[str, float]
    denominators: dict[str, int]
    counts: dict
    confusion_class: dict[str, dict[str, int]]
    confusion_name: dict[str, dict[str, int]]


def score_position(
    cands: list[DisconnectionCandidate], s_gt: AtomMapSet, beta_gt: str
) -> PositionScore:
    """Score one example's disconnection candidates against the label.

    Reaction matching is conditional on a partial match and considers
    only candidates attaining the best Jaccard value, all ties included.
    An example without candidates fails whatever its label.
    """
    if not cands:
        return PositionScore(
            partial_match=False,
            best_jaccard=0.0,
            exact_match=False,
            reaction_match=None,
            reaction_match_in_ontology=None,
            n_predictions=0,
            failed=True,
        )
    if not s_gt.maps:
        raise ValueError("ground-truth disconnection set is empty")
    similarities = [jaccard(c.s, s_gt) for c in cands]
    best = max(similarities)
    partial = any(set(c.s.maps) & set(s_gt.maps) for c in cands)
    exact = best == 1.0
    reaction_match = None
    reaction_match_in_ontology = None
    if partial:
        gt_key = normalize_name(beta_gt)
        best_cands = [c for c, sim in zip(cands, similarities) if sim == best]
        reaction_match = any(normalize_name(c.reaction_name) == gt_key for c in best_cands)
        reaction_match_in_ontology = any(
            c.in_ontology and normalize_name(c.reaction_name) == gt_key for c in best_cands
        )
    return PositionScore(
        partial_match=partial,
        best_jaccard=best,
        exact_match=exact,
        reaction_match=reaction_match,
        reaction_match_in_ontology=reaction_match_in_ontology,
        n_predictions=len(cands),
        failed=False,
    )


def representative_candidate(
    cands: list[DisconnectionCandidate], s_gt: AtomMapSet
) -> DisconnectionCandidate | None:
    """The candidate naming this example in confusion matrices.

    Best Jaccard wins; ties break to the lowest priority, then first
    listed.  None when there are no candidates.
    """
    if not cands:
        return None
    scored = [(jaccard(c.s, s_gt), c, i) for i, c in enumerate(cands)]
    best = max(sim for sim, _, _ in scored)
    eligible = [(c.priority, i, c) for sim, c, i in scored if sim == best]
    return min(eligible)[2]


def reactant_multiset(molecules, ignore_stereo: bool = False) -> Counter:
    """Canonical map-free text multiset for order-insensitive equality."""
    texts = []
    for molecule in molecules:
        stripped = strip_atom_maps(molecule)
        if ignore_stereo:
            stripped = strip_stereo(stripped)
        texts.append(canonical_smiles(stripped))
    return Counter(texts)


def atom_share(template: Molecule, gt: Molecule, denominator: str = "template") -> float:
    """Fraction of shared atoms between a template reactant and a
    ground-truth reactant, measured by atom-map intersection.

    ``denominator`` picks the reference side: ``template`` counts the
    template's non-wildcard heavy atoms, ``gt`` counts the ground-truth
    heavy atoms.
    """
    shared = len(template.atom_maps() & gt.atom_maps())
    if denominator == "template":
        base = sum(1 for a in template.atoms if a.is_heavy and not a.is_wildcard)
    elif denominator == "gt":
        base = sum(1 for a in gt.atoms if a.is_heavy)
    else:
        raise ValueError(f"denominator must be 'template' or 'gt', got {denominator!r}")
    if base == 0:
        return 0.0
    return shared / base


def find_template_assignment(
    template_reactants: tuple[Molecule, ...],
    gt_reactants: list[Molecule],
    embeddings: dict[tuple[int, int], bool],
    denominator: str = "template",
) -> list[tuple[int, int]] | None:
    """Injective pairing of every ground-truth reactant with a distinct
    template reactant passing both the share threshold and an embedding
    check, or None when no such assignment exists.  ``embeddings`` keeps
    the embedding check of each (template, ground-truth) index pair across
    calls on the same reactants."""
    edges: list[list[int]] = []
    for gt_idx, gt in enumerate(gt_reactants):
        row = []
        for t_idx, template in enumerate(template_reactants):
            if atom_share(template, gt, denominator) < TEMPLATE_SHARE_THRESHOLD:
                continue
            if (t_idx, gt_idx) not in embeddings:
                embeddings[t_idx, gt_idx] = substructure_match(template, gt)
            if embeddings[t_idx, gt_idx]:
                row.append(t_idx)
        if not row:
            return None
        edges.append(row)

    assignment: dict[int, int] = {}

    def assign(gt_idx: int) -> bool:
        if gt_idx == len(edges):
            return True
        for t_idx in edges[gt_idx]:
            if t_idx not in assignment.values():
                assignment[gt_idx] = t_idx
                if assign(gt_idx + 1):
                    return True
                del assignment[gt_idx]
        return False

    if not assign(0):
        return None
    return sorted(assignment.items())


def score_transition(
    preds: list[TransitionPrediction],
    r_gt: list[Molecule],
    ignore_stereo: bool = False,
) -> TransitionScore:
    """Score one example's reactant predictions against the true reactants.

    Only predictions the model itself marked valid are eligible, for the
    template route and the exact route alike.
    """
    if not r_gt:
        raise ValueError("ground-truth reactant list is empty")
    if not preds:
        return TransitionScore(
            template_acc=False,
            reactant_acc=False,
            combined_acc=False,
            template_acc_alt=False,
            n_predictions=0,
            failed=True,
        )
    gt_multiset = reactant_multiset(r_gt, ignore_stereo=ignore_stereo)
    reactant_acc = any(
        p.is_valid
        and not p.is_template
        and reactant_multiset(p.reactants, ignore_stereo=ignore_stereo) == gt_multiset
        for p in preds
    )
    # Both denominators share each template prediction's embedding checks.
    templates = [(p.reactants, {}) for p in preds if p.is_valid and p.is_template]
    template_acc, template_acc_alt = (
        any(
            find_template_assignment(reactants, r_gt, embeddings, denominator) is not None
            for reactants, embeddings in templates
        )
        for denominator in ("template", "gt")
    )
    return TransitionScore(
        template_acc=template_acc,
        reactant_acc=reactant_acc,
        combined_acc=template_acc or reactant_acc,
        template_acc_alt=template_acc_alt,
        n_predictions=len(preds),
        failed=False,
    )


def _percent(hits: float, total: int) -> float:
    if total == 0:
        return 0.0
    return round(100.0 * hits / total, 2)


def _tally(matrix: dict[str, dict[str, int]], gt: str | None, pred: str | None) -> None:
    row = matrix.setdefault(gt or MISCELLANEOUS, {})
    pred = pred or MISCELLANEOUS
    row[pred] = row.get(pred, 0) + 1


# Per arm: report kind and {aggregate: (score field averaged as a percentage,
# field a row needs true to join the denominator, or None for every row)}.
_ARM_METRICS = {
    PositionScore: ("position", {
        "partial_match_acc": ("partial_match", None),
        "exact_match_acc": ("exact_match", None),
        "mean_best_jaccard": ("best_jaccard", None),
        "reaction_acc": ("reaction_match", "partial_match"),
        "reaction_acc_in_ontology": ("reaction_match_in_ontology", "partial_match"),
    }),
    TransitionScore: ("transition", {
        field: (field, None)
        for field in ("template_acc", "reactant_acc", "combined_acc", "template_acc_alt")
    }),
}


def aggregate(
    scores: list,
    labels: list[ConfusionLabel | None] | None = None,
    ids: list[str] | None = None,
) -> EvaluationReport:
    """Fold per-example scores into one report.

    Accuracy percentages average over every example (failures score
    zero); the reaction-name accuracies average over partial-match rows
    only.  Prediction counts and averages cover non-failed examples.
    Confusion matrices use only partial-match rows whose predicted name
    is inside the ontology; ``labels`` apply to position scores only.
    """
    if not scores:
        raise ValueError("no score rows to aggregate")
    if labels is not None and len(labels) != len(scores):
        raise ValueError("labels must align with scores")
    if ids is not None and len(ids) != len(scores):
        raise ValueError("ids must align with scores")
    ids = ids or [str(i) for i in range(len(scores))]
    labels = labels or [None] * len(scores)

    n = len(scores)
    failed = sum(1 for s in scores if s.failed)
    non_failed = n - failed
    total_predictions = sum(s.n_predictions for s in scores if not s.failed)
    counts = {
        "examples": n,
        "failed_predictions": failed,
        "total_predictions": total_predictions,
        "avg_number_of_predictions": round(total_predictions / non_failed, 2)
        if non_failed
        else 0.0,
    }

    kind, metrics = _ARM_METRICS[type(scores[0])]
    aggregates: dict[str, float] = {}
    denominators: dict[str, int] = {}
    for metric, (field, pool_field) in metrics.items():
        pool = [s for s in scores if pool_field is None or getattr(s, pool_field)]
        aggregates[metric] = _percent(sum(getattr(s, field) for s in pool), len(pool))
        denominators[metric] = len(pool)

    rows: list[dict] = []
    confusion_class: dict[str, dict[str, int]] = {}
    confusion_name: dict[str, dict[str, int]] = {}
    for example_id, score, label in zip(ids, scores, labels):
        row = {"id": example_id, **vars(score)}
        if kind == "position":
            row["best_jaccard"] = round(score.best_jaccard, 4)
            if label is not None:
                row.update(name_gt=label.name_gt, name_pred=label.name_pred)
                if score.partial_match and label.name_pred is not None:
                    _tally(confusion_class, label.class_gt, label.class_pred)
                    _tally(confusion_name, label.name_gt, label.name_pred)
        rows.append(row)

    return EvaluationReport(
        kind=kind,
        rows=tuple(rows),
        aggregates=aggregates,
        denominators=denominators,
        counts=counts,
        confusion_class=confusion_class,
        confusion_name=confusion_name,
    )


def _write_confusion_csv(matrix: dict[str, dict[str, int]], path: Path) -> None:
    pred_labels = sorted({p for row in matrix.values() for p in row})
    lines = [["gt\\pred"] + pred_labels]
    for gt_label in sorted(matrix):
        row = matrix[gt_label]
        lines.append([gt_label] + [str(row.get(p, 0)) for p in pred_labels])
    text = "\n".join(",".join(_csv_quote(cell) for cell in line) for line in lines) + "\n"
    atomic_write_text(path, text)


def _csv_quote(cell: str) -> str:
    if any(ch in cell for ch in ',"\n'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def write_report(report: EvaluationReport, directory: Path | str) -> dict[str, Path]:
    """Emit report.json, rows.csv, confusion CSVs, and summary.txt."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = {
        "report": directory / "report.json",
        "rows": directory / "rows.csv",
        "confusion_class": directory / "confusion_class.csv",
        "confusion_name": directory / "confusion_name.csv",
        "summary": directory / "summary.txt",
    }
    atomic_write_text(paths["report"], stable_json_dumps(vars(report)))

    rows_csv = io.StringIO()
    writer = csv.DictWriter(rows_csv, fieldnames=list(report.rows[0]))
    writer.writeheader()
    writer.writerows(report.rows)
    atomic_write_text(paths["rows"], rows_csv.getvalue())

    _write_confusion_csv(report.confusion_class, paths["confusion_class"])
    _write_confusion_csv(report.confusion_name, paths["confusion_name"])

    lines = [f"{report.kind} evaluation", ""]
    for key in sorted(report.aggregates):
        lines.append(
            f"{key:28s} {report.aggregates[key]:8.2f}  (n={report.denominators[key]})"
        )
    lines.append("")
    for key in ("examples", "failed_predictions", "total_predictions", "avg_number_of_predictions"):
        lines.append(f"{key:28s} {report.counts[key]}")
    atomic_write_text(paths["summary"], "\n".join(lines) + "\n")
    return paths
