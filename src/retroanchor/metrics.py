"""Scoring of disconnection and reactant predictions, plus aggregation.

Per-example scores are pure functions of candidates versus ground truth.
Aggregation turns ``(id, score, label)`` rows into percentage tables,
prediction counts, and confusion matrices, each under an explicitly
declared denominator so every reported number can be re-derived from
the rows.
"""

from __future__ import annotations

import csv
import functools
import io
from collections import Counter
from collections.abc import Callable
from pathlib import Path
from typing import NamedTuple

from retroanchor.chem import AtomMapSet, Molecule, canonical_text, parse_smiles, substructure_match
from retroanchor.outputs import DisconnectionCandidate, TransitionPrediction
from retroanchor.utils import atomic_write_text, normalize_name, stable_json_dumps

MISCELLANEOUS = "Miscellaneous"
TEMPLATE_SHARE_THRESHOLD = 0.75


def jaccard(a, b) -> float:
    """|A∩B| / |A∪B| over two sets of atom-map values; 1.0 when both are empty."""
    union = a | b
    if not union:
        return 1.0
    return len(a & b) / len(union)


class _PositionScore(NamedTuple):
    partial_match: bool
    best_jaccard: float
    exact_match: bool
    reaction_match: bool | None
    reaction_match_in_ontology: bool | None
    n_predictions: int
    failed: bool


class PositionScore(_PositionScore):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.exact_match and self.best_jaccard != 1.0:
            raise ValueError("exact_match requires best_jaccard == 1.0")
        if (self.reaction_match is not None) != self.partial_match:
            raise ValueError("reaction_match is defined exactly when partial_match")
        return self


class _TransitionScore(NamedTuple):
    template_acc: bool
    reactant_acc: bool
    combined_acc: bool
    template_acc_alt: bool
    n_predictions: int
    failed: bool


class TransitionScore(_TransitionScore):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.combined_acc != (self.template_acc or self.reactant_acc):
            raise ValueError("combined_acc must equal template_acc or reactant_acc")
        return self


class ConfusionLabel(NamedTuple):
    """Ground-truth and predicted naming for one example.

    ``class_pred``/``name_pred`` are None when the example contributes no
    matrix cell (no candidates, or the representative prediction is
    outside the ontology).
    """

    class_gt: str
    name_gt: str
    class_pred: str | None
    name_pred: str | None


class EvaluationReport(NamedTuple):
    kind: str
    rows: tuple[dict, ...]
    aggregates: dict[str, float]
    denominators: dict[str, int]
    counts: dict
    confusion_class: dict[str, dict[str, int]]
    confusion_name: dict[str, dict[str, int]]


def score_position(
    cands: list[DisconnectionCandidate], s_gt: AtomMapSet, name_gt: str, class_gt: str
) -> tuple[PositionScore, ConfusionLabel]:
    """Score one example's disconnection candidates against the label, and
    name the example for the confusion matrices.

    Reaction matching is conditional on a partial match and considers
    only candidates attaining the best Jaccard value, all ties included.
    The representative candidate has the best Jaccard, ties broken to the
    lowest priority, then first listed; it names the example only when it
    is in the ontology.  An example without candidates fails whatever its
    label and names nothing.
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
        ), ConfusionLabel(class_gt, name_gt, None, None)
    if not s_gt:
        raise ValueError("ground-truth disconnection set is empty")
    similarities = [jaccard(c.s, s_gt) for c in cands]
    best = max(similarities)
    best_cands = [c for c, sim in zip(cands, similarities) if sim == best]
    partial = any(c.s & s_gt for c in cands)
    reaction_match = None
    reaction_match_in_ontology = None
    if partial:
        gt_key = normalize_name(name_gt)
        reaction_match = any(normalize_name(c.reaction_name) == gt_key for c in best_cands)
        reaction_match_in_ontology = any(
            c.in_ontology and normalize_name(c.reaction_name) == gt_key for c in best_cands
        )
    rep = min(best_cands, key=lambda c: c.priority)  # min keeps the first of equals
    score = PositionScore(
        partial_match=partial,
        best_jaccard=best,
        exact_match=best == 1.0,
        reaction_match=reaction_match,
        reaction_match_in_ontology=reaction_match_in_ontology,
        n_predictions=len(cands),
        failed=False,
    )
    if not rep.in_ontology:
        return score, ConfusionLabel(class_gt, name_gt, None, None)
    return score, ConfusionLabel(class_gt, name_gt, rep.reaction_class, rep.reaction_name)


def reactant_multiset(texts, ignore_stereo: bool = False) -> Counter:
    """Canonical map-free text multiset for order-insensitive equality, of
    texts or of parsed molecules (see ``canonical_text``)."""
    return Counter(canonical_text(text, ignore_stereo=ignore_stereo) for text in texts)


def atom_shares(template: Molecule, gt: Molecule) -> tuple[float, float]:
    """Fraction of shared atoms between a template reactant and a
    ground-truth reactant, measured by atom-map intersection: over the
    template's non-wildcard heavy atoms, then over the ground truth's
    heavy atoms.  A share with no atoms to count is 0.0."""
    shared = len(template.atom_maps() & gt.atom_maps())
    bases = (
        sum(1 for a in template.atoms if a.is_heavy and not a.is_wildcard),
        sum(1 for a in gt.atoms if a.is_heavy),
    )
    return tuple(shared / base if base else 0.0 for base in bases)


def template_cover(
    template: tuple[Molecule, ...], r_gt: list[Molecule]
) -> Callable[[int], bool]:
    """``cover(side)``: whether every ground-truth reactant pairs with a
    distinct template reactant that embeds into it and whose
    ``atom_shares`` on ``side`` reach the threshold.  The search checks a
    pair only when it reaches it, and embeds each pair at most once for
    both sides."""

    @functools.cache
    def embeds(t_idx: int, gt_idx: int) -> bool:
        return substructure_match(template[t_idx], r_gt[gt_idx])

    def assign(side: int, gt_idx: int, used: frozenset[int]) -> bool:
        return gt_idx == len(r_gt) or any(
            atom_shares(template[t_idx], r_gt[gt_idx])[side] >= TEMPLATE_SHARE_THRESHOLD
            and embeds(t_idx, gt_idx)
            and assign(side, gt_idx + 1, used | {t_idx})
            for t_idx in range(len(template))
            if t_idx not in used
        )

    return lambda side: assign(side, 0, frozenset())


class GroundTruthError(ValueError):
    """An example's true reactants cannot be scored."""


def score_transition(
    preds: list[TransitionPrediction],
    r_gt: list[Molecule],
    ignore_stereo: bool = False,
) -> TransitionScore:
    """Score one example's reactant predictions against the true reactants.

    Only predictions the model itself marked valid are eligible, for the
    template route and the exact route alike.  Every prediction's texts
    are read before any is scored, in order: a valid non-template
    prediction's as canonical texts, any other's as molecules.  An
    unparsable text raises SmilesError and one with no canonical spelling
    ValueError; a fault of the truth raises GroundTruthError.
    """
    read = [
        reactant_multiset(p.reactants, ignore_stereo)
        if p.is_valid and not p.is_template
        else tuple(parse_smiles(t) for t in p.reactants)
        for p in preds
    ]
    if not r_gt:
        raise GroundTruthError("ground-truth reactant list is empty")
    if not preds:
        return TransitionScore(
            template_acc=False,
            reactant_acc=False,
            combined_acc=False,
            template_acc_alt=False,
            n_predictions=0,
            failed=True,
        )
    try:
        gt_multiset = reactant_multiset(r_gt, ignore_stereo)
    except ValueError as exc:  # a reactant with no canonical spelling
        raise GroundTruthError(str(exc)) from exc
    reactant_acc = gt_multiset in read  # only valid non-template predictions read as multisets
    # Per side (template, then ground-truth share), the first covering
    # template prediction settles it.
    acc = [False, False]
    for p, molecules in zip(preds, read):
        if p.is_valid and p.is_template:
            cover = template_cover(molecules, r_gt)
            acc = [hit or cover(side) for side, hit in enumerate(acc)]
    template_acc, template_acc_alt = acc
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
    rows: list[tuple[str, PositionScore | TransitionScore, ConfusionLabel | None]],
) -> EvaluationReport:
    """Fold per-example ``(id, score, label)`` rows into one report.

    Accuracy percentages average over every example (failures score
    zero); the reaction-name accuracies average over partial-match rows
    only.  Prediction counts and averages cover non-failed examples.
    Confusion matrices use only partial-match rows whose predicted name
    is inside the ontology; labels apply to position scores only.
    """
    if not rows:
        raise ValueError("no score rows to aggregate")
    scores = [score for _, score, _ in rows]
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

    table: list[dict] = []
    confusion_class: dict[str, dict[str, int]] = {}
    confusion_name: dict[str, dict[str, int]] = {}
    for example_id, score, label in rows:
        row = {"id": example_id, **score._asdict()}
        if kind == "position":
            row["best_jaccard"] = round(score.best_jaccard, 4)
            if label is not None:
                row.update(name_gt=label.name_gt, name_pred=label.name_pred)
                if score.partial_match and label.name_pred is not None:
                    _tally(confusion_class, label.class_gt, label.class_pred)
                    _tally(confusion_name, label.name_gt, label.name_pred)
        table.append(row)

    return EvaluationReport(
        kind=kind,
        rows=tuple(table),
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
    # Not csv.writer: on Python 3.11 it leaves a "\r" field unquoted and writes a lone empty field as "".
    if any(ch in cell for ch in ',"\r\n'):
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
    atomic_write_text(paths["report"], stable_json_dumps(report._asdict()))

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
