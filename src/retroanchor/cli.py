"""Command-line pipeline.

Subcommands cover the full flow: ``label`` attaches disconnection-site
labels to a reaction dataset, ``ontology`` and ``subsample`` derive the
name catalog and a balanced evaluation set, ``run-position`` and
``run-transition`` execute prompts against a model (live or replayed
from cache), and ``evaluate`` scores a finished run.

Exit-code policy: per-example model failures are data and leave the
exit status at 0; configuration and I/O faults exit non-zero.  Every
run directory is self-describing: config snapshot, request manifest,
and per-example outcomes hold everything needed to re-derive a report.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from collections.abc import Callable
from dataclasses import asdict, dataclass
from pathlib import Path

from retroanchor.chem import AtomMapSet, canonical_smiles, parse_smiles
from retroanchor.chem.mol import SmilesError
from retroanchor.datasets import (
    DatasetError,
    ExampleLibrary,
    Ontology,
    ReactionRecord,
    build_ontology,
    ingest_dataset,
    sample_examples,
    subsample_eval_set,
)
from retroanchor.gateway import Completion, Gateway, GatewayFailure, ModelConfig
from retroanchor.labels import extract_structural_label
from retroanchor.metrics import (
    ConfusionLabel,
    aggregate,
    representative_candidate,
    score_position,
    score_transition,
    write_report,
)
from retroanchor.outputs import (
    DisconnectionCandidate,
    ParseOutcome,
    TransitionPrediction,
    parse_position_output,
    parse_transition_output,
)
from retroanchor.prompts import (
    PromptTemplate,
    RenderedPrompt,
    load_template,
    render_position_prompt,
    render_transition_prompt,
)
from retroanchor.utils import (
    atomic_write_text,
    normalize_name,
    read_jsonl,
    stable_json_dumps,
    write_jsonl,
)

DEFAULT_UNCLASSIFIED = "otherReaction"


class CliError(Exception):
    """Configuration or I/O fault; the process exits non-zero."""


@dataclass(frozen=True)
class RunConfig:
    """Everything a model run depends on, snapshotted into the run dir."""

    stage: str
    input_path: Path
    output_dir: Path
    cache_dir: Path
    model: ModelConfig
    backend: str
    parallelism: int
    prompt_variant: str | None = None
    examples_k: int | None = None
    seed: int | None = None
    ontology_path: Path | None = None
    train_path: Path | None = None

    def __post_init__(self):
        if self.backend not in ("live", "replay"):
            raise CliError(f"backend must be 'live' or 'replay', got {self.backend!r}")
        if self.parallelism < 1:
            raise CliError("parallelism must be at least 1")
        for path in (self.input_path, self.ontology_path, self.train_path):
            if path is not None and not Path(path).exists():
                raise CliError(f"input path does not exist: {path}")

    def to_json_obj(self) -> dict:
        return {
            "stage": self.stage,
            "input": str(self.input_path),
            "output_dir": str(self.output_dir),
            "cache_dir": str(self.cache_dir),
            "backend": self.backend,
            "parallelism": self.parallelism,
            "prompt_variant": self.prompt_variant,
            "examples_k": self.examples_k,
            "seed": self.seed,
            "ontology": str(self.ontology_path) if self.ontology_path else None,
            "train": str(self.train_path) if self.train_path else None,
            "model": asdict(self.model),
        }


def _record_to_row(record: ReactionRecord) -> dict:
    row = {
        "id": record.record_id,
        "reaction_smiles": record.reaction_smiles,
        "reaction_name": record.reaction_name,
        "reaction_class": record.reaction_class,
        "split": record.split,
    }
    row.update(record.extra)
    return row


def _record_label(record: ReactionRecord) -> tuple[AtomMapSet, str]:
    """Label columns from a labeled file, else a fresh extraction."""
    maps = record.extra.get("label_maps")
    kind = record.extra.get("label_kind")
    if isinstance(maps, list) and isinstance(kind, str):
        return AtomMapSet.of(maps), kind
    label = extract_structural_label(record)
    return label.maps, label.kind


def _ingest(path: Path) -> tuple[list[ReactionRecord], list[dict]]:
    try:
        return ingest_dataset(path)
    except DatasetError as exc:
        raise CliError(str(exc)) from exc


def _load_ontology(path: Path) -> Ontology:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read ontology {path}: {exc}") from exc
    try:
        if isinstance(data, dict):
            return Ontology.from_json_obj(data["entries"], data.get("source_split", ""))
        return Ontology.from_json_obj(data)
    except (KeyError, TypeError) as exc:
        raise CliError(f"malformed ontology file {path}") from exc


def _load_template(name: str) -> PromptTemplate:
    try:
        return load_template(name)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ---------------------------------------------------------------- label


def cmd_label(args) -> int:
    records, rejects = _ingest(args.input)
    rows = []
    for record in records:
        label = extract_structural_label(record)
        row = _record_to_row(record)
        row["label_maps"] = label.maps.sorted()
        row["label_kind"] = label.kind
        rows.append(row)
    write_jsonl(args.output, rows)
    rejects_path = args.output.parent / (args.output.stem + ".rejects.jsonl")
    write_jsonl(rejects_path, rejects)
    print(f"labeled {len(rows)} rows ({len(rejects)} rejected) -> {args.output}")
    return 0


# ------------------------------------------------------------- ontology


def cmd_ontology(args) -> int:
    records, rejects = _ingest(args.input)
    try:
        ontology = build_ontology(records, args.split)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    payload = {"source_split": args.split, "entries": ontology.to_json_obj()}
    atomic_write_text(args.output, stable_json_dumps(payload))
    print(f"ontology of {len(ontology)} reaction names ({len(rejects)} rows rejected) -> {args.output}")
    return 0


# ------------------------------------------------------------ subsample


def cmd_subsample(args) -> int:
    records, rejects = _ingest(args.input)
    if args.split is not None:
        records = [r for r in records if r.split == args.split]
    usable = [r for r in records if r.extra.get("label_kind") != "empty"]
    dropped_empty = len(records) - len(usable)
    try:
        chosen = subsample_eval_set(usable, args.cap, args.unclassified_label, args.seed)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    write_jsonl(args.output, [_record_to_row(r) for r in chosen])
    print(
        f"subsampled {len(chosen)} of {len(usable)} rows "
        f"({dropped_empty} empty-label, {len(rejects)} rejected) -> {args.output}"
    )
    return 0


# ------------------------------------------------------------ model runs


def _check_live_config(args) -> None:
    if args.backend != "live":
        return
    if not args.endpoint:
        raise CliError("--endpoint is required with --backend live")
    if not os.environ.get(args.api_key_env):
        raise CliError(f"environment variable {args.api_key_env} is not set")


def _run_config(args, stage: str, **fields) -> RunConfig:
    _check_live_config(args)
    return RunConfig(
        stage=stage,
        input_path=args.input,
        output_dir=args.output,
        cache_dir=args.cache_dir if args.cache_dir else args.output / "cache",
        model=ModelConfig(
            model_id=args.model, endpoint=args.endpoint, api_key_env=args.api_key_env
        ),
        backend=args.backend,
        parallelism=args.parallelism,
        **fields,
    )


def _manifest_row(cfg: ModelConfig, result: Completion | GatewayFailure) -> dict:
    if isinstance(result, Completion):
        outcome = "cache_hit" if result.from_cache else "ok"
        latency_ms = result.latency_ms
    else:
        outcome, latency_ms = result.kind, 0
    return {
        "digest": result.request_digest,
        "model": cfg.model_id,
        "attempts": result.attempts,
        "outcome": outcome,
        "latency_ms": latency_ms,
    }


def _execute_run(
    run: RunConfig,
    records: list[ReactionRecord],
    render: Callable[[ReactionRecord], RenderedPrompt],
    parse: Callable[[str, ReactionRecord, RenderedPrompt], tuple[ParseOutcome, dict]],
    extra_config: dict,
) -> int:
    """Render, send, parse and write one run directory.

    ``render`` raises ValueError for a record it cannot prompt; that row
    is skipped and sends no request.  ``parse`` returns the parse outcome
    plus the stage's own fields for the ``ok`` row.
    """
    pending: list[tuple[ReactionRecord, RenderedPrompt | None, str]] = []
    for record in records:
        try:
            pending.append((record, render(record), ""))
        except ValueError as exc:
            pending.append((record, None, str(exc)))
    prompts = [prompt for _, prompt, _ in pending if prompt is not None]
    gateway = Gateway(run.model, cache_dir=run.cache_dir, mode=run.backend)
    results = iter(gateway.run_batch(prompts, run.parallelism))

    outcomes: list[dict] = []
    manifest: list[dict] = []
    n_failed = 0
    for record, prompt, skip_reason in pending:
        if prompt is None:
            outcomes.append({"id": record.record_id, "status": "skipped", "reason": skip_reason})
            continue
        result = next(results)
        manifest.append(_manifest_row(run.model, result))
        row = {"id": record.record_id, "digest": result.request_digest}
        if isinstance(result, GatewayFailure):
            n_failed += 1
            row.update(status="gateway_failure", failure_kind=result.kind, message=result.message)
        else:
            parsed, stage_fields = parse(result.text, record, prompt)
            row.update(
                status="ok",
                n_predictions=len(parsed.ok),
                dropped=list(parsed.dropped),
                failure_class=parsed.failure_class,
                **stage_fields,
            )
        outcomes.append(row)

    config = run.to_json_obj()
    config.update(extra_config)
    atomic_write_text(run.output_dir / "config.json", stable_json_dumps(config))
    write_jsonl(run.output_dir / "outcomes.jsonl", outcomes)
    write_jsonl(run.output_dir / "manifest.jsonl", manifest)
    print(
        f"{run.stage} run over {len(records)} examples "
        f"({n_failed} gateway failures) -> {run.output_dir}"
    )
    return 0


def _candidate_row(cand: DisconnectionCandidate) -> dict:
    return {
        "s": cand.s.sorted(),
        "reaction_name": cand.reaction_name,
        "reaction_class": cand.reaction_class,
        "in_ontology": cand.in_ontology,
        "claimed_in_ontology": cand.claimed_in_ontology,
        "importance": cand.importance,
        "priority": cand.priority,
        "rationale": cand.rationale,
    }


def cmd_run_position(args) -> int:
    run = _run_config(args, "position", ontology_path=args.ontology)
    records, rejects = _ingest(args.input)
    ontology = _load_ontology(args.ontology)
    if len(ontology) == 0:
        raise CliError(f"ontology {args.ontology} has no entries")
    template = _load_template("position")

    def render(record: ReactionRecord) -> RenderedPrompt:
        return render_position_prompt(record.product, ontology, template)

    def parse(text: str, record: ReactionRecord, prompt: RenderedPrompt):
        parsed = parse_position_output(text, record.product, ontology)
        return parsed, {"candidates": [_candidate_row(c) for c in parsed.ok]}

    extra_config = {
        "template_name": template.name,
        "template_digest": template.digest,
        "ontology_sha256": _sha256_file(args.ontology),
        "ontology_size": len(ontology),
        "ingest_rejects": len(rejects),
    }
    return _execute_run(run, records, render, parse, extra_config)


def _prediction_row(pred: TransitionPrediction) -> dict:
    return {
        "reactants": [canonical_smiles(m, include_maps=True) for m in pred.reactants],
        "is_valid": pred.is_valid,
        "is_template": pred.is_template,
        "reaction_name": pred.reaction_name,
        "reasoning": pred.reasoning,
    }


def cmd_run_transition(args) -> int:
    run = _run_config(
        args,
        "transition",
        prompt_variant=args.prompt_variant,
        examples_k=args.examples_k,
        seed=args.seed,
        train_path=args.train,
    )
    records, rejects = _ingest(args.input)
    train_records, train_rejects = _ingest(args.train)
    template_name = "transition" if args.prompt_variant == "full" else "transition_short"
    template = _load_template(template_name)
    # sample_examples still filters each group by split, id and name, so
    # the pool, its order and the draw equal those over the full list.
    train_by_name: dict[str, list[ReactionRecord]] = {}
    for train in train_records:
        train_by_name.setdefault(normalize_name(train.reaction_name), []).append(train)

    def render(record: ReactionRecord) -> RenderedPrompt:
        s, _kind = _record_label(record)
        if not s.maps:
            raise ValueError("empty disconnection set")
        name = record.reaction_name or None
        if name is None:
            library = ExampleLibrary(reaction_name="", examples=(), seed=args.seed)
        else:
            pool = train_by_name.get(normalize_name(name), [])
            library = sample_examples(pool, name, record.record_id, args.examples_k, args.seed)
        return render_transition_prompt(
            record.product, s, name, library, args.prompt_variant, template
        )

    def parse(text: str, record: ReactionRecord, prompt: RenderedPrompt):
        parsed = parse_transition_output(text, record.product)
        return parsed, {
            "example_count": prompt.example_count,
            "predictions": [_prediction_row(p) for p in parsed.ok],
        }

    extra_config = {
        "template_name": template.name,
        "template_digest": template.digest,
        "ingest_rejects": len(rejects),
        "train_ingest_rejects": len(train_rejects),
    }
    return _execute_run(run, records, render, parse, extra_config)


# ------------------------------------------------------------- evaluate


def _exact(value, *kinds: type):
    """``value`` when its type is exactly one of ``kinds`` (so JSON ``true``
    is no int); a wrongly typed outcome field is never coerced."""
    if type(value) not in kinds:
        raise TypeError(f"expected {kinds[0].__name__}, got {value!r}")
    return value


def _candidate(c: dict) -> DisconnectionCandidate:
    return DisconnectionCandidate(
        s=AtomMapSet.of(_exact(m, int) for m in _exact(c["s"], list)),
        reaction_name=_exact(c["reaction_name"], str),
        reaction_class=_exact(c["reaction_class"], str),
        in_ontology=_exact(c["in_ontology"], bool),
        importance=_exact(c["importance"], int),
        priority=_exact(c["priority"], int),
        rationale=_exact(c.get("rationale", ""), str),
        claimed_in_ontology=_exact(c.get("claimed_in_ontology"), bool, type(None)),
    )


def _prediction(p: dict) -> TransitionPrediction:
    return TransitionPrediction(
        reactants=tuple(parse_smiles(_exact(t, str)) for t in _exact(p["reactants"], list)),
        is_valid=_exact(p["is_valid"], bool),
        is_template=_exact(p["is_template"], bool),
        reasoning=_exact(p.get("reasoning", ""), str),
        reaction_name=_exact(p.get("reaction_name", ""), str),
    )


def _items_from_row(row: dict, key: str, build: Callable[[dict], object]) -> list:
    """The ``key`` list of an ``ok`` outcome row, each item built by ``build``;
    any other row has no items and scores as a failed prediction."""
    if row.get("status") != "ok":
        return []
    try:
        return [build(item) for item in _exact(row[key], list)]
    except SmilesError as exc:
        raise CliError(f"run outcome for {row.get('id')} holds unparsable SMILES: {exc}") from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"run outcome for {row.get('id')} holds a malformed {key[:-1]}: {exc!r}") from exc


def cmd_evaluate(args) -> int:
    config_path = args.run / "config.json"
    outcomes_path = args.run / "outcomes.jsonl"
    if not config_path.exists() or not outcomes_path.exists():
        raise CliError(f"{args.run} is not a run directory (missing config.json/outcomes.jsonl)")
    try:
        config = json.loads(config_path.read_text(encoding="utf-8"))
        outcome_rows = read_jsonl(outcomes_path)
    except ValueError as exc:
        raise CliError(f"cannot read run {args.run}: {exc}") from exc
    stage = config.get("stage") if isinstance(config, dict) else None
    if stage not in ("position", "transition"):
        raise CliError(f"run config has unknown stage {stage!r}")
    if not outcome_rows:
        raise CliError(f"{args.run} holds no outcomes to evaluate")

    records, _rejects = _ingest(args.input)
    by_id = {r.record_id: r for r in records}

    def score_position_row(row: dict, record: ReactionRecord):
        # A row without an answer scores as a failed prediction before
        # its label is read: a skipped row may have no label at all.
        s_gt = AtomMapSet()
        if row.get("status") == "ok":
            s_gt, _kind = _record_label(record)
            if not s_gt.maps:
                raise CliError(f"example {record.record_id} has an empty disconnection label")
        cands = _items_from_row(row, "candidates", _candidate)
        score = score_position(cands, s_gt, record.reaction_name)
        rep = representative_candidate(cands, s_gt)
        named = rep is not None and rep.in_ontology
        return score, ConfusionLabel(
            class_gt=record.reaction_class,
            name_gt=record.reaction_name,
            class_pred=rep.reaction_class if named else None,
            name_pred=rep.reaction_name if named else None,
        )

    def score_transition_row(row: dict, record: ReactionRecord):
        preds = _items_from_row(row, "predictions", _prediction)
        return score_transition(preds, list(record.reactants), ignore_stereo=args.ignore_stereo), None

    score_row = score_position_row if stage == "position" else score_transition_row
    scores: list = []
    labels: list[ConfusionLabel | None] = []
    ids: list[str] = []
    for row in outcome_rows:
        record = by_id.get(str(row.get("id")))
        if record is None:
            raise CliError(f"ground truth file lacks example {row.get('id')!r}")
        score, label = score_row(row, record)
        ids.append(record.record_id)
        scores.append(score)
        labels.append(label)

    report = aggregate(scores, labels=labels, ids=ids)
    out_dir = args.output if args.output else args.run / "report"
    paths = write_report(report, out_dir)
    print(paths["summary"].read_text(encoding="utf-8"), end="")
    print(f"report -> {out_dir}")
    return 0


# ----------------------------------------------------------------- main


def _add_model_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--model", required=True, help="model identifier sent to the endpoint")
    sub.add_argument("--endpoint", default="", help="chat-completions URL (live backend)")
    sub.add_argument(
        "--api-key-env",
        default="RETROANCHOR_API_KEY",
        help="environment variable holding the API key",
    )
    sub.add_argument("--backend", choices=("live", "replay"), default="replay")
    sub.add_argument("--cache-dir", type=Path, default=None, help="completion cache directory")
    sub.add_argument("--parallelism", type=int, default=4)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="retroanchor",
        description="Atom-anchored retrosynthesis pipeline: label, prompt, run, score.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    sub = subparsers.add_parser("label", help="attach disconnection-site labels to a dataset")
    sub.add_argument("--input", type=Path, required=True)
    sub.add_argument("--output", type=Path, required=True)
    sub.set_defaults(func=cmd_label)

    sub = subparsers.add_parser("ontology", help="collect unique reaction names of a split")
    sub.add_argument("--input", type=Path, required=True)
    sub.add_argument("--split", required=True)
    sub.add_argument("--output", type=Path, required=True)
    sub.set_defaults(func=cmd_ontology)

    sub = subparsers.add_parser("subsample", help="balanced evaluation subsample")
    sub.add_argument("--input", type=Path, required=True)
    sub.add_argument("--output", type=Path, required=True)
    sub.add_argument("--split", default=None)
    sub.add_argument("--cap", type=int, default=5)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--unclassified-label", default=DEFAULT_UNCLASSIFIED)
    sub.set_defaults(func=cmd_subsample)

    sub = subparsers.add_parser("run-position", help="disconnection-stage model run")
    sub.add_argument("--input", type=Path, required=True)
    sub.add_argument("--ontology", type=Path, required=True)
    sub.add_argument("--output", type=Path, required=True)
    _add_model_flags(sub)
    sub.set_defaults(func=cmd_run_position)

    sub = subparsers.add_parser("run-transition", help="reactant-prediction model run")
    sub.add_argument("--input", type=Path, required=True)
    sub.add_argument("--train", type=Path, required=True)
    sub.add_argument("--output", type=Path, required=True)
    sub.add_argument("--prompt-variant", choices=("full", "short"), default="full")
    sub.add_argument("--examples-k", type=int, default=5)
    sub.add_argument("--seed", type=int, default=0)
    _add_model_flags(sub)
    sub.set_defaults(func=cmd_run_transition)

    sub = subparsers.add_parser("evaluate", help="score a finished run directory")
    sub.add_argument("--run", type=Path, required=True)
    sub.add_argument("--input", type=Path, required=True, help="ground-truth labeled dataset")
    sub.add_argument("--output", type=Path, default=None)
    sub.add_argument("--ignore-stereo", action="store_true")
    sub.set_defaults(func=cmd_evaluate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
