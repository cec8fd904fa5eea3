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
import gc
import json
import os
import sys
from collections.abc import Callable
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from retroanchor.chem import AtomMapSet
    from retroanchor.datasets import Ontology, ReactionRecord
    from retroanchor.outputs import ParseOutcome
    from retroanchor.prompts import PromptTemplate, RenderedPrompt

DEFAULT_UNCLASSIFIED = "otherReaction"


class CliError(Exception):
    """Configuration or I/O fault; the process exits non-zero."""


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
    """Label columns from a labeled file, else a fresh extraction; ValueError
    for a wrongly typed column or a reaction that does not parse."""
    from retroanchor.chem import AtomMapSet
    from retroanchor.outputs import exact
    if "label_maps" not in record.extra and "label_kind" not in record.extra:
        from retroanchor.labels import extract_structural_label
        label = extract_structural_label(record)
        return label.maps, label.kind
    maps, kind = record.extra.get("label_maps"), record.extra.get("label_kind")
    try:
        return AtomMapSet.of(exact(m, int) for m in exact(maps, list)), exact(kind, str)
    except TypeError as exc:
        raise ValueError(f"label_maps/label_kind: {exc}") from exc


def _check_jsonl_output(path: Path) -> None:
    """CliError for a ``.csv`` output: every reader takes that suffix for CSV."""
    if path.suffix.lower() == ".csv":
        raise CliError(f"--output {path}: this stage writes JSON lines, not CSV")


def _by_id(records: list[ReactionRecord], where: object) -> dict[str, ReactionRecord]:
    """The records by id; CliError naming ``where`` and the first id listed twice."""
    by_id: dict[str, ReactionRecord] = {}
    for record in records:
        if by_id.setdefault(record.record_id, record) is not record:
            raise CliError(f"{where} repeats example {record.record_id!r}")
    return by_id


def _load_ontology(path: Path) -> Ontology:
    from retroanchor.datasets import Ontology
    from retroanchor.outputs import exact
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        raise CliError(f"cannot read ontology {path}: {exc}") from exc
    try:
        ontology = Ontology.from_json_obj(data["entries"], data.get("source_split", ""))
        for entry in ontology.entries:
            exact(entry.id, str)
            exact(entry.reaction_class, str)
    except (KeyError, TypeError) as exc:
        raise CliError(f"malformed ontology file {path}") from exc
    return ontology


def _load_template(name: str) -> PromptTemplate:
    from retroanchor.prompts import load_template
    try:
        return load_template(name)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _sha256_file(path: Path) -> str:
    import hashlib  # only run-position takes a digest; the other stages skip the import
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ---------------------------------------------------------------- label


def cmd_label(args) -> int:
    from retroanchor.datasets import ingest_dataset
    from retroanchor.labels import extract_structural_label
    from retroanchor.utils import write_jsonl
    _check_jsonl_output(args.output)
    records, rejects = ingest_dataset(args.input)
    rows = []
    for record in records:
        label = extract_structural_label(record)
        row = _record_to_row(record)
        row["label_maps"] = sorted(label.maps)
        row["label_kind"] = label.kind
        rows.append(row)
    write_jsonl(args.output, rows)
    rejects_path = args.output.parent / (args.output.stem + ".rejects.jsonl")
    write_jsonl(rejects_path, rejects)
    print(f"labeled {len(rows)} rows ({len(rejects)} rejected) -> {args.output}")
    return 0


# ------------------------------------------------------------- ontology


def cmd_ontology(args) -> int:
    from retroanchor.datasets import build_ontology, ingest_dataset
    from retroanchor.utils import atomic_write_text, stable_json_dumps
    records, rejects = ingest_dataset(args.input, parse=False)
    ontology = build_ontology(records, args.split)
    payload = {"source_split": args.split, "entries": ontology.to_json_obj()}
    atomic_write_text(args.output, stable_json_dumps(payload))
    print(f"ontology of {len(ontology)} reaction names ({len(rejects)} rows rejected) -> {args.output}")
    return 0


# ------------------------------------------------------------ subsample


def cmd_subsample(args) -> int:
    from retroanchor.datasets import ingest_dataset, subsample_eval_set
    from retroanchor.utils import write_jsonl
    if args.cap < 1:
        raise CliError("--cap must be at least 1")
    _check_jsonl_output(args.output)
    records, rejects = ingest_dataset(args.input, parse=False)
    _by_id(records, args.input)
    if args.split is not None:
        records = [r for r in records if r.split == args.split]
    usable = [r for r in records if r.extra.get("label_kind") != "empty"]
    dropped_empty = len(records) - len(usable)
    chosen = subsample_eval_set(usable, args.cap, args.unclassified_label, args.seed)
    write_jsonl(args.output, [_record_to_row(r) for r in chosen])
    print(
        f"subsampled {len(chosen)} of {len(usable)} rows "
        f"({dropped_empty} empty-label, {len(rejects)} rejected) -> {args.output}"
    )
    return 0


# ------------------------------------------------------------ model runs


def _execute_run(
    args,
    stage: str,
    template: PromptTemplate,
    records: list[ReactionRecord],
    render: Callable[[ReactionRecord], RenderedPrompt],
    parse: Callable[[str, ReactionRecord, RenderedPrompt], tuple[ParseOutcome, dict]],
    **fields,
) -> int:
    """Check the model flags, then render, send, parse and write one run
    directory.  ``config.json`` records the flags, the template and the
    stage's own ``fields``.

    ``render`` raises ValueError for a record it cannot prompt; that row
    is skipped and sends no request.  ``parse`` returns the parse outcome
    plus the stage's own fields for the ``ok`` row.
    """
    from retroanchor.gateway import Completion, Gateway, GatewayError, HttpBackend, ModelConfig
    from retroanchor.utils import atomic_write_text, stable_json_dumps, write_jsonl
    if args.parallelism < 1:
        raise CliError("--parallelism must be at least 1")
    model = ModelConfig(model_id=args.model, endpoint=args.endpoint, api_key_env=args.api_key_env)
    backend = None
    if args.backend == "live":
        try:
            backend = HttpBackend(model)  # dials nothing: a bad endpoint exits before any file is made
        except GatewayError as exc:
            raise CliError(f"--endpoint: {exc}") from exc
        if not os.environ.get(args.api_key_env):
            raise CliError(f"environment variable {args.api_key_env} is not set")
    cache_dir = args.cache_dir or args.output / "cache"
    config = {
        "stage": stage,
        "input": str(args.input),
        "output_dir": str(args.output),
        "cache_dir": str(cache_dir),
        "backend": args.backend,
        "parallelism": args.parallelism,
        "model": model._asdict(),
        "template_name": template.name,
        "template_digest": template.digest,
        # Keys that only the other stage sets are recorded as null.
        **dict.fromkeys(("prompt_variant", "examples_k", "seed", "ontology", "train")),
        **fields,
    }

    pending: list[tuple[ReactionRecord, RenderedPrompt | None, str]] = []
    for record in records:
        try:
            pending.append((record, render(record), ""))
        except ValueError as exc:
            pending.append((record, None, str(exc)))
    prompts = [prompt for _, prompt, _ in pending if prompt is not None]
    results = iter(Gateway(model, cache_dir, backend).run_batch(prompts, args.parallelism))

    outcomes: list[dict] = []
    manifest: list[dict] = []
    n_failed = 0
    for record, prompt, skip_reason in pending:
        if prompt is None:
            outcomes.append({"id": record.record_id, "status": "skipped", "reason": skip_reason})
            continue
        result = next(results)
        row = {"id": record.record_id, "digest": result.request_digest}
        entry = {"digest": result.request_digest, "model": model.model_id, "attempts": result.attempts}
        if isinstance(result, Completion):
            parsed, stage_fields = parse(result.text, record, prompt)
            row.update(
                status="ok",
                n_predictions=len(parsed.ok),
                dropped=list(parsed.dropped),
                failure_class=parsed.failure_class,
                **stage_fields,
            )
            entry.update(outcome="cache_hit" if result.from_cache else "ok", latency_ms=result.latency_ms)
        else:
            n_failed += 1
            row.update(status="gateway_failure", failure_kind=result.kind, message=result.message)
            entry.update(outcome=result.kind, latency_ms=0)
        outcomes.append(row)
        manifest.append(entry)

    atomic_write_text(args.output / "config.json", stable_json_dumps(config))
    write_jsonl(args.output / "outcomes.jsonl", outcomes)
    write_jsonl(args.output / "manifest.jsonl", manifest)
    print(f"{stage} run over {len(records)} examples ({n_failed} gateway failures) -> {args.output}")
    return 0


def cmd_run_position(args) -> int:
    from retroanchor.datasets import ingest_dataset
    from retroanchor.outputs import parse_position_output, to_row
    from retroanchor.prompts import render_position_prompt
    records, rejects = ingest_dataset(args.input)
    _by_id(records, args.input)
    ontology = _load_ontology(args.ontology)
    if len(ontology) == 0:
        raise CliError(f"ontology {args.ontology} has no entries")
    template = _load_template("position")

    def render(record: ReactionRecord) -> RenderedPrompt:
        return render_position_prompt(record.product, ontology, template)

    def parse(text: str, record: ReactionRecord, prompt: RenderedPrompt):
        parsed = parse_position_output(text, record.product, ontology)
        return parsed, {"candidates": [to_row(c) for c in parsed.ok]}

    return _execute_run(
        args, "position", template, records, render, parse,
        ontology=str(args.ontology), ontology_sha256=_sha256_file(args.ontology),
        ontology_size=len(ontology), ingest_rejects=len(rejects),
    )


def cmd_run_transition(args) -> int:
    from retroanchor.datasets import ingest_dataset, sample_examples
    from retroanchor.outputs import parse_transition_output, to_row
    from retroanchor.prompts import TRANSITION_TEMPLATES, render_transition_prompt
    if args.examples_k < 0:
        raise CliError("--examples-k must be at least 0")
    records, rejects = ingest_dataset(args.input)
    _by_id(records, args.input)
    train_records, train_rejects = ingest_dataset(args.train, parse=False)
    template = _load_template(TRANSITION_TEMPLATES[args.prompt_variant])
    # Only rows under a name an input row carries can be drawn, so only
    # they are parsed; one that fails leaves its pool as at ingest.
    # sample_examples still filters each group by split, id and name, so
    # the pool, its order and the draw equal those over the full list.
    drawn = {record.name_key for record in records if record.reaction_name}
    train_by_name: dict[str, list[ReactionRecord]] = {}
    n_train_rejects = len(train_rejects)
    for train in train_records:
        if train.name_key in drawn:
            try:
                train.reactants
            except ValueError:
                n_train_rejects += 1
                continue
            train_by_name.setdefault(train.name_key, []).append(train)

    def render(record: ReactionRecord) -> RenderedPrompt:
        s, _kind = _record_label(record)
        name = record.reaction_name or None
        examples = ()
        if name is not None:
            pool = train_by_name.get(record.name_key, [])
            examples = sample_examples(pool, name, record.record_id, args.examples_k, args.seed)
        return render_transition_prompt(
            record.product, s, name, examples, args.prompt_variant, template
        )

    def parse(text: str, record: ReactionRecord, prompt: RenderedPrompt):
        parsed = parse_transition_output(text)
        return parsed, {"example_count": prompt.example_count, "predictions": [to_row(p) for p in parsed.ok]}

    return _execute_run(
        args, "transition", template, records, render, parse,
        prompt_variant=args.prompt_variant, examples_k=args.examples_k, seed=args.seed, train=str(args.train),
        ingest_rejects=len(rejects), train_ingest_rejects=n_train_rejects,
    )


# ------------------------------------------------------------- evaluate


def _items_from_row(row: dict, key: str, cls: type) -> list:
    """The ``key`` list of an ``ok`` outcome row, each item read as a ``cls``;
    any other row has no items and scores as a failed prediction."""
    from retroanchor.outputs import exact, from_row
    if row.get("status") != "ok":
        return []
    try:
        return [from_row(cls, item) for item in exact(row[key], list)]
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"run outcome for {row.get('id')} holds a malformed {key[:-1]}: {exc!r}") from exc


def cmd_evaluate(args) -> int:
    from retroanchor.chem import AtomMapSet, SmilesError
    from retroanchor.datasets import ingest_dataset
    from retroanchor.metrics import GroundTruthError, aggregate, score_position, score_transition, write_report
    from retroanchor.outputs import DisconnectionCandidate, TransitionPrediction
    from retroanchor.utils import read_jsonl
    config_path = args.run / "config.json"
    outcomes_path = args.run / "outcomes.jsonl"
    if not config_path.exists() or not outcomes_path.exists():
        raise CliError(f"{args.run} is not a run directory (missing config.json/outcomes.jsonl)")
    try:
        config = json.loads(config_path.read_text(encoding="utf-8"))
        outcome_rows = read_jsonl(outcomes_path)
    except (ValueError, RecursionError) as exc:
        raise CliError(f"cannot read run {args.run}: {exc}") from exc
    stage = config.get("stage") if isinstance(config, dict) else None
    if stage not in ("position", "transition"):
        raise CliError(f"run config has unknown stage {stage!r}")
    if not outcome_rows:
        raise CliError(f"{args.run} holds no outcomes to evaluate")

    # A position run reads only ids, names and label columns of the truth.
    records, _rejects = ingest_dataset(args.input, parse=stage == "transition")
    by_id = _by_id(records, "ground truth file")

    def score_position_row(row: dict, record: ReactionRecord):
        # A row without an answer scores as a failed prediction before
        # its label is read: a skipped row may have no label at all.
        s_gt = AtomMapSet()
        if row.get("status") == "ok":
            try:
                s_gt, _kind = _record_label(record)
            except ValueError as exc:
                raise CliError(f"example {record.record_id} has a malformed label: {exc}") from exc
            if not s_gt:
                raise CliError(f"example {record.record_id} has an empty disconnection label")
        cands = _items_from_row(row, "candidates", DisconnectionCandidate)
        return score_position(cands, s_gt, record.reaction_name, record.reaction_class)

    def score_transition_row(row: dict, record: ReactionRecord):
        preds = _items_from_row(row, "predictions", TransitionPrediction)
        try:
            return score_transition(preds, list(record.reactants), ignore_stereo=args.ignore_stereo), None
        except GroundTruthError as exc:
            raise CliError(f"example {record.record_id}: {exc}") from exc
        except SmilesError as exc:  # a stored prediction text
            raise CliError(f"run outcome for {row.get('id')} holds unparsable SMILES: {exc}") from exc
        except ValueError as exc:  # a stored prediction reactant with no canonical spelling
            raise CliError(
                f"run outcome for {row.get('id')} holds a reactant with no canonical spelling: {exc}"
            ) from exc

    score_row = score_position_row if stage == "position" else score_transition_row
    rows: list[tuple] = []
    scored: set[str] = set()
    for row in sorted(outcome_rows, key=lambda row: str(row.get("id"))):  # report rows in id order
        record = by_id.get(str(row.get("id")))
        if record is None:
            raise CliError(f"ground truth file lacks example {row.get('id')!r}")
        if record.record_id in scored:
            raise CliError(f"{outcomes_path} repeats example {record.record_id!r}")
        scored.add(record.record_id)
        rows.append((record.record_id, *score_row(row, record)))

    report = aggregate(rows)
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
    from retroanchor.datasets import DatasetError
    try:
        return args.func(args)
    except (CliError, DatasetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if argv is None:  # the program entry: interpreter exit then collects only objects made after this
            gc.freeze()


if __name__ == "__main__":
    sys.exit(main())
