"""End-to-end tests for the command-line pipeline."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from retroanchor.chem import AtomMapSet, canonical_smiles, parse_smiles
from retroanchor.cli import main
from retroanchor.datasets import ingest_dataset, sample_examples
from retroanchor.gateway import ModelConfig, seed_cache
from retroanchor.prompts import (
    TEMPLATE_DIGESTS,
    load_template,
    render_position_prompt,
    render_transition_prompt,
)
from retroanchor.utils import read_jsonl, write_jsonl

TRAIN_ROWS = [
    {
        "id": "t1",
        "reaction_smiles": "[CH3:5][C:6](=[O:7])O.[CH3:1][NH2:2]>>[CH3:1][NH:2][C:6](=[O:7])[CH3:5]",
        "reaction_name": "Amide coupling",
        "reaction_class": "Acylation",
        "split": "train",
    },
    {
        "id": "t2",
        "reaction_smiles": "[CH3:9][C:8](=[O:7])O.[NH2:2][CH3:1]>>[CH3:1][NH:2][C:8](=[O:7])[CH3:9]",
        "reaction_name": "Amide coupling",
        "reaction_class": "Acylation",
        "split": "train",
    },
    {
        "id": "t3",
        "reaction_smiles": "[CH2:1]=[CH2:2]>>[CH3:1][CH3:2]",
        "reaction_name": "Alkene hydrogenation",
        "reaction_class": "Reduction",
        "split": "train",
    },
    {
        "id": "t4",
        "reaction_smiles": "[CH3:1]Br.[OH:2][CH3:3]>>[CH3:1][O:2][CH3:3]",
        "reaction_name": "Williamson ether synthesis",
        "reaction_class": "Substitution",
        "split": "train",
    },
]

TEST_ROWS = [
    {
        "id": "e1",
        "reaction_smiles": "[CH3:3][C:4](=[O:5])O.[CH3:1][NH2:2]>>[CH3:1][NH:2][C:4](=[O:5])[CH3:3]",
        "reaction_name": "Amide coupling",
        "reaction_class": "Acylation",
        "split": "test",
    },
    {
        "id": "e2",
        "reaction_smiles": "[CH2:1]=[CH:2][CH3:3]>>[CH3:1][CH2:2][CH3:3]",
        "reaction_name": "Alkene hydrogenation",
        "reaction_class": "Reduction",
        "split": "test",
    },
    {
        "id": "e3",
        "reaction_smiles": "[CH3:1][OH:2]>>[CH3:1][OH:2]",
        "reaction_name": "",
        "reaction_class": "",
        "split": "test",
    },
    {
        "id": "e4",
        "reaction_smiles": "[CH3:10]Br.[OH:11][CH3:12]>>[CH3:10][O:11][CH3:12]",
        "reaction_name": "Williamson ether synthesis",
        "reaction_class": "Substitution",
        "split": "test",
    },
]

POSITION_TEXT_E1 = """Here is the analysis.
```json
{"disconnections": [{"disconnection": "N:2 C:4", "reactions": [
  {"forwardReaction": "Amide coupling", "forwardReactionClass": "Acylation",
   "Retrosynthesis Importance": 4, "Priority": 1, "isInOntology": true}]}]}
```"""

POSITION_TEXT_E2 = "The molecule cannot be analyzed today."

TRANSITION_TEXT_E1 = json.dumps(
    {
        "reaction_analysis": [
            {
                "forward_reaction_name": "Amide coupling",
                "reactant_permutations": [
                    {
                        "reactants": ["CC(=O)O", "CN"],
                        "is_valid": True,
                        "is_template": False,
                        "reasoning": "acid plus amine",
                    }
                ],
            }
        ]
    }
)

TRANSITION_TEXT_E2 = json.dumps(
    {
        "reaction_analysis": [
            {
                "forward_reaction_name": "Alkene hydrogenation",
                "reactant_permutations": [
                    {"reactants": ["CCC"], "is_valid": False, "is_template": False}
                ],
            }
        ]
    }
)


# Marks a field deleted from an outcome row.
MISSING = "<missing>"


def model_config() -> ModelConfig:
    return ModelConfig(model_id="test-model", endpoint="", api_key_env="RETROANCHOR_API_KEY")


@pytest.fixture
def pipeline(tmp_path):
    """label -> ontology -> subsample over the fixture universe."""
    paths = {
        "raw": tmp_path / "raw.jsonl",
        "labeled": tmp_path / "labeled.jsonl",
        "ontology": tmp_path / "ontology.json",
        "eval": tmp_path / "eval.jsonl",
        "cache": tmp_path / "cache",
        "root": tmp_path,
    }
    write_jsonl(paths["raw"], TRAIN_ROWS + TEST_ROWS)
    assert main(["label", "--input", str(paths["raw"]), "--output", str(paths["labeled"])]) == 0
    assert (
        main(
            [
                "ontology",
                "--input", str(paths["labeled"]),
                "--split", "train",
                "--output", str(paths["ontology"]),
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "subsample",
                "--input", str(paths["labeled"]),
                "--split", "test",
                "--output", str(paths["eval"]),
            ]
        )
        == 0
    )
    return paths


def seed_position(paths) -> None:
    records, _ = ingest_dataset(paths["eval"])
    by_id = {r.record_id: r for r in records}
    ontology_data = json.loads(paths["ontology"].read_text())
    from retroanchor.datasets import Ontology

    ontology = Ontology.from_json_obj(ontology_data["entries"], ontology_data["source_split"])
    template = load_template("position")
    cfg = model_config()
    for rid, text in (("e1", POSITION_TEXT_E1), ("e2", POSITION_TEXT_E2)):
        prompt = render_position_prompt(by_id[rid].product, ontology, template)
        seed_cache(paths["cache"], prompt, cfg, text)


def seed_transition(paths) -> None:
    records, _ = ingest_dataset(paths["eval"])
    train_records, _ = ingest_dataset(paths["labeled"])
    train_records = [r for r in train_records if r.split == "train"]
    by_id = {r.record_id: r for r in records}
    template = load_template("transition")
    cfg = model_config()
    for rid, text in (("e1", TRANSITION_TEXT_E1), ("e2", TRANSITION_TEXT_E2)):
        record = by_id[rid]
        s = AtomMapSet.of(record.extra["label_maps"])
        library = sample_examples(train_records, record.reaction_name, rid, 5, 0)
        prompt = render_transition_prompt(record.product, s, record.reaction_name, library, "full", template)
        seed_cache(paths["cache"], prompt, cfg, text)


def run_position(paths, out_name="run_pos") -> "Path":
    out = paths["root"] / out_name
    code = main(
        [
            "run-position",
            "--input", str(paths["eval"]),
            "--ontology", str(paths["ontology"]),
            "--output", str(out),
            "--model", "test-model",
            "--backend", "replay",
            "--cache-dir", str(paths["cache"]),
        ]
    )
    assert code == 0
    return out


def run_transition(paths, out_name="run_trans") -> "Path":
    out = paths["root"] / out_name
    code = main(
        [
            "run-transition",
            "--input", str(paths["eval"]),
            "--train", str(paths["labeled"]),
            "--output", str(out),
            "--model", "test-model",
            "--backend", "replay",
            "--cache-dir", str(paths["cache"]),
        ]
    )
    assert code == 0
    return out


class TestLabel:
    def test_labels_attached(self, pipeline):
        rows = read_jsonl(pipeline["labeled"])
        by_id = {r["id"]: r for r in rows}
        assert len(rows) == 8
        assert by_id["e1"]["label_maps"] == [2, 4]
        assert by_id["e1"]["label_kind"] == "connectivity"
        assert by_id["e2"]["label_kind"] == "bond_order"
        assert by_id["e3"]["label_maps"] == []
        assert by_id["e3"]["label_kind"] == "empty"
        rejects = read_jsonl(pipeline["root"] / "labeled.rejects.jsonl")
        assert rejects == []

    def test_bad_rows_are_rejected_not_fatal(self, tmp_path):
        rows = TRAIN_ROWS[:1] + [
            {
                "id": "bad",
                "reaction_smiles": "not a reaction",
                "reaction_name": "",
                "reaction_class": "",
                "split": "train",
            }
        ]
        source = tmp_path / "rows.jsonl"
        write_jsonl(source, rows)
        out = tmp_path / "labeled.jsonl"
        assert main(["label", "--input", str(source), "--output", str(out)]) == 0
        assert len(read_jsonl(out)) == 1
        rejects = read_jsonl(tmp_path / "labeled.rejects.jsonl")
        assert len(rejects) == 1 and rejects[0]["id"] == "bad"

    def test_empty_file_empty_output(self, tmp_path):
        source = tmp_path / "empty.jsonl"
        source.write_text("")
        out = tmp_path / "labeled.jsonl"
        assert main(["label", "--input", str(source), "--output", str(out)]) == 0
        assert read_jsonl(out) == []

    def test_missing_input_exits_nonzero(self, tmp_path, capsys):
        code = main(
            ["label", "--input", str(tmp_path / "nope.jsonl"), "--output", str(tmp_path / "o")]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_missing_column_exits_nonzero(self, tmp_path, capsys):
        source = tmp_path / "rows.csv"
        source.write_text("id,reaction_smiles\nx,CC>>CC\n")
        code = main(["label", "--input", str(source), "--output", str(tmp_path / "o")])
        assert code == 1
        assert "missing columns" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["not json", "[1, 2]", '"a string"', "{"])
    @pytest.mark.parametrize(
        "stage", [["label"], ["ontology", "--split", "train"], ["subsample"]]
    )
    def test_malformed_jsonl_line_exits_1(self, tmp_path, capsys, stage, line):
        source = tmp_path / "rows.jsonl"
        source.write_text(json.dumps(TRAIN_ROWS[0]) + "\n" + line + "\n")
        out = tmp_path / "out.jsonl"
        code = main([stage[0], "--input", str(source), "--output", str(out), *stage[1:]])
        assert code == 1
        assert f"error: {source}:2:" in capsys.readouterr().err
        assert not out.exists()


class TestOntology:
    def test_entries_sorted_unique(self, pipeline):
        data = json.loads(pipeline["ontology"].read_text())
        assert data["source_split"] == "train"
        assert [e["id"] for e in data["entries"]] == [
            "Alkene hydrogenation",
            "Amide coupling",
            "Williamson ether synthesis",
        ]
        assert data["entries"][1]["class"] == "Acylation"

    def test_missing_split_errors(self, pipeline, capsys):
        code = main(
            [
                "ontology",
                "--input", str(pipeline["labeled"]),
                "--split", "validation",
                "--output", str(pipeline["root"] / "o.json"),
            ]
        )
        assert code == 1
        assert "validation" in capsys.readouterr().err


class TestSubsample:
    def test_drops_empty_labels_keeps_order(self, pipeline):
        rows = read_jsonl(pipeline["eval"])
        assert [r["id"] for r in rows] == ["e1", "e2", "e4"]
        assert all(r["label_kind"] != "empty" for r in rows)

    def test_deterministic_bytes(self, pipeline):
        again = pipeline["root"] / "eval2.jsonl"
        assert (
            main(
                [
                    "subsample",
                    "--input", str(pipeline["labeled"]),
                    "--split", "test",
                    "--output", str(again),
                ]
            )
            == 0
        )
        assert again.read_bytes() == pipeline["eval"].read_bytes()

    def test_cap_below_one_errors(self, pipeline):
        code = main(
            [
                "subsample",
                "--input", str(pipeline["labeled"]),
                "--cap", "0",
                "--output", str(pipeline["root"] / "x.jsonl"),
            ]
        )
        assert code == 1


class TestRunPosition:
    def test_replay_outcomes(self, pipeline):
        seed_position(pipeline)
        out = run_position(pipeline)
        rows = read_jsonl(out / "outcomes.jsonl")
        by_id = {r["id"]: r for r in rows}
        assert [r["id"] for r in rows] == ["e1", "e2", "e4"]

        assert by_id["e1"]["status"] == "ok"
        assert by_id["e1"]["n_predictions"] == 1
        cand = by_id["e1"]["candidates"][0]
        assert cand["s"] == [2, 4]
        assert cand["reaction_name"] == "Amide coupling"
        assert cand["in_ontology"] is True

        assert by_id["e2"]["status"] == "ok"
        assert by_id["e2"]["failure_class"] == "no_json"
        assert by_id["e2"]["candidates"] == []

        assert by_id["e4"]["status"] == "gateway_failure"
        assert by_id["e4"]["failure_kind"] == "replay_miss"

    def test_manifest_and_config(self, pipeline):
        seed_position(pipeline)
        out = run_position(pipeline)
        manifest = read_jsonl(out / "manifest.jsonl")
        assert len(manifest) == 3
        assert [m["outcome"] for m in manifest] == ["cache_hit", "cache_hit", "replay_miss"]
        config = json.loads((out / "config.json").read_text())
        assert config["stage"] == "position"
        assert config["backend"] == "replay"
        assert config["template_digest"] == load_template("position").digest
        assert config["ontology_size"] == 3
        assert config["model"]["model_id"] == "test-model"

    def test_rerun_is_byte_identical(self, pipeline):
        seed_position(pipeline)
        out = run_position(pipeline)
        first = {
            name: (out / name).read_bytes()
            for name in ("outcomes.jsonl", "manifest.jsonl", "config.json")
        }
        out = run_position(pipeline)
        for name, blob in first.items():
            assert (out / name).read_bytes() == blob

    def test_live_requires_endpoint(self, pipeline, capsys):
        code = main(
            [
                "run-position",
                "--input", str(pipeline["eval"]),
                "--ontology", str(pipeline["ontology"]),
                "--output", str(pipeline["root"] / "r"),
                "--model", "m",
                "--backend", "live",
            ]
        )
        assert code == 1
        assert "--endpoint" in capsys.readouterr().err

    def test_live_requires_api_key(self, pipeline, capsys, monkeypatch):
        monkeypatch.delenv("RETROANCHOR_API_KEY", raising=False)
        code = main(
            [
                "run-position",
                "--input", str(pipeline["eval"]),
                "--ontology", str(pipeline["ontology"]),
                "--output", str(pipeline["root"] / "r"),
                "--model", "m",
                "--backend", "live",
                "--endpoint", "https://example.invalid/v1/chat/completions",
            ]
        )
        assert code == 1
        assert "RETROANCHOR_API_KEY" in capsys.readouterr().err

    def test_missing_ontology_errors(self, pipeline):
        code = main(
            [
                "run-position",
                "--input", str(pipeline["eval"]),
                "--ontology", str(pipeline["root"] / "missing.json"),
                "--output", str(pipeline["root"] / "r"),
                "--model", "m",
            ]
        )
        assert code == 1


class TestTemplateFaults:
    @pytest.mark.parametrize("stage", ["run-position", "run-transition"])
    @pytest.mark.parametrize("fault", ["digest", "placeholders"])
    def test_unusable_template_exits_1(self, pipeline, capsys, monkeypatch, stage, fault):
        name = stage.removeprefix("run-")
        if fault == "digest":
            monkeypatch.setitem(TEMPLATE_DIGESTS, name, "0" * 64)
        else:
            (pipeline["root"] / f"{name}.txt").write_text("no placeholders")
            monkeypatch.setenv("RETROANCHOR_TEMPLATE_DIR", str(pipeline["root"]))
        inputs = (
            ["--ontology", str(pipeline["ontology"])]
            if stage == "run-position"
            else ["--train", str(pipeline["labeled"])]
        )
        code = main(
            [stage, "--input", str(pipeline["eval"]), *inputs]
            + ["--output", str(pipeline["root"] / "r"), "--model", "m", "--backend", "replay"]
        )
        assert code == 1
        assert f"template '{name}'" in capsys.readouterr().err


class TestRunTransition:
    def test_replay_outcomes(self, pipeline):
        seed_transition(pipeline)
        out = run_transition(pipeline)
        rows = read_jsonl(out / "outcomes.jsonl")
        by_id = {r["id"]: r for r in rows}

        assert by_id["e1"]["status"] == "ok"
        assert by_id["e1"]["example_count"] == 2
        pred = by_id["e1"]["predictions"][0]
        assert pred["is_valid"] is True
        expected = sorted(
            canonical_smiles(parse_smiles(text), include_maps=True)
            for text in ("CC(=O)O", "CN")
        )
        assert sorted(pred["reactants"]) == expected

        assert by_id["e2"]["status"] == "ok"
        assert by_id["e2"]["predictions"][0]["is_valid"] is False

        assert by_id["e4"]["status"] == "gateway_failure"

    def test_config_records_variant_and_seed(self, pipeline):
        seed_transition(pipeline)
        out = run_transition(pipeline)
        config = json.loads((out / "config.json").read_text())
        assert config["stage"] == "transition"
        assert config["prompt_variant"] == "full"
        assert config["examples_k"] == 5
        assert config["seed"] == 0
        assert config["template_digest"] == load_template("transition").digest

    def test_short_variant_zero_shot(self, pipeline):
        records, _ = ingest_dataset(pipeline["eval"])
        record = next(r for r in records if r.record_id == "e1")
        s = AtomMapSet.of(record.extra["label_maps"])
        from retroanchor.datasets import ExampleLibrary

        library = ExampleLibrary(reaction_name=record.reaction_name, examples=(), seed=7)
        prompt = render_transition_prompt(
            record.product, s, record.reaction_name, library, "short", load_template("transition_short")
        )
        seed_cache(pipeline["cache"], prompt, model_config(), TRANSITION_TEXT_E1)

        out = pipeline["root"] / "run_short"
        code = main(
            [
                "run-transition",
                "--input", str(pipeline["eval"]),
                "--train", str(pipeline["labeled"]),
                "--output", str(out),
                "--model", "test-model",
                "--backend", "replay",
                "--cache-dir", str(pipeline["cache"]),
                "--prompt-variant", "short",
                "--examples-k", "0",
                "--seed", "7",
            ]
        )
        assert code == 0
        rows = read_jsonl(out / "outcomes.jsonl")
        by_id = {r["id"]: r for r in rows}
        assert by_id["e1"]["status"] == "ok"
        assert by_id["e1"]["example_count"] == 0


def _insert_eval_rows(paths, extra_rows: dict[int, dict]) -> None:
    """Rewrite the eval file with ``extra_rows`` inserted at their positions."""
    rows = read_jsonl(paths["eval"])
    for position in sorted(extra_rows):
        rows.insert(position, extra_rows[position])
    write_jsonl(paths["eval"], rows)


def _assert_manifest_aligned(out) -> list[dict]:
    """Skipped rows send no request; every other row's digest matches the
    manifest row at the same position.  Returns the skipped rows."""
    rows = read_jsonl(out / "outcomes.jsonl")
    manifest = read_jsonl(out / "manifest.jsonl")
    sent = [r for r in rows if r["status"] != "skipped"]
    assert [r["digest"] for r in sent] == [m["digest"] for m in manifest]
    return [r for r in rows if r["status"] == "skipped"]


class TestSkippedRows:
    def test_position_unmapped_product_skipped(self, pipeline):
        unmapped = dict(TEST_ROWS[0], id="u1", reaction_smiles="CC(=O)O.CN>>CNC(C)=O")
        _insert_eval_rows(pipeline, {1: unmapped})
        seed_position(pipeline)
        out = run_position(pipeline)
        rows = read_jsonl(out / "outcomes.jsonl")
        assert [r["id"] for r in rows] == ["e1", "u1", "e2", "e4"]
        assert [r["status"] for r in rows] == ["ok", "skipped", "ok", "gateway_failure"]
        skipped = _assert_manifest_aligned(out)
        assert skipped == [{"id": "u1", "status": "skipped", "reason": "product has no atom maps"}]

    @pytest.mark.parametrize(
        "arm, failed, metric",
        [
            # u1 (skipped), e2 (no candidates) and e4 (gateway failure)
            pytest.param("position", 3, "exact_match_acc", id="position"),
            # u1 (skipped) and e4 (gateway failure); e2 holds an invalid prediction
            pytest.param("transition", 2, "reactant_acc", id="transition"),
        ],
    )
    def test_skipped_row_scores_as_failed(self, pipeline, arm, failed, metric):
        """evaluate scores a skipped row as a failed prediction without
        reading its (empty) label, in both arms."""
        unmapped = dict(TEST_ROWS[0], id="u1", reaction_smiles="CC(=O)O.CN>>CNC(C)=O")
        _insert_eval_rows(pipeline, {1: unmapped})
        if arm == "position":
            seed_position(pipeline)
            out = run_position(pipeline)
        else:
            seed_transition(pipeline)
            out = run_transition(pipeline)
        assert _assert_manifest_aligned(out)[0]["id"] == "u1"
        assert main(["evaluate", "--run", str(out), "--input", str(pipeline["eval"])]) == 0
        report = json.loads((out / "report" / "report.json").read_text())
        assert report["counts"]["examples"] == 4
        assert report["counts"]["failed_predictions"] == failed
        assert report["aggregates"][metric] == 25.0
        u1 = report["rows"][1]
        assert (u1["id"], u1["failed"], u1["n_predictions"]) == ("u1", True, 0)

    def test_position_ok_row_with_empty_label_exits_1(self, pipeline, capsys):
        rows = read_jsonl(pipeline["eval"])
        seed_position(pipeline)
        out = run_position(pipeline)
        rows[0] = dict(rows[0], label_maps=[], label_kind="empty")
        write_jsonl(pipeline["eval"], rows)
        assert main(["evaluate", "--run", str(out), "--input", str(pipeline["eval"])]) == 1
        assert "empty disconnection label" in capsys.readouterr().err

    def test_transition_empty_label_skipped(self, pipeline):
        empty = dict(TEST_ROWS[0], id="x0", label_maps=[], label_kind="empty")
        _insert_eval_rows(pipeline, {1: empty})
        seed_transition(pipeline)
        out = run_transition(pipeline)
        skipped = _assert_manifest_aligned(out)
        assert skipped == [{"id": "x0", "status": "skipped", "reason": "empty disconnection set"}]

    def test_transition_unknown_label_map_skipped(self, pipeline):
        """A label naming an atom map the product lacks skips that row
        instead of aborting the run."""
        bad = dict(TEST_ROWS[0], id="x404", label_maps=[2, 404], label_kind="connectivity")
        _insert_eval_rows(pipeline, {1: bad})
        seed_transition(pipeline)
        out = run_transition(pipeline)
        rows = read_jsonl(out / "outcomes.jsonl")
        assert [r["status"] for r in rows] == ["ok", "skipped", "ok", "gateway_failure"]
        skipped = _assert_manifest_aligned(out)
        assert skipped == [
            {"id": "x404", "status": "skipped", "reason": "atom maps not present in molecule: [404]"}
        ]


class TestEvaluate:
    def test_position_report(self, pipeline, capsys):
        seed_position(pipeline)
        run_dir = run_position(pipeline)
        code = main(
            ["evaluate", "--run", str(run_dir), "--input", str(pipeline["eval"])]
        )
        assert code == 0
        assert "partial_match_acc" in capsys.readouterr().out
        report = json.loads((run_dir / "report" / "report.json").read_text())
        assert report["aggregates"]["partial_match_acc"] == 33.33
        assert report["aggregates"]["exact_match_acc"] == 33.33
        assert report["aggregates"]["reaction_acc"] == 100.0
        assert report["counts"]["examples"] == 3
        assert report["counts"]["failed_predictions"] == 2
        assert report["counts"]["total_predictions"] == 1
        assert report["confusion_name"] == {"Amide coupling": {"Amide coupling": 1}}

    def test_failure_counts_match_manifest(self, pipeline):
        seed_position(pipeline)
        run_dir = run_position(pipeline)
        assert main(["evaluate", "--run", str(run_dir), "--input", str(pipeline["eval"])]) == 0
        report = json.loads((run_dir / "report" / "report.json").read_text())
        manifest = read_jsonl(run_dir / "manifest.jsonl")
        gateway_failures = sum(1 for m in manifest if m["outcome"] not in ("ok", "cache_hit"))
        # e2 parses to zero candidates, adding one parse-level failure
        assert report["counts"]["failed_predictions"] == gateway_failures + 1

    def test_transition_report(self, pipeline):
        seed_transition(pipeline)
        run_dir = run_transition(pipeline)
        out_dir = pipeline["root"] / "trans_report"
        code = main(
            [
                "evaluate",
                "--run", str(run_dir),
                "--input", str(pipeline["eval"]),
                "--output", str(out_dir),
            ]
        )
        assert code == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert report["kind"] == "transition"
        assert report["aggregates"]["reactant_acc"] == 33.33
        assert report["aggregates"]["template_acc"] == 0.0
        assert report["aggregates"]["combined_acc"] == 33.33
        assert report["counts"]["failed_predictions"] == 1
        assert report["counts"]["total_predictions"] == 2

    def test_not_a_run_dir_errors(self, pipeline, capsys):
        code = main(
            ["evaluate", "--run", str(pipeline["root"]), "--input", str(pipeline["eval"])]
        )
        assert code == 1
        assert "not a run directory" in capsys.readouterr().err

    def test_empty_outcomes_errors(self, pipeline):
        run_dir = pipeline["root"] / "empty_run"
        run_dir.mkdir()
        (run_dir / "config.json").write_text('{"stage": "position"}')
        (run_dir / "outcomes.jsonl").write_text("")
        code = main(["evaluate", "--run", str(run_dir), "--input", str(pipeline["eval"])])
        assert code == 1

    @pytest.mark.parametrize(
        "name, text, where",
        [
            ("outcomes.jsonl", '{"id": "e1", "status": "ok"}\n{"id": "e2", ', "outcomes.jsonl:2:"),
            ("outcomes.jsonl", '{"id": "e1", "status": "ok"}\n["e2"]\n', "outcomes.jsonl:2:"),
            ("config.json", '{"stage": "posi', "cannot read run"),
            ("config.json", '["position"]', "unknown stage"),
            ("ground_truth", '{"id": "e1"}\nnull\n', "truth.jsonl:2:"),
        ],
    )
    def test_malformed_run_or_input_exits_1(self, pipeline, capsys, name, text, where):
        seed_position(pipeline)
        run_dir = run_position(pipeline)
        truth = pipeline["eval"]
        if name == "ground_truth":
            truth = pipeline["root"] / "truth.jsonl"
            truth.write_text(text)
        else:
            (run_dir / name).write_text(text)
        code = main(["evaluate", "--run", str(run_dir), "--input", str(truth)])
        assert code == 1
        assert where in capsys.readouterr().err
        assert not (run_dir / "report").exists()

    @pytest.mark.parametrize(
        "arm, field, value",
        [
            ("position", "reaction_name", MISSING),
            ("position", "reaction_class", MISSING),
            ("position", "importance", "high"),
            ("position", "priority", None),
            ("position", "s", "abc"),
            # a wrong JSON type is rejected, never cast
            pytest.param("position", "s", [1.9], id="position-s-float-map"),
            pytest.param("position", "s", [True], id="position-s-bool-map"),
            ("position", "in_ontology", "no"),
            ("position", "in_ontology", 1),
            ("position", "importance", 2.5),
            ("position", "priority", True),
            ("position", "reaction_name", 5),
            ("position", "claimed_in_ontology", "yes"),
            ("position", "rationale", None),
            # an ok row without its item list is not an empty answer
            ("position", "candidates", MISSING),
            ("transition", "is_valid", MISSING),
            ("transition", "is_template", MISSING),
            pytest.param("transition", "reactants", ["C", 5], id="transition-reactants-not-text"),
            ("transition", "reactants", MISSING),
            ("transition", "reactants", "CC(=O)O"),
            ("transition", "is_valid", "no"),
            ("transition", "is_template", 0),
            ("transition", "reasoning", 7),
            ("transition", "predictions", MISSING),
        ],
    )
    def test_malformed_outcome_field_exits_1(self, pipeline, capsys, arm, field, value):
        if arm == "position":
            seed_position(pipeline)
            run_dir, items = run_position(pipeline), "candidates"
        else:
            seed_transition(pipeline)
            run_dir, items = run_transition(pipeline), "predictions"
        outcomes = run_dir / "outcomes.jsonl"
        rows = read_jsonl(outcomes)
        [row] = [r for r in rows if r["id"] == "e1"]
        target = row if field == items else row[items][0]
        if value is MISSING:
            del target[field]
        else:
            target[field] = value
        write_jsonl(outcomes, rows)
        code = main(["evaluate", "--run", str(run_dir), "--input", str(pipeline["eval"])])
        assert code == 1
        assert f"run outcome for e1 holds a malformed {items[:-1]}" in capsys.readouterr().err
        assert not (run_dir / "report").exists()

    def test_missing_ground_truth_errors(self, pipeline, capsys):
        seed_position(pipeline)
        run_dir = run_position(pipeline)
        partial = pipeline["root"] / "partial.jsonl"
        rows = [r for r in read_jsonl(pipeline["eval"]) if r["id"] != "e4"]
        write_jsonl(partial, rows)
        code = main(["evaluate", "--run", str(run_dir), "--input", str(partial)])
        assert code == 1
        assert "e4" in capsys.readouterr().err


class TestDeterminism:
    def test_full_chain_repeats_byte_identical(self, tmp_path):
        outputs = []
        for name in ("a", "b"):
            root = tmp_path / name
            root.mkdir()
            paths = {
                "raw": root / "raw.jsonl",
                "labeled": root / "labeled.jsonl",
                "ontology": root / "ontology.json",
                "eval": root / "eval.jsonl",
                "cache": root / "cache",
                "root": root,
            }
            write_jsonl(paths["raw"], TRAIN_ROWS + TEST_ROWS)
            assert main(["label", "--input", str(paths["raw"]), "--output", str(paths["labeled"])]) == 0
            assert main([
                "ontology",
                "--input", str(paths["labeled"]),
                "--split", "train",
                "--output", str(paths["ontology"]),
            ]) == 0
            assert main([
                "subsample",
                "--input", str(paths["labeled"]),
                "--split", "test",
                "--output", str(paths["eval"]),
            ]) == 0
            seed_position(paths)
            run_dir = run_position(paths)
            assert main(["evaluate", "--run", str(run_dir), "--input", str(paths["eval"])]) == 0
            outputs.append(
                {
                    "labeled": paths["labeled"].read_bytes(),
                    "ontology": paths["ontology"].read_bytes(),
                    "eval": paths["eval"].read_bytes(),
                    "outcomes": (run_dir / "outcomes.jsonl").read_bytes(),
                    "manifest": (run_dir / "manifest.jsonl").read_bytes(),
                    "report": (run_dir / "report" / "report.json").read_bytes(),
                    "rows": (run_dir / "report" / "rows.csv").read_bytes(),
                    "summary": (run_dir / "report" / "summary.txt").read_bytes(),
                }
            )
        assert outputs[0] == outputs[1]


class TestParser:
    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2

    def test_bad_backend_exits_two(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "run-position",
                    "--input", "x",
                    "--ontology", "y",
                    "--output", "z",
                    "--model", "m",
                    "--backend", "teleport",
                ]
            )
        assert excinfo.value.code == 2


def test_import_leaves_requests_unloaded():
    """Stages that send no request skip the cost of importing requests."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = "import sys, retroanchor.cli; print('requests' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "False"
