"""End-to-end tests for the command-line pipeline."""

from __future__ import annotations

import ast
import contextlib
import functools
import gc
import io
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from helpers import run_golden_pipeline
from loopback import ChatServer, chat_body, without_proxies

from retroanchor.chem import AtomMapSet, Molecule, canon
from retroanchor.chem.canon import canonical_smiles
from retroanchor.chem.smiles import parse_smiles
from retroanchor.cli import main
from retroanchor.datasets import ingest_dataset, parse_reaction_smiles, sample_examples
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

# A [C] bonded to every atom of a 101-carbon chain.
HUB_SMILES = "[C](C1)" + "".join("(C21)" if i % 2 else "(C12)" for i in range(99)) + "(C2)"


# Marks a field deleted from an outcome row.
MISSING = "<missing>"

# A product map that two reactant atoms carry: no injection.
DUPLICATE_MAP_SMILES = "[CH3:1]O.[CH3:1]N>>[CH3:1]O"
# Two product atoms carry map 1, so an anchor id would name either.
REPEATED_MAP_SMILES = "[CH3:1][OH:2].[CH3:3]Br>>[CH3:1][O:2][CH3:1]"


def _with_malformed(rows: list[dict], names=("Branch fault", "Map fault")) -> list[dict]:
    """``rows`` with two rows made from the first one inserted between valid
    rows: ``x1``, whose product has an unclosed branch, after the first row,
    and ``x2``, whose maps are no injection, after the second."""
    first = rows[0]
    branch = dict(first, id="x1", reaction_smiles=first["reaction_smiles"] + "(", reaction_name=names[0])
    duplicate = dict(first, id="x2", reaction_smiles=DUPLICATE_MAP_SMILES, reaction_name=names[1])
    return [first, branch, rows[1], duplicate, *rows[2:]]


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


def seed_position(paths, texts=(("e1", POSITION_TEXT_E1), ("e2", POSITION_TEXT_E2))) -> dict[str, str]:
    """Plant each ``(id, reply)`` of ``texts``; returns the digests by id."""
    records, _ = ingest_dataset(paths["eval"])
    by_id = {r.record_id: r for r in records}
    ontology_data = json.loads(paths["ontology"].read_text())
    from retroanchor.datasets import Ontology

    ontology = Ontology.from_json_obj(ontology_data["entries"], ontology_data["source_split"])
    template = load_template("position")
    cfg = model_config()
    digests = {}
    for rid, text in texts:
        prompt = render_position_prompt(by_id[rid].product, ontology, template)
        digests[rid] = seed_cache(paths["cache"], prompt, cfg, text)
    return digests


def seed_transition(paths, texts=(("e1", TRANSITION_TEXT_E1), ("e2", TRANSITION_TEXT_E2))) -> None:
    records, _ = ingest_dataset(paths["eval"])
    train_records, _ = ingest_dataset(paths["labeled"])
    train_records = [r for r in train_records if r.split == "train"]
    by_id = {r.record_id: r for r in records}
    template = load_template("transition")
    cfg = model_config()
    for rid, text in texts:
        record = by_id[rid]
        s = AtomMapSet.of(record.extra["label_maps"])
        examples = sample_examples(train_records, record.reaction_name, rid, 5, 0)
        prompt = render_transition_prompt(record.product, s, record.reaction_name, examples, "full", template)
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


def live_argv(paths, stage: str, endpoint: str, out) -> list[str]:
    """A live run stage sending to ``endpoint`` with two workers; its cache
    is ``<out>/cache``.  A later flag overrides one of these."""
    source = ["--ontology", str(paths["ontology"])] if stage == "position" else ["--train", str(paths["labeled"])]
    return [
        f"run-{stage}",
        "--input", str(paths["eval"]),
        *source,
        "--output", str(out),
        "--model", "test-model",
        "--backend", "live",
        "--endpoint", endpoint,
        "--parallelism", "2",
    ]


def run_live(paths, stage: str, endpoint: str, out_name: str) -> Path:
    out = paths["root"] / out_name
    assert main(live_argv(paths, stage, endpoint, out)) == 0
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

    def test_jsonl_line_not_utf8_exits_1(self, tmp_path, capsys):
        source = tmp_path / "rows.jsonl"
        source.write_bytes(json.dumps(TRAIN_ROWS[0]).encode() + b'\n{"id": "\xff"}\n')
        out = tmp_path / "out.jsonl"
        assert main(["label", "--input", str(source), "--output", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {source}:2: not UTF-8: invalid start byte\n"
        assert not out.exists()

    @pytest.mark.parametrize("suffix", [".jsonl", ".csv"])
    def test_byte_order_mark_is_skipped(self, tmp_path, suffix):
        """A spreadsheet's "CSV UTF-8" export starts with a byte-order mark;
        the file labels its row, byte for byte as the file without one."""
        row = TRAIN_ROWS[0]
        if suffix == ".csv":
            text = ",".join(row) + "\n" + ",".join(row.values()) + "\n"
        else:
            text = json.dumps(row) + "\n"
        labeled = []
        for name, data in (("plain", text.encode()), ("marked", b"\xef\xbb\xbf" + text.encode())):
            source, out = tmp_path / f"{name}{suffix}", tmp_path / f"{name}.jsonl"
            source.write_bytes(data)
            assert main(["label", "--input", str(source), "--output", str(out)]) == 0
            labeled.append(out.read_bytes())
        assert labeled[0] == labeled[1]
        assert [(r["id"], r["label_kind"]) for r in read_jsonl(tmp_path / "marked.jsonl")] == [("t1", "connectivity")]


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

    def test_cap_below_one_errors(self, pipeline, capsys):
        # Checked before anything is read: the input need not exist.
        out = pipeline["root"] / "x.jsonl"
        argv = ["subsample", "--input", str(pipeline["root"] / "absent.jsonl"), "--cap", "0", "--output", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: --cap must be at least 1\n"
        assert not out.exists()


@pytest.mark.parametrize("stage", ["subsample", "run-position", "run-transition"])
def test_input_repeating_an_id_exits_1_before_writing(pipeline, capsys, stage):
    """A row repeated under one id would be prompted twice and written as
    two outcome rows, which ``evaluate`` refuses; each stage refuses the
    input instead, before anything is written."""
    root = pipeline["root"]
    rows = read_jsonl(pipeline["eval"])
    doubled = root / "doubled.jsonl"
    write_jsonl(doubled, [*rows, rows[0]])
    out, cache = root / "out", root / "new_cache"
    model = ["--model", "test-model", "--cache-dir", str(cache)]
    argv = {
        "subsample": ["--output", str(out)],
        "run-position": ["--ontology", str(pipeline["ontology"]), "--output", str(out), *model],
        "run-transition": ["--train", str(pipeline["labeled"]), "--output", str(out), *model],
    }[stage]
    assert main([stage, "--input", str(doubled), *argv]) == 1
    assert capsys.readouterr().err == f"error: {doubled} repeats example {rows[0]['id']!r}\n"
    assert not out.exists() and not cache.exists()


class TestRunPosition:
    def test_only_products_and_their_ring_normalized_copies_build_a_graph(self, tmp_path, monkeypatch):
        """On the golden run-position, each product builds its graph at most
        once, plus once for its ring-normalized copy when one is made; no
        reactant or reagent builds one."""
        paths = run_golden_pipeline(tmp_path)
        records, _ = ingest_dataset(paths["eval"])
        products = Counter(r.product.source_text for r in records)
        normalized = sum(bool(canon._qualifying_six_rings(r.product)) for r in records)
        others = {
            m.source_text
            for r in records
            for side in parse_reaction_smiles(r.reaction_smiles)[:2]
            for m in side
        }
        built = []
        build = Molecule._adjacency.func

        def counting(molecule):
            built.append(molecule.source_text)
            return build(molecule)

        counted = functools.cached_property(counting)
        counted.__set_name__(Molecule, "_adjacency")
        monkeypatch.setattr(Molecule, "_adjacency", counted)
        config = json.loads((paths["run_position"] / "config.json").read_text())
        argv = ["run-position", "--input", str(paths["eval"]), "--ontology", config["ontology"]]
        out = tmp_path / "again"
        assert main([*argv, "--output", str(out), "--model", "golden-model", "--cache-dir", config["cache_dir"]]) == 0
        assert len(records) == 10
        assert Counter(t for t in built if t) == products
        assert built.count("") == normalized
        assert not others & set(built)

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

    @pytest.mark.parametrize("key", ["ключ", "sk-test\n"], ids=["non-latin-1", "trailing-lf"])
    def test_live_key_no_header_can_carry_exits_1_and_writes_nothing(self, pipeline, capsys, monkeypatch, key):
        monkeypatch.setenv("RETROANCHOR_API_KEY", key)
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
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: environment variable RETROANCHOR_API_KEY ")
        assert key.strip() not in err
        assert not (pipeline["root"] / "r").exists()

    @pytest.mark.parametrize(
        "payload",
        [
            pytest.param({"source_split": "train", "entries": [{"id": 5, "class": "1"}]}, id="id-int"),
            pytest.param(
                {"source_split": "train", "entries": [{"id": "Amide coupling", "class": None}]},
                id="class-null",
            ),
            pytest.param([{"id": "Amide coupling", "class": "Acylation"}], id="bare-list"),
        ],
    )
    def test_malformed_ontology_entry_exits_1(self, pipeline, capsys, payload):
        """Entries sit under ``entries`` of the object ``ontology`` writes,
        and an entry's id and class must be JSON strings."""
        pipeline["ontology"].write_text(json.dumps(payload))
        code = main(
            [
                "run-position",
                "--input", str(pipeline["eval"]),
                "--ontology", str(pipeline["ontology"]),
                "--output", str(pipeline["root"] / "r"),
                "--model", "m",
            ]
        )
        assert code == 1
        assert f"malformed ontology file {pipeline['ontology']}" in capsys.readouterr().err
        assert not (pipeline["root"] / "r").exists()

    def test_empty_ontology_exits_1(self, pipeline, capsys):
        pipeline["ontology"].write_text(json.dumps({"source_split": "train", "entries": []}))
        code = main(
            [
                "run-position",
                "--input", str(pipeline["eval"]),
                "--ontology", str(pipeline["ontology"]),
                "--output", str(pipeline["root"] / "r"),
                "--model", "m",
            ]
        )
        assert code == 1
        assert f"ontology {pipeline['ontology']} has no entries" in capsys.readouterr().err
        assert not (pipeline["root"] / "r").exists()

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
    @pytest.mark.parametrize("fault", ["digest"])
    def test_unusable_template_exits_1(self, pipeline, capsys, monkeypatch, stage, fault):
        name = stage.removeprefix("run-")
        monkeypatch.setitem(TEMPLATE_DIGESTS, name, "0" * 64)
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

    @pytest.mark.parametrize("with_good", [True, False])
    def test_unwritable_reactant_is_dropped(self, pipeline, with_good):
        """A reactant that parses but has no canonical spelling (more than
        99 ring closures open at once) drops its permutation, not the run."""
        hub = parse_smiles(HUB_SMILES)
        assert len(hub.atoms) == 102
        with pytest.raises(ValueError, match="more than 99"):
            canonical_smiles(hub, include_maps=True)
        permutations = [{"reactants": [HUB_SMILES], "is_valid": True, "is_template": False}]
        if with_good:
            permutations.append({"reactants": ["CC(=O)O", "CN"], "is_valid": True, "is_template": False})
        reply = json.dumps(
            {"reaction_analysis": [{"forward_reaction_name": "n", "reactant_permutations": permutations}]}
        )
        seed_transition(pipeline, (("e1", reply),))
        out = run_transition(pipeline)
        row = next(r for r in read_jsonl(out / "outcomes.jsonl") if r["id"] == "e1")
        assert row["status"] == "ok"
        assert row["n_predictions"] == len(row["predictions"]) == int(with_good)
        assert row["failure_class"] == (None if with_good else "all_items_invalid")
        [dropped] = row["dropped"]
        assert dropped["reason"].startswith("reactants cannot be written as canonical SMILES")
        assert "more than 99" in dropped["reason"]
        assert (out / "manifest.jsonl").exists() and (out / "config.json").exists()

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
        prompt = render_transition_prompt(
            record.product, s, record.reaction_name, (), "short", load_template("transition_short")
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

    def test_each_kept_reactant_and_prompt_product_canonicalized_once(self, tmp_path, monkeypatch):
        """On the golden transition run, from an empty canonical-text cache,
        the stage canonicalizes each distinct reply reactant text it keeps
        and each prompt's product exactly once."""
        paths = run_golden_pipeline(tmp_path)
        records, _ = ingest_dataset(paths["eval"])
        products = [canonical_smiles(r.product, include_maps=True) for r in records]
        monkeypatch.setattr(canon, "_CANONICAL_TEXTS", {})
        sources, written = [], []

        def counting(molecule, include_maps=False):
            written.append(canonical_smiles(molecule, include_maps))
            sources.append(molecule.source_text)
            return written[-1]

        for name, module in list(sys.modules.items()):
            if name.startswith("retroanchor") and getattr(module, "canonical_smiles", None) is canonical_smiles:
                monkeypatch.setattr(module, "canonical_smiles", counting)
        config = json.loads((paths["run_transition"] / "config.json").read_text())
        out = tmp_path / "again"
        argv = ["run-transition", "--input", str(paths["eval"]), "--train", config["train"]]
        assert main([*argv, "--output", str(out), "--model", "golden-model", "--cache-dir", config["cache_dir"]]) == 0
        rows = read_jsonl(out / "outcomes.jsonl")
        kept = [t for row in rows for p in row.get("predictions", []) for t in p["reactants"]]
        # 16 kept reactants spell 13 texts: CN, CC(=O)O and CO appear twice.
        assert len(products) == len(rows) == 10 and (len(kept), len(set(kept))) == (16, 13)
        assert len(set(sources)) == len(sources)
        assert sorted(written) == sorted(products + list(set(kept)))

    def test_train_file_not_utf8_exits_1_naming_it(self, pipeline, capsys):
        """The run reads ``--input`` and ``--train``; the message says which is at fault."""
        train = pipeline["root"] / "train.jsonl"
        train.write_bytes(pipeline["labeled"].read_bytes() + b'{"id": "\xff"}\n')
        n_lines = len(pipeline["labeled"].read_bytes().splitlines()) + 1
        out = pipeline["root"] / "run_trans"
        code = main(["run-transition", "--input", str(pipeline["eval"]), "--train", str(train),
                     "--output", str(out), "--model", "test-model", "--cache-dir", str(pipeline["cache"])])
        assert code == 1
        assert capsys.readouterr().err == f"error: {train}:{n_lines}: not UTF-8: invalid start byte\n"
        assert not out.exists()

    def test_negative_examples_k_exits_1(self, pipeline, capsys):
        out, cache = pipeline["root"] / "r", pipeline["root"] / "c"
        code = main(
            [
                "run-transition",
                "--input", str(pipeline["eval"]),
                "--train", str(pipeline["labeled"]),
                "--output", str(out),
                "--model", "test-model",
                "--cache-dir", str(cache),
                "--examples-k", "-1",
            ]
        )
        assert code == 1
        assert "--examples-k must be at least 0" in capsys.readouterr().err
        assert not out.exists() and not cache.exists()


MODEL_RECORD = {"api_key_env": "RETROANCHOR_API_KEY", "endpoint": "", "model_id": "test-model"}


class TestRunConfig:
    """``config.json`` records every key of a run, with the keys only the
    other stage sets as null; a missing path or a bad flag exits 1 before
    anything is written."""

    @staticmethod
    def _config(out, root) -> dict:
        config = json.loads((out / "config.json").read_text())
        prefix = f"{root}/"
        return {k: v.removeprefix(prefix) if isinstance(v, str) else v for k, v in config.items()}

    def test_position_config_pinned(self, pipeline):
        seed_position(pipeline)
        assert self._config(run_position(pipeline), pipeline["root"]) == {
            "backend": "replay",
            "cache_dir": "cache",
            "examples_k": None,
            "ingest_rejects": 0,
            "input": "eval.jsonl",
            "model": MODEL_RECORD,
            "ontology": "ontology.json",
            "ontology_sha256": "45cf8d9471f2d907ea7d78157bdd5927390b8c7d350adcf941d7506bbc96acc8",
            "ontology_size": 3,
            "output_dir": "run_pos",
            "parallelism": 4,
            "prompt_variant": None,
            "seed": None,
            "stage": "position",
            "template_digest": TEMPLATE_DIGESTS["position"],
            "template_name": "position",
            "train": None,
        }

    def test_transition_config_pinned(self, pipeline):
        seed_transition(pipeline)
        assert self._config(run_transition(pipeline), pipeline["root"]) == {
            "backend": "replay",
            "cache_dir": "cache",
            "examples_k": 5,
            "ingest_rejects": 0,
            "input": "eval.jsonl",
            "model": MODEL_RECORD,
            "ontology": None,
            "output_dir": "run_trans",
            "parallelism": 4,
            "prompt_variant": "full",
            "seed": 0,
            "stage": "transition",
            "template_digest": TEMPLATE_DIGESTS["transition"],
            "template_name": "transition",
            "train": "labeled.jsonl",
            "train_ingest_rejects": 0,
        }

    @pytest.mark.parametrize(
        "stage, flag, value",
        [
            ("run-position", "--input", "missing.jsonl"),
            ("run-position", "--ontology", "missing.json"),
            ("run-position", "--parallelism", "0"),
            ("run-transition", "--input", "missing.jsonl"),
            ("run-transition", "--train", "missing.jsonl"),
            ("run-transition", "--parallelism", "0"),
        ],
    )
    def test_bad_path_or_parallelism_exits_1(self, pipeline, capsys, stage, flag, value):
        root = pipeline["root"]
        out, cache = root / "r", root / "c"
        flags = {"--input": str(pipeline["eval"])}
        if stage == "run-position":
            flags["--ontology"] = str(pipeline["ontology"])
        else:
            flags["--train"] = str(pipeline["labeled"])
        flags[flag] = value if flag == "--parallelism" else str(root / value)
        argv = [stage, *(item for pair in flags.items() for item in pair)]
        code = main(argv + ["--output", str(out), "--model", "m", "--cache-dir", str(cache)])
        assert code == 1
        assert (flag if flag == "--parallelism" else flags[flag]) in capsys.readouterr().err
        assert not out.exists() and not cache.exists()

    @pytest.mark.parametrize(
        "endpoint", ["foo", "ftp://h/v1", "http://127.0.0.1:abc/v1", "http://127.0.0.1:99999/v1"]
    )
    def test_bad_endpoint_exits_1(self, pipeline, capsys, monkeypatch, endpoint):
        monkeypatch.setenv("RETROANCHOR_API_KEY", "k")
        out = pipeline["root"] / "r"  # the cache would be out/cache
        assert main(live_argv(pipeline, "position", endpoint, out)) == 1
        assert capsys.readouterr().err == f"error: --endpoint: not an absolute http(s) URL: {endpoint!r}\n"
        assert not out.exists()

    def test_proxy_with_a_bad_port_exits_1(self, pipeline, capsys, monkeypatch):
        without_proxies(monkeypatch)
        monkeypatch.setenv("HTTP_PROXY", "http://127.0.0.1:abc")
        monkeypatch.setenv("RETROANCHOR_API_KEY", "k")
        out = pipeline["root"] / "r"  # the cache would be out/cache
        assert main(live_argv(pipeline, "position", "http://example.invalid/v1", out)) == 1
        assert capsys.readouterr().err == (
            "error: --endpoint: its proxy HTTP_PROXY has a bad port: 'http://127.0.0.1:abc'\n"
        )
        assert not out.exists()


# Valid JSON nested past the interpreter's recursion limit, where ``json``
# raises RecursionError rather than ValueError.
TOO_DEEP = "[" * 5000 + "]" * 5000


def _deep_reply(paths, monkeypatch) -> str:
    seed_position(paths, texts=(("e1", 'Sure: {"disconnections": ' + TOO_DEEP + "}"),))
    return _outcome(run_position(paths), "e1")["failure_class"]


def _deep_cache_file(paths, monkeypatch) -> str:
    digests = seed_position(paths)
    (paths["cache"] / f"{digests['e1']}.json").write_text(TOO_DEEP)
    return _outcome(run_position(paths), "e1")["failure_kind"]


def _dir_cache_file(paths, monkeypatch) -> str:
    """Not JSON at all: a directory where the entry's file would be."""
    digests = seed_position(paths)
    entry = paths["cache"] / f"{digests['e1']}.json"
    entry.unlink()
    entry.mkdir()
    return _outcome(run_position(paths), "e1")["failure_kind"]


def _deep_live_body(paths, monkeypatch) -> str:
    without_proxies(monkeypatch)
    monkeypatch.setenv("RETROANCHOR_API_KEY", "k")
    with ChatServer(lambda request: (200, TOO_DEEP.encode(), {})) as server:
        out = run_live(paths, "position", server.endpoint, "live")
    return _outcome(out, "e1")["failure_kind"]


def _deep_input_line(paths, monkeypatch) -> str:
    with open(paths["eval"], "a") as handle:
        handle.write(TOO_DEEP + "\n")
    return _exit_1(["run-position", "--input", str(paths["eval"]), "--ontology", str(paths["ontology"]),
                    "--output", str(paths["root"] / "r"), "--model", "m"])


def _deep_outcome_line(paths, monkeypatch) -> str:
    seed_position(paths)
    out = run_position(paths)
    with open(out / "outcomes.jsonl", "a") as handle:
        handle.write(TOO_DEEP + "\n")
    return _exit_1(["evaluate", "--run", str(out), "--input", str(paths["eval"])])


def _deep_ontology(paths, monkeypatch) -> str:
    paths["ontology"].write_text(TOO_DEEP)
    return _exit_1(["run-position", "--input", str(paths["eval"]), "--ontology", str(paths["ontology"]),
                    "--output", str(paths["root"] / "r"), "--model", "m"])


def _deep_run_config(paths, monkeypatch) -> str:
    seed_position(paths)
    out = run_position(paths)
    (out / "config.json").write_text(TOO_DEEP)
    return _exit_1(["evaluate", "--run", str(out), "--input", str(paths["eval"])])


def _outcome(out, rid: str) -> dict:
    return {row["id"]: row for row in read_jsonl(out / "outcomes.jsonl")}[rid]


def _exit_1(argv) -> str:
    """Runs ``argv``, which must exit 1; returns what it printed to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert main(argv) == 1
    return err.getvalue()


@pytest.mark.parametrize(
    "plant, expected",
    [
        pytest.param(_deep_reply, "no_json", id="reply"),
        pytest.param(_deep_cache_file, "cache_corrupt", id="cache-file"),
        pytest.param(_dir_cache_file, "cache_corrupt", id="cache-dir"),
        pytest.param(_deep_live_body, "malformed_response", id="live-body"),
        pytest.param(_deep_input_line, "eval.jsonl:4: not JSON", id="input-line"),
        pytest.param(_deep_outcome_line, "outcomes.jsonl:4: not JSON", id="outcome-line"),
        pytest.param(_deep_ontology, "error: cannot read ontology", id="ontology"),
        pytest.param(_deep_run_config, "error: cannot read run", id="run-config"),
    ],
)
def test_too_deep_json_is_a_classified_fault(pipeline, monkeypatch, plant, expected):
    """Each place that decodes JSON turns nesting past the recursion limit,
    and the cache a path it cannot read, into its own failure kind or into
    exit 1 with a message."""
    assert expected in plant(pipeline, monkeypatch)


def test_unreadable_cache_entry_is_a_manifest_row(pipeline):
    """An example whose cache entry cannot be replayed gets a manifest row
    with the failure as its outcome, no attempt and no latency."""
    digests = seed_position(pipeline)
    (pipeline["cache"] / f"{digests['e1']}.json").write_text(TOO_DEEP)
    manifest = read_jsonl(run_position(pipeline) / "manifest.jsonl")
    assert manifest[0] == {
        "digest": digests["e1"], "model": "test-model", "attempts": 0, "outcome": "cache_corrupt", "latency_ms": 0,
    }
    assert manifest[1]["digest"] == digests["e2"] and manifest[1]["outcome"] == "cache_hit"


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
        assert [row["id"] for row in report["rows"]] == ["e1", "e2", "e4", "u1"]  # id order
        u1 = report["rows"][3]
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

    @pytest.mark.parametrize(
        "maps, kind, reason",
        [
            pytest.param(["x"], "connectivity", "expected int, got 'x'", id="maps-text"),
            pytest.param([1.9, True], "connectivity", "expected int, got 1.9", id="maps-float-bool"),
            pytest.param([True], "connectivity", "expected int, got True", id="maps-bool"),
            pytest.param([2], 5, "expected str, got 5", id="kind-int"),
            pytest.param("2", "connectivity", "expected list, got '2'", id="maps-not-list"),
        ],
    )
    def test_transition_malformed_label_skipped(self, pipeline, maps, kind, reason):
        """Label columns are read by exact JSON type, never cast."""
        bad = dict(TEST_ROWS[0], id="x9", label_maps=maps, label_kind=kind)
        _insert_eval_rows(pipeline, {1: bad})
        seed_transition(pipeline)
        out = run_transition(pipeline)
        skipped = _assert_manifest_aligned(out)
        assert skipped == [{"id": "x9", "status": "skipped", "reason": f"label_maps/label_kind: {reason}"}]


class TestMalformedMolecules:
    """Only the stages that read molecules reject a row whose SMILES do
    not parse or whose maps are no injection."""

    def test_label_rejects_both(self, tmp_path, capsys):
        """Both malformed rows, and a row whose product repeats a map."""
        source, out = tmp_path / "raw.jsonl", tmp_path / "labeled.jsonl"
        repeated = dict(TEST_ROWS[0], id="x3", reaction_smiles=REPEATED_MAP_SMILES)
        rows = _with_malformed(TRAIN_ROWS + TEST_ROWS) + [repeated]
        write_jsonl(source, rows)
        assert main(["label", "--input", str(source), "--output", str(out)]) == 0
        assert "(3 rejected)" in capsys.readouterr().out
        assert [r["id"] for r in read_jsonl(out)] == [r["id"] for r in TRAIN_ROWS + TEST_ROWS]
        assert read_jsonl(tmp_path / "labeled.rejects.jsonl") == [
            {"row": 2, "id": "x1", "error": "unclosed branch (at position 33)"},
            {"row": 4, "id": "x2", "error": "product atom maps appear on multiple reactant atoms: [1]"},
            {"row": len(rows), "id": "x3", "error": "product repeats atom maps: [1]"},
        ]

    def test_ontology_counts_their_names(self, tmp_path, capsys):
        source, out = tmp_path / "train.jsonl", tmp_path / "ontology.json"
        write_jsonl(source, _with_malformed(TRAIN_ROWS))
        assert main(["ontology", "--input", str(source), "--split", "train", "--output", str(out)]) == 0
        assert "(0 rows rejected)" in capsys.readouterr().out
        assert [e["id"] for e in json.loads(out.read_text())["entries"]] == [
            "Alkene hydrogenation",
            "Amide coupling",
            "Branch fault",
            "Map fault",
            "Williamson ether synthesis",
        ]

    def test_subsample_keeps_them(self, tmp_path, capsys):
        rows = [dict(r, label_maps=[1], label_kind="connectivity") for r in _with_malformed(TEST_ROWS)]
        source, out = tmp_path / "labeled.jsonl", tmp_path / "eval.jsonl"
        write_jsonl(source, rows)
        code = main(["subsample", "--input", str(source), "--split", "test", "--cap", "9", "--output", str(out)])
        assert code == 0
        assert "0 rejected" in capsys.readouterr().out
        assert read_jsonl(out) == rows

    def test_position_evaluate_scores_them(self, pipeline):
        """Position scoring reads only ids, names and label columns, so
        breaking the SMILES of labeled rows leaves the report unchanged."""
        seed_position(pipeline)
        run_dir = run_position(pipeline)
        assert main(["evaluate", "--run", str(run_dir), "--input", str(pipeline["eval"])]) == 0
        rows = read_jsonl(pipeline["eval"])
        assert [r["id"] for r in rows[:2]] == ["e1", "e2"]
        rows[0]["reaction_smiles"] += "("
        rows[1]["reaction_smiles"] = DUPLICATE_MAP_SMILES
        truth, out = pipeline["root"] / "truth.jsonl", pipeline["root"] / "report2"
        write_jsonl(truth, rows)
        assert main(["evaluate", "--run", str(run_dir), "--input", str(truth), "--output", str(out)]) == 0
        produced = sorted(path.name for path in out.iterdir())
        assert produced == sorted(path.name for path in (run_dir / "report").iterdir())
        for name in produced:
            assert (out / name).read_bytes() == (run_dir / "report" / name).read_bytes()

    @staticmethod
    def _transition_runs(pipeline, faulty_rows: list[dict]) -> dict:
        """``run-transition`` run directories over the clean train file and
        over ``faulty_rows``."""
        seed_transition(pipeline)
        runs = {}
        for name, rows in (("clean", TRAIN_ROWS), ("faulty", faulty_rows)):
            train, out = pipeline["root"] / f"{name}.jsonl", pipeline["root"] / f"run_{name}"
            write_jsonl(train, rows)
            code = main(
                [
                    "run-transition",
                    "--input", str(pipeline["eval"]),
                    "--train", str(train),
                    "--output", str(out),
                    "--model", "test-model",
                    "--backend", "replay",
                    "--cache-dir", str(pipeline["cache"]),
                ]
            )
            assert code == 0
            runs[name] = out
        for artifact in ("manifest.jsonl", "outcomes.jsonl"):
            assert (runs["faulty"] / artifact).read_bytes() == (runs["clean"] / artifact).read_bytes()
        return runs

    def test_run_transition_train_leaves_them_out(self, pipeline):
        """Rows named like ``e1`` that do not parse never join its few-shot
        pool: every request digest equals that of a train file without them."""
        runs = self._transition_runs(pipeline, _with_malformed(TRAIN_ROWS, ("Amide coupling",) * 2))
        assert json.loads((runs["faulty"] / "config.json").read_text())["train_ingest_rejects"] == 2

    def test_run_transition_train_skips_undrawn_names(self, pipeline):
        """Rows under a name no input row carries are never drawn, so they
        are neither parsed nor counted as rejects."""
        runs = self._transition_runs(pipeline, _with_malformed(TRAIN_ROWS))
        assert json.loads((runs["faulty"] / "config.json").read_text())["train_ingest_rejects"] == 0

    def test_run_transition_parses_only_drawn_train_rows(self, pipeline, monkeypatch):
        """Input rows parse at ingest, then the train rows under their names
        in file order; ``t5``, under a name no input row carries, never does."""
        undrawn = dict(TRAIN_ROWS[3], id="t5", reaction_smiles="[CH3:1]I>>[CH4:1]", reaction_name="Reduction")
        train = pipeline["root"] / "train.jsonl"
        write_jsonl(train, [*TRAIN_ROWS, undrawn])
        parsed: list[str] = []

        def spy(text: str):
            parsed.append(text)
            return parse_reaction_smiles(text)

        monkeypatch.setattr("retroanchor.datasets.parse_reaction_smiles", spy)
        out = pipeline["root"] / "run_spy"
        code = main(
            [
                "run-transition",
                "--input", str(pipeline["eval"]),
                "--train", str(train),
                "--output", str(out),
                "--model", "test-model",
                "--backend", "replay",
                "--cache-dir", str(pipeline["cache"]),
            ]
        )
        assert code == 0
        eval_rows = read_jsonl(pipeline["eval"])
        drawn = {row["reaction_name"] for row in eval_rows}
        assert parsed == [row["reaction_smiles"] for row in eval_rows] + [
            row["reaction_smiles"] for row in TRAIN_ROWS if row["reaction_name"] in drawn
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

    def test_truth_reactant_without_canonical_spelling_exits_1(self, pipeline, capsys):
        """A ground-truth reactant that parses but has no canonical spelling
        (more than 99 ring closures open at once) exits 1 naming its example."""
        seed_transition(pipeline)
        run_dir = run_transition(pipeline)
        rows = read_jsonl(pipeline["eval"])
        for row in rows:
            if row["id"] == "e1":
                reactants, product = row["reaction_smiles"].split(">>")
                row["reaction_smiles"] = f"{reactants}.{HUB_SMILES}>>{product}"
        truth = pipeline["root"] / "truth.jsonl"
        write_jsonl(truth, rows)
        assert main(["evaluate", "--run", str(run_dir), "--input", str(truth)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: example e1: more than 99 simultaneously open ring closures")

    def test_prediction_reactant_without_canonical_spelling_exits_1(self, tmp_path, capsys):
        """A stored prediction reactant that parses but has no canonical
        spelling is a fault of the run, not of the ground truth."""
        paths = run_golden_pipeline(tmp_path)
        outcomes = paths["run_transition"] / "outcomes.jsonl"
        rows = read_jsonl(outcomes)
        [row] = [r for r in rows if r["id"] == "g01"]
        prediction = next(p for p in row["predictions"] if p["is_valid"] and not p["is_template"])
        prediction["reactants"][0] = HUB_SMILES
        write_jsonl(outcomes, rows)
        capsys.readouterr()
        assert main(["evaluate", "--run", str(paths["run_transition"]), "--input", str(paths["eval"])]) == 1
        assert capsys.readouterr().err.startswith(
            "error: run outcome for g01 holds a reactant with no canonical spelling: "
            "more than 99 simultaneously open ring closures"
        )

    @pytest.mark.parametrize("is_valid", [True, False])
    def test_unparsable_prediction_text_exits_1(self, pipeline, capsys, is_valid):
        """Every stored prediction is parsed, one the model marked invalid too."""
        seed_transition(pipeline)
        run_dir = run_transition(pipeline)
        outcomes = run_dir / "outcomes.jsonl"
        rows = read_jsonl(outcomes)
        [row] = [r for r in rows if r["id"] == "e1"]
        row["predictions"][0].update(reactants=["CC("], is_valid=is_valid)
        write_jsonl(outcomes, rows)
        assert main(["evaluate", "--run", str(run_dir), "--input", str(pipeline["eval"])]) == 1
        assert capsys.readouterr().err.startswith("error: run outcome for e1 holds unparsable SMILES")
        assert not (run_dir / "report").exists()

    def test_reactant_of_dots_is_dropped_not_stored(self, pipeline):
        """A reactant ``"."`` names no atom: run-transition drops its
        permutation, so evaluate scores the example as failed instead of
        refusing the run over a stored empty text."""
        reply = json.loads(TRANSITION_TEXT_E1)
        reply["reaction_analysis"][0]["reactant_permutations"][0]["reactants"] = ["CN", "."]
        seed_transition(pipeline, (("e1", json.dumps(reply)), ("e2", TRANSITION_TEXT_E2)))
        run_dir = run_transition(pipeline)
        [row] = [r for r in read_jsonl(run_dir / "outcomes.jsonl") if r["id"] == "e1"]
        assert (row["predictions"], row["failure_class"]) == ([], "all_items_invalid")
        [dropped] = row["dropped"]
        assert dropped["reason"] == "syntactically invalid SMILES: '.' not between two atoms (at position 0)"
        assert main(["evaluate", "--run", str(run_dir), "--input", str(pipeline["eval"])]) == 0
        report = json.loads((run_dir / "report" / "report.json").read_text())
        [e1] = [r for r in report["rows"] if r["id"] == "e1"]
        assert (e1["failed"], e1["n_predictions"]) == (True, 0)

    def test_truth_file_repeating_an_id_exits_1(self, pipeline, capsys):
        """Two truth rows under one id would leave one of them unscored and
        score the other's run row against the wrong truth."""
        seed_position(pipeline)
        run_dir = run_position(pipeline)
        rows = read_jsonl(pipeline["eval"])
        truth = pipeline["root"] / "truth.jsonl"
        write_jsonl(truth, [*rows, {**rows[0], "id": rows[1]["id"]}])
        assert main(["evaluate", "--run", str(run_dir), "--input", str(truth)]) == 1
        assert capsys.readouterr().err == f"error: ground truth file repeats example {rows[1]['id']!r}\n"
        assert not (run_dir / "report").exists()

    def test_outcomes_repeating_an_id_exit_1(self, pipeline, capsys):
        seed_position(pipeline)
        run_dir = run_position(pipeline)
        outcomes = run_dir / "outcomes.jsonl"
        rows = read_jsonl(outcomes)
        write_jsonl(outcomes, [rows[0], {**rows[1], "id": rows[0]["id"]}, *rows[2:]])
        assert main(["evaluate", "--run", str(run_dir), "--input", str(pipeline["eval"])]) == 1
        assert capsys.readouterr().err == f"error: {outcomes} repeats example {rows[0]['id']!r}\n"
        assert not (run_dir / "report").exists()

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
            # label columns are read by exact JSON type, never cast
            *(
                pytest.param(
                    "ground_truth",
                    json.dumps(dict(TEST_ROWS[0], label_maps=maps, label_kind=kind)),
                    f"example e1 has a malformed label: label_maps/label_kind: {message}",
                    id=f"ground_truth-label-{case}",
                )
                for case, maps, kind, message in (
                    ("maps-text", ["x"], "connectivity", "expected int, got 'x'"),
                    ("maps-float-bool", [1.9, True], "connectivity", "expected int, got 1.9"),
                    ("maps-not-list", 2, "connectivity", "expected list, got 2"),
                    ("kind-int", [2, 4], 5, "expected str, got 5"),
                    ("kind-missing", [2, 4], None, "expected str, got None"),
                )
            ),
            # without label columns the label is extracted, which parses the reaction
            *(
                pytest.param(
                    "ground_truth",
                    json.dumps(dict(TEST_ROWS[0], reaction_smiles=smiles)),
                    f"example e1 has a malformed label: {message}",
                    id=f"ground_truth-unlabeled-{case}",
                )
                for case, smiles, message in (
                    ("unclosed-branch", TEST_ROWS[0]["reaction_smiles"] + "(", "unclosed branch (at position 33)"),
                    ("duplicate-map", DUPLICATE_MAP_SMILES, "product atom maps appear on multiple reactant atoms: [1]"),
                    ("repeated-product-map", REPEATED_MAP_SMILES, "product repeats atom maps: [1]"),
                )
            ),
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
            # a field with a parser default is still a field of the row
            ("position", "rationale", MISSING),
            ("position", "claimed_in_ontology", MISSING),
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
            ("transition", "reasoning", MISSING),
            ("transition", "reaction_name", MISSING),
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


# ``json.loads`` reads a ``\ud800`` escape as a lone surrogate, which no UTF-8 text holds.
LONE = "\ud800"


class TestLoneSurrogate:
    """A lone surrogate in a reply or a row is written as its escape,
    which reads back as the same string."""

    def test_position_reply_rationale(self, pipeline):
        reply = json.dumps({"disconnections": [{"disconnection": "N:2 C:4", "reactions": [
            {"forwardReaction": "Amide coupling", "Retrosynthesis Importance": 4, "Priority": 1,
             "rationale": LONE}]}]})
        seed_position(pipeline, (("e1", reply),))
        out = run_position(pipeline)
        again = run_position(pipeline, "run_pos_again")
        assert _outcome(out, "e1")["candidates"][0]["rationale"] == LONE
        assert b'"rationale": "\\ud800"' in (out / "outcomes.jsonl").read_bytes()
        assert (again / "outcomes.jsonl").read_bytes() == (out / "outcomes.jsonl").read_bytes()
        assert main(["evaluate", "--run", str(out), "--input", str(pipeline["eval"])]) == 0

    def test_transition_reply_reasoning(self, pipeline):
        reply = json.dumps({"reaction_analysis": [{"forward_reaction_name": "Amide coupling", "reactant_permutations": [
            {"reactants": ["CC(=O)O", "CN"], "is_valid": True, "is_template": False, "reasoning": LONE}]}]})
        seed_transition(pipeline, (("e1", reply),))
        out = run_transition(pipeline)
        assert _outcome(out, "e1")["predictions"][0]["reasoning"] == LONE
        assert main(["evaluate", "--run", str(out), "--input", str(pipeline["eval"])]) == 0

    def test_live_reply_is_cached_and_replayed(self, pipeline, monkeypatch):
        without_proxies(monkeypatch)
        monkeypatch.setenv("RETROANCHOR_API_KEY", "k")
        text = POSITION_TEXT_E1 + LONE
        with ChatServer(lambda request: (200, chat_body(text), {})) as server:
            out = run_live(pipeline, "position", server.endpoint, "live")
        digest = _outcome(out, "e1")["digest"]
        assert json.loads((out / "cache" / f"{digest}.json").read_text())["text"] == text
        replay = pipeline["root"] / "replay"
        argv = [*live_argv(pipeline, "position", server.endpoint, replay), "--backend", "replay",
                "--cache-dir", str(out / "cache")]
        assert main(argv) == 0
        assert (replay / "outcomes.jsonl").read_bytes() == (out / "outcomes.jsonl").read_bytes()

    def test_label_and_ontology_keep_a_row_name(self, tmp_path):
        raw, labeled, ontology = tmp_path / "raw.jsonl", tmp_path / "labeled.jsonl", tmp_path / "ontology.json"
        raw.write_text("".join(json.dumps(dict(row, reaction_name="x" + LONE)) + "\n" for row in TRAIN_ROWS))
        assert main(["label", "--input", str(raw), "--output", str(labeled)]) == 0
        assert {row["reaction_name"] for row in read_jsonl(labeled)} == {"x" + LONE}
        assert main(["ontology", "--input", str(labeled), "--split", "train", "--output", str(ontology)]) == 0
        assert [e["id"] for e in json.loads(ontology.read_text())["entries"]] == ["x" + LONE]


@pytest.mark.parametrize("stage,name", [("label", "lab.csv"), ("subsample", "eval.CSV")])
def test_csv_output_exits_1_before_reading(tmp_path, capsys, stage, name):
    """Both stages write JSON lines, and every reader takes a ``.csv``
    suffix, in any case, for CSV."""
    out = tmp_path / name
    assert main([stage, "--input", str(tmp_path / "absent.jsonl"), "--output", str(out)]) == 1
    assert capsys.readouterr().err == f"error: --output {out}: this stage writes JSON lines, not CSV\n"
    assert not out.exists()


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


# The data model, then that model with SMILES reading and canonical text.
_MODEL = ("chem", "chem.mol")
_READ = (*_MODEL, "chem.canon", "chem.smiles")

# The package modules each stage loads, below ``retroanchor.cli`` itself:
# only the stage that scores a template prediction loads the matcher.
STAGE_LAYERS = {
    "--help": (),
    "ontology": ("datasets", "utils"),
    "subsample": ("datasets", "utils"),
    "label": ("datasets", "utils", *_READ, "labels"),
    "evaluate": ("datasets", "utils", *_MODEL, "metrics", "outputs"),
    "evaluate-transition": ("datasets", "utils", *_READ, "chem.match", "metrics", "outputs"),
    "run-position": ("datasets", "utils", *_READ, "gateway", "outputs", "prompts"),
    "run-transition": ("datasets", "utils", *_READ, "gateway", "outputs", "prompts"),
}

# e1's reply with a valid template prediction beside the exact one.
TRANSITION_TEXT_TEMPLATE = json.dumps(
    {
        "reaction_analysis": [
            {
                "forward_reaction_name": "Amide coupling",
                "reactant_permutations": [
                    {"reactants": ["CC(=O)O", "CN"], "is_valid": True, "is_template": False},
                    {"reactants": ["CC(=O)*", "*N"], "is_valid": True, "is_template": True},
                ],
            }
        ]
    }
)

# Modules that only a live run's HTTP backend needs.
HTTP_MODULES = ("requests", "http.client", "urllib.request")
# Modules that only a live run's thread pool needs.
POOL_MODULES = ("concurrent.futures", "logging")
# Modules that ``dataclasses`` brings in; no stage needs them.
RECORD_MODULES = ("dataclasses", "inspect")


@pytest.mark.parametrize("stage", sorted(STAGE_LAYERS))
def test_import_leaves_requests_unloaded(pipeline, stage):
    """A stage process imports only the layers its subcommand calls: no
    stage here loads HTTP code, a thread pool, the record machinery of
    ``dataclasses`` or, reading only JSON lines, ``csv``; only the run
    stages, in replay, load the prompts and ``hashlib``; and evaluating a
    position run loads the data model of ``chem`` alone."""
    root = pipeline["root"]
    if stage in ("evaluate", "run-position"):
        seed_position(pipeline)
    if stage == "evaluate":
        run_position(pipeline)
    if stage in ("evaluate-transition", "run-transition"):
        seed_transition(pipeline, (("e1", TRANSITION_TEXT_TEMPLATE), ("e2", TRANSITION_TEXT_E2)))
    if stage == "evaluate-transition":
        run_transition(pipeline)
    argv = {
        "--help": ["--help"],
        "label": ["label", "--input", str(pipeline["raw"]), "--output", str(root / "l.jsonl")],
        "ontology": ["ontology", "--input", str(pipeline["labeled"]), "--split", "train",
                     "--output", str(root / "o.json")],
        "subsample": ["subsample", "--input", str(pipeline["labeled"]), "--output", str(root / "e.jsonl")],
        "evaluate": ["evaluate", "--run", str(root / "run_pos"), "--input", str(pipeline["eval"])],
        "evaluate-transition": ["evaluate", "--run", str(root / "run_trans"), "--input", str(pipeline["eval"])],
        "run-position": ["run-position", "--input", str(pipeline["eval"]), "--ontology", str(pipeline["ontology"]),
                         "--output", str(root / "r"), "--model", "test-model", "--backend", "replay",
                         "--cache-dir", str(pipeline["cache"])],
        "run-transition": ["run-transition", "--input", str(pipeline["eval"]), "--train", str(pipeline["labeled"]),
                           "--output", str(root / "t"), "--model", "test-model", "--backend", "replay",
                           "--cache-dir", str(pipeline["cache"])],
    }[stage]
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = (
        "import json, sys\n"
        "from retroanchor.cli import main\n"
        "try:\n    code = main(sys.argv[1:])\nexcept SystemExit as exc:\n    code = exc.code\n"
        f"names = [m for m in sys.modules if m.startswith('retroanchor') or m in {(*POOL_MODULES, *HTTP_MODULES, *RECORD_MODULES, 'csv', 'hashlib')}]\n"
        "print(json.dumps({'code': code, 'modules': sorted(names)}))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe, *argv], env=env, capture_output=True, text=True, check=True
    )
    loaded = json.loads(result.stdout.splitlines()[-1])
    assert loaded["code"] == 0
    assert not {*HTTP_MODULES, *POOL_MODULES, *RECORD_MODULES, "csv"} & set(loaded["modules"])
    assert ("hashlib" in loaded["modules"]) == stage.startswith("run-")
    expected = ["retroanchor", "retroanchor.cli", *(f"retroanchor.{m}" for m in STAGE_LAYERS[stage])]
    assert [m for m in loaded["modules"] if m != "hashlib"] == sorted(expected)


def test_package_imports_only_stdlib():
    """Every import under ``src/`` names the standard library or the
    package itself, and the package declares no runtime dependency."""
    root = Path(__file__).resolve().parent.parent
    foreign = []
    for path in sorted((root / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            top = {name.partition(".")[0] for name in names}
            foreign += [f"{path.name}: {name}" for name in sorted(top - {"retroanchor"}) if name not in sys.stdlib_module_names]
    assert foreign == []
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((root / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert project["dependencies"] == []


def test_no_module_imports_dataclasses():
    """Records are ``NamedTuple``s or plain classes: ``dataclasses`` would
    cost every stage process its import and a class build per record."""
    found = []
    for path in sorted((Path(__file__).resolve().parent.parent / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                names = [node.module] if isinstance(node, ast.ImportFrom) and node.level == 0 else []
            found += [f"{path.name}: {name}" for name in names if name.partition(".")[0] == "dataclasses"]
    assert found == []


@pytest.fixture
def unfreeze():
    yield
    gc.unfreeze()


def test_only_the_program_entry_freezes_the_collector(tmp_path, monkeypatch, unfreeze):
    """``main()`` reads ``sys.argv`` as the process entry and freezes the
    collector when the stage returns, so exit's collection skips the
    stage's objects; ``main(argv)`` leaves the caller's collector alone."""
    raw = tmp_path / "raw.jsonl"
    write_jsonl(raw, TRAIN_ROWS)
    argv = ["ontology", "--input", str(raw), "--split", "train", "--output", str(tmp_path / "o.json")]
    assert main(argv) == 0
    assert gc.get_freeze_count() == 0
    monkeypatch.setattr(sys, "argv", ["retroanchor", *argv])
    assert main() == 0
    assert gc.get_freeze_count() > 0


def _anchor_reads(source: str) -> list[str]:
    """Calls in ``source`` that read or write a product's atom ids
    without the anchor table."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        called = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
        include_maps = [k.value for k in node.keywords if k.arg == "include_maps"] + node.args[1:]
        with_maps = any(not (isinstance(v, ast.Constant) and v.value is False) for v in include_maps)
        if called in ("atom_maps", "atom_map_index") or (called == "canonical_smiles" and with_maps):
            found.append(f"{node.lineno}: {called}")
    return found


def test_only_the_anchor_table_reads_atom_ids():
    """``prompts``, ``outputs`` and ``labels`` reach a product's atom ids
    only through ``AnchorTable``: none calls ``atom_maps``,
    ``atom_map_index`` or ``canonical_smiles`` with maps."""
    probe = "p.atom_maps()\nm.atom_map_index()\ncanonical_smiles(p, include_maps=True)\ncanonical_smiles(p, True)\n"
    assert len(_anchor_reads(probe)) == 4
    assert _anchor_reads("canonical_smiles(p)\ncanonical_smiles(p, include_maps=False)\n") == []
    package = Path(__file__).resolve().parent.parent / "src" / "retroanchor"
    names = ("prompts.py", "outputs.py", "labels.py")
    found = {name: _anchor_reads((package / name).read_text(encoding="utf-8")) for name in names}
    assert found == dict.fromkeys(names, [])


# Replies the loopback server gives each run stage: one ok answer apiece.
LIVE_REPLIES = {"position": POSITION_TEXT_E1, "transition": TRANSITION_TEXT_E1}


class TestLiveLoopback:
    """Live run stages against an in-process chat-completions server."""

    @pytest.fixture(autouse=True)
    def live_env(self, monkeypatch):
        without_proxies(monkeypatch)
        monkeypatch.setenv("RETROANCHOR_API_KEY", "k")

    def _server(self, stage: str, **kwargs) -> ChatServer:
        return ChatServer(lambda request: (200, chat_body(LIVE_REPLIES[stage]), {}), **kwargs)

    @pytest.mark.parametrize("stage", ["position", "transition"])
    @pytest.mark.parametrize("drop_after_reply", [False, True], ids=["keep-alive", "server-closes"])
    def test_live_run_then_replay(self, pipeline, stage, drop_after_reply):
        """Two workers hold at most two connections; a server that closes
        each one after its reply costs no attempt; a replay of the cache
        reproduces the outcomes byte for byte and sends nothing."""
        with self._server(stage, drop_after_reply=drop_after_reply) as server:
            out = run_live(pipeline, stage, server.endpoint, "live")
            replay = pipeline["root"] / "replay"
            argv = [*live_argv(pipeline, stage, server.endpoint, replay), "--backend", "replay",
                    "--cache-dir", str(out / "cache")]
            sent = len(server.requests)
            assert main(argv) == 0
        manifest = read_jsonl(out / "manifest.jsonl")
        assert sent == len(manifest) == len(server.requests) >= 2
        assert [(m["outcome"], m["attempts"]) for m in manifest] == [("ok", 1)] * sent
        if drop_after_reply:
            assert server.connections == sent
        else:
            assert server.connections <= 2
        assert any(row.get("n_predictions") for row in read_jsonl(out / "outcomes.jsonl"))
        assert (replay / "outcomes.jsonl").read_bytes() == (out / "outcomes.jsonl").read_bytes()
        assert {m["outcome"] for m in read_jsonl(replay / "manifest.jsonl")} == {"cache_hit"}

    def test_live_stage_builds_one_backend(self, pipeline, monkeypatch):
        """The backend that checks ``--endpoint`` is the one that sends."""
        from retroanchor.gateway import HttpBackend
        built = []
        init = HttpBackend.__init__

        def counting_init(self, cfg):
            built.append(self)
            init(self, cfg)

        monkeypatch.setattr(HttpBackend, "__init__", counting_init)
        with self._server("position") as server:
            run_live(pipeline, "position", server.endpoint, "live")
        assert len(built) == 1
        assert server.requests

    def test_sends_and_records_only_what_the_model_flags_set(self, pipeline, monkeypatch):
        """The body holds the model, the prompt and the fixed token budget;
        ``config.json`` records the three model flags and nothing else."""
        monkeypatch.setenv("LOOPBACK_KEY", "k")
        out = pipeline["root"] / "live"
        with self._server("position") as server:
            argv = live_argv(pipeline, "position", server.endpoint, out)
            assert main([*argv, "--api-key-env", "LOOPBACK_KEY"]) == 0
        assert server.requests
        for request in server.requests:
            [message] = request["json"]["messages"]
            assert request["json"] == {"model": "test-model", "messages": [message], "max_tokens": 8192}
            assert message.keys() == {"role", "content"} and message["role"] == "user"
        assert json.loads((out / "config.json").read_text())["model"] == {
            "api_key_env": "LOOPBACK_KEY",
            "endpoint": server.endpoint,
            "model_id": "test-model",
        }

    def test_http_proxy_relays_the_run(self, pipeline, monkeypatch):
        endpoint = "http://127.0.0.2:9/v1/chat/completions"  # reached only through the proxy
        with self._server("position") as proxy:
            monkeypatch.setenv("HTTP_PROXY", proxy.base)
            out = run_live(pipeline, "position", endpoint, "live")
        assert {request["path"] for request in proxy.requests} == {endpoint}
        assert len(proxy.requests) == len(read_jsonl(out / "manifest.jsonl"))

    def test_no_proxy_bypasses_the_proxy(self, pipeline, monkeypatch):
        monkeypatch.setenv("HTTP_PROXY", "http://127.0.0.1:9")  # refuses every connection
        monkeypatch.setenv("NO_PROXY", "127.0.0.1")
        with self._server("position") as server:
            out = run_live(pipeline, "position", server.endpoint, "live")
        manifest = read_jsonl(out / "manifest.jsonl")
        assert {m["outcome"] for m in manifest} == {"ok"}
        assert {request["path"] for request in server.requests} == {"/v1/chat/completions"}

    def test_live_run_without_requests_installed(self, pipeline):
        """A live run completes in a process where ``import requests`` fails."""
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, RETROANCHOR_API_KEY="k")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        probe = (
            "import sys\n"
            "sys.modules['requests'] = None  # any import of it raises ImportError\n"
            "from retroanchor.cli import main\n"
            "sys.exit(main(sys.argv[1:]))"
        )
        out = pipeline["root"] / "live"
        with self._server("transition") as server:
            argv = live_argv(pipeline, "transition", server.endpoint, out)
            result = subprocess.run(
                [sys.executable, "-c", probe, *argv], env=env, capture_output=True, text=True, timeout=120
            )
        assert result.returncode == 0, result.stderr
        manifest = read_jsonl(out / "manifest.jsonl")
        assert [m["outcome"] for m in manifest] == ["ok"] * len(server.requests)
