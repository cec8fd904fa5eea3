"""Acceptance suite: one test per release criterion.

Each test prints a single ``[PASS] criterion N`` line on success so a
plain ``pytest -v -s tests/test_acceptance.py`` reads as a checklist.
Criteria 8 and 9 need externally supplied data or a live endpoint and
skip themselves when the corresponding environment variables are unset.
"""

from __future__ import annotations

import json
import os
import random
import socket
import threading
import time
from collections import Counter
from pathlib import Path

import pytest

from helpers import (
    golden_fixture_dir,
    label_oracle,
    label_oracle_parts,
    molecules_isomorphic,
    permute_molecule,
    random_labeled_reaction,
    random_molecule,
    run_golden_pipeline,
)
from test_match import brute_force_match

from retroanchor.chem import AtomMapSet, canonical_smiles, parse_smiles, write_smiles
from retroanchor.chem.match import substructure_match
from retroanchor.datasets import build_ontology, ingest_dataset, subsample_eval_set
from retroanchor.gateway import (
    BackendResult,
    Completion,
    Gateway,
    GatewayError,
    GatewayFailure,
    ModelConfig,
    REPLAY_MISS,
    REQUEST_REJECTED,
)
from retroanchor.labels import extract_structural_label
from retroanchor.metrics import jaccard, score_position, score_transition
from retroanchor.outputs import DisconnectionCandidate, TransitionPrediction
from retroanchor.prompts import RenderedPrompt

FIXTURE_DIR = Path(__file__).resolve().parent / "fixtures"


def _report(criterion: int, detail: str) -> None:
    print(f"[PASS] criterion {criterion}: {detail}")


# ------------------------------------------------------------ criterion 1


def test_criterion_1_canonicalization_invariance():
    rng = random.Random(11)
    started = time.monotonic()
    for index in range(200):
        molecule = random_molecule(rng, with_maps=index % 3 == 0)
        reference = canonical_smiles(molecule, include_maps=True)
        spellings = {
            canonical_smiles(permute_molecule(molecule, rng), include_maps=True)
            for _ in range(50)
        }
        assert spellings == {reference}
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"canonicalization sweep took {elapsed:.1f}s"
    _report(1, f"200 molecules x 50 permutations, one spelling each, {elapsed:.1f}s")


# ------------------------------------------------------------ criterion 2


def test_criterion_2_corpus_round_trip():
    corpus = (FIXTURE_DIR / "smiles_corpus.txt").read_text(encoding="utf-8").splitlines()
    assert len(corpus) >= 500, f"corpus holds only {len(corpus)} entries"
    mismatches = []
    for text in corpus:
        first = parse_smiles(text)
        second = parse_smiles(write_smiles(first))
        if not molecules_isomorphic(first, second):
            mismatches.append(text)
    assert not mismatches, f"{len(mismatches)} round-trip mismatches, first: {mismatches[:3]}"
    _report(2, f"{len(corpus)} corpus entries round-trip isomorphic, zero mismatches")


# ------------------------------------------------------------ criterion 3


def test_criterion_3_label_oracle_equivalence():
    rng = random.Random(31)
    kinds = Counter()
    for _ in range(500):
        record, expected_maps, expected_kind = random_labeled_reaction(rng)
        label = extract_structural_label(record)
        oracle_maps, oracle_kind = label_oracle(record)

        assert label.maps == oracle_maps == expected_maps
        assert label.kind == oracle_kind == expected_kind

        connectivity, order_changed = label_oracle_parts(record)
        if connectivity:
            assert label.kind == "connectivity"
        elif order_changed:
            assert label.kind == "bond_order"
        else:
            assert label.kind == "empty"
        kinds[label.kind] += 1
    assert set(kinds) == {"connectivity", "bond_order", "empty"}
    _report(3, f"500 synthetic reactions agree with the oracle ({dict(kinds)})")


# ------------------------------------------------------------ criterion 4


def test_criterion_4_substructure_oracle_equivalence():
    rng = random.Random(41)
    pairs = 0
    positives = 0
    while pairs < 2000:
        target = random_molecule(rng, n_atoms=rng.randint(1, 6), decorate=False)
        pattern = random_molecule(rng, n_atoms=rng.randint(1, min(6, len(target.atoms) + 1)), decorate=False)
        expected = brute_force_match(pattern, target)
        assert substructure_match(pattern, target) == expected
        pairs += 1
        positives += expected
    assert positives > 100, "pair generator produced too few positive cases"
    _report(4, f"{pairs} pattern/target pairs agree with brute force ({positives} positive)")


# ------------------------------------------------------------ criterion 5


def _cand(maps, name, priority=1):
    return DisconnectionCandidate(
        s=AtomMapSet.of(maps),
        reaction_name=name,
        reaction_class="",
        in_ontology=True,
        importance=4,
        priority=priority,
        rationale="",
    )


def test_criterion_5_metric_unit_table():
    # identity candidate with the right name
    score, _ = score_position([_cand({2, 4}, "Amide coupling")], AtomMapSet.of({2, 4}), "Amide coupling", "")
    assert score.partial_match and score.exact_match and score.best_jaccard == 1.0
    assert score.reaction_match is True

    # half-overlap candidate
    score, _ = score_position([_cand({1}, "Amide coupling")], AtomMapSet.of({1, 2}), "Amide coupling", "")
    assert score.partial_match and not score.exact_match and score.best_jaccard == 0.5

    # tie-eligibility: only best-Jaccard candidates may claim the name
    score, _ = score_position(
        [_cand({1, 2}, "Wrong reaction"), _cand({1}, "Right reaction")],
        AtomMapSet.of({1, 2}),
        "Right reaction",
        "",
    )
    assert score.best_jaccard == 1.0 and score.reaction_match is False

    # reactant multiset equality is order-insensitive
    preds = [
        TransitionPrediction(
            reactants=("CC(=O)O", "CN"),
            is_valid=True,
            is_template=False,
            reasoning="",
            reaction_name="",
        )
    ]
    gt = [parse_smiles("CN"), parse_smiles("CC(=O)O")]
    assert score_transition(preds, gt).reactant_acc

    # invalid predictions are ineligible for every accuracy
    invalid = [
        TransitionPrediction(
            reactants=("CC(=O)O", "CN"),
            is_valid=False,
            is_template=False,
            reasoning="",
            reaction_name="",
        )
    ]
    score = score_transition(invalid, gt)
    assert not score.reactant_acc and not score.template_acc and not score.combined_acc

    # Jaccard property suite: bounds, identity, brute-force oracle
    rng = random.Random(51)
    for _ in range(1000):
        a = {rng.randrange(14) for _ in range(rng.randrange(9))}
        b = {rng.randrange(14) for _ in range(rng.randrange(9))}
        value = jaccard(a, b)
        expected = 1.0 if not (a | b) else len(a & b) / len(a | b)
        assert value == expected
        assert 0.0 <= value <= 1.0
        assert jaccard(a, a) == 1.0
    _report(5, "worked metric examples exact; Jaccard oracle holds on 1,000 random pairs")


# ------------------------------------------------------------ criterion 6


@pytest.fixture
def no_network(monkeypatch):
    def guard(*args, **kwargs):
        raise AssertionError("network access attempted during replay")

    monkeypatch.setattr(socket.socket, "connect", guard)


def test_criterion_6_golden_replay(tmp_path, no_network):
    started = time.monotonic()
    paths = run_golden_pipeline(tmp_path / "run1")
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"golden pipeline took {elapsed:.1f}s"

    report = json.loads((paths["report_position"] / "report.json").read_text())
    assert report["aggregates"]["partial_match_acc"] == 80.00
    assert report["aggregates"]["exact_match_acc"] == 50.00
    assert report["aggregates"]["mean_best_jaccard"] == 65.00
    assert report["aggregates"]["reaction_acc"] == 62.50
    assert report["aggregates"]["reaction_acc_in_ontology"] == 50.00
    assert report["counts"]["failed_predictions"] == 1
    assert report["counts"]["examples"] == 10
    assert report["counts"]["total_predictions"] == 11
    assert report["counts"]["avg_number_of_predictions"] == 1.22

    report = json.loads((paths["report_transition"] / "report.json").read_text())
    assert report["aggregates"]["reactant_acc"] == 40.00
    assert report["aggregates"]["template_acc"] == 10.00
    assert report["aggregates"]["template_acc_alt"] == 10.00
    assert report["aggregates"]["combined_acc"] == 50.00
    assert report["counts"]["failed_predictions"] == 1

    # bit-exact against the shipped expected reports
    expected_root = golden_fixture_dir() / "expected"
    for arm, produced in (("position", paths["report_position"]), ("transition", paths["report_transition"])):
        for expected_file in sorted((expected_root / arm).iterdir()):
            assert (produced / expected_file.name).read_bytes() == expected_file.read_bytes(), (
                f"{arm}/{expected_file.name} deviates from the pinned golden output"
            )

    # bit-exact across a second independent run
    second = run_golden_pipeline(tmp_path / "run2")
    for key in ("run_position", "run_transition"):
        for name in ("outcomes.jsonl", "manifest.jsonl"):
            assert (paths[key] / name).read_bytes() == (second[key] / name).read_bytes()
    _report(6, f"golden replay bit-exact, hand-computed aggregates hold, {elapsed:.1f}s, no network")


# ------------------------------------------------------------ criterion 7


def _prompt(text: str) -> RenderedPrompt:
    return RenderedPrompt(
        template_name="position",
        parts=(text,),
        example_count=0,
        template_digest="t" * 64,
    )


class _ProbeBackend:
    """Echo backend that records the concurrency high-water mark."""

    def __init__(self):
        self._lock = threading.Lock()
        self._in_flight = 0
        self.max_in_flight = 0
        self.sends = 0

    def send(self, text: str) -> BackendResult:
        with self._lock:
            self._in_flight += 1
            self.sends += 1
            self.max_in_flight = max(self.max_in_flight, self._in_flight)
        time.sleep(0.004)
        with self._lock:
            self._in_flight -= 1
        if "FAIL" in text:
            raise GatewayError(REQUEST_REJECTED, "scripted rejection")
        return BackendResult(text=f"echo({text})")


def test_criterion_7_gateway_contracts(tmp_path):
    cfg = ModelConfig(model_id="probe-model")
    prompts = [_prompt(f"item {i}" if i % 7 else f"item {i} FAIL") for i in range(32)]

    # bounded concurrency, probe-asserted
    probe = _ProbeBackend()
    live = Gateway(cfg, cache_dir=tmp_path / "cache", backend=probe)
    results = live.run_batch(prompts, parallelism=4)
    assert probe.max_in_flight <= 4
    assert probe.max_in_flight >= 2, "parallel batch never overlapped"

    # failure isolation: rejected items fail in place, the rest complete
    for index, result in enumerate(results):
        if index % 7 == 0:
            assert isinstance(result, GatewayFailure) and result.kind == REQUEST_REJECTED
        else:
            assert isinstance(result, Completion)
            assert result.text == f"echo(item {index})"

    # cache determinism: live-then-replay equals replay-then-replay
    replay_one = Gateway(cfg, cache_dir=tmp_path / "cache")
    replay_two = Gateway(cfg, cache_dir=tmp_path / "cache")
    sends_before = probe.sends

    def texts(gateway):
        out = []
        for result in gateway.run_batch(prompts, parallelism=4):
            out.append(result.text if isinstance(result, Completion) else f"<{result.kind}>")
        return out

    first = texts(replay_one)
    second = texts(replay_two)
    assert first == second
    assert probe.sends == sends_before, "replay touched the backend"

    # a live rerun reads every successful item from the cache and only
    # re-sends the items the first pass could not complete
    n_rejected = sum(1 for i in range(32) if i % 7 == 0)
    live_again = texts(live)
    for index, (rerun, replay) in enumerate(zip(live_again, first)):
        if index % 7 == 0:
            assert rerun == f"<{REQUEST_REJECTED}>" and replay == f"<{REPLAY_MISS}>"
        else:
            assert rerun == replay
    assert probe.sends == sends_before + n_rejected, "live rerun re-sent a cached item"
    _report(7, "bounded concurrency, failure isolation, and cache determinism hold")


# ------------------------------------------------------------ criterion 8


USPTO_TRAIN = os.environ.get("RETROANCHOR_USPTO50K_TRAIN")
USPTO_TEST = os.environ.get("RETROANCHOR_USPTO50K_TEST")
PAROUTES_TRAIN = os.environ.get("RETROANCHOR_PAROUTES_TRAIN")


@pytest.mark.skipif(
    not (USPTO_TRAIN and USPTO_TEST),
    reason="criterion 8 skipped: set RETROANCHOR_USPTO50K_TRAIN/_TEST to the released label files",
)
def test_criterion_8_released_label_files():
    train_records, _ = ingest_dataset(USPTO_TRAIN)
    ontology = build_ontology(train_records, "train")
    assert len(ontology) == 136, f"train ontology holds {len(ontology)} names"

    test_records, _ = ingest_dataset(USPTO_TEST)
    test_records = [r for r in test_records if r.split == "test"]
    chosen = subsample_eval_set(test_records, cap=5, unclassified_label="otherReaction", seed=0)
    assert abs(len(chosen) - 541) <= 5, f"subsample size {len(chosen)} outside 541±5"

    detail = f"ontology 136, subsample {len(chosen)}"
    if PAROUTES_TRAIN:
        paroutes_records, _ = ingest_dataset(PAROUTES_TRAIN)
        paroutes = build_ontology(paroutes_records, "train")
        assert len(paroutes) == 335, f"PaRoutes ontology holds {len(paroutes)} names"
        detail += ", PaRoutes 335"
    _report(8, detail)


# ------------------------------------------------------------ criterion 9


SMOKE_ENDPOINT = os.environ.get("RETROANCHOR_SMOKE_ENDPOINT")
SMOKE_MODEL = os.environ.get("RETROANCHOR_SMOKE_MODEL")


@pytest.mark.skipif(
    not (SMOKE_ENDPOINT and SMOKE_MODEL and os.environ.get("RETROANCHOR_API_KEY")),
    reason="criterion 9 skipped: set RETROANCHOR_SMOKE_ENDPOINT, RETROANCHOR_SMOKE_MODEL, "
    "and RETROANCHOR_API_KEY for a live smoke run",
)
def test_criterion_9_live_smoke(tmp_path):
    from retroanchor.cli import main
    from retroanchor.utils import read_jsonl, write_jsonl

    fixture_dir = golden_fixture_dir()
    labeled = tmp_path / "labeled.jsonl"
    ontology = tmp_path / "ontology.json"
    smoke_eval = tmp_path / "smoke.jsonl"
    run_dir = tmp_path / "run"

    assert main(["label", "--input", str(fixture_dir / "eval_raw.jsonl"), "--output", str(labeled)]) == 0
    assert main(
        [
            "ontology",
            "--input", str(fixture_dir / "train.jsonl"),
            "--split", "train",
            "--output", str(ontology),
        ]
    ) == 0
    write_jsonl(smoke_eval, read_jsonl(labeled)[:5])

    assert main(
        [
            "run-position",
            "--input", str(smoke_eval),
            "--ontology", str(ontology),
            "--output", str(run_dir),
            "--model", SMOKE_MODEL,
            "--endpoint", SMOKE_ENDPOINT,
            "--backend", "live",
            "--parallelism", "2",
        ]
    ) == 0
    outcomes = read_jsonl(run_dir / "outcomes.jsonl")
    assert len(outcomes) == 5
    parsed = sum(1 for row in outcomes if row.get("n_predictions", 0) >= 1)
    assert parsed >= 1, "no example produced a parsed candidate set"

    assert main(["evaluate", "--run", str(run_dir), "--input", str(smoke_eval)]) == 0
    report = json.loads((run_dir / "report" / "report.json").read_text())
    assert set(report) >= {"aggregates", "counts", "denominators", "rows"}
    _report(9, f"live smoke over 5 examples, {parsed} parsed candidate sets")
