"""Checks of one pipeline's outputs against the generator's oracle.

Every check compares a file the pipeline wrote with an expectation the
generator knows by construction: labels, rejects, the ontology, the
evaluation subsample, the outcome rows and failure kinds, and the
scoring numerators.  A check returns a list of problems; an empty list
means the outputs are correct.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

HASHED = (
    "position/outcomes.jsonl",
    "transition/outcomes.jsonl",
    "position/report/report.json",
    "transition/report/report.json",
)


def read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def percent(hits: int, total: int) -> float:
    return round(100.0 * hits / total, 2) if total else 0.0


def output_hashes(out: Path) -> dict[str, str]:
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in HASHED}


def expect(problems: list[str], what: str, got, want) -> None:
    if got != want:
        shown_got, shown_want = str(got), str(want)
        if len(shown_got) > 160:
            shown_got = shown_got[:160] + "..."
        if len(shown_want) > 160:
            shown_want = shown_want[:160] + "..."
        problems.append(f"{what}: got {shown_got}, expected {shown_want}")


def check_pipeline(wl, out: Path, failure_kind: str) -> tuple[list[str], Fraction]:
    """Problems found in one pipeline's outputs, and the observed share
    of gateway-failure rows among the requests sent."""
    problems: list[str] = []
    try:
        labeled = read_jsonl(out / "labeled.jsonl")
        expect(problems, "labeled ids", [r["id"] for r in labeled], wl.eval_ids)
        expect(problems, "labels", {r["id"]: r["label_maps"] for r in labeled}, wl.labels)
        expect(problems, "label kinds", {r["label_kind"] for r in labeled}, {"connectivity"})
        rejects = read_jsonl(out / "labeled.rejects.jsonl")
        expect(problems, "rejected ids", sorted(r["id"] for r in rejects), wl.reject_ids)

        ontology = json.loads((out / "ontology.json").read_text(encoding="utf-8"))
        expect(problems, "ontology", ontology, {"source_split": "train", "entries": wl.ontology})
        chosen = read_jsonl(out / "eval.jsonl")
        expect(problems, "subsample ids", [r["id"] for r in chosen], wl.eval_ids)

        failed = sent = 0
        for arm in ("position", "transition"):
            expected = wl.expected[arm]
            outcomes = read_jsonl(out / arm / "outcomes.jsonl")
            manifest = read_jsonl(out / arm / "manifest.jsonl")
            failures = [r for r in outcomes if r["status"] == "gateway_failure"]
            expect(problems, f"{arm} outcome ids", [r["id"] for r in outcomes], wl.eval_ids)
            expect(problems, f"{arm} ok rows", sum(r["status"] == "ok" for r in outcomes), expected["ok_rows"])
            expect(problems, f"{arm} failure rows", sorted(r["id"] for r in failures), expected["failure_rows"])
            expect(problems, f"{arm} failure kinds", {r["failure_kind"] for r in failures}, {failure_kind})
            expect(problems, f"{arm} manifest rows", len(manifest), len(wl.eval_ids))
            failed += len(failures)
            sent += len(manifest)

            report = json.loads((out / arm / "report" / "report.json").read_text(encoding="utf-8"))
            n = len(wl.eval_ids)
            expect(problems, f"{arm} examples", report["counts"]["examples"], n)
            expect(
                problems, f"{arm} failed_predictions",
                report["counts"]["failed_predictions"], expected["failed_predictions"],
            )
            metrics = ("exact_match",) if arm == "position" else ("reactant_acc", "template_acc", "template_acc_alt")
            for metric in metrics:
                hits = sorted(row["id"] for row in report["rows"] if row[metric])
                expect(problems, f"{arm} {metric} ids", hits, expected[metric])
                key = metric + "_acc" if arm == "position" else metric
                expect(problems, f"{arm} {key}", report["aggregates"][key], percent(len(expected[metric]), n))
    except (OSError, KeyError, ValueError, TypeError) as exc:
        problems.append(f"unreadable pipeline output: {type(exc).__name__}: {exc}")
        return problems, Fraction(0)
    share = Fraction(failed, sent) if sent else Fraction(0)
    expect(problems, "failed share", share, wl.designed_failed_share())
    return problems, share


def check_replay(live: Path, replay: Path) -> list[str]:
    """A replay of a live run must reproduce its outcome rows.

    Rows the stub answered are byte-identical.  Rows it refused were
    never cached, so their replay is a ``replay_miss`` for the same
    request digest.
    """
    problems: list[str] = []
    for arm in ("position", "transition"):
        live_lines = (live / arm / "outcomes.jsonl").read_text(encoding="utf-8").splitlines()
        replay_lines = (replay / arm / "outcomes.jsonl").read_text(encoding="utf-8").splitlines()
        if len(live_lines) != len(replay_lines):
            problems.append(f"{arm} replay has {len(replay_lines)} rows, live has {len(live_lines)}")
            continue
        for live_line, replay_line in zip(live_lines, replay_lines):
            live_row, replay_row = json.loads(live_line), json.loads(replay_line)
            if live_row["status"] == "gateway_failure":
                same = (
                    replay_row["status"] == "gateway_failure"
                    and replay_row["failure_kind"] == "replay_miss"
                    and replay_row["digest"] == live_row["digest"]
                )
            else:
                same = live_line == replay_line
            if not same:
                problems.append(f"{arm} replay of {live_row['id']} differs from the live row")
                break
    return problems


def latency_p50_ms(out: Path) -> float:
    latencies = sorted(
        row["latency_ms"]
        for arm in ("position", "transition")
        for row in read_jsonl(out / arm / "manifest.jsonl")
        if row["outcome"] == "ok"
    )
    return float(latencies[len(latencies) // 2]) if latencies else float("inf")
