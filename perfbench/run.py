"""Pipeline benchmark for retroanchor.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 20 --trace 0

The benchmark generates a seeded workload (see ``gen.py``), seeds the
completion cache or the live stub's answer table with the program's own
prompt renderer, then runs the seven CLI stages the way users run them,
each in its own ``python -m retroanchor.cli`` process, for ``--seconds``
seconds.  It reports each stage's median wall time over the pipelines
run (see ``summarize``), and checks every pipeline's outputs against the
generator's oracle.  With ``--trace 1`` it instead runs the stages
in-process, once untraced and once under the outside-in tracer of
``tracer.py``, and reports per-layer metrics.

Every invocation also replays the frozen golden fixtures and compares
the reports with ``tests/fixtures/golden/expected``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "fixtures" / "golden"
WORK = ROOT / ".perfbench_work"

sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import oracle  # noqa: E402
import tracer as tracing  # noqa: E402

MODEL = "bench-model"
SETUP_REPEATS = 3
MIN_PIPELINES = 3
STAGE_SAMPLE_S = 1.0
STUB_DELAY_MS = 20.0
# The stub answers after STUB_DELAY_MS; a client p50 above this slack
# means the transport adds its own stall (a Nagle/delayed-ACK stall adds
# about 40 ms).  Client and stub work add 3 ms on a quiet machine and up
# to 10 ms when it is slow.
LATENCY_SLACK_MS = 15.0
LIVE_PARALLELISM = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    **{f"{stage}_s": "s" for stage in tracing.STAGES},
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
    "failed_share": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def _log(message: str) -> None:
    print(message, flush=True)


# ---------------------------------------------------------------- setup


def _write_jsonl(path: Path, rows: list[dict]) -> None:
    path.write_text("".join(json.dumps(row, sort_keys=True) + "\n" for row in rows), encoding="utf-8")


def render_prompts(record, ontology, train_records, maps: list[int]):
    """The position and transition prompts the run stages render for one
    evaluation row, made with the program's own functions and defaults
    (five examples, seed 0, the full transition template)."""
    from retroanchor.chem import AtomMapSet
    from retroanchor.datasets import sample_examples
    from retroanchor.prompts import load_template, render_position_prompt, render_transition_prompt

    library = sample_examples(train_records, record.reaction_name, record.record_id, 5, 0)
    return (
        render_position_prompt(record.product, ontology, load_template("position")),
        render_transition_prompt(
            record.product, AtomMapSet.of(maps), record.reaction_name, library, "full",
            load_template("transition"),
        ),
    )


def setup(name: str, seed: int, dest: Path):
    """Generate the workload's inputs and seed its answers: the
    completion cache for replay, or the stub's answer table for live.

    Prompts are rendered by the program's own ``render_*_prompt`` and
    ``sample_examples``, and planted with its ``seed_cache``, so the
    digests are the ones the run stages will ask for."""
    from retroanchor.datasets import Ontology, ingest_dataset
    from retroanchor.gateway import ModelConfig, seed_cache

    wl = gen.generate(name, seed)
    dest.mkdir(parents=True)
    raw, train = dest / "raw.jsonl", dest / "train.jsonl"
    _write_jsonl(raw, wl.raw_rows)
    _write_jsonl(train, wl.train_rows)

    records, _ = ingest_dataset(raw)
    train_records, _ = ingest_dataset(train)
    ontology = Ontology.from_json_obj(wl.ontology, "train")
    cfg = ModelConfig(model_id=MODEL)
    table: dict[str, str | None] = {}
    prompt_bytes = 0
    for record in records:
        rid = record.record_id
        prompts = render_prompts(record, ontology, train_records, wl.labels[rid])
        answers = (
            (wl.position_answers[rid], rid in wl.failing_position),
            (wl.transition_answers[rid], rid in wl.failing_transition),
        )
        for prompt, (answer, failing) in zip(prompts, answers):
            prompt_bytes += len(prompt.text.encode("utf-8"))
            key = hashlib.sha256(prompt.text.encode("utf-8")).hexdigest()
            if key in table:
                raise BenchError(f"workload {name} renders one prompt twice (row {rid})")
            table[key] = None if failing else answer
            if not (wl.spec.live or failing):
                seed_cache(dest / "cache", prompt, cfg, answer)
    if wl.spec.live:
        (dest / "table.json").write_text(json.dumps(table), encoding="utf-8")
    else:
        (dest / "cache").mkdir(exist_ok=True)
    wl.properties["mean_prompt_bytes"] = round(prompt_bytes / len(table), 1)
    wl.properties["ontology_bytes"] = len(json.dumps(wl.ontology, indent=2).encode("utf-8"))
    return wl


# ---------------------------------------------------------------- stages


def stage_argvs(
    wl, inputs: Path, out: Path, cache: Path, endpoint: str | None, runs: Path | None = None
) -> list[tuple[str, list[str]]]:
    """The seven stages' arguments; run directories go under ``runs``
    (default ``out``)."""
    runs = runs or out
    model = ["--model", MODEL, "--cache-dir", str(cache)]
    if endpoint:
        model += ["--backend", "live", "--endpoint", endpoint, "--parallelism", str(LIVE_PARALLELISM)]
    else:
        model += ["--backend", "replay"]
    train = str(inputs / "train.jsonl")
    labeled, ontology, chosen = str(out / "labeled.jsonl"), str(out / "ontology.json"), str(out / "eval.jsonl")
    return [
        ("label", ["label", "--input", str(inputs / "raw.jsonl"), "--output", labeled]),
        ("ontology", ["ontology", "--input", train, "--split", "train", "--output", ontology]),
        # The cap keeps every row, so the oracle knows the subsample.
        ("subsample", ["subsample", "--input", labeled, "--split", "test",
                       "--cap", str(len(wl.eval_ids)), "--seed", "0", "--output", chosen]),
        ("run_position", ["run-position", "--input", chosen, "--ontology", ontology,
                          "--output", str(runs / "position"), *model]),
        ("run_transition", ["run-transition", "--input", chosen, "--train", train,
                            "--output", str(runs / "transition"), *model]),
        ("evaluate_position", ["evaluate", "--run", str(runs / "position"), "--input", chosen]),
        ("evaluate_transition", ["evaluate", "--run", str(runs / "transition"), "--input", chosen]),
    ]


def _child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC))


def run_stage_process(argv: list[str], log: Path) -> tuple[float, float, int]:
    """Run one stage as its own process: (wall s, max RSS MB, exit code)."""
    with open(log, "wb") as handle:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "retroanchor.cli", *argv],
            cwd=ROOT, env=_child_env(), stdout=handle, stderr=subprocess.STDOUT,
        )
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def run_stage_inprocess(argv: list[str]) -> int:
    from retroanchor.cli import main

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:
            return int(exc.code or 0)


# ---------------------------------------------------------------- stub


class Stub:
    """The loopback chat-completions stub, in its own process."""

    def __init__(self, table: Path):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "stub.py"), "--table", str(table), "--delay-ms", str(STUB_DELAY_MS)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        line = self.proc.stdout.readline().strip()
        if not line.isdigit():
            self.stop()
            raise BenchError("stub did not report its port")
        self.base = f"http://127.0.0.1:{line}"
        self.endpoint = self.base + "/v1/chat/completions"

    def count(self) -> int:
        opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))
        with opener.open(self.base + "/count", timeout=10) as response:
            return json.load(response)["requests"]

    def stop(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


# ---------------------------------------------------------------- golden


def golden_gate(dest: Path) -> list[str]:
    """Run the frozen golden pipeline of the test suite once and compare
    its reports byte for byte with the pinned expected files.  The
    fixtures are only read."""
    sys.path.insert(0, str(ROOT / "tests"))
    import helpers

    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            paths = helpers.run_golden_pipeline(dest)
    except AssertionError:
        return ["a golden pipeline stage failed"]
    problems = []
    for arm in ("position", "transition"):
        for expected in sorted((GOLDEN / "expected" / arm).iterdir()):
            produced = paths[f"report_{arm}"] / expected.name
            if not produced.exists() or produced.read_bytes() != expected.read_bytes():
                problems.append(f"golden {arm}/{expected.name} deviates from the pinned output")
    return problems


# ---------------------------------------------------------------- digests


def tree_digest() -> str:
    """Identity of the code under test and of the benchmark."""
    digest = hashlib.sha256()
    for base in (SRC, HERE):
        for path in sorted(base.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def record_hashes(key: str, hashes: dict[str, str]) -> list[str]:
    """All runs of one commit, workload and seed must write identical
    outcomes and reports; the first run's hashes are kept to compare."""
    path = WORK / "digests.json"
    known = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    if key in known:
        if known[key] != hashes:
            return [f"outputs differ from an earlier run of this code and seed: {key}"]
        return []
    known[key] = hashes
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True), encoding="utf-8")
    os.replace(tmp, path)
    return []


# ---------------------------------------------------------------- runs


def timed_run(wl, inputs: Path, work: Path, seconds: float, stub: Stub | None):
    """Run whole pipelines, each stage in its own process, until
    ``seconds`` have passed (at least MIN_PIPELINES).

    Before the deadline, the stages that have run less than
    STAGE_SAMPLE_S in this pipeline run again, in pipeline order, so short
    stages get more samples and a stage's samples are spread over the
    pipeline rather than taken back to back.  A live run stage sends its
    requests once per pipeline."""
    failure_kind = "context_length" if stub else "replay_miss"
    samples: dict[str, list[float]] = {f"{stage}_s": [] for stage in tracing.STAGES}
    samples.update(peak_rss_mb=[], failed_share=[])
    problems: list[str] = []
    hashes: list[dict[str, str]] = []
    attempted = failed = pipelines = 0
    deadline = time.perf_counter() + seconds
    out = None
    while pipelines < MIN_PIPELINES or time.perf_counter() < deadline:
        if out is not None:
            shutil.rmtree(out)
        out = work / f"pipeline{pipelines}"
        out.mkdir(parents=True)
        pipelines += 1
        cache = out / "cache" if stub else inputs / "cache"
        sent_before = stub.count() if stub else 0
        peak = 0.0
        stages = stage_argvs(wl, inputs, out, cache, stub.endpoint if stub else None)
        spent = dict.fromkeys(tracing.STAGES, 0.0)
        todo = stages
        while todo:
            for stage, argv in todo:
                wall, rss, code = run_stage_process(argv, out / f"{stage}.log")
                attempted += 1
                samples[f"{stage}_s"].append(wall)
                spent[stage] += wall
                peak = max(peak, rss)
                if code != 0:
                    failed += 1
                    problems.append(f"stage {stage} exited {code}: see {out / (stage + '.log')}")
            if failed or time.perf_counter() >= deadline:
                break
            todo = [
                (stage, argv) for stage, argv in stages
                if spent[stage] < STAGE_SAMPLE_S and not (stub and stage.startswith("run_"))
            ]
        samples["peak_rss_mb"].append(peak)
        found, share = oracle.check_pipeline(wl, out, failure_kind)
        problems += found
        samples["failed_share"].append(float(share))
        if found:
            break
        hashes.append(oracle.output_hashes(out))
        if stub:
            sent = stub.count() - sent_before
            oracle.expect(problems, "stub requests", sent, 2 * len(wl.eval_ids))
            p50 = oracle.latency_p50_ms(out)
            _log(f"live client p50 latency {p50:.0f} ms (stub delay {STUB_DELAY_MS:.0f} ms)")
            if p50 > STUB_DELAY_MS + LATENCY_SLACK_MS:
                problems.append(f"live p50 latency {p50} ms exceeds the stub delay {STUB_DELAY_MS} ms")
    if any(h != hashes[0] for h in hashes):
        problems.append("pipelines over the same inputs wrote different outputs")
    if stub and not problems:
        problems += replay_live(wl, inputs, out, stub)
    return samples, problems, (hashes[0] if hashes else {}), attempted, failed


def replay_live(wl, inputs: Path, out: Path, stub: Stub) -> list[str]:
    """Rerun both run stages in replay mode on the cache a live pipeline
    wrote; the stub must not see another request."""
    replay = out / "replay"
    before = stub.count()
    problems = []
    for stage, argv in stage_argvs(wl, inputs, out, out / "cache", None, runs=replay):
        if stage not in ("run_position", "run_transition"):
            continue
        _, _, code = run_stage_process(argv, out / f"replay_{stage}.log")
        if code != 0:
            problems.append(f"replay of {stage} exited {code}")
    if not problems:
        problems += oracle.check_replay(out, replay)
    oracle.expect(problems, "stub requests during replay", stub.count() - before, 0)
    return problems


def traced_run(wl, inputs: Path, work: Path, stub: Stub | None):
    """In-process pipelines: untraced, traced, untraced.  The first pass
    warms the process up (its stages run markedly slower); the tracing
    overhead is the traced pass minus the last untraced pass."""
    failure_kind = "context_length" if stub else "replay_miss"
    problems: list[str] = []
    attempted = failed = 0
    untraced: dict[str, list[float]] = {stage: [] for stage in tracing.STAGES}
    tracer = tracing.Tracer()
    hashes = []
    for name in ("untraced0", "traced", "untraced1"):
        traced = name == "traced"
        out = work / name
        out.mkdir(parents=True)
        cache = out / "cache" if stub else inputs / "cache"
        if traced:
            tracer.install()
        try:
            for stage, argv in stage_argvs(wl, inputs, out, cache, stub.endpoint if stub else None):
                gc.collect()  # garbage of earlier stages is not this stage's cost
                codes = []
                if traced:
                    tracer.stage(stage, lambda: codes.append(run_stage_inprocess(argv)))
                else:
                    start = time.perf_counter()
                    codes.append(run_stage_inprocess(argv))
                    untraced[stage].append(time.perf_counter() - start)
                attempted += 1
                if codes[0] != 0:
                    failed += 1
                    problems.append(f"in-process stage {stage} ({name}) returned {codes[0]}")
        finally:
            if traced:
                tracer.uninstall()
        if failed:
            raise BenchError("; ".join(problems))
        found, _ = oracle.check_pipeline(wl, out, failure_kind)
        problems += found
        if not found:
            hashes.append(oracle.output_hashes(out))
    if any(h != hashes[0] for h in hashes):
        problems.append("traced and untraced pipelines wrote different outputs")
    walls = {stage: values[-1] for stage, values in untraced.items()}
    # Replay never sends a request nor writes the cache.
    uncalled_ok = frozenset() if stub else frozenset({"gateway.backend_send", "gateway.cache_put"})
    metrics = tracing.layer_metrics(tracer, walls, uncalled_ok)
    tracer.write_spans(WORK / f"spans-{wl.name}.jsonl")
    for stage, top in tracing.top_self_times(tracer).items():
        ranked = ", ".join(f"{name} {value:.3f}s" for name, value in top)
        _log(f"stage {stage}: untraced {walls[stage]:.3f}s traced {tracer.stage_walls[stage]:.3f}s; top self: {ranked}")
    return metrics, problems, (hashes[0] if hashes else {}), attempted, failed


def summarize(samples: dict[str, list[float]], setup_times: list[float]) -> dict[str, float]:
    """End-to-end values of one run.

    A stage's time is the median of its samples.  On a shared 2-vCPU
    machine the speed swings between fast and slow states within a
    second, so the fastest sample depends on whether a fast window fell
    on that stage.  Over ten seeds per workload, the spread of the median
    across runs was at most 0.23 of its median, against up to 0.33 for
    the fastest sample.  ``pipeline_s`` is the sum of
    those stage times.  Set-up time is the median of the set-ups."""
    values = {f"{stage}_s": statistics.median(samples[f"{stage}_s"]) for stage in tracing.STAGES}
    values["pipeline_s"] = sum(values.values())
    values["setup_s"] = statistics.median(setup_times)
    values["peak_rss_mb"] = statistics.median(samples["peak_rss_mb"])
    values["failed_share"] = statistics.median(samples["failed_share"])
    return values


def _unit(metric: str) -> str:
    kind = metric.rsplit(".", 1)[1]
    if kind.endswith("_s"):
        return "s"
    if kind == "bytes" or metric == "prompts.prompt_bytes.mean":
        return "bytes"
    if kind.endswith("ratio") or kind == "utilization":
        return "ratio"
    if kind == "atoms_mean":
        return "atoms"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="retroanchor pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(gen.SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "retroanchor" / "cli.py").is_file() or not GOLDEN.is_dir():
        print("error: run from the root of a retroanchor checkout (src/ and tests/ needed)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Stages run in this process (traced run) and in children; both use
    # the shipped templates, the stub's key and no proxy for the stub.
    os.environ.pop("RETROANCHOR_TEMPLATE_DIR", None)
    os.environ["RETROANCHOR_API_KEY"] = "perfbench-key"
    os.environ["NO_PROXY"] = os.environ["no_proxy"] = "127.0.0.1"
    import retroanchor.cli  # noqa: F401  (imports every layer before anything is timed)

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    stub = None
    try:
        problems = golden_gate(work / "golden")
        setup_times = []
        for k in range(SETUP_REPEATS):
            start = time.perf_counter()
            wl = setup(args.workload, args.seed, work / f"setup{k}")
            setup_times.append(time.perf_counter() - start)
            if k:
                shutil.rmtree(work / f"setup{k - 1}")
        inputs = work / f"setup{SETUP_REPEATS - 1}"
        _log(f"workload {args.workload} seed {args.seed} inputs {wl.digest()[:16]}")
        _log("properties " + json.dumps(wl.properties, sort_keys=True))
        if wl.spec.live:
            stub = Stub(inputs / "table.json")
        if args.trace:
            values, found, hashes, attempted, failed = traced_run(wl, inputs, work, stub)
            metrics = {name: {"value": value, "unit": _unit(name)} for name, value in values.items()}
        else:
            samples, found, hashes, attempted, failed = timed_run(wl, inputs, work, args.seconds, stub)
            for name, values in samples.items():
                _log(f"{name}: " + " ".join(f"{value:.5g}" for value in values))
            _log("setup_s: " + " ".join(f"{value:.3f}" for value in setup_times))
            values = summarize(samples, setup_times)
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
        problems += found
        if hashes:
            _log("outputs " + " ".join(f"{k}={v[:12]}" for k, v in hashes.items()))
            problems += record_hashes(f"{tree_digest()}:{args.workload}:{args.seed}", hashes)
    except (BenchError, tracing.TracerError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if stub:
            stub.stop()
    if problems:
        for problem in problems:
            print(f"check failed: {problem}", file=sys.stderr)
    else:
        shutil.rmtree(work)
    _log(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
