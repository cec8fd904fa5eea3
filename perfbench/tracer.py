"""Outside-in tracer for the traced benchmark run.

The tracer wraps the program's public functions from outside: each
target is replaced at every module of ``retroanchor`` that binds it, and
methods are replaced on their classes.  A wrapper records a span (id,
parent, name, start, end) on its thread's own stack, because
``Gateway.run_batch`` completes requests on a thread pool; spans that
start on a pool thread are parented to the running ``run_batch`` span.
Spans stay in memory until the run ends; self times are computed from
them afterwards (see ``Tracer.self_times``).

Leaf functions called millions of times get count-only wrappers, so the
tracer does not swamp the stage it measures; their time stays in their
callers' self time.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict

STAGES = (
    "label",
    "ontology",
    "subsample",
    "run_position",
    "run_transition",
    "evaluate_position",
    "evaluate_transition",
)

# (metric prefix, module, attribute; "Class.method" for methods, count only)
TARGETS = (
    ("datasets.ingest_dataset", "retroanchor.datasets", "ingest_dataset", False),
    ("datasets.sample_examples", "retroanchor.datasets", "sample_examples", False),
    ("datasets.build_ontology", "retroanchor.datasets", "build_ontology", False),
    ("datasets.subsample_eval_set", "retroanchor.datasets", "subsample_eval_set", False),
    ("utils.normalize_name", "retroanchor.utils", "normalize_name", True),
    ("utils.read_jsonl", "retroanchor.utils", "read_jsonl", False),
    ("utils.write_jsonl", "retroanchor.utils", "write_jsonl", False),
    ("prompts.render_position_prompt", "retroanchor.prompts", "render_position_prompt", False),
    ("prompts.render_transition_prompt", "retroanchor.prompts", "render_transition_prompt", False),
    ("gateway.request_digest", "retroanchor.gateway", "request_digest", False),
    ("gateway.cache_get", "retroanchor.gateway", "CompletionCache.get", False),
    ("gateway.cache_put", "retroanchor.gateway", "CompletionCache.put", False),
    ("gateway.run_batch", "retroanchor.gateway", "Gateway.run_batch", False),
    ("gateway.backend_send", "retroanchor.gateway", "HttpBackend.send", False),
    ("chem.smiles.parse_smiles", "retroanchor.chem.smiles", "parse_smiles", False),
    ("chem.smiles.write_smiles", "retroanchor.chem.smiles", "write_smiles", False),
    ("chem.canon.canonical_smiles", "retroanchor.chem.canon", "canonical_smiles", False),
    ("chem.match.substructure_match", "retroanchor.chem.match", "substructure_match", False),
    ("labels.extract_structural_label", "retroanchor.labels", "extract_structural_label", False),
    ("outputs.parse_position_output", "retroanchor.outputs", "parse_position_output", False),
    ("outputs.parse_transition_output", "retroanchor.outputs", "parse_transition_output", False),
    ("metrics.score_position", "retroanchor.metrics", "score_position", False),
    ("metrics.score_transition", "retroanchor.metrics", "score_transition", False),
    ("metrics.aggregate", "retroanchor.metrics", "aggregate", False),
    ("metrics.write_report", "retroanchor.metrics", "write_report", False),
)

FAILURE_KINDS = ("replay_miss", "context_length", "retries_exhausted", "request_rejected", "auth_failure")

# Every per-layer metric the traced run reports, in report order.
METRICS = (
    "datasets.ingest_dataset.rows",
    "datasets.ingest_dataset.self_s",
    "datasets.ingest_dataset.reject_ratio",
    "datasets.sample_examples.calls",
    "datasets.sample_examples.self_s",
    "datasets.sample_examples.train_rows_scanned",
    "datasets.build_ontology.self_s",
    "datasets.subsample_eval_set.self_s",
    "utils.normalize_name.calls",
    "utils.read_jsonl.self_s",
    "utils.write_jsonl.self_s",
    "utils.write_jsonl.bytes",
    "prompts.render_position_prompt.calls",
    "prompts.render_position_prompt.self_s",
    "prompts.render_transition_prompt.calls",
    "prompts.render_transition_prompt.self_s",
    "prompts.prompt_bytes.mean",
    "gateway.request_digest.calls",
    "gateway.request_digest.self_s",
    "gateway.request_digest.per_request",
    "gateway.cache_get.calls",
    "gateway.cache_get.self_s",
    "gateway.cache_put.calls",
    "gateway.cache_put.self_s",
    "gateway.cache_put.bytes",
    "gateway.cache.hit_ratio",
    "gateway.run_batch.self_s",
    "gateway.backend_send.calls",
    "gateway.backend_send.wait_s",
    "gateway.backend.utilization",
    *(f"gateway.failures.{kind}" for kind in FAILURE_KINDS),
    "gateway.retries",
    "chem.smiles.parse_smiles.calls",
    "chem.smiles.parse_smiles.self_s",
    "chem.smiles.write_smiles.calls",
    "chem.smiles.write_smiles.self_s",
    "chem.canon.canonical_smiles.calls",
    "chem.canon.canonical_smiles.self_s",
    "chem.canon.canonical_smiles.atoms_mean",
    "chem.match.substructure_match.calls",
    "chem.match.substructure_match.self_s",
    "chem.match.substructure_match.hit_ratio",
    "labels.extract_structural_label.calls",
    "labels.extract_structural_label.self_s",
    "outputs.parse_position_output.calls",
    "outputs.parse_position_output.self_s",
    "outputs.parse_transition_output.calls",
    "outputs.parse_transition_output.self_s",
    "outputs.items.ok_ratio",
    "metrics.score_position.self_s",
    "metrics.score_transition.self_s",
    "metrics.aggregate.self_s",
    "metrics.write_report.self_s",
    *(f"cli.{stage}.self_s" for stage in STAGES),
    *(f"cli.{stage}.overhead_s" for stage in STAGES),
)


class TracerError(RuntimeError):
    """The tracer cannot vouch for its numbers."""


def _observe_ingest(counts, args, kwargs, result, duration):
    records, rejects = result
    counts["datasets.ingest_dataset.rows"] += len(records) + len(rejects)
    counts["datasets.ingest_dataset.rejects"] += len(rejects)


def _observe_sample(counts, args, kwargs, result, duration):
    # Each call scans the whole train list it is given.
    records = args[0] if args else kwargs["records"]
    counts["datasets.sample_examples.train_rows_scanned"] += len(records)


def _observe_write_jsonl(counts, args, kwargs, result, duration):
    counts["utils.write_jsonl.bytes"] += os.path.getsize(args[0] if args else kwargs["path"])


def _observe_render(counts, args, kwargs, result, duration):
    counts["prompts.rendered"] += 1
    counts["prompts.bytes"] += len(result.text.encode("utf-8"))


def _observe_cache_get(counts, args, kwargs, result, duration):
    counts["gateway.cache.hits"] += result is not None


def _observe_cache_put(counts, args, kwargs, result, duration):
    from retroanchor.utils import stable_json_dumps

    entry = args[2] if len(args) > 2 else kwargs["entry"]
    counts["gateway.cache_put.bytes"] += len(stable_json_dumps(entry).encode("utf-8"))


def _observe_run_batch(counts, args, kwargs, result, duration):
    prompts = args[1] if len(args) > 1 else kwargs["prompts"]
    parallelism = args[2] if len(args) > 2 else kwargs["parallelism"]
    counts["gateway.requests"] += len(prompts)
    counts["gateway.capacity_s"] += parallelism * duration
    for item in result:
        kind = getattr(item, "kind", None)
        if kind is not None:
            counts[f"gateway.failures.{kind}"] += 1


def _observe_send_error(counts, exc):
    if type(exc).__name__ == "TransientBackendError":
        counts["gateway.transient_errors"] += 1


def _observe_canonical(counts, args, kwargs, result, duration):
    molecule = args[0] if args else kwargs["molecule"]
    counts["chem.canon.canonical_smiles.atoms"] += len(molecule.atoms)


def _observe_match(counts, args, kwargs, result, duration):
    counts["chem.match.substructure_match.hits"] += bool(result)


def _observe_parse_output(counts, args, kwargs, result, duration):
    counts["outputs.items.ok"] += len(result.ok)
    counts["outputs.items.dropped"] += len(result.dropped)


OBSERVERS = {
    "datasets.ingest_dataset": _observe_ingest,
    "datasets.sample_examples": _observe_sample,
    "utils.write_jsonl": _observe_write_jsonl,
    "prompts.render_position_prompt": _observe_render,
    "prompts.render_transition_prompt": _observe_render,
    "gateway.cache_get": _observe_cache_get,
    "gateway.cache_put": _observe_cache_put,
    "gateway.run_batch": _observe_run_batch,
    "chem.canon.canonical_smiles": _observe_canonical,
    "chem.match.substructure_match": _observe_match,
    "outputs.parse_position_output": _observe_parse_output,
    "outputs.parse_transition_output": _observe_parse_output,
}


class Tracer:
    """Spans and counters for one traced pipeline, kept per thread."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[dict] = []
        self._ids = itertools.count(1)
        self._adopter: int | None = None
        self._patches: list[tuple[object, str, object]] = []
        self._counters: dict[str, itertools.count] = {}
        self._counted: dict[str, int] = {}
        self._roots: set[int] = set()
        self.stage_walls: dict[str, float] = {}

    def _state(self) -> dict:
        state = getattr(self._local, "state", None)
        if state is None:
            state = {"stack": [], "spans": [], "counts": defaultdict(float)}
            self._local.state = state
            with self._lock:
                self._threads.append(state)
        return state

    # ---------------------------------------------------------- wrappers

    def _span_wrapper(self, name: str, fn, adopt: bool):
        tracer = self
        observe = OBSERVERS.get(name)
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = tracer._state()
            stack = state["stack"]
            parent = stack[-1] if stack else tracer._adopter
            span_id = next(tracer._ids)
            stack.append(span_id)
            if adopt:
                outer, tracer._adopter = tracer._adopter, span_id
            start = perf()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if name == "gateway.backend_send":
                    _observe_send_error(state["counts"], exc)
                raise
            finally:
                end = perf()
                if adopt:
                    tracer._adopter = outer
                stack.pop()
                state["spans"].append((span_id, parent, name, start, end))
                state["counts"][name + ".calls"] += 1
                state["counts"][name + ".wall"] += end - start
            if observe is not None:
                observe(state["counts"], args, kwargs, result, end - start)
            return result

        return wrapper

    def _count_wrapper(self, name: str, fn):
        counter = self._counters[name] = itertools.count()

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            next(counter)
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every target at each binding site; a target that no
        longer exists under its name is an error, not a silent zero."""
        for name, module_name, attribute, count_only in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, method = attribute.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                original = getattr(owner, "__dict__", {}).get(method)
                if original is None:
                    raise TracerError(f"trace target {module_name}.{attribute} not found")
                wrapper = self._span_wrapper(name, original, adopt=name == "gateway.run_batch")
                setattr(owner, method, wrapper)
                self._patches.append((owner, method, original))
                continue
            original = getattr(module, attribute, None)
            if original is None:
                raise TracerError(f"trace target {module_name}.{attribute} not found")
            if count_only:
                wrapper = self._count_wrapper(name, original)
            else:
                wrapper = self._span_wrapper(name, original, adopt=False)
            for mod_name, mod in sorted(sys.modules.items()):
                if mod_name != "retroanchor" and not mod_name.startswith("retroanchor."):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, original))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()
        for name, counter in self._counters.items():
            self._counted[name] = next(counter)

    def stage(self, stage: str, call) -> None:
        """Run one stage under a root span ``cli.<stage>``; its wall time,
        taken outside the span's own bookkeeping, goes to ``stage_walls``."""
        outer_start = time.perf_counter()
        state = self._state()
        span_id = next(self._ids)
        self._roots.add(span_id)
        state["stack"].append(span_id)
        self._adopter = span_id
        start = time.perf_counter()
        try:
            call()
        finally:
            end = time.perf_counter()
            state["stack"].pop()
            self._adopter = None
            state["spans"].append((span_id, None, f"cli.{stage}", start, end))
            self.stage_walls[stage] = time.perf_counter() - outer_start

    # ---------------------------------------------------------- results

    def _spans(self) -> list[tuple]:
        return [span for state in self._threads for span in state["spans"]]

    def counts(self) -> dict[str, float]:
        merged: dict[str, float] = defaultdict(float)
        for state in self._threads:
            for key, value in state["counts"].items():
                merged[key] += value
        for name, calls in self._counted.items():
            merged[name + ".calls"] = calls
        return merged

    def self_times(self) -> tuple[dict[tuple[str, str], float], list[str]]:
        """Self time per (stage, span name), and bookkeeping problems.

        A span's self time is its duration minus the union of its
        children's intervals.  Children on pool threads overlap, so the
        covered time is split among overlapping children in proportion to
        their durations.  With that split, the self times of a stage add up
        to its root span's duration by construction; that sum checks
        nothing.  These checks can fail:

        - a span without a parent must be a ``cli.<stage>`` root;
        - a span whose parent was never recorded is a problem;
        - a child must lie inside its parent's interval;
        - on each thread, the unweighted self times (each span's duration
          minus the union of its children on the same thread) must add up
          to the time the thread was busy in the stage, the union of its
          outermost spans there.  A span that names the wrong parent, or
          is recorded twice, breaks this sum."""
        thread_of = {span[0]: k for k, state in enumerate(self._threads) for span in state["spans"]}
        spans = sorted(self._spans(), key=lambda span: span[3])
        by_id = {span[0]: span for span in spans}
        children: dict[int, list[tuple[float, float, int]]] = defaultdict(list)
        problems: list[str] = []
        for span_id, parent, name, start, end in spans:
            if parent is None:
                if span_id not in self._roots:
                    problems.append(f"span {name} has no parent and is not a stage root")
            elif parent not in by_id:
                problems.append(f"span {name} has no recorded parent")
            else:
                children[parent].append((start, end, span_id))
        weight: dict[int, float] = {}
        stage_of: dict[int, str] = {}
        per_name: dict[tuple[str, str], float] = defaultdict(float)
        own: dict[tuple[str, int], float] = defaultdict(float)
        outermost: dict[tuple[str, int], list[tuple[float, float]]] = defaultdict(list)
        for span_id, parent, name, start, end in spans:
            if span_id in self._roots:
                stage_of[span_id], weight[span_id] = name[len("cli."):], 1.0
            elif span_id not in weight:
                continue
            thread = thread_of[span_id]
            key = (stage_of[span_id], thread)
            if parent is None or thread_of[parent] != thread:
                outermost[key].append((start, end))
            kids = sorted(children.get(span_id, ()))
            for child_start, child_end, child_id in kids:
                if child_start < start - 1e-6 or child_end > end + 1e-6:
                    problems.append(f"span {by_id[child_id][2]} lies outside its parent {name}")
            union = _covered([(lo, hi) for lo, hi, _ in kids], start, end)
            same_thread = [(lo, hi) for lo, hi, child_id in kids if thread_of[child_id] == thread]
            own[key] += (end - start) - _covered(same_thread, start, end)
            summed = sum(hi - lo for lo, hi, _ in kids)
            share = union / summed if summed else 1.0
            for _, _, child_id in kids:
                weight[child_id] = weight[span_id] * share
                stage_of[child_id] = stage_of[span_id]
            per_name[stage_of[span_id], name] += weight[span_id] * ((end - start) - union)
        for (stage, thread), intervals in outermost.items():
            busy = _covered(sorted(intervals), float("-inf"), float("inf"))
            if abs(own[stage, thread] - busy) > 1e-6:
                problems.append(
                    f"stage {stage}, thread {thread}: self times add up to {own[stage, thread]:.6f}s, "
                    f"but the thread was busy {busy:.6f}s"
                )
        return per_name, problems

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, name, start, end in sorted(self._spans(), key=lambda s: s[3]):
                handle.write(json.dumps([span_id, parent, name, round(start, 7), round(end, 7)]) + "\n")


def _covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of [start, end] covered by the union of intervals sorted by start."""
    covered, cursor = 0.0, start
    for lo, hi in intervals:
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def top_self_times(tracer: Tracer, count: int = 3) -> dict[str, list[tuple[str, float]]]:
    """The spans with the largest self time in each stage."""
    by_stage, _ = tracer.self_times()
    top: dict[str, list[tuple[str, float]]] = {}
    for stage in STAGES:
        ranked = sorted(
            ((name, value) for (owner, name), value in by_stage.items() if owner == stage),
            key=lambda item: -item[1],
        )
        top[stage] = ranked[:count]
    return top


def layer_metrics(
    tracer: Tracer,
    untraced_walls: dict[str, float],
    uncalled_ok: frozenset[str],
) -> dict[str, float]:
    """The named per-layer metrics of one traced pipeline.

    Raises TracerError when the tracer cannot vouch for them: a wrapped
    function was never called (unless the workload cannot call it), or a
    check of ``Tracer.self_times`` failed.
    """
    counts = tracer.counts()
    by_stage, problems = tracer.self_times()
    self_s: dict[str, float] = defaultdict(float)
    for (_, name), value in by_stage.items():
        self_s[name] += value
    problems += [
        f"wrapped function never called: {name}"
        for name, _, _, _ in TARGETS
        if counts.get(name + ".calls", 0) == 0 and name not in uncalled_ok
    ]
    if problems:
        more = f" (and {len(problems) - 5} more)" if len(problems) > 5 else ""
        raise TracerError("; ".join(problems[:5]) + more)

    values: dict[str, float] = {}
    for metric in METRICS:
        prefix, _, kind = metric.rpartition(".")
        if kind == "calls":
            values[metric] = counts.get(metric, 0)
        elif kind == "self_s":
            values[metric] = self_s.get(prefix, 0.0)
        elif kind == "overhead_s":
            stage = prefix[len("cli."):]
            values[metric] = tracer.stage_walls[stage] - untraced_walls[stage]
        elif metric.startswith("gateway.failures."):
            values[metric] = counts.get(metric, 0)
    rows = counts["datasets.ingest_dataset.rows"]
    requests = counts["gateway.requests"]
    items = counts["outputs.items.ok"] + counts["outputs.items.dropped"]
    values.update(
        {
            "datasets.ingest_dataset.rows": rows,
            "datasets.ingest_dataset.reject_ratio": _ratio(counts["datasets.ingest_dataset.rejects"], rows),
            "datasets.sample_examples.train_rows_scanned": counts["datasets.sample_examples.train_rows_scanned"],
            "utils.write_jsonl.bytes": counts["utils.write_jsonl.bytes"],
            "prompts.prompt_bytes.mean": _ratio(counts["prompts.bytes"], counts["prompts.rendered"]),
            "gateway.request_digest.per_request": _ratio(counts["gateway.request_digest.calls"], requests),
            "gateway.cache_put.bytes": counts["gateway.cache_put.bytes"],
            "gateway.cache.hit_ratio": _ratio(counts["gateway.cache.hits"], counts["gateway.cache_get.calls"]),
            # Summed send durations: time pool workers spent waiting on the backend.
            "gateway.backend_send.wait_s": counts["gateway.backend_send.wall"],
            "gateway.backend.utilization": _ratio(counts["gateway.backend_send.wall"], counts["gateway.capacity_s"]),
            "gateway.retries": counts["gateway.transient_errors"] - counts["gateway.failures.retries_exhausted"],
            "chem.canon.canonical_smiles.atoms_mean": _ratio(
                counts["chem.canon.canonical_smiles.atoms"], counts["chem.canon.canonical_smiles.calls"]
            ),
            "chem.match.substructure_match.hit_ratio": _ratio(
                counts["chem.match.substructure_match.hits"], counts["chem.match.substructure_match.calls"]
            ),
            "outputs.items.ok_ratio": _ratio(counts["outputs.items.ok"], items),
        }
    )
    missing = [metric for metric in METRICS if metric not in values]
    if missing:
        raise TracerError(f"metrics not computed: {', '.join(missing)}")
    return {metric: values[metric] for metric in METRICS}
