"""The program API that ``perfbench/run.py`` calls during set-up:
``ingest_dataset``, ``sample_examples``, ``render_*_prompt``,
``load_template``, ``Ontology.from_json_obj`` and ``seed_cache``, and
the names ``perfbench/tracer.py`` wraps.  The benchmark is frozen, so a
change to one of those shapes fails here instead of in the benchmark.
Only ``setup`` runs; no stage process and no stub is started."""

from __future__ import annotations

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def bench():
    path = sys.path[:]
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)  # puts perfbench/ on sys.path for its own modules
    finally:
        sys.path[:] = path
    return module


def test_tracer_targets_resolve():
    """Every name the traced run wraps exists where ``Tracer.install``
    looks for it, so a deleted or renamed one fails here too.  The
    tracer is not installed: only its target table is read."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for _metric, module_name, attribute, _count_only in tracer.TARGETS:
        module = importlib.import_module(module_name)
        owner_name, _, method = attribute.rpartition(".")
        if owner_name:
            target = vars(getattr(module, owner_name)).get(method)
        else:
            target = getattr(module, attribute, None)
        assert callable(target), f"{module_name}.{attribute}"


def test_live_setup_fills_the_stub_table(bench, tmp_path):
    wl = bench.setup("live", 7, tmp_path / "w")
    table = json.loads((tmp_path / "w" / "table.json").read_text())
    assert len(table) == 2 * len(wl.eval_ids)
    failing = len(wl.failing_position) + len(wl.failing_transition)
    assert sum(answer is None for answer in table.values()) == failing
    assert not (tmp_path / "w" / "cache").exists()


def test_replay_setup_seeds_the_cache(bench, tmp_path):
    wl = bench.setup("drug", 7, tmp_path / "w")
    failing = len(wl.failing_position) + len(wl.failing_transition)
    planted = list((tmp_path / "w" / "cache").glob("*.json"))
    assert len(planted) == 2 * len(wl.eval_ids) - failing
