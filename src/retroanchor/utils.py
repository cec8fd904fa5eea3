"""Small shared helpers: name normalization, stable JSON, atomic writes."""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any


def normalize_name(name: str) -> str:
    """Lowercase, trim, and collapse internal whitespace.

    This is the single equality key for reaction names: ontology
    membership and predicted-name scoring both go through it.
    """
    return " ".join(name.split()).lower()


def stable_json_dumps(value: Any) -> str:
    """Deterministic JSON text: sorted keys, no trailing whitespace drift."""
    return json.dumps(value, sort_keys=True, ensure_ascii=False, indent=2) + "\n"


def atomic_write_text(path: Path | str, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never observe
    a partially written file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def read_jsonl(path: Path | str) -> list[dict]:
    """Rows of a JSON-lines file; blank lines are skipped.

    A line that is not a JSON object raises ValueError naming the path
    and the 1-based line number.
    """
    rows = []
    with open(path, encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except ValueError as exc:
                raise ValueError(f"{path}:{number}: not JSON: {exc}") from exc
            if not isinstance(row, dict):
                raise ValueError(f"{path}:{number}: not a JSON object")
            rows.append(row)
    return rows


def write_jsonl(path: Path | str, rows: list[dict]) -> None:
    text = "".join(json.dumps(row, sort_keys=True, ensure_ascii=False) + "\n" for row in rows)
    atomic_write_text(path, text)
