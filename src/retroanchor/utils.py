"""Small shared helpers: name normalization, stable JSON, atomic writes."""

from __future__ import annotations

import json
import os
import re
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
    a partially written file.  A lone surrogate, which ``json.loads`` makes
    of a ``\\ud800`` escape, is written as that escape."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", errors="backslashreplace", newline="") as handle:
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

    A line that is not UTF-8 or not a JSON object raises ValueError
    naming the path and the 1-based line number.
    """
    rows = []
    with open(path, encoding="utf-8") as handle:
        try:
            for number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    row = json.loads(line)
                except (ValueError, RecursionError) as exc:
                    raise ValueError(f"{path}:{number}: not JSON: {exc}") from exc
                if not isinstance(row, dict):
                    raise ValueError(f"{path}:{number}: not a JSON object")
                rows.append(row)
        except UnicodeDecodeError as exc:  # raised for a whole read chunk, so find the line
            handle.seek(0)
            handle.reconfigure(errors="surrogateescape")  # a byte that is not UTF-8 reads as U+DC80-U+DCFF
            number = next(n for n, line in enumerate(handle, start=1) if re.search("[\udc80-\udcff]", line))
            raise ValueError(f"{path}:{number}: not UTF-8: {exc.reason}") from exc
    return rows


def write_jsonl(path: Path | str, rows: list[dict]) -> None:
    text = "".join(json.dumps(row, sort_keys=True, ensure_ascii=False) + "\n" for row in rows)
    atomic_write_text(path, text)
