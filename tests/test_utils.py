"""Tests for the shared writers and readers."""

from __future__ import annotations

import pytest

from retroanchor import utils
from retroanchor.utils import atomic_write_text, read_jsonl, write_jsonl


class TestAtomicWrite:
    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        target = tmp_path / "out.json"
        target.mkdir()  # the rename onto a directory fails
        with pytest.raises(OSError):
            atomic_write_text(target, "x")
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    def test_failed_cleanup_keeps_the_write_error(self, tmp_path, monkeypatch):
        def replace_then_fail(src, dst):
            utils.os.unlink(src)
            raise PermissionError("rename refused")

        monkeypatch.setattr(utils.os, "replace", replace_then_fail)
        with pytest.raises(PermissionError, match="rename refused"):
            atomic_write_text(tmp_path / "out.json", "x")
        assert list(tmp_path.iterdir()) == []

    def test_lone_surrogate_is_written_as_its_escape(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        rows = [{"a": "x\ud800", "b": "é\U0001f600"}]
        write_jsonl(path, rows)
        assert path.read_bytes() == '{"a": "x\\ud800", "b": "é\U0001f600"}\n'.encode("utf-8")
        assert read_jsonl(path) == rows


class TestReadJsonl:
    def test_blank_lines_skipped_but_counted(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text('{"a": 1}\n\n   \n{"a": 2}\n')
        assert read_jsonl(path) == [{"a": 1}, {"a": 2}]
        path.write_text('{"a": 1}\n\n5\n')
        with pytest.raises(ValueError, match=r"rows.jsonl:3: not a JSON object$"):
            read_jsonl(path)

    def test_a_leading_byte_order_mark_is_skipped(self, tmp_path):
        """Only at the start of the file: a line still counts from 1 after it,
        and a mark on a later line is no JSON."""
        path = tmp_path / "rows.jsonl"
        path.write_bytes(b'\xef\xbb\xbf{"a": 1}\n')
        assert read_jsonl(path) == [{"a": 1}]
        path.write_bytes(b'\xef\xbb\xbf{"a": 1}\n{"a": "\xff"}\n')
        with pytest.raises(ValueError, match=r"rows.jsonl:2: not UTF-8: invalid start byte$"):
            read_jsonl(path)
        path.write_bytes(b'{"a": 1}\n\xef\xbb\xbf{"a": 2}\n')
        with pytest.raises(ValueError, match=r"rows.jsonl:2: not JSON: Unexpected UTF-8 BOM"):
            read_jsonl(path)

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
    def test_a_line_that_is_not_utf8_is_named(self, tmp_path, newline):
        """The decoder fails for a whole read chunk; the message still names
        the line, counted as the JSON errors count it, past the first chunk."""
        path = tmp_path / "rows.jsonl"
        good = b'{"a": "\xc3\xa9"}'
        path.write_bytes(newline.join([good] * 2000 + [b'{"a": "\xff"}', good, b""]))
        with pytest.raises(ValueError, match=r"rows.jsonl:2001: not UTF-8: invalid start byte$"):
            read_jsonl(path)
