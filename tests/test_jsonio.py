"""The JSON file layer: its byte format, its errors, and that it is the only one."""

from __future__ import annotations

import ast
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import wikicat
from wikicat.exceptions import ConfigurationError
from wikicat.jsonio import read_json, read_jsonl, write_json, write_jsonl

# Parsing or encoding a file.  json.dumps stays allowed as the argument of
# print, for one-line stdout summaries.
_FILE_CODEC = {"load", "loads", "dump", "dumps", "JSONEncoder", "JSONDecoder"}


def _file_codec_uses(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    aliases = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "json"
    }
    printed = {  # the functions called in print(f(...))
        id(arg.func)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "print"
        for arg in node.args
        if isinstance(arg, ast.Call)
    }
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "json":
            uses += [
                f"{path.name}:{node.lineno}: from json import {alias.name}"
                for alias in node.names
                if alias.name in _FILE_CODEC
            ]
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
            and node.attr in _FILE_CODEC
            and id(node) not in printed
        ):
            uses.append(f"{path.name}:{node.lineno}: json.{node.attr}")
    return uses


def test_only_jsonio_parses_or_encodes_json_files():
    package = Path(wikicat.__file__).parent
    uses = {path.name: _file_codec_uses(path) for path in package.glob("*.py")}
    assert uses.pop("jsonio.py")  # the check sees the codec where it is
    assert [use for found in uses.values() for use in found] == []


def test_write_json_is_indented_sorted_and_ends_in_a_newline(tmp_path):
    path = tmp_path / "doc.json"
    write_json({"b": 1, "a": [1, "é"]}, path)
    assert path.read_bytes() == (
        b'{\n  "a": [\n    1,\n    "\\u00e9"\n  ],\n  "b": 1\n}\n'
    )
    assert read_json(path) == {"a": [1, "é"], "b": 1}


def test_jsonl_round_trip_names_each_line(tmp_path):
    path = tmp_path / "rows.jsonl"
    write_jsonl([{"z": 1, "a": None}, [2.5]], path)
    assert path.read_bytes() == b'{"a": null, "z": 1}\n[2.5]\n'
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("  \n\"last\"\n")
    assert list(read_jsonl(path)) == [
        (f"{path}:1", {"a": None, "z": 1}),
        (f"{path}:2", [2.5]),
        (f"{path}:4", "last"),
    ]


@pytest.mark.parametrize(
    "data, message",
    [
        (b'{"a": "\xff"}\n', "not UTF-8"),
        (b'{"a": 1\n', "invalid JSON"),
        (b"[" * 100_000, "invalid JSON"),  # nested past the recursion limit
        (b"1" * 5_000, "invalid JSON"),  # past the integer digit limit
    ],
)
def test_bad_files_raise_configuration_errors_naming_them(tmp_path, data, message):
    doc, lines = tmp_path / "doc.json", tmp_path / "rows.jsonl"
    doc.write_bytes(data)
    lines.write_bytes(b"{}\n" + data)
    with pytest.raises(ConfigurationError, match=f"^{re.escape(str(doc))}: {message}"):
        read_json(doc)
    where = lines if message == "not UTF-8" else f"{lines}:2"
    with pytest.raises(ConfigurationError, match=f"^{re.escape(str(where))}: {message}"):
        list(read_jsonl(lines))


def _per_line_loads(path: Path) -> tuple[list, str | None]:
    """What read_jsonl gave when it ran ``json.loads`` on every stripped line:
    the values before the first bad line, then that line's error."""
    values = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}:{lineno}"
            try:
                values.append((where, json.loads(line)))
            except (ValueError, RecursionError) as exc:
                return values, f"{where}: invalid JSON: {exc}"
    return values, None


def _scanned(path: Path) -> tuple[list, str | None]:
    values = []
    try:
        for item in read_jsonl(path):
            values.append(item)
    except ConfigurationError as exc:
        return values, str(exc)
    return values, None


def _same_reads(path: Path) -> None:
    # repr compares NaN with NaN and keeps lone surrogates apart
    got, want = _scanned(path), _per_line_loads(path)
    assert repr(got) == repr(want)


_DEEP = 100_000  # past the recursion limit for the scanner and json.loads alike


@pytest.mark.parametrize("line", [
    pytest.param('\ufeff{"a": 1}', id="bom"),
    pytest.param('{"a": 1} {"b": 2}', id="extra-object"),
    pytest.param("1 2", id="extra-number"),
    pytest.param("[1]]", id="extra-bracket"),
    pytest.param("NaN", id="nan"),
    pytest.param("[Infinity, -Infinity, NaN]", id="infinities"),
    pytest.param("1" * 5_000, id="digits"),
    pytest.param('{"n": ' + "9" * 4_301 + "}", id="digits-nested"),
    pytest.param("[" * _DEEP, id="deep-open"),
    pytest.param("[" * _DEEP + "]" * _DEEP, id="deep-closed"),
    pytest.param('{"a": ' * _DEEP + "1" + "}" * _DEEP, id="deep-objects"),
    pytest.param('\x0b{"a": 1}\x0b', id="vt-padding"),
    pytest.param("\x85[1]\x85", id="nel-padding"),
    pytest.param('\u2028"x"\u2028', id="ls-padding"),
    pytest.param("\xa0 1 \xa0", id="nbsp-padding"),
    pytest.param("[1,\xa02]", id="nbsp-inside"),
    pytest.param("1\x0b2", id="vt-inside"),
    pytest.param('"\\ud800"', id="lone-high-surrogate"),
    pytest.param('["\\udc00\\ud800", "\\ud83d\\ude00"]', id="surrogates"),
    pytest.param("   ", id="blank"),
    pytest.param("", id="empty"),
    pytest.param("tru", id="cut-literal"),
    pytest.param('{"a":}', id="missing-value"),
    pytest.param('"open', id="open-string"),
    pytest.param('"tab\tinside"', id="control-in-string"),
])
def test_scanner_reads_like_per_line_loads(tmp_path, line):
    path = tmp_path / "rows.jsonl"
    path.write_text('{"first": 1}\n' + line + '\n[2]\n', encoding="utf-8")
    _same_reads(path)


_FRAGMENTS = [
    "{", "}", "[", "]", ":", ",", " ", '"a"', '"é"', '"\\ud800"', '"\\\\"',
    "1", "-0", "1.5e3", "1e400", "NaN", "Infinity", "-Infinity", "true", "null",
    "\x0b", "\xa0", "\u2028", "\x85", "\ufeff", "\t", '"', "x",
]


@seed(20210212)
@settings(max_examples=300, deadline=None, database=None)
@given(st.lists(st.lists(st.sampled_from(_FRAGMENTS), max_size=8), max_size=5))
def test_scanner_reads_drawn_lines_like_per_line_loads(lines):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "rows.jsonl"
        path.write_text("".join("".join(line) + "\n" for line in lines), encoding="utf-8")
        _same_reads(path)
