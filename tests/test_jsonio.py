"""The JSON file layer: its byte format, its errors, and that it is the only one."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

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
