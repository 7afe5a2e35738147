"""The JSON file layer: its byte format, its errors, and that it is the only one."""

from __future__ import annotations

import ast
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import wikicat
import wikicat.jsonio as jsonio
from wikicat.exceptions import ConfigurationError
from wikicat.jsonio import Rows, read_json, read_jsonl, write_json, write_jsonl

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


def _expanded(value):
    """``value`` with every ``Rows`` written out as its list of row lists."""
    if isinstance(value, Rows):
        columns = [
            col.tolist() if isinstance(col, np.ndarray) else col for col in value.columns
        ]
        return [list(row) for row in zip(*columns)]
    if isinstance(value, dict):
        return {key: _expanded(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(map(_expanded, value))
    return value


def _encoder_text(doc) -> str:
    """What ``json.JSONEncoder(indent=2, sort_keys=True)`` writes, or its error."""
    try:
        return json.JSONEncoder(indent=2, sort_keys=True).encode(_expanded(doc)) + "\n"
    except TypeError as exc:
        return f"TypeError: {exc}"


def _written_text(doc, path: Path) -> str:
    try:
        write_json(doc, path)
    except TypeError as exc:
        return f"TypeError: {exc}"
    return path.read_bytes().decode("utf-8")


_INT64 = [-(2**63), 2**63 - 1, -(2**63) - 1, 2**63, 2**64, -(10**30)]
_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308,
           math.inf, -math.inf, math.nan, 0.1]
_CHARS = ['"', "\\", "/", "\x00", "\x1f", "\x7f", "\n", "\t", "\ud800",
          "\udfff", "é", "\u2028", "\U0001f600", "a"]

_ints = st.one_of(st.integers(), st.sampled_from(_INT64))
_floats = st.one_of(st.floats(), st.sampled_from(_FLOATS))
_strs = st.text(st.one_of(st.sampled_from(_CHARS), st.characters()), max_size=6)
_scalars = st.one_of(st.none(), st.booleans(), _ints, _floats, _strs)


@st.composite
def _rows(draw):
    """Rows of 0 to 3 columns, each all ints, all floats, all strs, mixed
    scalars, or an int64 or float64 array."""
    n_rows = draw(st.integers(0, 4))
    columns = []
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["int", "float", "str", "mixed", "i8", "f8"]))
        cells = {"int": _ints, "float": _floats, "str": _strs, "mixed": _scalars,
                 "i8": st.integers(-(2**63), 2**63 - 1), "f8": _floats}[kind]
        column = draw(st.lists(cells, min_size=n_rows, max_size=n_rows))
        if kind in ("i8", "f8"):
            column = np.array(column, dtype=np.int64 if kind == "i8" else np.float64)
        columns.append(column)
    return Rows(*columns)


# Keys of one kind per dict, or int, float and bool together, which sort;
# str with int does not sort, and both writers must raise the same error.
_KEY_KINDS = [
    _strs,
    st.one_of(_ints, _floats, st.booleans()),
    st.none(),
    st.one_of(_strs, st.integers()),
]


def _dicts(children):
    return st.sampled_from(_KEY_KINDS).flatmap(
        lambda keys: st.dictionaries(keys, children, max_size=4)
    )


_documents = st.recursive(
    st.one_of(_scalars, _rows()),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        _dicts(children),
    ),
    max_leaves=12,
)


@seed(20261018)
@settings(max_examples=400, deadline=None, database=None)
@given(_documents)
def test_write_json_writes_the_indented_encoders_bytes(doc):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "doc.json"
        want = _encoder_text(doc)
        assert _written_text(doc, path) == want
        assert _written_text(doc, path) == want  # Rows are not used up


@pytest.mark.parametrize("chunk", [1, 2, 3, 2048])
def test_rows_chunks_join_without_seams(tmp_path, monkeypatch, chunk):
    monkeypatch.setattr(jsonio, "_ROWS_PER_CHUNK", chunk)
    rng = np.random.default_rng(5)
    ix = np.flatnonzero(rng.random(50) < 0.7)
    doc = {
        "weights": Rows(ix, rng.standard_normal(len(ix))),
        "terms": Rows(["a", 'q"', "é"] * 7, list(range(21)), [0.5] * 21),
        "one": Rows([1.5]),
        "mixed": Rows([1, True, 0, False], [None, 2.5, "x", 2**64]),
    }
    assert _written_text(doc, tmp_path / "doc.json") == _encoder_text(doc)


@pytest.mark.parametrize("doc", [
    pytest.param({(1, 2): 0}, id="tuple-key"),
    pytest.param({"a": [1, {b"x": 0}]}, id="bytes-key"),
    pytest.param({"a": {1, 2}}, id="set-value"),
    pytest.param([1, object()], id="object-value"),
    pytest.param({1: 0, "a": 1}, id="unsortable-keys"),
    pytest.param({"a": Rows([1], [np.int64(2)])}, id="numpy-int-in-rows"),
])
def test_write_json_raises_the_encoders_type_error(tmp_path, doc):
    want = _encoder_text(doc)
    assert want.startswith("TypeError: ")
    assert _written_text(doc, tmp_path / "doc.json") == want


def test_rows_hold_equal_length_columns_of_scalars(tmp_path):
    with pytest.raises(ValueError, match="differ in length"):
        Rows([1, 2], [1.0])
    with pytest.raises(TypeError, match="Rows holds scalars, not list"):
        write_json(Rows([1, [2]]), tmp_path / "doc.json")


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
