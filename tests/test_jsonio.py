"""The JSON file layer: its byte format, its errors, and that it is the only one."""

from __future__ import annotations

import ast
import json
import math
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import wikicat
import wikicat.jsonio as jsonio
from wikicat.exceptions import ConfigurationError
from wikicat.jsonio import (
    Rows, read_json, read_json_members, read_jsonl, write_json, write_jsonl,
)

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


# ------------------------------------------------------ read_json_members


def _tag(keys, value):
    return ("converted", keys, value)


def _tagged(value, keys=()):
    """``value`` with each value inside its objects that is not an object
    itself replaced as ``read_json_members`` replaces it with ``_tag``."""
    if not isinstance(value, dict):
        return value
    return {
        key: _tagged(item, (*keys, key)) if isinstance(item, dict)
        else _tag((*keys, key), item)
        for key, item in value.items()
    }


def _read_outcome(read, path: Path) -> str:
    # repr compares NaN with NaN, -0.0 with 0.0 apart, and keys in order
    try:
        return repr(read(path))
    except ConfigurationError as exc:
        return f"ConfigurationError: {exc}"


def _same_members(path: Path) -> None:
    got = _read_outcome(lambda p: read_json_members(p, _tag), path)
    want = _read_outcome(lambda p: _tagged(read_json(p)), path)
    assert got == want


def test_members_are_converted_by_their_key_paths(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(
        '{"a": 1, "b": {"c": [1, {"d": 2}], "e": {}, "f": {"g": null}}, "a": 3}',
        encoding="utf-8",
    )
    assert read_json_members(path, _tag) == {
        "a": _tag(("a",), 3),
        "b": {"c": _tag(("b", "c"), [1, {"d": 2}]), "e": {},
              "f": {"g": _tag(("b", "f", "g"), None)}},
    }


@pytest.mark.parametrize("text", [
    pytest.param('{"a": 1}', id="object"),
    pytest.param(' \t\r\n{ "a" :\n[1] , "b":{ } }\n ', id="spaced"),
    pytest.param('{"a": 1, "a": {"b": 2}}', id="repeated-key"),
    pytest.param('{"a": {"b": 1}, "a": 2}', id="repeated-object-key"),
    pytest.param('{"\\u00e9\\"": NaN, "x": -Infinity, "y": -0.0}', id="escapes"),
    pytest.param('{"a": 1', id="cut"),
    pytest.param('{"a": 1,}', id="trailing-comma"),
    pytest.param('{"a" 1}', id="no-colon"),
    pytest.param("{'a': 1}", id="single-quotes"),
    pytest.param('{"a": 1} x', id="extra-data"),
    pytest.param('\ufeff{"a": 1}', id="bom"),
    pytest.param('\x0b{"a": 1}', id="vt-padding"),
    pytest.param('{"a":\xa01}', id="nbsp-inside"),
    pytest.param('{"a\tb": 1}', id="control-in-key"),
    pytest.param('{"\\x": 1}', id="bad-escape-in-key"),
    pytest.param('{"a": 1' + "0" * 5000 + "}", id="long-integer"),
    pytest.param('{"a": ' * _DEEP + "1" + "}" * _DEEP, id="deep-objects"),
    pytest.param('{"a": ' + "[" * _DEEP + "]" * _DEEP + "}", id="deep-lists"),
    pytest.param("[1]", id="top-level-list"),
    pytest.param('"a"', id="top-level-string"),
    pytest.param("", id="empty"),
    pytest.param("  ", id="blank"),
])
def test_members_read_like_read_json(tmp_path, text):
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    _same_members(path)


def test_members_of_a_file_that_is_not_utf8_raise_like_read_json(tmp_path):
    path = tmp_path / "doc.json"
    path.write_bytes(b'{"a": "\xff"}')
    _same_members(path)


_json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), _ints, _floats, _strs),
    lambda children: st.one_of(
        st.lists(children, max_size=3), st.dictionaries(_strs, children, max_size=3)
    ),
    max_leaves=10,
)


@seed(20261020)
@settings(max_examples=300, deadline=None, database=None)
@given(
    st.dictionaries(_strs, _json_values, max_size=4),
    st.sampled_from([None, 0, 2, "\t", " \r\n"]),
    st.sampled_from([(",", ":"), (", ", ": "), (" ,\n", " : ")]),
    st.booleans(),
)
def test_members_read_drawn_documents_like_read_json(doc, indent, separators, ascii):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "doc.json"
        text = json.dumps(doc, indent=indent, separators=separators, ensure_ascii=ascii)
        path.write_text(text, encoding="utf-8", errors="surrogatepass")
        _same_members(path)


@seed(20261021)
@settings(max_examples=300, deadline=None, database=None)
@given(st.lists(st.sampled_from([*_FRAGMENTS, '"k": ', '{"k": ']), max_size=12))
def test_members_read_drawn_texts_like_read_json(fragments):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "doc.json"
        path.write_text("{" + "".join(fragments), encoding="utf-8")
        _same_members(path)


# Windows of a few characters, so that drawn documents cross their edges.
_SMALL_WINDOWS = st.sampled_from([1, 2, 3, 5, 8])


def _window(size: int):
    return mock.patch.object(jsonio, "_WINDOW", size)


@seed(20261024)
@settings(max_examples=300, deadline=None, database=None)
@given(
    st.dictionaries(_strs, _json_values, max_size=4),
    st.sampled_from([None, 0, 2, "\t", " \r\n"]),
    st.booleans(),
    _SMALL_WINDOWS,
)
def test_members_read_through_a_small_window_like_read_json(doc, indent, ascii, window):
    with tempfile.TemporaryDirectory() as d, _window(window):
        path = Path(d) / "doc.json"
        text = json.dumps(doc, indent=indent, ensure_ascii=ascii)
        path.write_text(text, encoding="utf-8", errors="surrogatepass")
        _same_members(path)


@seed(20261025)
@settings(max_examples=300, deadline=None, database=None)
@given(
    st.lists(st.sampled_from([*_FRAGMENTS, '"k": ', '{"k": ']), max_size=12),
    _SMALL_WINDOWS,
)
def test_members_read_drawn_texts_through_a_small_window_like_read_json(
    fragments, window
):
    with tempfile.TemporaryDirectory() as d, _window(window):
        path = Path(d) / "doc.json"
        path.write_text("{" + "".join(fragments), encoding="utf-8")
        _same_members(path)


@pytest.mark.parametrize("text", [
    pytest.param('{"a": 1, ' + '"b": [2, 3], ' * 50 + '"c": x}', id="bad-value"),
    pytest.param('{"a": 1, ' + '"b": {"c": 2}, ' * 50 + '"d" 4}', id="no-colon"),
    pytest.param('{"a": 1, ' + '"b": "cc", ' * 50 + '"d": 4,}', id="trailing-comma"),
    pytest.param('{"a": 1, ' + '"b": 2, ' * 50 + '"d": 4} x', id="extra-data"),
    pytest.param('{"a": 1, ' + '"b": 2, ' * 50 + '"d": "\\q"}', id="bad-escape"),
    pytest.param('{"a": 1, ' + '"b": 2, ' * 50 + '"d": 4', id="cut"),
])
@pytest.mark.parametrize("window", [4, 16])
def test_a_fault_past_the_first_window_raises_like_read_json(
    tmp_path, monkeypatch, text, window
):
    monkeypatch.setattr(jsonio, "_WINDOW", window)
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    _same_members(path)
    assert _read_outcome(read_json, path).startswith("ConfigurationError: ")


def test_only_a_value_longer_than_the_window_is_scanned_again(tmp_path, monkeypatch):
    """Each value shorter than the window is scanned once; the long list,
    which crosses the window's edge, once more after the window grows."""
    monkeypatch.setattr(jsonio, "_WINDOW", 64)
    scanned = []

    def scan(text, end):
        scanned.append(text[end])
        return scan_once(text, end)

    scan_once = jsonio._scan
    monkeypatch.setattr(jsonio, "_scan", scan)
    doc = {f"k{i:02d}": i for i in range(40)}
    doc["long"] = list(range(200))
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True), encoding="utf-8")
    _same_members(path)
    scanned.clear()
    read_json_members(path, _tag)
    assert scanned.count("[") > 1 and len(scanned) - scanned.count("[") == 40


@pytest.mark.parametrize("window", range(1, 9))
def test_numbers_split_between_reads_read_like_read_json(tmp_path, window):
    """A number cut by the window's edge ("0." of "0.5", "2e" of "2e10")
    may scan as a shorter number; the member is read again once the
    window holds what follows it."""
    path = tmp_path / "doc.json"
    for pad in range(8):
        path.write_text(
            "{" + " " * pad + '"a": 0.5, "b": -1.25e-3, "c": 10, "d": [1.5, 2e10],'
            ' "e": {"f": 3.0E+2, "g": -0}, "h": 123456789}',
            encoding="utf-8",
        )
        with _window(window):
            _same_members(path)


@pytest.mark.parametrize("window", range(1, 9))
def test_characters_split_between_reads_read_like_read_json(tmp_path, window):
    """Multi-byte characters straddle the file's 8 KiB reads, and ``\\r\\n``
    pairs and those characters the window's reads."""
    wide = "é中\U0001f600\U00010348"
    head = '{"a": "' + " " * (8191 - len('{"a": "'))  # "é" sits at bytes 8191-8192
    text = head + wide + '",\r\n' + "".join(
        f'"{wide[:i]}{i}":\r\n"{wide[i:]}",\r\n' for i in range(len(wide))
    ) + '"z": "\U0001f600"\r\n}\r\n'
    data = text.encode("utf-8")
    assert data[:8192].decode("utf-8", "replace").endswith("\ufffd")
    path = tmp_path / "doc.json"
    path.write_bytes(data)
    with _window(window):
        _same_members(path)
        assert read_json_members(path, lambda keys, value: value) == read_json(path)
