"""JSON files: every artifact wikicat reads or writes goes through here.

Files are UTF-8.  A JSON document has sorted keys, an indent of two and a
final newline, in the bytes of ``json.JSONEncoder(indent=2, sort_keys=True)``;
a JSON Lines file holds one compact, key-sorted value a line.
A file that cannot be decoded or parsed raises a ``ConfigurationError``
naming it (and the line), so the CLI exits 2.  Callers check the shape.
"""

from __future__ import annotations

import json
import re
from json.decoder import scanstring
from pathlib import Path
from typing import (
    IO, Any, Callable, Iterable, Iterator, NamedTuple, Sequence, TypeVar,
)

from .exceptions import ConfigurationError

# ValueError covers JSONDecodeError and integers past the digit limit;
# RecursionError comes from values nested too deeply.
_PARSE_ERRORS = (ValueError, RecursionError)

_scan = json.JSONDecoder().scan_once  # json.loads' own value scanner
_space = re.compile(r"[ \t\n\r]*").match  # JSON whitespace, as json.decoder has it
_encode = json.JSONEncoder(sort_keys=True).encode
_NON_FINITE = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}
_ROWS_PER_CHUNK = 2048  # rows of a Rows value formatted per written chunk
_WINDOW = 1 << 17  # characters that read_json_members reads ahead of a member

T = TypeVar("T")


class Rows:
    """A list of equal-length lists of scalars, held as its columns:
    ``write_json`` writes ``Rows(a, b)`` as ``[[a[0], b[0]], [a[1], b[1]], ...]``.

    A column is a sequence of str, int, float, bool or None: a list, or an
    array with ``tolist()``.  It is read, never consumed, so a document can
    be written twice.
    """

    __slots__ = ("columns",)

    def __init__(self, *columns: Sequence) -> None:
        if len(set(map(len, columns))) > 1:
            raise ValueError("Rows columns differ in length")
        self.columns = columns


class JsonType(NamedTuple):
    """A JSON type, by the exact Python types ``json.loads`` gives it.

    Python counts a bool as an int, but a JSON ``true`` is no integer or
    number here.
    """

    name: str
    types: frozenset

    def check(self, values: Sequence, what: str) -> None:
        """Raise a ``ValueError`` naming the first of ``values`` that is not
        of this type."""
        if not self.types.issuperset(map(type, values)):
            bad = next(v for v in values if type(v) not in self.types)
            raise ValueError(f"{what} {bad!r} is not {self.name}")


STRING = JsonType("a string", frozenset({str}))
INTEGER = JsonType("an int", frozenset({int}))
NUMBER = JsonType("a number", frozenset({int, float}))
BOOLEAN = JsonType("true or false", frozenset({bool}))


def read_json(path: str | Path) -> Any:
    """The value of a JSON document."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"{path}: not UTF-8: {exc}") from None
    try:
        return json.loads(text)
    except _PARSE_ERRORS as exc:
        raise ConfigurationError(f"{path}: invalid JSON: {exc}") from None


def read_json_members(
    path: str | Path, convert: Callable[[tuple[str, ...], Any], Any]
) -> Any:
    """The value of a JSON document, as ``read_json`` gives it, except that
    each member of an object, at any depth of objects, whose value is not
    an object becomes ``convert(keys, value)`` as soon as it is decoded;
    ``keys`` is the member's path of keys from the top.

    The objects are walked here and every other value is decoded by
    ``json.loads``' own scanner, over a window of the text: the file is
    decoded as it is read, ``_WINDOW`` characters ahead of the member being
    read, and the text before it is dropped.  So only the window, the
    converted values and the value being decoded are alive at once.  Each
    value is scanned once, but one longer than the window, which is scanned
    again once the window has grown to hold it.  The window is small, as a
    refill holds the old window, its unread part and the new text at once.
    A repeated key keeps its last value, as in ``json.loads``.  A text that
    this walk cannot follow (not UTF-8, a BOM, bad syntax, or a top level
    that is no object) is read by ``read_json`` instead: its value comes
    unconverted, or its error is raised.
    """
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            window = _Window(fh)
            end = window.step(_skip_space, 0)
            if window.text[end] != "{":
                raise ValueError
            doc, end = _members(window, end + 1, (), convert)
            rest = window.text[end:] + fh.read()
            if _space(rest).end() != len(rest):
                raise ValueError
    except (IndexError, StopIteration, *_PARSE_ERRORS):
        return read_json(path)
    return doc


class _Window:
    """The characters of a text file from the walk's last step on."""

    def __init__(self, fh: IO[str]) -> None:
        self.fh = fh
        self.text = ""
        self.at_end = False  # the file is read to its end

    def _read(self, size: int) -> str:
        chunk = self.fh.read(size)
        self.at_end = len(chunk) < size
        return chunk

    def step(self, step: Callable[[str, int], T], end: int) -> T:
        """``step(text, end)``, over a window that holds at least
        ``_WINDOW`` characters past ``end``, or the rest of the file; ``end``
        becomes the window's first character.  A step that fails before
        the file's end may have run into the window's edge, so it is tried
        again over a window four times as long."""
        if len(self.text) - end < _WINDOW and not self.at_end:
            self.text = self.text[end:] + self._read(_WINDOW)
            end = 0
        while True:
            try:
                return step(self.text, end)
            except (IndexError, StopIteration, *_PARSE_ERRORS):
                if self.at_end:
                    raise
                self.text += self._read(3 * max(len(self.text), _WINDOW))


_OBJECT = object()  # a member's value that is an object, walked apart


def _skip_space(text: str, end: int) -> int:
    """The index of the next character that is not whitespace."""
    end = _space(text, end).end()
    if end == len(text):
        raise IndexError  # the text may go on past the window
    return end


def _member(text: str, end: int) -> tuple[str, Any, int, bool]:
    """From the whitespace before a member: its key; its value, or
    ``_OBJECT`` for an object; the index past the ``{`` of the object, or
    past the ``,`` or ``}`` that follows the value; and whether that was
    a ``}``."""
    end = _space(text, end).end()
    if text[end] != '"':
        raise ValueError
    key, end = scanstring(text, end + 1, True)
    end = _space(text, end).end()
    if text[end] != ":":
        raise ValueError
    end = _space(text, end + 1).end()
    if text[end] == "{":
        return key, _OBJECT, end + 1, False
    value, end = _scan(text, end)
    return key, value, *_after(text, end)


def _after(text: str, end: int) -> tuple[int, bool]:
    """The index past the ``,`` or ``}`` that follows a member's value, after
    any whitespace, and whether it is a ``}``."""
    end = _space(text, end).end()
    if text[end] not in ",}":
        raise ValueError
    return end + 1, text[end] == "}"


def _members(
    window: _Window, end: int, keys: tuple[str, ...], convert: Callable
) -> tuple[dict, int]:
    """The object whose ``{`` ends at ``end``, and the index past its ``}``."""
    doc = {}
    end = window.step(_skip_space, end)
    closed = window.text[end] == "}"
    end += closed
    while not closed:
        key, value, end, closed = window.step(_member, end)
        if value is _OBJECT:
            doc[key], end = _members(window, end, (*keys, key), convert)
            end, closed = window.step(_after, end)
        else:
            doc[key] = convert((*keys, key), value)
    return doc, end


def read_jsonl(path: str | Path) -> Iterator[tuple[str, Any]]:
    """Yield ``("path:line", value)`` for each non-blank line of a JSON Lines
    file.

    Each stripped line goes straight to the C scanner, which must consume
    all of it.  Anything else (a BOM, extra data, a bad value) falls back to
    ``json.loads``, whose error is the one reported.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                where = f"{path}:{lineno}"
                try:
                    value, end = _scan(line, 0)
                    if end != len(line):
                        raise ValueError
                except (StopIteration, *_PARSE_ERRORS):
                    try:
                        value = json.loads(line)
                    except _PARSE_ERRORS as exc:
                        raise ConfigurationError(
                            f"{where}: invalid JSON: {exc}"
                        ) from None
                yield where, value
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"{path}: not UTF-8: {exc}") from None


def int_column(values: list[int]) -> Any:
    """JSON ints as an int64 array, or as an object array where one is
    beyond int64.  numpy is imported here, not with this module, so that
    the CLI starts without it."""
    import numpy as np

    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def write_json(doc: Any, path: str | Path) -> None:
    """Write ``doc`` as an indented, key-sorted JSON document.

    The bytes are those of ``json.JSONEncoder(indent=2, sort_keys=True)``
    on ``doc`` with every ``Rows`` expanded to its list of rows, and so are
    the ``TypeError``s for keys and values it cannot encode.
    """
    with open(path, "w", encoding="utf-8") as fh:
        # chunk by chunk, never the whole text
        fh.writelines(_chunks(doc, "\n"))
        fh.write("\n")


def _chunks(value: Any, newline: str) -> Iterator[str]:
    """The text of ``value``, whose closing bracket follows ``newline``."""
    if isinstance(value, (list, tuple)):
        if not value:
            yield "[]"
            return
        inner = newline + "  "
        head = "[" + inner
        for item in value:
            yield head
            yield from _chunks(item, inner)
            head = "," + inner
        yield newline + "]"
    elif isinstance(value, dict):
        if not value:
            yield "{}"
            return
        inner = newline + "  "
        head = "{" + inner
        for key, item in sorted(value.items()):
            yield head + _key_text(key) + ": "
            yield from _chunks(item, inner)
            head = "," + inner
        yield newline + "}"
    elif isinstance(value, Rows):
        yield from _row_chunks(value.columns, newline)
    else:
        yield json_text(value)


def _key_text(key: Any) -> str:
    """A dict key as the encoder writes it: a str, or the quoted text of an
    int, float, bool or None."""
    if not (key is None or isinstance(key, (str, int, float))):
        raise TypeError(
            f"keys must be str, int, float, bool or None, not {key.__class__.__name__}"
        )
    return json_text(key if isinstance(key, str) else json_text(key))


def _row_chunks(columns: tuple[Sequence, ...], newline: str) -> Iterator[str]:
    """The text of ``Rows(*columns)``, ``_ROWS_PER_CHUNK`` rows at a time:
    each chunk is one ``%`` template filled with the columns' texts."""
    n_rows = len(columns[0]) if columns else 0
    if not n_rows:
        yield "[]"
        return
    width = len(columns)
    outer, inner = newline + "  ", newline + "    "
    row = "[" + inner + ("," + inner).join(["%s"] * width) + outer + "]"
    head, sep = "[" + outer, "," + outer
    for lo in range(0, n_rows, _ROWS_PER_CHUNK):
        cells: list = [None] * (width * min(_ROWS_PER_CHUNK, n_rows - lo))
        for j, col in enumerate(columns):
            cells[j::width] = _texts(col[lo : lo + _ROWS_PER_CHUNK])
        yield head + sep.join([row] * (len(cells) // width)) % tuple(cells)
        head = sep
    yield newline + "]"


def _texts(values: Sequence) -> list[str]:
    """Each scalar of a column as the encoder writes it."""
    if hasattr(values, "tolist"):
        values = values.tolist()
    kinds = set(map(type, values))
    if kinds <= {float}:
        return float_texts(values)
    if kinds <= {int}:
        return list(map(int.__repr__, values))
    for kind in kinds:
        if issubclass(kind, (list, tuple, dict, Rows)):
            raise TypeError(f"Rows holds scalars, not {kind.__name__}")
    return list(map(json_text, values))


def write_jsonl(rows: Iterable[Any], path: str | Path) -> None:
    """Write each row as one compact, key-sorted JSON line."""
    write_lines((_encode(row) + "\n" for row in rows), path)


def write_lines(lines: Iterable[str], path: str | Path) -> None:
    """Write JSON Lines that are already encoded, each ending in a newline.

    A caller that formats its own lines must give the bytes ``write_jsonl``
    would, as ``json_text`` and ``float_texts`` do for single values.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


def json_text(value: Any) -> str:
    """``value`` as ``write_jsonl`` writes it inside a line."""
    return _encode(value)


def float_texts(values: Iterable[float]) -> list[str]:
    """Each float as ``write_jsonl`` writes it: its repr, or ``Infinity``,
    ``-Infinity`` or ``NaN``."""
    get = _NON_FINITE.get
    return [get(text, text) for text in map(float.__repr__, values)]
