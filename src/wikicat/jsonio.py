"""JSON files: every artifact wikicat reads or writes goes through here.

Files are UTF-8.  A JSON document has sorted keys, an indent of two and a
final newline, in the bytes of ``json.JSONEncoder(indent=2, sort_keys=True)``;
a JSON Lines file holds one compact, key-sorted value a line.
A file that cannot be decoded or parsed raises a ``ConfigurationError``
naming it (and the line), so the CLI exits 2.  Callers check the shape.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable, Iterator, NamedTuple, Sequence

from .exceptions import ConfigurationError

# ValueError covers JSONDecodeError and integers past the digit limit;
# RecursionError comes from values nested too deeply.
_PARSE_ERRORS = (ValueError, RecursionError)

_encode = json.JSONEncoder(sort_keys=True).encode
_NON_FINITE = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}
_ROWS_PER_CHUNK = 2048  # rows of a Rows value formatted per written chunk


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


def read_jsonl(path: str | Path) -> Iterator[tuple[str, Any]]:
    """Yield ``("path:line", value)`` for each non-blank line of a JSON Lines
    file.

    Each stripped line goes straight to the C scanner, which must consume
    all of it.  Anything else (a BOM, extra data, a bad value) falls back to
    ``json.loads``, whose error is the one reported.
    """
    scan = json.JSONDecoder().scan_once
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                where = f"{path}:{lineno}"
                try:
                    value, end = scan(line, 0)
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
