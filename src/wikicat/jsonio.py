"""JSON files: every artifact wikicat reads or writes goes through here.

Files are UTF-8.  A JSON document has sorted keys, an indent of two and a
final newline; a JSON Lines file holds one compact, key-sorted value a line.
A file that cannot be decoded or parsed raises a ``ConfigurationError``
naming it (and the line), so the CLI exits 2.  Callers check the shape.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable, Iterator

from .exceptions import ConfigurationError

# ValueError covers JSONDecodeError and integers past the digit limit;
# RecursionError comes from values nested too deeply.
_PARSE_ERRORS = (ValueError, RecursionError)

_encode = json.JSONEncoder(sort_keys=True).encode
_NON_FINITE = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}


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
    """Write ``doc`` as an indented, key-sorted JSON document."""
    with open(path, "w", encoding="utf-8") as fh:
        # chunk by chunk: json.dumps would hold every chunk and the whole text
        fh.writelines(json.JSONEncoder(indent=2, sort_keys=True).iterencode(doc))
        fh.write("\n")


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
