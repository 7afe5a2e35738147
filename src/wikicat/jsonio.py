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
    file."""
    loads = json.loads
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                where = f"{path}:{lineno}"
                try:
                    value = loads(line)
                except _PARSE_ERRORS as exc:
                    raise ConfigurationError(f"{where}: invalid JSON: {exc}") from None
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
    encode = json.JSONEncoder(sort_keys=True).encode
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(encode(row) + "\n" for row in rows)
