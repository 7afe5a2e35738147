"""Reference TSV loader for ``graph_store.load_graph``: the line parser.

It reads each file in text mode one line at a time, parses ids with
``int()`` and names the first bad line as ``file:line``.  It builds the
adjacency from a set of (parent, child) pairs, apart from ``load_graph``'s
sort of edge keys.  The differential
tests require ``load_graph`` to give the same graph and snapshot bytes, or
the same error text.  The one allowed difference is where a file that is
not UTF-8 fails: text mode finds a bad byte when its decoder reads the 8 KB
chunk holding it, after the lines before that chunk were checked.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator

import numpy as np

from wikicat.exceptions import GraphFormatError
from wikicat.graph_store import MEMBER, SUBCAT, CategoryGraph

_INT64 = np.iinfo(np.int64)


def load_graph_lines(
    categories: str | Path,
    pages: str | Path,
    edges: str | Path,
    redirects: str | Path | None = None,
    *,
    strict: bool = True,
) -> CategoryGraph:
    cat_external, cat_names = _load_id_name(Path(categories), "category", True)
    page_external, page_titles = _load_id_name(Path(pages), "page", False)
    edge_set, dropped_edges = _load_edges(
        Path(edges), cat_external, page_external, strict
    )
    indptr, indices = _csr(edge_set, len(cat_names) + len(page_titles))
    aliases: dict[str, int] = {}
    dropped_aliases = 0
    if redirects is not None:
        aliases, dropped_aliases = _load_redirects(
            Path(redirects), cat_external, strict
        )
    return CategoryGraph(
        len(cat_names),
        np.concatenate((cat_external, page_external)),
        cat_names + page_titles,
        indptr,
        indices,
        aliases,
        dropped_edges,
        dropped_aliases,
    )


def _csr(edges: set[tuple[int, int]], n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Forward CSR of the (parent, child) node pairs."""
    children: list[list[int]] = [[] for _ in range(n_nodes)]
    for parent, child in sorted(edges):
        children[parent].append(child)
    indptr = np.cumsum([0] + [len(row) for row in children], dtype=np.int64)
    return indptr, np.array([c for row in children for c in row], dtype=np.int32)


def _iter_tsv(path: Path, n_fields: int) -> Iterator[tuple[int, list[str]]]:
    try:
        with path.open("r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                parts = raw.rstrip("\r\n").split("\t")
                if len(parts) != n_fields:
                    raise GraphFormatError(
                        f"{path}:{lineno}: expected {n_fields} tab-separated "
                        f"fields, got {len(parts)}"
                    )
                yield lineno, parts
    except UnicodeDecodeError as exc:
        raise GraphFormatError(f"{path}: not UTF-8: {exc}") from None


def _parse_int(path: Path, lineno: int, text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise GraphFormatError(
            f"{path}:{lineno}: {what} is not an integer: {text!r}"
        ) from None


def _load_id_name(
    path: Path, what: str, unique_names: bool
) -> tuple[np.ndarray, list[str]]:
    externals: list[int] = []
    names: list[str] = []
    seen_ids: set[int] = set()
    seen_names: set[str] = set()
    for lineno, (raw_id, name) in _iter_tsv(path, 2):
        ext = _parse_int(path, lineno, raw_id, f"{what} id")
        if not _INT64.min <= ext <= _INT64.max:
            raise GraphFormatError(
                f"{path}:{lineno}: {what} id out of range: {raw_id!r}"
            )
        if not name:
            raise GraphFormatError(f"{path}:{lineno}: empty {what} name")
        if ext in seen_ids:
            raise GraphFormatError(f"{path}:{lineno}: duplicate {what} id {ext}")
        seen_ids.add(ext)
        if unique_names:
            if name in seen_names:
                raise GraphFormatError(
                    f"{path}:{lineno}: duplicate {what} name {name!r}"
                )
            seen_names.add(name)
        externals.append(ext)
        names.append(name)
    return np.asarray(externals, dtype=np.int64), names


def _load_edges(
    path: Path, cat_external: np.ndarray, page_external: np.ndarray, strict: bool
) -> tuple[set[tuple[int, int]], int]:
    n_cats = len(cat_external)
    cat_by_ext = {int(e): i for i, e in enumerate(cat_external)}
    page_by_ext = {int(e): n_cats + i for i, e in enumerate(page_external)}
    edges: set[tuple[int, int]] = set()
    dropped = 0
    for lineno, (raw_p, raw_c, kind) in _iter_tsv(path, 3):
        p_ext = _parse_int(path, lineno, raw_p, "parent id")
        c_ext = _parse_int(path, lineno, raw_c, "child id")
        if kind not in (SUBCAT, MEMBER):
            raise GraphFormatError(f"{path}:{lineno}: unknown edge kind {kind!r}")
        parent = cat_by_ext.get(p_ext)
        if parent is None:
            if strict:
                raise GraphFormatError(
                    f"{path}:{lineno}: parent {p_ext} is not a known category"
                )
            dropped += 1
            continue
        table = cat_by_ext if kind == SUBCAT else page_by_ext
        child = table.get(c_ext)
        if child is None:
            if strict:
                other = "page" if kind == SUBCAT else "category"
                hint = ""
                other_table = page_by_ext if kind == SUBCAT else cat_by_ext
                if c_ext in other_table:
                    hint = f" (it exists as a {other}; wrong kind?)"
                raise GraphFormatError(
                    f"{path}:{lineno}: {kind} child {c_ext} not found{hint}"
                )
            dropped += 1
            continue
        edges.add((parent, child))
    return edges, dropped


def _load_redirects(
    path: Path, cat_external: np.ndarray, strict: bool
) -> tuple[dict[str, int], int]:
    cat_by_ext = {e: i for i, e in enumerate(cat_external.tolist())}
    aliases: dict[str, int] = {}
    dropped = 0
    for lineno, (alias, raw_id) in _iter_tsv(path, 2):
        if not alias:
            raise GraphFormatError(f"{path}:{lineno}: empty alias name")
        c_ext = _parse_int(path, lineno, raw_id, "category id")
        node = cat_by_ext.get(c_ext)
        if node is None:
            if strict:
                raise GraphFormatError(
                    f"{path}:{lineno}: alias {alias!r} points to "
                    f"unknown category {c_ext}"
                )
            dropped += 1
            continue
        prev = aliases.get(alias)
        if prev is not None and prev != node:
            if strict:
                raise GraphFormatError(
                    f"{path}:{lineno}: alias {alias!r} maps to more "
                    f"than one category"
                )
            dropped += 1
            continue
        aliases[alias] = node
    return aliases, dropped
