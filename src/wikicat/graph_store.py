"""Category graph storage: TSV loading, validation, and a binary snapshot.

File formats (tab separated, UTF-8, one record per line):

* ``categories.tsv``: ``id<TAB>name``
* ``pages.tsv``: ``id<TAB>title``
* ``edges.tsv``: ``parent_id<TAB>child_id<TAB>kind`` with kind ``subcat``
  (category to category) or ``member`` (category to page)
* ``redirects.tsv`` (optional): ``alias_name<TAB>category_id``

Category and page id namespaces are independent; the edge kind says which
table a child id refers to.  Internally categories get dense node ids
``0..C-1`` in file order and pages ``C..C+P-1``, so a node id alone tells
the node type.  Adjacency is CSR over numpy arrays with child lists sorted
ascending, which places subcategory children ahead of member pages.
"""

from __future__ import annotations

import logging
import struct
from pathlib import Path
from typing import Iterator

import numpy as np

from .exceptions import ConfigurationError, GraphFormatError

logger = logging.getLogger(__name__)

SUBCAT = "subcat"
MEMBER = "member"

_MAGIC = b"WCG1"
_VERSION = 1


class CategoryGraph:
    """In-memory category graph with dense node ids and CSR adjacency."""

    def __init__(
        self,
        cat_external: np.ndarray,
        cat_names: list[str],
        page_external: np.ndarray,
        page_titles: list[str],
        indptr: np.ndarray,
        indices: np.ndarray,
        aliases: dict[str, int],
        dropped_edges: int = 0,
        dropped_aliases: int = 0,
    ) -> None:
        self.n_categories = len(cat_names)
        self.n_pages = len(page_titles)
        self.cat_external = cat_external
        self.cat_names = cat_names
        self.page_external = page_external
        self.page_titles = page_titles
        self.indptr = indptr
        self.indices = indices
        self.aliases = aliases
        self.dropped_edges = dropped_edges
        self.dropped_aliases = dropped_aliases

        self.cat_by_external = {int(e): i for i, e in enumerate(cat_external)}
        self.page_by_external = {
            int(e): self.n_categories + i for i, e in enumerate(page_external)
        }
        self.cat_by_name = {name: i for i, name in enumerate(cat_names)}

        # Reverse adjacency is always derived from the forward CSR, never
        # stored, so TSV and snapshot loads go through identical code.
        child_ids = indices.astype(np.int64)
        parent_ids = np.repeat(
            np.arange(self.n_nodes, dtype=np.int64), np.diff(indptr)
        )
        order = np.lexsort((parent_ids, child_ids))
        self.rindices = parent_ids[order].astype(np.int32)
        counts = np.bincount(child_ids, minlength=self.n_nodes)
        self.rindptr = np.zeros(self.n_nodes + 1, dtype=np.int64)
        np.cumsum(counts, out=self.rindptr[1:])

    @property
    def n_nodes(self) -> int:
        return self.n_categories + self.n_pages

    def is_page(self, node: int) -> bool:
        self._check_node(node)
        return node >= self.n_categories

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.n_nodes:
            raise ConfigurationError(f"node id out of range: {node}")

    def children(self, node: int) -> np.ndarray:
        """Sorted child nodes of a category; pages have no children."""
        self._check_node(node)
        if node >= self.n_categories:
            raise ConfigurationError(
                f"children() called on page node {node}; pages are leaves"
            )
        return self.indices[self.indptr[node] : self.indptr[node + 1]]

    def parents(self, node: int) -> np.ndarray:
        """Sorted parent categories of any node."""
        self._check_node(node)
        return self.rindices[self.rindptr[node] : self.rindptr[node + 1]]

    def category_node(self, external_id: int) -> int:
        try:
            return self.cat_by_external[external_id]
        except KeyError:
            raise ConfigurationError(f"unknown category id: {external_id}") from None

    def page_node(self, external_id: int) -> int:
        try:
            return self.page_by_external[external_id]
        except KeyError:
            raise ConfigurationError(f"unknown page id: {external_id}") from None

    def node_name(self, node: int) -> str:
        self._check_node(node)
        if node < self.n_categories:
            return self.cat_names[node]
        return self.page_titles[node - self.n_categories]

    def external_id(self, node: int) -> int:
        self._check_node(node)
        if node < self.n_categories:
            return int(self.cat_external[node])
        return int(self.page_external[node - self.n_categories])

    def external_ids(self, nodes: np.ndarray) -> np.ndarray:
        """``external_id`` of every node in an array, with one bounds check."""
        nodes = np.asarray(nodes, dtype=np.int64)
        bad = (nodes < 0) | (nodes >= self.n_nodes)
        if bad.any():
            raise ConfigurationError(f"node id out of range: {nodes[bad.argmax()]}")
        pages = nodes >= self.n_categories
        out = np.empty(len(nodes), dtype=np.int64)
        out[~pages] = self.cat_external[nodes[~pages]]
        out[pages] = self.page_external[nodes[pages] - self.n_categories]
        return out

    def stats(self) -> dict[str, int]:
        n_subcat = int((self.indices < self.n_categories).sum())
        return {
            "n_categories": self.n_categories,
            "n_pages": self.n_pages,
            "n_subcat_edges": n_subcat,
            "n_member_edges": int(len(self.indices)) - n_subcat,
            "n_aliases": len(self.aliases),
            "dropped_edges": self.dropped_edges,
            "dropped_aliases": self.dropped_aliases,
        }


def _iter_tsv(path: Path, n_fields: int) -> Iterator[tuple[int, list[str]]]:
    with path.open("r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            parts = raw.rstrip("\r\n").split("\t")
            if len(parts) != n_fields:
                raise GraphFormatError(
                    f"{path}:{lineno}: expected {n_fields} tab-separated "
                    f"fields, got {len(parts)}"
                )
            yield lineno, parts


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


def load_graph(
    categories: str | Path,
    pages: str | Path,
    edges: str | Path,
    redirects: str | Path | None = None,
    *,
    strict: bool = True,
) -> CategoryGraph:
    """Load a graph from TSV files.

    In strict mode (the default) edges whose endpoints are missing or whose
    kind disagrees with the child's table are errors; in lenient mode they
    are dropped and counted.  Malformed lines are errors in both modes.
    """
    categories = Path(categories)
    pages = Path(pages)
    edges = Path(edges)

    cat_external, cat_names = _load_id_name(categories, "category", True)
    page_external, page_titles = _load_id_name(pages, "page", False)
    n_cats = len(cat_names)
    cat_by_ext = {int(e): i for i, e in enumerate(cat_external)}
    page_by_ext = {int(e): n_cats + i for i, e in enumerate(page_external)}
    n_nodes = n_cats + len(page_titles)

    parents_raw: list[int] = []
    children_raw: list[int] = []
    dropped_edges = 0
    for lineno, (raw_p, raw_c, kind) in _iter_tsv(edges, 3):
        p_ext = _parse_int(edges, lineno, raw_p, "parent id")
        c_ext = _parse_int(edges, lineno, raw_c, "child id")
        if kind not in (SUBCAT, MEMBER):
            raise GraphFormatError(f"{edges}:{lineno}: unknown edge kind {kind!r}")
        parent = cat_by_ext.get(p_ext)
        if parent is None:
            if strict:
                raise GraphFormatError(
                    f"{edges}:{lineno}: parent {p_ext} is not a known category"
                )
            dropped_edges += 1
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
                    f"{edges}:{lineno}: {kind} child {c_ext} not found{hint}"
                )
            dropped_edges += 1
            continue
        parents_raw.append(parent)
        children_raw.append(child)

    if parents_raw:
        keys = np.asarray(parents_raw, dtype=np.int64) * n_nodes + np.asarray(
            children_raw, dtype=np.int64
        )
        keys = np.unique(keys)
        parent_arr = keys // n_nodes
        child_arr = (keys % n_nodes).astype(np.int32)
    else:
        parent_arr = np.empty(0, dtype=np.int64)
        child_arr = np.empty(0, dtype=np.int32)
    indptr = np.zeros(n_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(parent_arr, minlength=n_nodes), out=indptr[1:])

    aliases: dict[str, int] = {}
    dropped_aliases = 0
    if redirects is not None:
        redirects = Path(redirects)
        for lineno, (alias, raw_id) in _iter_tsv(redirects, 2):
            if not alias:
                raise GraphFormatError(f"{redirects}:{lineno}: empty alias name")
            c_ext = _parse_int(redirects, lineno, raw_id, "category id")
            node = cat_by_ext.get(c_ext)
            if node is None:
                if strict:
                    raise GraphFormatError(
                        f"{redirects}:{lineno}: alias {alias!r} points to "
                        f"unknown category {c_ext}"
                    )
                dropped_aliases += 1
                continue
            prev = aliases.get(alias)
            if prev is not None and prev != node:
                if strict:
                    raise GraphFormatError(
                        f"{redirects}:{lineno}: alias {alias!r} maps to more "
                        f"than one category"
                    )
                dropped_aliases += 1
                continue
            aliases[alias] = node

    if dropped_edges or dropped_aliases:
        logger.warning(
            "lenient load dropped %d edges and %d aliases",
            dropped_edges,
            dropped_aliases,
        )

    return CategoryGraph(
        cat_external,
        cat_names,
        page_external,
        page_titles,
        indptr,
        child_arr,
        aliases,
        dropped_edges,
        dropped_aliases,
    )


def save_snapshot(graph: CategoryGraph, path: str | Path) -> None:
    """Write a little-endian binary snapshot of the graph."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(
            struct.pack(
                "<IQQQQ",
                _VERSION,
                graph.n_categories,
                graph.n_pages,
                len(graph.indices),
                len(graph.aliases),
            )
        )
        fh.write(graph.cat_external.astype("<i8").tobytes())
        fh.write(graph.page_external.astype("<i8").tobytes())
        for name in graph.cat_names:
            _write_str(fh, name)
        for title in graph.page_titles:
            _write_str(fh, title)
        fh.write(graph.indptr.astype("<i8").tobytes())
        fh.write(graph.indices.astype("<i4").tobytes())
        for alias, node in graph.aliases.items():
            _write_str(fh, alias)
            fh.write(struct.pack("<i", node))


def _write_str(fh, text: str) -> None:
    data = text.encode("utf-8")
    fh.write(struct.pack("<I", len(data)))
    fh.write(data)


def load_snapshot(path: str | Path) -> CategoryGraph:
    """Read a snapshot written by :func:`save_snapshot`.

    A truncated or corrupt file raises :class:`GraphFormatError` naming it;
    the adjacency is checked before any array is sized from its values.
    """
    data = Path(path).read_bytes()
    if data[:4] != _MAGIC:
        raise GraphFormatError(f"{path}: not a graph snapshot")
    try:
        return _decode_snapshot(data)
    except GraphFormatError as exc:
        raise GraphFormatError(f"{path}: {exc}") from None
    except (struct.error, ValueError) as exc:  # UnicodeDecodeError included
        raise GraphFormatError(f"{path}: corrupt snapshot: {exc}") from None


def _decode_snapshot(data: bytes) -> CategoryGraph:
    (version, n_cats, n_pages, n_edges, n_aliases) = struct.unpack_from(
        "<IQQQQ", data, 4
    )
    if version != _VERSION:
        raise GraphFormatError(f"unsupported snapshot version {version}")
    off = 4 + struct.calcsize("<IQQQQ")

    cat_external = np.frombuffer(data, "<i8", n_cats, off).astype(np.int64)
    off += 8 * n_cats
    page_external = np.frombuffer(data, "<i8", n_pages, off).astype(np.int64)
    off += 8 * n_pages

    def read_str() -> str:
        nonlocal off
        (length,) = struct.unpack_from("<I", data, off)
        off += 4
        text = data[off : off + length].decode("utf-8")
        off += length
        return text

    cat_names = [read_str() for _ in range(n_cats)]
    page_titles = [read_str() for _ in range(n_pages)]
    n_nodes = n_cats + n_pages
    indptr = np.frombuffer(data, "<i8", n_nodes + 1, off).astype(np.int64)
    off += 8 * (n_nodes + 1)
    indices = np.frombuffer(data, "<i4", n_edges, off).astype(np.int32)
    off += 4 * n_edges
    aliases: dict[str, int] = {}
    for _ in range(n_aliases):
        alias = read_str()
        (node,) = struct.unpack_from("<i", data, off)
        off += 4
        aliases[alias] = node
    if off != len(data):
        raise GraphFormatError("trailing bytes in snapshot")
    if indptr[0] != 0 or indptr[-1] != n_edges or (np.diff(indptr) < 0).any():
        raise GraphFormatError("corrupt snapshot: bad adjacency offsets")
    if len(indices) and (indices.min() < 0 or indices.max() >= n_nodes):
        raise GraphFormatError("corrupt snapshot: edge to an unknown node")
    if any(not 0 <= node < n_cats for node in aliases.values()):
        raise GraphFormatError("corrupt snapshot: alias of an unknown category")

    return CategoryGraph(
        cat_external, cat_names, page_external, page_titles, indptr, indices, aliases
    )
