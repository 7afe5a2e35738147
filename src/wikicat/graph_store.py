"""Category graph storage: TSV loading, validation, and a binary snapshot.

File formats (tab separated, UTF-8, one record per line):

* ``categories.tsv``: ``id<TAB>name``
* ``pages.tsv``: ``id<TAB>title``
* ``edges.tsv``: ``parent_id<TAB>child_id<TAB>kind`` with kind ``subcat``
  (category to category) or ``member`` (category to page)
* ``redirects.tsv`` (optional): ``alias_name<TAB>category_id``

Category and page id namespaces are independent; the edge kind says which
table a child id refers to.  Ids are integers in the int64 range.
Internally categories get dense node ids ``0..C-1`` in file order and pages
``C..C+P-1``, so a node id alone tells the node type.  Adjacency is CSR
over numpy arrays with child lists sorted ascending, which places
subcategory children ahead of member pages.

The input alone chooses between two loaders that build the same graph.
The columnar one reads the three main files whole and parses them with
numpy, about a mebibyte of lines at a time.  It takes only a narrow byte
grammar: every line ends in ``\n`` and has exactly the expected tabs, no
``\r`` appears anywhere, every id is ASCII ``-?[0-9]{1,18}``, every kind is
exactly ``subcat`` or ``member``, and the files hold nothing the line
parser would reject.  Any other input, CRLF files among them, goes through
the line parser from the top, which accepts what ``int()`` accepts and
names the first bad line as ``file:line``.  Redirects always go through
the line parser.
"""

from __future__ import annotations

import logging
import struct
from functools import cached_property
from pathlib import Path
from typing import Iterator

import numpy as np

from .exceptions import ConfigurationError, GraphFormatError

logger = logging.getLogger(__name__)

SUBCAT = "subcat"
MEMBER = "member"

_MAGIC = b"WCG1"
_VERSION = 1

_INT64 = np.iinfo(np.int64)
# The columnar loader's per-byte temporaries are sized by this block.
_BLOCK_BYTES = 1 << 20
_MAX_DIGITS = 18  # every -?[0-9]{1,18} fits int64
_SUBCAT_BYTES = np.frombuffer(SUBCAT.encode(), np.uint8)
_MEMBER_BYTES = np.frombuffer(MEMBER.encode(), np.uint8)


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
        self.cat_by_name = {name: i for i, name in enumerate(cat_names)}

    @cached_property
    def page_by_external(self) -> dict[int, int]:
        return {
            e: self.n_categories + i for i, e in enumerate(self.page_external.tolist())
        }

    @cached_property
    def _reverse(self) -> tuple[np.ndarray, np.ndarray]:
        """(rindptr, rindices): parents sorted ascending per node.

        Derived from the forward CSR, never stored, so TSV and snapshot
        loads go through identical code.  Forward rows come in parent order,
        so a stable sort by child keeps each child's parents ascending.
        """
        parent_ids = np.repeat(
            np.arange(self.n_nodes, dtype=np.int32), np.diff(self.indptr)
        )
        rindices = parent_ids[np.argsort(self.indices, kind="stable")]
        rindptr = np.zeros(self.n_nodes + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(self.indices, minlength=self.n_nodes), out=rindptr[1:]
        )
        return rindptr, rindices

    @property
    def rindptr(self) -> np.ndarray:
        return self._reverse[0]

    @property
    def rindices(self) -> np.ndarray:
        return self._reverse[1]

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
    files = Path(categories), Path(pages), Path(edges)
    try:
        tables = _columnar_tables(*files, strict)
    except _NotColumnar:
        tables = _line_tables(*files, strict)
    cat_external, cat_names, page_external, page_titles, keys, dropped_edges = tables
    indptr, indices = _csr(keys, len(cat_names) + len(page_titles))

    aliases: dict[str, int] = {}
    dropped_aliases = 0
    if redirects is not None:
        aliases, dropped_aliases = _load_redirects(
            Path(redirects), cat_external, strict
        )

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
        indices,
        aliases,
        dropped_edges,
        dropped_aliases,
    )


def _csr(keys: np.ndarray, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Forward CSR of the distinct edges among ``parent * n_nodes + child``."""
    keys = np.sort(keys)
    if len(keys):
        keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    parents, children = np.divmod(keys, n_nodes)
    indptr = np.zeros(n_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(parents, minlength=n_nodes), out=indptr[1:])
    return indptr, children.astype(np.int32)


# ------------------------------------------------------------ line parser


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


def _line_tables(categories: Path, pages: Path, edges: Path, strict: bool) -> tuple:
    """The loader's tables, one line at a time; see :func:`_columnar_tables`."""
    cat_external, cat_names = _load_id_name(categories, "category", True)
    page_external, page_titles = _load_id_name(pages, "page", False)
    n_cats = len(cat_names)
    cat_by_ext = {int(e): i for i, e in enumerate(cat_external)}
    page_by_ext = {int(e): n_cats + i for i, e in enumerate(page_external)}

    parents: list[int] = []
    children: list[int] = []
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
        parents.append(parent)
        children.append(child)

    n_nodes = n_cats + len(page_titles)
    keys = np.asarray(parents, dtype=np.int64) * n_nodes + np.asarray(
        children, dtype=np.int64
    )
    return (
        cat_external, cat_names, page_external, page_titles, keys, dropped_edges
    )


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


# -------------------------------------------------------- columnar loader


class _NotColumnar(Exception):
    """The input lies outside the columnar loader's grammar."""


def _columnar_tables(
    categories: Path, pages: Path, edges: Path, strict: bool
) -> tuple:
    """(category ids, names, page ids, titles, edge keys, dropped edges).

    An edge key is ``parent * n_nodes + child`` in node ids, in file order
    with duplicates kept.  Raises :class:`_NotColumnar` wherever the input
    leaves the grammar in the module docstring or the line parser would
    raise, so that every error comes from the line parser.
    """
    cat_external, cat_names, cat_index = _columnar_id_names(categories, True)
    page_external, page_titles, page_index = _columnar_id_names(pages, False)
    n_cats = len(cat_names)
    n_nodes = n_cats + len(page_titles)

    keys: list[np.ndarray] = []
    dropped_edges = 0
    for block, bounds in _line_blocks(edges, 3):
        parent, ok = cat_index.lookup(_ids(block, bounds[:, 0] + 1, bounds[:, 1]))
        child_ext = _ids(block, bounds[:, 1] + 1, bounds[:, 2])
        member = _is_member(block, bounds[:, 2] + 1, bounds[:, 3])
        as_cat, in_cats = cat_index.lookup(child_ext)
        as_page, in_pages = page_index.lookup(child_ext)
        child = np.where(member, as_page + n_cats, as_cat)
        ok &= np.where(member, in_pages, in_cats)
        if not ok.all():
            if strict:
                raise _NotColumnar
            dropped_edges += int(len(ok) - ok.sum())
            parent, child = parent[ok], child[ok]
        keys.append(parent * n_nodes + child)
    return (
        cat_external,
        cat_names,
        page_external,
        page_titles,
        _concat(keys),
        dropped_edges,
    )


def _columnar_id_names(
    path: Path, unique_names: bool
) -> tuple[np.ndarray, list[str], _IdIndex]:
    """Ids, names and id index of a whole ``id<TAB>name`` file, checked
    before the next file is opened, as the line parser does."""
    ids: list[np.ndarray] = []
    names: list[str] = []
    for block, bounds in _line_blocks(path, 2):
        ids.append(_ids(block, bounds[:, 0] + 1, bounds[:, 1]))
        names += _names(block, bounds)
    if unique_names and len(set(names)) < len(names):
        raise _NotColumnar
    external = _concat(ids)
    return external, names, _IdIndex(external)


def _concat(parts: list[np.ndarray]) -> np.ndarray:
    return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)


class _IdIndex:
    """External ids to node ids by binary search; duplicates leave the grammar."""

    def __init__(self, external: np.ndarray) -> None:
        self.order = np.argsort(external, kind="stable")
        self.sorted = external[self.order]
        if (self.sorted[1:] == self.sorted[:-1]).any():
            raise _NotColumnar

    def lookup(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(node id, found) per id; the node id is meaningless where not found."""
        if not len(self.sorted):
            return np.zeros(len(ids), dtype=np.int64), np.zeros(len(ids), dtype=bool)
        at = np.minimum(np.searchsorted(self.sorted, ids), len(self.sorted) - 1)
        return self.order[at], self.sorted[at] == ids


def _line_blocks(path: Path, n_fields: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The file's bytes in runs of whole lines of about ``_BLOCK_BYTES``.

    Yields (block, bounds): field ``k`` of line ``i`` is
    ``block[bounds[i, k] + 1 : bounds[i, k + 1]]``.  Every line must end in
    ``\\n`` and hold exactly ``n_fields - 1`` tabs, and no ``\\r`` may appear,
    since text mode reads a lone ``\\r`` as a line break.
    """
    data = path.read_bytes()
    if b"\r" in data or data[-1:] not in (b"", b"\n"):
        raise _NotColumnar
    whole = np.frombuffer(data, dtype=np.uint8)
    start = 0
    while start < len(data):
        stop = data.rfind(b"\n", start, start + _BLOCK_BYTES) + 1
        if stop <= start:  # one line longer than a block
            stop = data.index(b"\n", start + _BLOCK_BYTES) + 1
        block = whole[start:stop]
        ends = np.flatnonzero(block == 10)
        tabs = np.flatnonzero(block == 9)
        if len(tabs) != (n_fields - 1) * len(ends):
            raise _NotColumnar
        bounds = np.empty((len(ends), n_fields + 1), dtype=np.int64)
        bounds[0, 0] = -1
        bounds[1:, 0] = ends[:-1]
        bounds[:, 1:-1] = tabs.reshape(len(ends), n_fields - 1)
        bounds[:, -1] = ends
        # With the count right, every line holds its share of the tabs when
        # its first tab follows the line's start and its last precedes its end.
        first_tab, last_tab = bounds[:, 1], bounds[:, -2]
        if (first_tab < bounds[:, 0]).any() or (last_tab > ends).any():
            raise _NotColumnar
        yield block, bounds
        start = stop


def _ids(block: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The int64 value of each field ``block[lo:hi]``, which must be ASCII
    ``-?[0-9]{1,18}``."""
    negative = block[lo] == ord("-")
    lo = lo + negative
    width = hi - lo
    if width.min() < 1 or width.max() > _MAX_DIGITS:
        raise _NotColumnar
    value = np.zeros(len(width), dtype=np.int64)
    for k in range(int(width.max())):
        live = width > k
        digit = block[np.where(live, hi - 1 - k, hi)] - np.uint8(ord("0"))
        digit[~live] = 0
        if (digit > 9).any():
            raise _NotColumnar
        value += digit.astype(np.int64) * 10**k
    return np.where(negative, -value, value)


def _is_member(block: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Whether each kind field is ``member``; each must be exactly
    ``subcat`` or ``member``."""
    if (hi - lo != len(_MEMBER_BYTES)).any():
        raise _NotColumnar
    kinds = block[lo[:, None] + np.arange(len(_MEMBER_BYTES))]
    member = (kinds == _MEMBER_BYTES).all(axis=1)
    if not (member | (kinds == _SUBCAT_BYTES).all(axis=1)).all():
        raise _NotColumnar
    return member


def _names(block: np.ndarray, bounds: np.ndarray) -> list[str]:
    """The last field of each line, decoded; each must be non-empty UTF-8."""
    lo, hi = bounds[:, -2] + 1, bounds[:, -1]
    if (lo == hi).any():
        raise _NotColumnar
    # Keep each name with its newline: the kept bytes split into the names.
    drop = np.zeros(len(block), dtype=np.int8)
    drop[bounds[:, 0] + 1] = 1
    drop[lo] -= 1
    kept = block[np.cumsum(drop, dtype=np.int8) == 0]
    try:
        names = kept.tobytes().decode("utf-8").split("\n")
    except UnicodeDecodeError:
        raise _NotColumnar from None
    names.pop()
    return names


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
