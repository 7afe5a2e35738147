"""Category graph storage: TSV loading, validation, and a binary snapshot.

File formats (tab separated, UTF-8, one record per line):

* ``categories.tsv``: ``id<TAB>name``
* ``pages.tsv``: ``id<TAB>title``
* ``edges.tsv``: ``parent_id<TAB>child_id<TAB>kind`` with kind ``subcat``
  (category to category) or ``member`` (category to page)
* ``redirects.tsv`` (optional): ``alias_name<TAB>category_id``

Category and page id namespaces are independent; the edge kind says which
table a child id refers to.  Ids are integers in the int64 range.
In memory the graph is one node table and one adjacency.  Categories get
dense node ids ``0..C-1`` in file order and pages ``C..C+P-1``, so a node
id alone tells the node type, and the table holds each node's external id
and name.  The adjacency is a forward CSR over numpy arrays: each
category's children, strictly ascending, which places subcategory children
ahead of member pages.  Pages are leaves.  No reverse CSR is kept: a node's
number of parents is its in-degree, counted once per graph.

One reader parses all four files with numpy, about a mebibyte of lines at
a time, and checks each file whole before it opens the next.  Lines are
the ones text mode gives: ``\\n``, ``\\r\\n`` and a lone ``\\r`` end a line,
and so does the end of the file.  Ids of ASCII ``-?[0-9]{1,18}`` are
parsed as arrays, and any other id by ``int()``, so ``+5``, `` 5`` and
``1_0`` are ids too.  Every check is a boolean column over the lines.  The
first line that fails one is named as ``file:line``, with the message of
the first check it fails in the order each loader lists them.  A file
that is not UTF-8 is reported as such before any other fault in it.

Names are kept as one UTF-8 blob and int64 offsets (``Names``): name ``i``
is ``blob[offsets[i]:offsets[i + 1]]``, decoded only when it is read.

A snapshot is one little-endian file.  Its 64-byte header holds the magic
``WCG2``, the version, the numbers of categories, pages, edges and aliases,
the byte lengths of the name and alias blobs, and the CRC-32 (``zlib``) of
the body.  The body holds the int64 sections (external ids, name offsets,
``indptr``, alias offsets), then the int32 sections (``indices``, alias
nodes), then the name blob and the alias blob, so every array lies aligned
and is read whole with ``np.frombuffer``.  The reader checks that the file
is as long as the header's counts say before it reads the body, then the
CRC, then the structure: offsets, edges, rows, aliases, ids and names.
Version 1 snapshots (magic ``WCG1``, length-prefixed strings) still load.
"""

from __future__ import annotations

import codecs
import logging
import os
import struct
import zlib
from collections.abc import Iterable, Sequence
from functools import cached_property
from itertools import compress
from pathlib import Path
from typing import BinaryIO, Callable, Iterator

import numpy as np

from .exceptions import ConfigurationError, GraphFormatError

logger = logging.getLogger(__name__)

SUBCAT = "subcat"
MEMBER = "member"

_V1_MAGIC = b"WCG1"
_V1_HEADER = struct.Struct("<4sIQQQQ")  # magic, version, the four counts
_V2_MAGIC = b"WCG2"
# magic, version, the four counts, the two blobs' lengths, the body's CRC-32
_V2_HEADER = struct.Struct("<4sI7Q")

_INT64 = np.iinfo(np.int64)
# The reader's per-byte temporaries are sized by this block.
_BLOCK_BYTES = 1 << 20
_MAX_DIGITS = 18  # every -?[0-9]{1,18} fits int64
_SUBCAT_BYTES = np.frombuffer(SUBCAT.encode(), np.uint8)
_MEMBER_BYTES = np.frombuffer(MEMBER.encode(), np.uint8)


class Names(Sequence[str]):
    """Read-only strings kept as one UTF-8 blob (uint8) and int64 offsets:
    string ``i`` is ``blob[offsets[i]:offsets[i + 1]]``, decoded when read.
    A slice is decoded in one piece."""

    def __init__(self, blob: np.ndarray, offsets: np.ndarray) -> None:
        self.blob, self.offsets = blob, offsets

    @classmethod
    def of(cls, strings: Iterable[str]) -> Names:
        encoded = [text.encode("utf-8") for text in strings]
        lengths = np.fromiter(map(len, encoded), np.int64, len(encoded))
        return cls(np.frombuffer(b"".join(encoded), np.uint8), _offsets(lengths))

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __getitem__(self, key):
        rows = range(len(self))[key]
        if isinstance(rows, int):
            return str(self.blob[self.offsets[rows] : self.offsets[rows + 1]], "utf-8")
        if rows.step != 1 or not rows:
            return [self[row] for row in rows]
        lo, hi = int(self.offsets[rows.start]), int(self.offsets[rows.stop])
        text = str(self.blob[lo:hi], "utf-8")
        cuts = self.offsets[rows.start : rows.stop + 1] - lo
        if len(text) < hi - lo:  # multi-byte characters: cut at character counts
            lead = (self.blob[lo:hi] & 0xC0) != 0x80
            cuts = np.concatenate(([0], np.cumsum(lead)))[cuts]
        cuts = cuts.tolist()
        return [text[i:j] for i, j in zip(cuts, cuts[1:])]


def _offsets(lengths: np.ndarray) -> np.ndarray:
    """Offsets of strings of these byte lengths laid end to end."""
    offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return offsets


class CategoryGraph:
    """In-memory category graph: one node table and a forward CSR.

    Node ``v`` has external id ``external[v]`` and name ``names[v]``;
    nodes below ``n_categories`` are categories and the rest pages.  A list
    of names is converted to ``Names``.  Arrays read from a snapshot are
    read-only.
    """

    def __init__(
        self,
        n_categories: int,
        external: np.ndarray,
        names: Sequence[str],
        indptr: np.ndarray,
        indices: np.ndarray,
        aliases: dict[str, int],
        dropped_edges: int = 0,
        dropped_aliases: int = 0,
    ) -> None:
        self.names = names if isinstance(names, Names) else Names.of(names)
        self.n_categories = n_categories
        self.n_pages = len(self.names) - n_categories
        self.external = external
        self.indptr = indptr
        self.indices = indices
        self.aliases = aliases
        self.dropped_edges = dropped_edges
        self.dropped_aliases = dropped_aliases

    @cached_property
    def _cat_index(self) -> _IdIndex:
        return _IdIndex(self.external[: self.n_categories])

    @cached_property
    def _page_index(self) -> _IdIndex:
        return _IdIndex(self.external[self.n_categories :])

    @cached_property
    def in_degree(self) -> np.ndarray:
        """The number of parent categories of each node."""
        return np.bincount(self.indices, minlength=self.n_nodes)

    @property
    def n_nodes(self) -> int:
        return len(self.names)

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

    def category_node(self, external_id: int) -> int:
        row = self._cat_index.row(external_id)
        if row is None:
            raise ConfigurationError(f"unknown category id: {external_id}")
        return row

    def page_node(self, external_id: int) -> int:
        row = self._page_index.row(external_id)
        if row is None:
            raise ConfigurationError(f"unknown page id: {external_id}")
        return self.n_categories + row

    def node_name(self, node: int) -> str:
        self._check_node(node)
        return self.names[node]

    def external_id(self, node: int) -> int:
        self._check_node(node)
        return int(self.external[node])

    def external_ids(self, nodes: np.ndarray) -> np.ndarray:
        """``external_id`` of every node in an array, with one bounds check."""
        nodes = np.asarray(nodes, dtype=np.int64)
        bad = (nodes < 0) | (nodes >= self.n_nodes)
        if bad.any():
            raise ConfigurationError(f"node id out of range: {nodes[bad.argmax()]}")
        return self.external[nodes]

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
    cat_ids, cat_blob, cat_lengths, cat_index = _load_id_names(
        Path(categories), "category", True
    )
    page_ids, page_blob, page_lengths, page_index = _load_id_names(
        Path(pages), "page", False
    )
    keys, dropped_edges = _load_edges(Path(edges), cat_index, page_index, strict)
    indptr, indices = _csr(keys, len(cat_ids) + len(page_ids))

    aliases: dict[str, int] = {}
    dropped_aliases = 0
    if redirects is not None:
        aliases, dropped_aliases = _load_redirects(Path(redirects), cat_index, strict)

    if dropped_edges or dropped_aliases:
        logger.warning(
            "lenient load dropped %d edges and %d aliases",
            dropped_edges,
            dropped_aliases,
        )

    names = Names(
        np.concatenate((cat_blob, page_blob)),
        _offsets(np.concatenate((cat_lengths, page_lengths))),
    )
    return CategoryGraph(
        len(cat_ids), np.concatenate((cat_ids, page_ids)), names, indptr,
        indices, aliases, dropped_edges, dropped_aliases,
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


_Check = tuple[np.ndarray, Callable[[int], str]]  # failing rows, row i's message
_Fault = tuple[int, str]  # (row, message); row i is line i + 1


def _load_id_names(
    path: Path, what: str, unique_names: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray, _IdIndex]:
    """Ids, names (as ``_Lines.fields`` gives them) and id index of an
    ``id<TAB>name`` file.  Only names that must be unique are decoded."""

    def parse(lines: _Lines) -> tuple[tuple, list[_Check]]:
        ids, not_int, huge = lines.ids(0)
        return (ids, *lines.fields(1)), [
            (not_int, lambda i: f"{what} id is not an integer: {lines.text(i, 0)!r}"),
            (huge, lambda i: f"{what} id out of range: {lines.text(i, 0)!r}"),
            (lines.lo[:, 1] == lines.hi[:, 1], lambda i: f"empty {what} name"),
        ]

    (external, blob, lengths), fault = _scan(path, 2, parse)
    index = _IdIndex(external)
    checks = [(index.repeats(), lambda i: f"duplicate {what} id {external[i]}")]
    if unique_names:
        names = Names(blob, _offsets(lengths))[:]
        checks.append((
            _first_rows(names) != np.arange(len(names)),
            lambda i: f"duplicate {what} name {names[i]!r}",
        ))
    _raise_first(path, fault, _first_fault(checks))
    return external, blob, lengths, index


def _load_edges(
    path: Path, cat_index: _IdIndex, page_index: _IdIndex, strict: bool
) -> tuple[np.ndarray, int]:
    """(edge keys, dropped edges) of an edges file.  An edge key is
    ``parent * n_nodes + child`` in node ids, in file order with duplicates
    kept."""
    n_cats = len(cat_index.sorted)
    n_nodes = n_cats + len(page_index.sorted)

    def parse(lines: _Lines) -> tuple[tuple, list[_Check]]:
        parent_ext, parent_bad, parent_huge = lines.ids(0)
        child_ext, child_bad, child_huge = lines.ids(1)
        member, subcat = lines.kinds(2)
        text = lines.text
        parent, has_parent = cat_index.lookup(parent_ext, parent_huge)
        # each child only in the table its kind names; any other kind: categories
        child, has_child = np.empty_like(child_ext), np.empty_like(member)
        for at, index in ((member, page_index), (~member, cat_index)):
            child[at], has_child[at] = index.lookup(child_ext[at], child_huge[at])
        child[member] += n_cats

        def no_child(i: int) -> str:
            kind, other, index = (
                (MEMBER, "category", cat_index) if member[i] else
                (SUBCAT, "page", page_index)
            )
            known = index.row(int(text(i, 1))) is not None
            hint = f" (it exists as a {other}; wrong kind?)" if known else ""
            return f"{kind} child {int(text(i, 1))} not found{hint}"

        checks: list[_Check] = [
            (parent_bad, lambda i: f"parent id is not an integer: {text(i, 0)!r}"),
            (child_bad, lambda i: f"child id is not an integer: {text(i, 1)!r}"),
            (~(member | subcat), lambda i: f"unknown edge kind {text(i, 2)!r}"),
        ]
        if strict:
            checks.append((~has_parent, lambda i: (
                f"parent {int(text(i, 0))} is not a known category"
            )))
            checks.append((~has_child, no_child))
        return (parent * n_nodes + child, has_parent & has_child), checks

    (keys, keep), fault = _scan(path, 3, parse)
    _raise_first(path, fault)
    if keep.all():
        return keys, 0
    return keys[keep], int(len(keep) - keep.sum())


def _load_redirects(
    path: Path, cat_index: _IdIndex, strict: bool
) -> tuple[dict[str, int], int]:
    """(alias to category node, dropped aliases) of a redirects file.  The
    first kept row of an alias wins, and aliases keep its order."""

    def parse(lines: _Lines) -> tuple[tuple, list[_Check]]:
        ext, bad, huge = lines.ids(1)
        node, known = cat_index.lookup(ext, huge)
        checks: list[_Check] = [
            (lines.lo[:, 0] == lines.hi[:, 0], lambda i: "empty alias name"),
            (bad, lambda i: f"category id is not an integer: {lines.text(i, 1)!r}"),
        ]
        if strict:
            checks.append((~known, lambda i: (
                f"alias {lines.text(i, 0)!r} points to unknown category "
                f"{int(lines.text(i, 1))}"
            )))
        return (*lines.fields(0), node, known), checks

    (blob, lengths, nodes, known), fault = _scan(path, 2, parse)
    aliases = Names(blob, _offsets(lengths))[:]
    rows = np.flatnonzero(known)
    kept = list(compress(aliases, known))
    clash = nodes[rows] != nodes[rows[_first_rows(kept)]]
    faults = [fault]
    if strict and clash.any():
        row = int(rows[clash.argmax()])
        faults.append((row, f"alias {aliases[row]!r} maps to more than one category"))
    _raise_first(path, *faults)
    table = dict(compress(zip(kept, nodes[rows].tolist()), ~clash))
    return table, int(len(aliases) - len(kept) + clash.sum())


def _first_rows(keys: list[str]) -> np.ndarray:
    """The row where each row's key first occurs."""
    first = dict(zip(reversed(keys), range(len(keys) - 1, -1, -1)))
    return np.fromiter(map(first.get, keys), np.int64, len(keys))


def _raise_first(path: Path, *faults: _Fault | None) -> None:
    """Raise the fault on the lowest row; on a tie, the one listed first."""
    found = [fault for fault in faults if fault is not None]
    if found:
        row, message = min(found, key=lambda fault: fault[0])
        raise GraphFormatError(f"{path}:{row + 1}: {message}")


def _first_fault(checks: list[_Check]) -> _Fault | None:
    """The first row that fails a check, with the message of the first
    check it fails; None if every row passes."""
    hits = [(int(bad.argmax()), k) for k, (bad, _) in enumerate(checks) if bad.any()]
    if not hits:
        return None
    row, k = min(hits)
    return row, checks[k][1](row)


def _scan(
    path: Path, n_fields: int, parse: Callable[[_Lines], tuple[tuple, list[_Check]]]
) -> tuple[list, _Fault | None]:
    """Parse a TSV file block by block, up to the block of its first fault.

    ``parse(lines)`` gives a block's columns, one value a line each, and
    its checks in the order they apply.  Returns each column joined over the
    blocks read, so that row ``i`` is line ``i + 1``, and the fault or None.
    """
    parts, fault = [], None
    for lines, offset, short in _line_blocks(path, n_fields):
        columns, checks = parse(lines)
        parts.append(columns)
        fault = _first_fault(checks)
        if fault is None and short is not None:
            fault = (len(lines.lo), short)
        if fault is not None:
            fault = (offset + fault[0], fault[1])
            break
    del lines, checks  # views of the whole file, which the columns outlive
    return [np.concatenate(column) for column in zip(*parts)], fault


def _line_blocks(path: Path, n_fields: int) -> Iterator[tuple[_Lines, int, str | None]]:
    """(lines, row, short) for blocks of about ``_BLOCK_BYTES`` of the file's
    lines: ``row`` is the row of the block's first line, and ``short`` is
    None or the fault of the first line without ``n_fields`` fields, which
    the block, the last, stops before.  An empty file is one empty block."""
    data = path.read_bytes()
    bad = _utf8_fault(data)
    if bad is not None:
        raise GraphFormatError(f"{path}: not UTF-8: {bad}")
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    if data[-1:] not in (b"", b"\n"):
        data += b"\n"
    whole = np.frombuffer(data, dtype=np.uint8)
    start, row = 0, 0
    while True:
        stop = data.rfind(b"\n", start, start + _BLOCK_BYTES) + 1
        if stop <= start < len(data):  # one line longer than a block
            stop = data.index(b"\n", start + _BLOCK_BYTES) + 1
        block = whole[start:stop]
        seps = np.flatnonzero((block == 9) | (block == 10))
        ends = np.flatnonzero(block[seps] == 10)
        tabs = np.diff(ends, prepend=-1) - 1
        short = None
        if (tabs != n_fields - 1).any():
            n = int((tabs != n_fields - 1).argmax())
            short = f"expected {n_fields} tab-separated fields, got {tabs[n] + 1}"
            seps = seps[: n * n_fields]
        yield _Lines(block, seps.reshape(-1, n_fields)), row, short
        if short is not None or stop == len(data):
            return
        start, row = stop, row + len(ends)


def _utf8_fault(data: bytes) -> UnicodeDecodeError | None:
    """The first bytes of ``data`` that are not UTF-8, placed in the whole
    of it, or None; decoded a block at a time."""
    view, start = memoryview(data), 0
    while start < len(data):
        stop = start + max(_BLOCK_BYTES, 4)  # at least one whole character
        try:
            start += codecs.utf_8_decode(view[start:stop], None, stop >= len(data))[1]
        except UnicodeDecodeError as exc:
            return UnicodeDecodeError(
                "utf-8", data, start + exc.start, start + exc.end, exc.reason
            )
    return None


class _Lines:
    """A block of whole lines and the tab or ``\\n`` after each of their
    fields: field ``k`` of line ``i`` is ``block[lo[i, k]:hi[i, k]]``."""

    def __init__(self, block: np.ndarray, seps: np.ndarray) -> None:
        self.block, self.hi = block, seps
        self.lo = np.roll(seps, 1) + 1  # each field starts after the separator before
        self.lo.flat[:1] = 0

    def text(self, i: int, k: int) -> str:
        """One field decoded: for a message, or an id the arrays do not take."""
        return self.block[self.lo[i, k] : self.hi[i, k]].tobytes().decode("utf-8")

    def ids(self, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(value, bad, huge) of each id in column ``k``: its int64 value,
        meaningless where the id is bad or huge, whether ``int()`` refuses
        it, and whether it lies beyond int64."""
        lo, hi, block = self.lo[:, k], self.hi[:, k], self.block
        negative = block[lo] == ord("-")
        width = hi - lo - negative
        odd = (width < 1) | (width > _MAX_DIGITS)
        value = np.zeros(len(width), dtype=np.int64)
        for place in range(min(int(width.max(initial=0)), _MAX_DIGITS)):
            live = width > place
            digit = block[np.where(live, hi - 1 - place, hi)] - np.uint8(ord("0"))
            digit[~live] = 0
            odd |= digit > 9
            value += digit.astype(np.int64) * 10**place
        value = np.where(negative, -value, value)
        bad = np.zeros(len(width), dtype=bool)
        huge = np.zeros(len(width), dtype=bool)
        for i in np.flatnonzero(odd).tolist():
            try:
                number = int(self.text(i, k))
            except ValueError:
                bad[i] = True
                continue
            if _INT64.min <= number <= _INT64.max:
                value[i] = number
            else:
                huge[i] = True
        return value, bad, huge

    def kinds(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """(member, subcat): whether each field of column ``k`` is exactly
        ``member``, and whether it is exactly ``subcat``."""
        lo, size = self.lo[:, k], len(_MEMBER_BYTES)
        kinds = np.take(self.block, lo[:, None] + np.arange(size), mode="clip")
        sized = self.hi[:, k] - lo == size
        return (
            sized & (kinds == _MEMBER_BYTES).all(axis=1),
            sized & (kinds == _SUBCAT_BYTES).all(axis=1),
        )

    def fields(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """(blob, lengths): the bytes of column ``k``'s fields laid end to
        end, undecoded, and each field's length in bytes."""
        lo, hi = self.lo[:, k], self.hi[:, k]
        edge = np.zeros(len(self.block) + 1, dtype=np.int8)
        edge[lo] += 1
        edge[hi] -= 1
        return self.block[np.cumsum(edge[:-1], dtype=np.int8) > 0], hi - lo


class _IdIndex:
    """External ids to table rows by binary search."""

    def __init__(self, external: np.ndarray) -> None:
        self.order = np.argsort(external, kind="stable")
        self.sorted = external[self.order]

    def repeats(self) -> np.ndarray:
        """Whether each row's id is an earlier row's too."""
        again = np.zeros(len(self.order), dtype=bool)
        again[self.order[1:][self.sorted[1:] == self.sorted[:-1]]] = True
        return again

    def lookup(
        self, ids: np.ndarray, beyond: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """(row, found) per id, where ``beyond`` marks ids past int64, which
        are never found; the row is meaningless where not found."""
        if not len(self.sorted):
            return np.zeros(len(ids), dtype=np.int64), np.zeros(len(ids), dtype=bool)
        at = np.minimum(np.searchsorted(self.sorted, ids), len(self.sorted) - 1)
        return self.order[at], (self.sorted[at] == ids) & ~beyond

    def row(self, external_id: int) -> int | None:
        """The row of one id, which may lie beyond int64, or None."""
        if not _INT64.min <= external_id <= _INT64.max:
            return None
        rows, found = self.lookup(np.array([external_id]), np.zeros(1, dtype=bool))
        return int(rows[0]) if found[0] else None


def save_snapshot(graph: CategoryGraph, path: str | Path) -> None:
    """Write a version 2 snapshot of the graph (see the module docstring)."""
    aliases = Names.of(graph.aliases)
    counts = (
        len(graph.indices), len(graph.aliases), len(graph.names.blob), len(aliases.blob)
    )
    arrays = [
        graph.external, graph.names.offsets, graph.indptr, aliases.offsets,
        graph.indices, np.fromiter(graph.aliases.values(), np.int64),
        graph.names.blob, aliases.blob,
    ]
    sections = [
        np.ascontiguousarray(array, dtype)
        for array, (dtype, _) in zip(arrays, _v2_layout(graph.n_nodes, *counts))
    ]
    crc = 0
    for section in sections:
        crc = zlib.crc32(section, crc)
    with open(path, "wb") as fh:
        fh.write(_V2_HEADER.pack(
            _V2_MAGIC, 2, graph.n_categories, graph.n_pages, *counts, crc
        ))
        for section in sections:
            fh.write(section)


def _v2_layout(
    n_nodes: int, n_edges: int, n_aliases: int, name_bytes: int, alias_bytes: int
) -> list[tuple[str, int]]:
    """(dtype, length) of each section of a version 2 body, in file order."""
    return [
        ("<i8", n_nodes),  # external ids
        ("<i8", n_nodes + 1),  # name offsets
        ("<i8", n_nodes + 1),  # indptr
        ("<i8", n_aliases + 1),  # alias offsets
        ("<i4", n_edges),  # indices
        ("<i4", n_aliases),  # alias nodes
        ("u1", name_bytes),
        ("u1", alias_bytes),
    ]


def load_snapshot(path: str | Path) -> CategoryGraph:
    """Read a snapshot written by :func:`save_snapshot`, or a version 1 one.

    A truncated or corrupt file raises :class:`GraphFormatError` naming it.
    The header's counts are checked against the file's length before the
    body is read, and the adjacency before any array is sized from its
    values.
    """
    with open(path, "rb") as fh:
        head = fh.read(_V2_HEADER.size)
        read = {_V1_MAGIC: _read_v1, _V2_MAGIC: _read_v2}.get(head[:4])
        if read is None:
            raise GraphFormatError(f"{path}: not a graph snapshot")
        try:
            return read(head, fh, os.fstat(fh.fileno()).st_size)
        except GraphFormatError as exc:
            raise GraphFormatError(f"{path}: {exc}") from None
        except (struct.error, ValueError) as exc:  # UnicodeDecodeError included
            raise GraphFormatError(f"{path}: corrupt snapshot: {exc}") from None


def _read_v2(head: bytes, fh: BinaryIO, size: int) -> CategoryGraph:
    """A version 2 snapshot; ``head`` is its header, which ``fh`` is past."""
    (_, version, n_cats, n_pages, n_edges, n_aliases, name_bytes, alias_bytes,
     crc) = _V2_HEADER.unpack(head)
    if version != 2:
        raise GraphFormatError(f"unsupported snapshot version {version}")
    layout = _v2_layout(n_cats + n_pages, n_edges, n_aliases, name_bytes, alias_bytes)
    sizes = [np.dtype(dtype).itemsize * length for dtype, length in layout]
    need = _V2_HEADER.size + sum(sizes)  # in Python ints
    if need != size:
        raise GraphFormatError(
            f"corrupt snapshot: its counts need {need} bytes, the file has {size}"
        )
    body = fh.read(sum(sizes))
    if zlib.crc32(body) != crc:
        raise GraphFormatError("corrupt snapshot: checksum mismatch")
    starts = np.cumsum([0, *sizes]).tolist()
    (external, name_offsets, indptr, alias_offsets, indices, alias_nodes,
     name_blob, alias_blob) = (
        np.frombuffer(body, dtype, length, start)
        for (dtype, length), start in zip(layout, starts)
    )
    names = _checked_names(name_blob, name_offsets, "name")
    aliases = _checked_names(alias_blob, alias_offsets, "alias")[:]
    _check_graph(n_cats, external, indptr, indices, aliases, alias_nodes)
    return CategoryGraph(
        n_cats, external, names, indptr, indices,
        dict(zip(aliases, alias_nodes.tolist())),
    )


def _checked_names(blob: np.ndarray, offsets: np.ndarray, what: str) -> Names:
    """``Names(blob, offsets)`` once every name in it is known to decode."""
    if offsets[0] != 0 or offsets[-1] != len(blob) or (np.diff(offsets) < 0).any():
        raise GraphFormatError(f"corrupt snapshot: bad {what} offsets")
    try:
        codecs.utf_8_decode(blob, None, True)
    except UnicodeDecodeError as exc:
        raise GraphFormatError(f"corrupt snapshot: the {what} blob is not UTF-8: {exc}")
    starts = offsets[:-1][offsets[:-1] < len(blob)]
    if ((blob[starts] & 0xC0) == 0x80).any():
        raise GraphFormatError(f"corrupt snapshot: a {what} starts inside a character")
    return Names(blob, offsets)


def _read_v1(head: bytes, fh: BinaryIO, size: int) -> CategoryGraph:
    """A version 1 snapshot: its strings are each a uint32 length and UTF-8,
    and its aliases each a string and an int32 node.  Its records are read
    in order, each once the file is known to hold it, so trailing bytes are
    refused unread."""
    (_, version, n_cats, n_pages, n_edges, n_aliases) = _V1_HEADER.unpack_from(head)
    if version != 1:
        raise GraphFormatError(f"unsupported snapshot version {version}")
    off = _V1_HEADER.size
    n_nodes = n_cats + n_pages
    # The fewest bytes the counts need, in Python ints: a name or an alias
    # takes at least its 4-byte length.
    least = off + 20 * n_nodes + 8 + 4 * n_edges + 8 * n_aliases
    if least > size:
        raise GraphFormatError(
            f"corrupt snapshot: its counts need {least} bytes, the file has {size}"
        )
    fh.seek(off)

    def read(n: int) -> bytes:
        nonlocal off
        if n > size - off:
            raise GraphFormatError(f"corrupt snapshot: truncated at byte {off}")
        off += n
        return fh.read(n)

    def read_str() -> str:
        (length,) = struct.unpack("<I", read(4))
        return read(length).decode("utf-8")

    external = np.frombuffer(read(8 * n_nodes), "<i8").astype(np.int64)
    names = [read_str() for _ in range(n_nodes)]
    indptr = np.frombuffer(read(8 * (n_nodes + 1)), "<i8").astype(np.int64)
    indices = np.frombuffer(read(4 * n_edges), "<i4").astype(np.int32)
    aliases, alias_nodes = [], []
    for _ in range(n_aliases):
        aliases.append(read_str())
        alias_nodes.append(struct.unpack("<i", read(4))[0])
    if off != size:
        raise GraphFormatError("trailing bytes in snapshot")
    alias_nodes = np.array(alias_nodes, dtype=np.int64)
    _check_graph(n_cats, external, indptr, indices, aliases, alias_nodes)
    return CategoryGraph(
        n_cats, external, names, indptr, indices,
        dict(zip(aliases, alias_nodes.tolist())),
    )


def _check_graph(
    n_cats: int,
    external: np.ndarray,
    indptr: np.ndarray,
    indices: np.ndarray,
    aliases: list[str],
    alias_nodes: np.ndarray,
) -> None:
    """Raise if a snapshot's arrays are not a graph ``load_graph`` could give."""
    n_nodes, n_edges = len(external), len(indices)
    if indptr[0] != 0 or indptr[-1] != n_edges or (np.diff(indptr) < 0).any():
        raise GraphFormatError("corrupt snapshot: bad adjacency offsets")
    if len(indices) and (indices.min() < 0 or indices.max() >= n_nodes):
        raise GraphFormatError("corrupt snapshot: edge to an unknown node")
    if indptr[n_cats] != n_edges:
        raise GraphFormatError("corrupt snapshot: a page has children")
    row_start = np.zeros(n_edges, dtype=bool)
    row_start[indptr[:-1][np.diff(indptr) > 0]] = True
    if ((np.diff(indices) <= 0) & ~row_start[1:]).any():
        raise GraphFormatError("corrupt snapshot: a child row does not strictly ascend")
    if ((alias_nodes < 0) | (alias_nodes >= n_cats)).any():
        raise GraphFormatError("corrupt snapshot: alias of an unknown category")
    again = _first_rows(aliases) != np.arange(len(aliases))
    if again.any():
        raise GraphFormatError(
            f"corrupt snapshot: duplicate alias {aliases[again.argmax()]!r}"
        )
    for what, ids in (("category", external[:n_cats]), ("page", external[n_cats:])):
        again = _IdIndex(ids).repeats()
        if again.any():
            raise GraphFormatError(
                f"corrupt snapshot: duplicate {what} id {ids[again.argmax()]}"
            )
