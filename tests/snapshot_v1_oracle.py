"""Writer of version 1 graph snapshots, which ``load_snapshot`` still reads.

A version 1 file is the magic ``WCG1``, then little-endian: the version
(uint32) and the numbers of categories, pages, edges and aliases (uint64
each); the external ids (int64); each name as a uint32 byte length and its
UTF-8; ``indptr`` (int64) and ``indices`` (int32); and each alias as a
string and an int32 category node.  The byte-level tests build their v1
files with it.
"""

from __future__ import annotations

import struct
from pathlib import Path

from wikicat.graph_store import CategoryGraph


def save_snapshot_v1(graph: CategoryGraph, path: str | Path) -> None:
    with open(path, "wb") as fh:
        fh.write(b"WCG1")
        fh.write(
            struct.pack(
                "<IQQQQ",
                1,
                graph.n_categories,
                graph.n_pages,
                len(graph.indices),
                len(graph.aliases),
            )
        )
        fh.write(graph.external.astype("<i8").tobytes())
        for name in graph.names:
            _write_str(fh, name)
        fh.write(graph.indptr.astype("<i8").tobytes())
        fh.write(graph.indices.astype("<i4").tobytes())
        for alias, node in graph.aliases.items():
            _write_str(fh, alias)
            fh.write(struct.pack("<i", node))


def _write_str(fh, text: str) -> None:
    data = text.encode("utf-8")
    fh.write(struct.pack("<I", len(data)))
    fh.write(data)
