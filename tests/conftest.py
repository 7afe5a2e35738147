"""Shared fixtures: bundled graph data and TSV-writing helpers."""

from __future__ import annotations

import os
import struct
import zlib
from pathlib import Path

import pytest

from wikicat.graph_store import _V2_HEADER, load_graph
from wikicat.taxonomy import CategoryMapping, MappedCategory, load_taxonomy

DATA_DIR = Path(__file__).parent / "data"

# pyproject.toml puts src/ on this process's path; the Python processes
# that tests start find wikicat there too.
SRC = str(Path(__file__).parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.getenv("PYTHONPATH")]))


def children(graph, node: int) -> list[int]:
    """A category's child nodes, ascending: its row of the CSR."""
    return graph.indices[graph.indptr[node] : graph.indptr[node + 1]].tolist()


def page_node(graph, external_id: int) -> int:
    """The node of the page with this external id."""
    (rows,) = (graph.external[graph.n_categories :] == external_id).nonzero()
    return graph.n_categories + int(rows[0])


def with_crc(data: bytes) -> bytes:
    """A snapshot's bytes with the header's CRC-32 set to that of the body,
    so that a change to the file meets the reader's other checks; bytes too
    short to hold a header are left as they are."""
    size = _V2_HEADER.size
    if len(data) < size:
        return data
    return data[: size - 8] + struct.pack("<Q", zlib.crc32(data[size:])) + data[size:]


def load_fixture_graph(name: str):
    d = DATA_DIR / name
    redirects = d / "redirects.tsv"
    return load_graph(
        d / "categories.tsv",
        d / "pages.tsv",
        d / "edges.tsv",
        redirects if redirects.exists() else None,
    )


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture(scope="session")
def trucks_graph():
    return load_fixture_graph("trucks")


@pytest.fixture(scope="session")
def trucks_taxonomy():
    return load_taxonomy(DATA_DIR / "trucks" / "taxonomy.json")


@pytest.fixture(scope="session")
def suvs_graph():
    return load_fixture_graph("suvs")


@pytest.fixture(scope="session")
def suvs_taxonomy():
    return load_taxonomy(DATA_DIR / "suvs" / "taxonomy.json")


def write_graph_files(
    directory: Path,
    categories: list[tuple[int, str]],
    pages: list[tuple[int, str]],
    edges: list[tuple[int, int, str]],
    redirects: list[tuple[str, int]] | None = None,
) -> dict[str, Path]:
    """Write the four TSV files into ``directory`` and return their paths."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {
        "categories": directory / "categories.tsv",
        "pages": directory / "pages.tsv",
        "edges": directory / "edges.tsv",
    }
    paths["categories"].write_text(
        "".join(f"{i}\t{name}\n" for i, name in categories), encoding="utf-8"
    )
    paths["pages"].write_text(
        "".join(f"{i}\t{title}\n" for i, title in pages), encoding="utf-8"
    )
    paths["edges"].write_text(
        "".join(f"{p}\t{c}\t{kind}\n" for p, c, kind in edges), encoding="utf-8"
    )
    if redirects is not None:
        paths["redirects"] = directory / "redirects.tsv"
        paths["redirects"].write_text(
            "".join(f"{alias}\t{target}\n" for alias, target in redirects),
            encoding="utf-8",
        )
    return paths


@pytest.fixture
def graph_files(tmp_path):
    def _write(categories, pages, edges, redirects=None, subdir="graph"):
        return write_graph_files(
            tmp_path / subdir, categories, pages, edges, redirects
        )

    return _write


@pytest.fixture
def make_graph(graph_files):
    counter = {"n": 0}

    def _make(categories, pages, edges, redirects=None, strict=True):
        counter["n"] += 1
        paths = graph_files(
            categories, pages, edges, redirects, subdir=f"graph{counter['n']}"
        )
        return load_graph(
            paths["categories"],
            paths["pages"],
            paths["edges"],
            paths.get("redirects"),
            strict=strict,
        )

    return _make


def fan_in_case(make_graph, fan: dict[str, int]):
    """One page that competing labels reach: label L over ``fan[L]`` paths of
    length 2 (dag and exact raw weight ``fan[L] / 4``), or over one member
    edge when ``fan[L]`` is 0 (raw weight 1/2).

    Returns (graph, mapping, scheme) with all labels in one competition set.
    """
    cats, edges = [], []
    for i, label in enumerate(fan, start=1):
        root = 10 * i
        cats.append((root, label))
        if fan[label] == 0:
            edges.append((root, 1000, "member"))
        for j in range(1, fan[label] + 1):
            cats.append((root + j, f"{label} {j}"))
            edges += [(root, root + j, "subcat"), (root + j, 1000, "member")]
    graph = make_graph(cats, [(1000, "page")], edges)
    mapping = CategoryMapping(
        {
            label: [MappedCategory(graph.category_node(10 * i), "exact", 1.0)]
            for i, label in enumerate(fan, start=1)
        },
        [],
        {},
        0.9,
    )
    return graph, mapping, [sorted(fan)]
