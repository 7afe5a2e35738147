"""Graph loading, validation, adjacency, and snapshot round trips."""

from __future__ import annotations

import random

import numpy as np
import pytest

from wikicat.exceptions import ConfigurationError, GraphFormatError
from wikicat.graph_store import load_graph, load_snapshot, save_snapshot

CATS = [(10, "Vehicles"), (11, "Trucks"), (12, "Cars")]
PAGES = [(200, "Ford F-150"), (201, "Honda Civic")]
EDGES = [
    (10, 11, "subcat"),
    (10, 12, "subcat"),
    (11, 200, "member"),
    (12, 201, "member"),
]


def test_load_basic(make_graph):
    g = make_graph(CATS, PAGES, EDGES)
    assert g.stats() == {
        "n_categories": 3,
        "n_pages": 2,
        "n_subcat_edges": 2,
        "n_member_edges": 2,
        "n_aliases": 0,
        "dropped_edges": 0,
        "dropped_aliases": 0,
    }
    root = g.category_node(10)
    trucks = g.category_node(11)
    page = g.page_node(200)
    assert g.node_name(root) == "Vehicles"
    assert g.node_name(page) == "Ford F-150"
    assert g.external_id(trucks) == 11
    assert not g.is_page(trucks)
    assert g.is_page(page)
    assert g.children(root).tolist() == sorted([trucks, g.category_node(12)])
    assert g.children(trucks).tolist() == [page]
    assert g.parents(page).tolist() == [trucks]
    assert g.parents(root).tolist() == []


def test_children_sorted_and_subcats_first(make_graph):
    # Children come back ascending, so subcategories precede member pages.
    g = make_graph(
        [(1, "A"), (2, "B"), (3, "C")],
        [(50, "p"), (51, "q")],
        [(1, 51, "member"), (1, 3, "subcat"), (1, 50, "member"), (1, 2, "subcat")],
    )
    kids = g.children(g.category_node(1)).tolist()
    assert kids == sorted(kids)
    split = g.n_categories
    assert [k for k in kids if k < split] == sorted(
        [g.category_node(2), g.category_node(3)]
    )


def test_shared_external_ids_across_namespaces(make_graph):
    # Category ids and page ids live in separate namespaces.
    g = make_graph([(7, "Topic")], [(7, "Article")], [(7, 7, "member")])
    assert g.node_name(g.category_node(7)) == "Topic"
    assert g.node_name(g.page_node(7)) == "Article"


def test_external_ids_gather_matches_external_id(make_graph):
    g = make_graph(CATS, PAGES, EDGES)
    nodes = list(range(g.n_nodes))[::-1]
    assert g.external_ids(nodes).tolist() == [g.external_id(n) for n in nodes]
    assert g.external_ids([]).tolist() == []
    for bad in ([0, g.n_nodes], [-1]):
        with pytest.raises(ConfigurationError, match="out of range"):
            g.external_ids(bad)


def test_children_on_page_is_error(make_graph):
    g = make_graph(CATS, PAGES, EDGES)
    with pytest.raises(ConfigurationError):
        g.children(g.page_node(200))


def test_unknown_external_ids(make_graph):
    g = make_graph(CATS, PAGES, EDGES)
    with pytest.raises(ConfigurationError):
        g.category_node(999)
    with pytest.raises(ConfigurationError):
        g.page_node(10)  # category id, not a page id


def test_duplicate_category_id_rejected(make_graph):
    with pytest.raises(GraphFormatError, match="duplicate category id"):
        make_graph([(1, "A"), (1, "B")], [], [])


def test_duplicate_category_name_rejected(make_graph):
    with pytest.raises(GraphFormatError, match="duplicate category name"):
        make_graph([(1, "A"), (2, "A")], [], [])


def test_duplicate_page_titles_allowed(make_graph):
    g = make_graph([(1, "A")], [(10, "Same"), (11, "Same")], [])
    assert g.n_pages == 2


def test_malformed_line_reports_file_and_line(graph_files):
    paths = graph_files(CATS, PAGES, EDGES)
    paths["edges"].write_text("10\t11\tsubcat\n10\t200\n", encoding="utf-8")
    with pytest.raises(GraphFormatError, match=r"edges\.tsv:2"):
        load_graph(paths["categories"], paths["pages"], paths["edges"])


def test_malformed_line_is_error_even_when_lenient(graph_files):
    paths = graph_files(CATS, PAGES, EDGES)
    paths["categories"].write_text("x\tBroken\n", encoding="utf-8")
    with pytest.raises(GraphFormatError, match="not an integer"):
        load_graph(paths["categories"], paths["pages"], paths["edges"], strict=False)


def test_unknown_edge_kind_rejected(make_graph):
    with pytest.raises(GraphFormatError, match="unknown edge kind"):
        make_graph(CATS, PAGES, [(10, 11, "link")], strict=False)


def test_dangling_edge_strict_vs_lenient(make_graph):
    bad = EDGES + [(99, 11, "subcat"), (10, 999, "member")]
    with pytest.raises(GraphFormatError, match="not a known category"):
        make_graph(CATS, PAGES, bad)
    g = make_graph(CATS, PAGES, bad, strict=False)
    assert g.dropped_edges == 2
    assert g.stats()["n_subcat_edges"] == 2


def test_kind_mismatch_strict_vs_lenient(make_graph):
    # subcat edge whose child id only exists in the page table
    bad = EDGES + [(10, 200, "subcat")]
    with pytest.raises(GraphFormatError, match="wrong kind"):
        make_graph(CATS, PAGES, bad)
    g = make_graph(CATS, PAGES, bad, strict=False)
    assert g.dropped_edges == 1


def test_duplicate_edges_collapse(make_graph):
    g = make_graph(CATS, PAGES, EDGES + EDGES)
    assert g.stats()["n_subcat_edges"] == 2
    assert g.stats()["n_member_edges"] == 2


def test_redirects_load_and_validate(make_graph):
    g = make_graph(CATS, PAGES, EDGES, redirects=[("Lorries", 11), ("Autos", 12)])
    assert g.aliases["Lorries"] == g.category_node(11)
    assert g.stats()["n_aliases"] == 2

    with pytest.raises(GraphFormatError, match="unknown category"):
        make_graph(CATS, PAGES, EDGES, redirects=[("Lorries", 404)])
    g = make_graph(CATS, PAGES, EDGES, redirects=[("Lorries", 404)], strict=False)
    assert g.dropped_aliases == 1

    dup = [("Lorries", 11), ("Lorries", 12)]
    with pytest.raises(GraphFormatError, match="more than one"):
        make_graph(CATS, PAGES, EDGES, redirects=dup)
    g = make_graph(CATS, PAGES, EDGES, redirects=dup, strict=False)
    assert g.aliases["Lorries"] == g.category_node(11)
    assert g.dropped_aliases == 1


def test_snapshot_round_trip(make_graph, tmp_path):
    g = make_graph(CATS, PAGES, EDGES, redirects=[("Lorries", 11)])
    snap = tmp_path / "graph.bin"
    save_snapshot(g, snap)
    h = load_snapshot(snap)
    assert h.stats() == g.stats()
    assert h.cat_names == g.cat_names
    assert h.page_titles == g.page_titles
    assert np.array_equal(h.indptr, g.indptr)
    assert np.array_equal(h.indices, g.indices)
    assert np.array_equal(h.cat_external, g.cat_external)
    assert np.array_equal(h.page_external, g.page_external)
    assert h.aliases == g.aliases
    assert np.array_equal(h.rindptr, g.rindptr)
    assert np.array_equal(h.rindices, g.rindices)

    snap2 = tmp_path / "graph2.bin"
    save_snapshot(h, snap2)
    assert snap.read_bytes() == snap2.read_bytes()


def test_snapshot_rejects_junk(tmp_path):
    bad = tmp_path / "junk.bin"
    bad.write_bytes(b"not a snapshot at all")
    with pytest.raises(GraphFormatError, match="not a graph snapshot"):
        load_snapshot(bad)


def _shift_first_offset(g):
    g.indptr[0] = 1


def _offsets_decrease(g):
    g.indptr[1], g.indptr[2] = g.indptr[2] + 1, g.indptr[1]


def _offsets_overrun(g):
    g.indptr[-1] += 1


def _edge_past_the_end(g):
    g.indices[0] = g.n_nodes


def _negative_edge(g):
    g.indices[-1] = -1


def _alias_of_a_page(g):
    g.aliases["Lorries"] = g.n_categories


@pytest.mark.parametrize(
    "damage",
    [
        _shift_first_offset,
        _offsets_decrease,
        _offsets_overrun,
        _edge_past_the_end,
        _negative_edge,
        _alias_of_a_page,
    ],
)
def test_snapshot_rejects_inconsistent_adjacency(make_graph, tmp_path, damage):
    g = make_graph(CATS, PAGES, EDGES, redirects=[("Lorries", 11)])
    damage(g)
    snap = tmp_path / "bad.bin"
    save_snapshot(g, snap)
    with pytest.raises(GraphFormatError, match="bad.bin: corrupt snapshot"):
        load_snapshot(snap)


def test_snapshot_rejects_truncation_anywhere(make_graph, tmp_path):
    snap = tmp_path / "graph.bin"
    save_snapshot(make_graph(CATS, PAGES, EDGES, redirects=[("Lorries", 11)]), snap)
    data = snap.read_bytes()
    cut = tmp_path / "cut.bin"
    for size in range(4, len(data)):
        cut.write_bytes(data[:size])
        with pytest.raises(GraphFormatError, match="cut.bin: "):
            load_snapshot(cut)


def test_empty_graph(make_graph):
    g = make_graph([], [], [])
    assert g.stats()["n_categories"] == 0
    assert g.n_nodes == 0


def test_random_graphs_adjacency_consistent(make_graph):
    # Forward and reverse adjacency must describe the same edge set.
    rng = random.Random(20260822)
    for _ in range(10):
        n_cats = rng.randint(1, 12)
        n_pages = rng.randint(0, 10)
        cats = [(100 + i, f"Cat {i}") for i in range(n_cats)]
        pages = [(500 + i, f"Page {i}") for i in range(n_pages)]
        edges = []
        for _ in range(rng.randint(0, 40)):
            p = 100 + rng.randrange(n_cats)
            if n_pages and rng.random() < 0.4:
                edges.append((p, 500 + rng.randrange(n_pages), "member"))
            else:
                edges.append((p, 100 + rng.randrange(n_cats), "subcat"))
        g = make_graph(cats, pages, edges)
        expected = set()
        for p_ext, c_ext, kind in edges:
            child = (
                g.page_node(c_ext) if kind == "member" else g.category_node(c_ext)
            )
            expected.add((g.category_node(p_ext), child))
        seen = set()
        for u in range(g.n_categories):
            for v in g.children(u).tolist():
                seen.add((u, v))
                assert u in g.parents(v).tolist()
        assert seen == expected
        assert sum(len(g.parents(v)) for v in range(g.n_nodes)) == len(expected)
