"""Graph loading, validation, adjacency, and snapshot round trips."""

from __future__ import annotations

import hashlib
import random
import struct
import tempfile
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from wikicat import graph_store
from wikicat.exceptions import ConfigurationError, GraphFormatError
from wikicat.graph_store import load_graph, load_snapshot, save_snapshot
from wikicat.synth import make_ablation_wiki, make_scale_graph

from conftest import write_graph_files
from graph_loader_oracle import load_graph_lines

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
    assert g.external.tolist() == [10, 11, 12, 200, 201]
    assert g.names == ["Vehicles", "Trucks", "Cars", "Ford F-150", "Honda Civic"]
    assert g.children(root).tolist() == sorted([trucks, g.category_node(12)])
    assert g.children(trucks).tolist() == [page]
    assert g.in_degree.tolist() == [0, 1, 1, 1, 1]


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
    # A JSON integer in a mapping file may lie beyond int64.
    for big in (2**63, -(2**63) - 1, 10**30):
        with pytest.raises(ConfigurationError, match=f"unknown category id: {big}$"):
            g.category_node(big)
        with pytest.raises(ConfigurationError, match=f"unknown page id: {big}$"):
            g.page_node(big)


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
    assert h.n_categories == g.n_categories
    assert h.names == g.names
    assert np.array_equal(h.indptr, g.indptr)
    assert np.array_equal(h.indices, g.indices)
    assert np.array_equal(h.external, g.external)
    assert h.aliases == g.aliases
    assert np.array_equal(h.in_degree, g.in_degree)

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


def _page_with_a_child(g):
    g.indices = np.append(g.indices, 1).astype(np.int32)
    g.indptr[-1] += 1


def _row_descends(g):
    g.indices[:2] = g.indices[1::-1]  # the root's row reads [2, 1]


def _row_repeats(g):
    g.indices[1] = g.indices[0]


def _category_id_repeats(g):
    g.external[1] = g.external[0]  # categories 10, 10, 12


def _page_id_repeats(g):
    g.external[-1] = g.external[-2]  # pages 200, 200


@pytest.mark.parametrize(
    "damage",
    [
        _shift_first_offset,
        _offsets_decrease,
        _offsets_overrun,
        _edge_past_the_end,
        _negative_edge,
        _alias_of_a_page,
        _page_with_a_child,
        _row_descends,
        _row_repeats,
        _category_id_repeats,
        _page_id_repeats,
    ],
)
def test_snapshot_rejects_inconsistent_adjacency(make_graph, tmp_path, damage):
    g = make_graph(CATS, PAGES, EDGES, redirects=[("Lorries", 11)])
    damage(g)
    snap = tmp_path / "bad.bin"
    save_snapshot(g, snap)
    with pytest.raises(GraphFormatError, match="bad.bin: corrupt snapshot"):
        load_snapshot(snap)


@pytest.mark.parametrize(
    ("damage", "message"),
    [
        (_category_id_repeats, "duplicate category id 10"),
        (_page_id_repeats, "duplicate page id 200"),
    ],
)
def test_snapshot_names_a_repeated_id(make_graph, tmp_path, damage, message):
    """``load_graph`` refuses a repeated id, and so does the snapshot reader:
    ``category_node`` could never return the second node of one."""
    g = make_graph(CATS, PAGES, EDGES)
    damage(g)
    save_snapshot(g, tmp_path / "bad.bin")
    with pytest.raises(GraphFormatError, match=f"corrupt snapshot: {message}$"):
        load_snapshot(tmp_path / "bad.bin")


@pytest.mark.parametrize("field", range(4))  # n_cats, n_pages, n_edges, n_aliases
@pytest.mark.parametrize("count", [2**63, 2**64 - 1, 1 << 40])
def test_snapshot_rejects_counts_beyond_the_file(make_graph, tmp_path, field, count):
    snap = tmp_path / "huge.bin"
    save_snapshot(make_graph(CATS, PAGES, EDGES, redirects=[("Lorries", 11)]), snap)
    data = bytearray(snap.read_bytes())
    struct.pack_into("<Q", data, 8 + 8 * field, count)
    snap.write_bytes(bytes(data))
    with pytest.raises(GraphFormatError, match="huge.bin: corrupt snapshot: its count"):
        load_snapshot(snap)


@pytest.mark.parametrize("field", range(4))  # n_cats, n_pages, n_edges, n_aliases
def test_snapshot_of_the_least_size_loads(tmp_path, field):
    """With every name and alias empty the file is exactly as long as its
    counts need: it loads, and one more of any count is refused."""
    g = graph_store.CategoryGraph(
        2, np.array([1, 2, 30]), ["", "", ""], np.array([0, 2, 2, 2]),
        np.array([1, 2], dtype=np.int32), {"": 0},
    )
    snap = tmp_path / "least.bin"
    save_snapshot(g, snap)
    assert load_snapshot(snap).stats() == g.stats()
    data = bytearray(snap.read_bytes())
    (count,) = struct.unpack_from("<Q", data, 8 + 8 * field)
    struct.pack_into("<Q", data, 8 + 8 * field, count + 1)
    snap.write_bytes(bytes(data))
    with pytest.raises(GraphFormatError, match="corrupt snapshot: its counts need"):
        load_snapshot(snap)


# sha256 of two v1 snapshots: the file format must not drift.
_PINNED_SNAPSHOTS = {
    "ablation": "297d62db9064011dd8a44b6c50c54274ce9444c6a75db5617fb85e7a0133990a",
    "small": "46aece4ee8259d36a45bf49f9e9ccb553e0efeb95895a2edc58f296236a78280",
}


def test_snapshot_bytes_are_pinned(make_graph, tmp_path):
    make_ablation_wiki(tmp_path / "ablation", seed=0)
    graphs = {
        "ablation": load_graph(*(
            tmp_path / "ablation" / f"{t}.tsv" for t in ("categories", "pages", "edges")
        )),
        "small": make_graph(CATS, PAGES, EDGES, redirects=[("Lorries", 11)]),
    }
    for name, graph in graphs.items():
        save_snapshot(graph, tmp_path / "g.bin")
        digest = hashlib.sha256((tmp_path / "g.bin").read_bytes()).hexdigest()
        assert digest == _PINNED_SNAPSHOTS[name], name


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
    # The children and the in-degrees must describe the same edge set.
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
        assert seen == expected
        parents = Counter(v for _, v in expected)
        assert g.in_degree.tolist() == [parents[v] for v in range(g.n_nodes)]


# ------------------------------------------------ loader vs the line parser

# Odd id renderings: all but the first two leave the array grammar, and
# int() still takes some of those.
_ODD_IDS = [
    "zeros", "neg_zero", "plus", "space", "underscore", "arabic", "19_digits",
    "int64_max", "beyond_int64", "empty", "junk",
]


def _render_id(value: int, form: str) -> str:
    text = str(value)
    return {
        "plus": f"+{abs(value)}",
        "space": f" {text}",
        "underscore": f"{text}_0",
        "arabic": text.translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")),
        "zeros": f"{'-' if value < 0 else ''}00{abs(value)}",
        "neg_zero": "-0",
        "19_digits": str(abs(value)).zfill(19),
        "int64_max": str(2**63 - 1),
        "beyond_int64": str(2**63),
        "empty": "",
        "junk": f"{text}x",
    }[form]


@st.composite
def _graph_tsvs(draw):
    """(categories, pages, edges, redirects) texts.  In a quarter of the
    examples every field is well formed, though page titles may repeat,
    edges may dangle or disagree with their kind, and aliases may point
    nowhere or to a second category.  In the rest one kind of field is now
    and then rendered oddly."""
    defect = draw(st.sampled_from(["id", "name", "kind", "tabs", "ending", "final"]))
    rate = draw(st.sampled_from([0, 5, 20, 50]))  # percent of those fields

    def odd(kind: str) -> bool:
        return kind == defect and draw(st.integers(0, 99)) < rate

    def rare() -> bool:
        return draw(st.integers(0, 19)) == 0

    def id_text(value: int, taken: list[int]) -> str:
        if not odd("id"):
            return str(value)
        form = draw(st.sampled_from(_ODD_IDS + ["duplicate"]))
        if form == "duplicate":
            return str(draw(st.sampled_from(taken))) if taken else str(value)
        return _render_id(value, form)

    def line(fields: list[str]) -> str:
        if odd("tabs"):
            fields = fields + ["extra"] if draw(st.booleans()) else fields[:-1]
        ending = draw(st.sampled_from(["\r\n", "\r"])) if odd("ending") else "\n"
        return "\t".join(fields) + ending

    def text(lines: list[str]) -> str:
        out = "".join(lines)
        return out.rstrip("\r\n") if odd("final") else out

    ids = st.lists(st.integers(-3, 40), unique=True, max_size=8)
    names = st.text(alphabet="aBé \x0b\x85\u2028", min_size=1, max_size=3)
    tables = []
    for table_ids, unique in ((draw(ids), True), (draw(ids), False)):
        lines, table_names = [], []
        for i, value in enumerate(table_ids):
            # Repeated category names are drawn as defects, so that most
            # examples get as far as the edges and the redirects.
            name = draw(names.filter(lambda n: not unique or n not in table_names))
            if odd("name"):
                name = draw(st.sampled_from(["", "t\tab", "c\rr"] + table_names))
            table_names.append(name)
            lines.append(line([id_text(value, table_ids[:i]), name]))
        tables.append((table_ids, text(lines)))
    (cat_ids, categories), (page_ids, pages) = tables

    lines = []
    for _ in range(draw(st.integers(0, 16))):
        kind = draw(st.sampled_from(["subcat", "member"]))
        own, other = (cat_ids, page_ids) if kind == "subcat" else (page_ids, cat_ids)
        parent = draw(st.sampled_from(cat_ids)) if cat_ids and not rare() else 99
        if own and not rare():
            child = draw(st.sampled_from(own))
        elif other and draw(st.booleans()):
            child = draw(st.sampled_from(other))  # the wrong kind
        else:
            child = 98  # dangling
        if odd("kind"):
            kind = draw(st.sampled_from(["link", "Subcat", "member ", "subcat\t"]))
        lines.append(line([id_text(parent, []), id_text(child, []), kind]))
    edges = text(lines)

    lines, rows = [], []
    for _ in range(draw(st.integers(0, 10))):
        if rows and draw(st.booleans()):  # an alias again, maybe elsewhere
            alias, target = draw(st.sampled_from(rows))
            if draw(st.booleans()):
                target = draw(st.sampled_from(cat_ids)) if cat_ids else 97
        else:
            alias = "" if draw(st.integers(0, 49)) == 0 else draw(names)
            target = draw(st.sampled_from(cat_ids)) if cat_ids and not rare() else 97
        if odd("name"):
            alias = draw(st.sampled_from(["", "t\tab", "c\rr", "é\x85"]))
        rows.append((alias, target))
        lines.append(line([alias, id_text(target, [])]))
    return categories, pages, edges, text(lines)


def _outcome(load, files, strict, snap):
    try:
        graph = load(*files, strict=strict)
    except GraphFormatError as exc:
        return f"GraphFormatError: {exc}"
    save_snapshot(graph, snap)
    return snap.read_bytes(), graph.stats()


def _loader_and_oracle(files, strict, snap):
    """The outcome of ``load_graph`` and of the line parser."""
    return (
        _outcome(load_graph, files, strict, snap),
        _outcome(load_graph_lines, files, strict, snap),
    )


@seed(20261018)
@settings(max_examples=300, deadline=None, database=None)
@given(
    texts=_graph_tsvs(),
    strict=st.booleans(),
    block_bytes=st.sampled_from([1, 7, 32, 1 << 20]),
)
def test_columnar_loader_matches_line_parser(texts, strict, block_bytes):
    with tempfile.TemporaryDirectory() as d:
        files = [Path(d, name) for name in ("c.tsv", "p.tsv", "e.tsv", "r.tsv")]
        for path, text in zip(files, texts):
            path.write_bytes(text.encode("utf-8"))
        with mock.patch.object(graph_store, "_BLOCK_BYTES", block_bytes):
            got, want = _loader_and_oracle(files, strict, Path(d, "g.bin"))
    assert got == want


@seed(20261018)
@settings(max_examples=300, deadline=None, database=None)
@given(
    rows=st.lists(
        st.tuples(
            st.sampled_from(["Lorries", "Autos", "é", "a\x85b", "b\u2028", ""]),
            st.sampled_from(["10", "11", "12", "404", "+11", " 12", "x", str(2**63)]),
        ),
        max_size=12,
    ),
    strict=st.booleans(),
    block_bytes=st.sampled_from([1, 7, 1 << 20]),
)
def test_redirects_match_line_parser(rows, strict, block_bytes):
    """Aliases repeated onto the same and another category, unknown
    targets and odd ids, over one good graph."""
    with tempfile.TemporaryDirectory() as d:
        paths = write_graph_files(Path(d), CATS, PAGES, EDGES)
        files = [paths[key] for key in ("categories", "pages", "edges")]
        files.append(Path(d, "redirects.tsv"))
        files[-1].write_text("".join(f"{a}\t{c}\n" for a, c in rows), encoding="utf-8")
        with mock.patch.object(graph_store, "_BLOCK_BYTES", block_bytes):
            got, want = _loader_and_oracle(files, strict, Path(d, "g.bin"))
    assert got == want


_GOOD_ROWS = {
    "categories": [["1", "A"], ["2", "B"]],
    "pages": [["10", "P"], ["11", "Q"]],
    "edges": [["1", "2", "subcat"], ["2", "10", "member"], ["1", "11", "member"]],
    "redirects": [["Alias", "1"], ["Other", "2"]],
}
# The kind of each table's fields.
_FIELD_KINDS = {
    "categories": ("id", "name"),
    "pages": ("id", "name"),
    "edges": ("id", "id", "kind"),
    "redirects": ("name", "id"),
}
_ODD_FIELDS = {
    "id": [
        "+1", " 1", "1 ", "1_0", "١", "-0", "007", "-", "1x", "", "2", "99",
        "0000000000000000001", str(2**63 - 1), str(2**63), str(-(2**63) - 1),
        str(10**20 + 2),  # beyond int64, though its last 18 digits read 2
    ],
    "name": [
        "", "B", "Q", "Alias", "a\rb", "a\x0bb", "a\x85b", "a\u2028b", "a\tb",
    ],
    "kind": ["link", "Subcat", "member ", " member", "membe", "subcats", "subcat\t"],
}


def _one_odd_spot():
    """Each table's rows as text, with one field or line ending made odd."""
    def render(rows, endings):
        return "".join("\t".join(row) + end for row, end in zip(rows, endings))

    for table, rows in _GOOD_ROWS.items():
        plain = ["\n"] * len(rows)
        for i, row in enumerate(rows):
            for j, kind in enumerate(_FIELD_KINDS[table]):
                for token in _ODD_FIELDS[kind]:
                    odd = [list(r) for r in rows]
                    odd[i][j] = token
                    yield table, render(odd, plain)
            for end in ("\r\n", "\r", ""):
                yield table, render(rows, plain[:i] + [end] + plain[i + 1 :])
            if i:  # one tab moved from a line to the one above
                odd = [list(r) for r in rows]
                odd[i - 1].append(odd[i].pop())
                yield table, render(odd, plain)


def test_columnar_loader_matches_line_parser_at_each_odd_spot(tmp_path):
    files = [tmp_path / f"{table}.tsv" for table in _GOOD_ROWS]
    good = {
        table: "".join("\t".join(row) + "\n" for row in rows)
        for table, rows in _GOOD_ROWS.items()
    }
    for table, text in _one_odd_spot():
        for path, name in zip(files, _GOOD_ROWS):
            path.write_text(text if name == table else good[name], encoding="utf-8")
        for strict in (True, False):
            got, want = _loader_and_oracle(files, strict, tmp_path / "g.bin")
            assert got == want, (table, text, strict)


def test_columnar_loader_takes_the_generated_graphs(tmp_path, monkeypatch):
    """An array grammar too narrow for the synthetic graphs would send
    their ids, and the benchmark's, through int() one field at a time."""
    make_scale_graph(
        tmp_path / "scale", n_categories=2_400, n_pages=2_000, n_edges=20_000
    )
    make_ablation_wiki(tmp_path / "ablation", seed=0)

    def refuse(*args):
        raise AssertionError("a field was decoded on its own")

    monkeypatch.setattr(graph_store._Lines, "text", refuse)
    for name in ("scale", "ablation"):
        files = [tmp_path / name / f"{t}.tsv" for t in ("categories", "pages", "edges")]
        assert load_graph(*files).stats()["n_member_edges"] > 0


def test_crlf_and_lone_cr_input_give_the_lf_graph(graph_files, tmp_path):
    paths = graph_files(CATS, PAGES, EDGES, redirects=[("Lorries", 11)])
    keys = ("categories", "pages", "edges", "redirects")
    save_snapshot(load_graph(*(paths[key] for key in keys)), tmp_path / "lf.bin")
    for ending in ("\r\n", "\r"):
        for key in keys:
            text = paths[key].read_text(encoding="utf-8").replace("\r", "")
            paths[key].write_bytes(text.replace("\n", ending).encode("utf-8"))
        save_snapshot(load_graph(*(paths[key] for key in keys)), tmp_path / "cr.bin")
        assert (tmp_path / "cr.bin").read_bytes() == (tmp_path / "lf.bin").read_bytes()


def test_non_utf8_file_is_reported_before_its_other_faults(graph_files):
    """The reader checks a whole file's UTF-8 before its lines, so a bad
    byte far down the file wins over a bad id on line 2.  The line parser
    named line 2 here, as text mode decodes 8 KB at a time."""
    paths = graph_files(CATS, PAGES, EDGES)
    rows = "".join(f"{i}\tCategory {i}\n" for i in range(3, 2000))
    data = f"1\tA\nx\tB\n{rows}".encode("utf-8")
    paths["categories"].write_bytes(data[:15_000] + b"\xff" + data[15_000:])
    files = (paths["categories"], paths["pages"], paths["edges"])
    with pytest.raises(GraphFormatError) as exc:
        load_graph(*files)
    assert str(exc.value) == (
        f"{paths['categories']}: not UTF-8: 'utf-8' codec can't decode byte 0xff "
        "in position 15000: invalid start byte"
    )
    with pytest.raises(GraphFormatError, match=r"categories\.tsv:2: category id is"):
        load_graph_lines(*files)
