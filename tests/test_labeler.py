"""Traversal, pruning, path weights, normalization, and labeling modes."""

from __future__ import annotations

import math
import random

import networkx as nx
import pytest

from wikicat.exceptions import ConfigurationError, TaxonomyError
from wikicat.labeler import (
    CompetitionSet,
    LabelingConfig,
    RootSpec,
    build_competition_sets,
    coarse_scheme,
    enumerate_paths,
    fine_scheme,
    label_corpus,
    normalize_and_assign,
    page_weight,
    parent_coverage,
    read_labels,
    traverse,
    write_labels,
)
from wikicat.taxonomy_mapper import Taxonomy, TaxonomyLabel, map_taxonomy

DAG_CFG = LabelingConfig()
EXACT_CFG = LabelingConfig(path_mode="exact", exact_path_cap=8)


def _single(graph, ext_id, label="root"):
    spec = RootSpec(label, (graph.category_node(ext_id),))
    return spec, CompetitionSet((spec,))


# ------------------------------------------------------------ config types


def test_config_validation():
    LabelingConfig()  # defaults are valid
    with pytest.raises(ConfigurationError, match="unknown mode"):
        LabelingConfig(mode="everything")
    with pytest.raises(ConfigurationError, match="path_mode"):
        LabelingConfig(path_mode="both")
    with pytest.raises(ConfigurationError, match="coverage_threshold"):
        LabelingConfig(coverage_threshold=1.5)
    with pytest.raises(ConfigurationError, match="assignment_threshold"):
        LabelingConfig(assignment_threshold=-0.1)
    with pytest.raises(ConfigurationError, match="max_depth"):
        LabelingConfig(max_depth=-1)
    with pytest.raises(ConfigurationError, match="cap"):
        LabelingConfig(path_mode="exact", exact_path_cap=None)


def test_competition_set_validation():
    a = RootSpec("a", (0, 1))
    with pytest.raises(ConfigurationError, match="no root nodes"):
        RootSpec("x", ())
    with pytest.raises(ConfigurationError, match="duplicate labels"):
        CompetitionSet((a, RootSpec("a", (2,))))
    with pytest.raises(ConfigurationError, match="mapped for both"):
        CompetitionSet((a, RootSpec("b", (1,))))
    cs = CompetitionSet((a, RootSpec("b", (2,))))
    assert cs.blocked_for("a") == frozenset({2})
    assert cs.blocked_for("b") == frozenset({0, 1})
    with pytest.raises(ConfigurationError, match="not in competition set"):
        cs.blocked_for("c")


# --------------------------------------------------------------- traversal


def test_traverse_depths_on_trucks(trucks_graph):
    g = trucks_graph
    spec, cs = _single(g, 1, "trucks")
    reach = traverse(g, spec, cs, DAG_CFG)
    assert reach.depth[g.category_node(1)] == 0
    assert reach.depth[g.category_node(2)] == 1
    assert reach.depth[g.category_node(4)] == 1
    assert reach.depth[g.category_node(3)] == 2
    assert reach.depth[g.page_node(100)] == 2  # shortest distance
    assert reach.depth[g.page_node(101)] == 2
    assert reach.depth[g.category_node(5)] == -1
    assert g.category_node(5) not in reach.reachable_categories
    assert reach.candidate_pages[g.page_node(100)] == 2


def test_traverse_blocks_competitors(suvs_graph):
    g = suvs_graph
    trucks = RootSpec("trucks", (g.category_node(1),))
    suvs = RootSpec("suvs", (g.category_node(4),))
    cs = CompetitionSet((trucks, suvs))
    reach = traverse(g, trucks, cs, DAG_CFG)
    assert reach.depth[g.category_node(4)] == -1
    assert g.page_node(200) not in reach.candidate_pages
    assert g.page_node(201) not in reach.candidate_pages
    assert g.page_node(202) in reach.candidate_pages

    alone = traverse(g, trucks, CompetitionSet((trucks,)), DAG_CFG)
    assert alone.depth[g.page_node(200)] == 4


def test_traverse_requires_membership(trucks_graph):
    g = trucks_graph
    outsider = RootSpec("ghost", (g.category_node(6),))
    _, cs = _single(g, 1, "trucks")
    with pytest.raises(ConfigurationError, match="not in competition set"):
        traverse(g, outsider, cs, DAG_CFG)


def test_traverse_rejects_page_roots(trucks_graph):
    g = trucks_graph
    spec = RootSpec("bad", (g.page_node(100),))
    with pytest.raises(ConfigurationError, match="not a category"):
        traverse(g, spec, CompetitionSet((spec,)), DAG_CFG)


def test_traverse_terminates_on_cycles(make_graph):
    g = make_graph(
        [(1, "A"), (2, "B"), (3, "C")],
        [(10, "p")],
        [(1, 2, "subcat"), (2, 3, "subcat"), (3, 1, "subcat"), (3, 10, "member")],
    )
    spec, cs = _single(g, 1)
    reach = traverse(g, spec, cs, DAG_CFG)
    assert reach.depth[g.category_node(1)] == 0
    assert reach.depth[g.category_node(2)] == 1
    assert reach.depth[g.category_node(3)] == 2
    assert reach.candidate_pages == {g.page_node(10): 3}


def test_traverse_max_depth(trucks_graph):
    g = trucks_graph
    spec, cs = _single(g, 1, "trucks")
    capped = traverse(g, spec, cs, LabelingConfig(max_depth=1))
    assert capped.depth[g.category_node(2)] == 1
    assert capped.depth[g.category_node(3)] == -1
    assert capped.candidate_pages == {}
    two = traverse(g, spec, cs, LabelingConfig(max_depth=2))
    assert two.depth[g.page_node(100)] == 2


def _random_graph_spec(rng, n_cats, n_pages, n_edges):
    cats = [(100 + i, f"C{i}") for i in range(n_cats)]
    pages = [(900 + i, f"P{i}") for i in range(n_pages)]
    edges = []
    for _ in range(n_edges):
        p = 100 + rng.randrange(n_cats)
        if n_pages and rng.random() < 0.3:
            edges.append((p, 900 + rng.randrange(n_pages), "member"))
        else:
            edges.append((p, 100 + rng.randrange(n_cats), "subcat"))
    return cats, pages, edges


def test_multi_source_depth_is_min_of_single_sources(make_graph):
    rng = random.Random(42)
    for _ in range(15):
        cats, pages, edges = _random_graph_spec(rng, 10, 6, 35)
        g = make_graph(cats, pages, edges)
        roots = rng.sample(range(10), rng.randint(2, 3))
        nodes = tuple(g.category_node(100 + r) for r in roots)
        multi = traverse(
            g, RootSpec("m", nodes), CompetitionSet((RootSpec("m", nodes),)), DAG_CFG
        )
        singles = [
            traverse(
                g, RootSpec("s", (n,)), CompetitionSet((RootSpec("s", (n,)),)), DAG_CFG
            )
            for n in nodes
        ]
        for node in range(g.n_nodes):
            per = [r.depth[node] for r in singles if r.depth[node] >= 0]
            expected = min(per) if per else -1
            assert multi.depth[node] == expected


# ----------------------------------------------------------- coverage


def test_parent_coverage_on_trucks(trucks_graph):
    g = trucks_graph
    spec, cs = _single(g, 1, "trucks")
    reach = traverse(g, spec, cs, DAG_CFG)
    assert parent_coverage(g, g.page_node(100), reach) == 0.75
    assert parent_coverage(g, g.page_node(101), reach) == 0.25


def test_parent_coverage_full(suvs_graph):
    g = suvs_graph
    spec, cs = _single(g, 4, "suvs")
    reach = traverse(g, spec, cs, DAG_CFG)
    assert parent_coverage(g, g.page_node(200), reach) == 1.0


def test_parent_coverage_requires_candidate(trucks_graph):
    g = trucks_graph
    spec, cs = _single(g, 6, "clubs")
    reach = traverse(g, spec, cs, DAG_CFG)
    with pytest.raises(ConfigurationError, match="not a candidate"):
        parent_coverage(g, g.page_node(100), reach)  # unreached page
    with pytest.raises(ConfigurationError, match="not a candidate"):
        parent_coverage(g, g.category_node(1), reach)  # not a page


# ------------------------------------------------------------ path lengths


def test_enumerate_paths_chain_and_diamond(make_graph):
    chain = make_graph(
        [(1, "r"), (2, "c1")],
        [(10, "p")],
        [(1, 2, "subcat"), (2, 10, "member")],
    )
    spec = RootSpec("r", (chain.category_node(1),))
    assert enumerate_paths(chain, spec, chain.page_node(10), 8) == [2]

    diamond = make_graph(
        [(1, "r"), (2, "c1"), (3, "c2"), (4, "c3")],
        [(10, "p")],
        [
            (1, 2, "subcat"),
            (1, 3, "subcat"),
            (2, 4, "subcat"),
            (3, 4, "subcat"),
            (4, 10, "member"),
        ],
    )
    spec = RootSpec("r", (diamond.category_node(1),))
    assert enumerate_paths(diamond, spec, diamond.page_node(10), 8) == [3, 3]


def test_enumerate_paths_on_trucks(trucks_graph):
    g = trucks_graph
    spec = RootSpec("trucks", (g.category_node(1),))
    page = g.page_node(100)
    assert enumerate_paths(g, spec, page, 8) == [2, 2, 3]
    assert enumerate_paths(g, spec, page, 2) == [2, 2]
    blocked = frozenset({g.category_node(2)})
    assert enumerate_paths(g, spec, page, 8, blocked) == [2]


def test_enumerate_paths_matches_networkx(make_graph):
    rng = random.Random(99)
    for _ in range(12):
        cats, pages, edges = _random_graph_spec(rng, 8, 3, 22)
        g = make_graph(cats, pages, edges)
        nxg = nx.DiGraph()
        nxg.add_nodes_from(range(g.n_nodes))
        for u in range(g.n_categories):
            for v in g.children(u).tolist():
                nxg.add_edge(u, v)
        root = g.category_node(100 + rng.randrange(8))
        page = g.page_node(900 + rng.randrange(3))
        cap = rng.randint(2, 6)
        spec = RootSpec("r", (root,))
        mine = enumerate_paths(g, spec, page, cap)
        oracle = sorted(
            len(path) - 1
            for path in nx.all_simple_paths(nxg, root, page, cutoff=cap)
        )
        assert mine == oracle


# ------------------------------------------------------------ page weights


def test_page_weight_single_path(make_graph):
    g = make_graph([(1, "r")], [(10, "p")], [(1, 10, "member")])
    spec, cs = _single(g, 1)
    reach = traverse(g, spec, cs, DAG_CFG)
    assert page_weight(reach, g.page_node(10), DAG_CFG) == 0.5
    assert page_weight(reach, g.page_node(10), EXACT_CFG) == 0.5


def test_page_weight_trucks_fixture(trucks_graph):
    g = trucks_graph
    spec, cs = _single(g, 1, "trucks")
    reach = traverse(g, spec, cs, DAG_CFG)
    page = g.page_node(100)
    # exact: paths {2,2,3} -> 1/4 + 1/4 + 1/8
    assert page_weight(reach, page, EXACT_CFG) == pytest.approx(0.625, abs=1e-12)
    # dag: two depth-increasing paths at depth 2 -> 2/4
    assert page_weight(reach, page, DAG_CFG) == pytest.approx(0.5, abs=1e-12)


def test_page_weight_errors(trucks_graph):
    g = trucks_graph
    spec, cs = _single(g, 1, "trucks")
    reach = traverse(g, spec, cs, DAG_CFG)
    with pytest.raises(ConfigurationError, match="not a reachable page"):
        page_weight(reach, g.category_node(2), DAG_CFG)
    spec6, cs6 = _single(g, 6, "clubs")
    reach6 = traverse(g, spec6, cs6, DAG_CFG)
    with pytest.raises(ConfigurationError, match="not a reachable page"):
        page_weight(reach6, g.page_node(100), DAG_CFG)


def _layered_dag_spec(rng, n_layers, width, page_count):
    """Random DAG whose edges only go layer i -> i+1, so all paths are
    level-monotone and dag mode must equal exact mode."""
    cats = []
    layers = []
    ext = 100
    for layer in range(n_layers):
        ids = []
        for _ in range(rng.randint(1, width)):
            cats.append((ext, f"C{ext}"))
            ids.append(ext)
            ext += 1
        layers.append(ids)
    edges = []
    for a, b in zip(layers, layers[1:]):
        for child in b:
            for parent in rng.sample(a, rng.randint(1, len(a))):
                edges.append((parent, child, "subcat"))
    pages = []
    last = layers[-1]
    for i in range(page_count):
        pages.append((900 + i, f"P{i}"))
        for parent in rng.sample(last, rng.randint(1, len(last))):
            edges.append((parent, 900 + i, "member"))
    return cats, pages, edges, layers[0]


def test_dag_equals_exact_on_level_monotone_fixtures(make_graph):
    rng = random.Random(5)
    for _ in range(10):
        cats, pages, edges, top = _layered_dag_spec(rng, rng.randint(2, 4), 4, 2)
        g = make_graph(cats, pages, edges)
        nodes = tuple(g.category_node(e) for e in top)
        spec = RootSpec("r", nodes)
        reach = traverse(g, spec, CompetitionSet((spec,)), DAG_CFG)
        exact_cfg = LabelingConfig(path_mode="exact", exact_path_cap=12)
        for page in reach.candidate_pages:
            w_dag = page_weight(reach, page, DAG_CFG)
            w_exact = page_weight(reach, page, exact_cfg)
            assert w_dag == pytest.approx(w_exact, abs=1e-9)


def test_dag_at_most_exact_on_cyclic_graphs(make_graph):
    rng = random.Random(6)
    for _ in range(10):
        cats, pages, edges = _random_graph_spec(rng, 8, 4, 30)
        g = make_graph(cats, pages, edges)
        spec = RootSpec("r", (g.category_node(100),))
        reach = traverse(g, spec, CompetitionSet((spec,)), DAG_CFG)
        exact_cfg = LabelingConfig(path_mode="exact", exact_path_cap=10)
        for page in reach.candidate_pages:
            w_dag = page_weight(reach, page, DAG_CFG)
            w_exact = page_weight(reach, page, exact_cfg)
            assert w_dag <= w_exact + 1e-9


def test_adding_competitor_never_raises_exact_weight(make_graph):
    rng = random.Random(13)
    for _ in range(15):
        cats, pages, edges = _random_graph_spec(rng, 9, 4, 30)
        g = make_graph(cats, pages, edges)
        root, comp = rng.sample(range(9), 2)
        spec = RootSpec("r", (g.category_node(100 + root),))
        blocked = frozenset({g.category_node(100 + comp)})
        for ext in (900, 901, 902, 903):
            page = g.page_node(ext)
            free = sum(2.0 ** -n for n in enumerate_paths(g, spec, page, 7))
            cut = sum(2.0 ** -n for n in enumerate_paths(g, spec, page, 7, blocked))
            assert cut <= free + 1e-12


# ------------------------------------------------------- normalize/assign


def test_normalize_and_assign_examples():
    assert normalize_and_assign([("A", 0.5), ("B", 0.25), ("C", 0.25)]) == [
        ("A", 0.5)
    ]
    assert (
        normalize_and_assign([("A", 0.3), ("B", 0.3), ("C", 0.2), ("D", 0.2)]) == []
    )
    assert normalize_and_assign([("A", 0.125)]) == [("A", 1.0)]


def test_normalize_and_assign_ordering_and_sum():
    out = normalize_and_assign([("b", 2.0), ("a", 2.0), ("c", 1.0)], threshold=0.0)
    assert [label for label, _ in out] == ["a", "b", "c"]
    assert sum(w for _, w in out) == pytest.approx(1.0, abs=1e-9)


def test_normalize_and_assign_errors():
    with pytest.raises(ConfigurationError, match="no candidate"):
        normalize_and_assign([])
    with pytest.raises(ConfigurationError, match="duplicate"):
        normalize_and_assign([("A", 1.0), ("A", 2.0)])
    with pytest.raises(ConfigurationError, match="positive"):
        normalize_and_assign([("A", 0.0)])


def test_normalize_handles_infinite_raw():
    out = normalize_and_assign([("A", math.inf), ("B", 1.0)])
    assert out == [("A", 1.0)]


# ------------------------------------------------------------ label_corpus


def _suvs_setup(suvs_graph, suvs_taxonomy):
    mapping = map_taxonomy(suvs_taxonomy, suvs_graph)
    assert set(mapping.entries) == {"trucks", "suvs"}
    assert [mc.node for mc in mapping.entries["trucks"]] == [
        suvs_graph.category_node(1)
    ]
    assert [mc.node for mc in mapping.entries["suvs"]] == [
        suvs_graph.category_node(4)
    ]
    return mapping


def test_full_mode_resolves_competition(suvs_graph, suvs_taxonomy):
    g = suvs_graph
    mapping = _suvs_setup(g, suvs_taxonomy)
    records = label_corpus(g, mapping, [["trucks", "suvs"]], DAG_CFG)
    by_page = {rec.page: rec for rec in records}
    for ext in (200, 201):
        labels = [a.label for a in by_page[g.page_node(ext)].assignments]
        assert labels == ["suvs"]
    assert [a.label for a in by_page[g.page_node(202)].assignments] == ["trucks"]

    solo = label_corpus(g, mapping, [["trucks"]], DAG_CFG)
    solo_pages = {rec.page: rec for rec in solo}
    labels = [a.label for a in solo_pages[g.page_node(200)].assignments]
    assert labels == ["trucks"]


def test_full_mode_coverage_pruning(trucks_graph, trucks_taxonomy):
    g = trucks_graph
    mapping = map_taxonomy(trucks_taxonomy, g)
    full = label_corpus(g, mapping, [["trucks"]], DAG_CFG)
    assert [rec.page for rec in full] == [g.page_node(100)]
    (assignment,) = full[0].assignments
    assert assignment.label == "trucks"
    assert assignment.w_raw == pytest.approx(0.5)
    assert assignment.w_norm == 1.0
    assert assignment.depth == 2

    kept = label_corpus(
        g, mapping, [["trucks"]], LabelingConfig(mode="no_pruning")
    )
    assert {rec.page for rec in kept} == {g.page_node(100), g.page_node(101)}
    assert all(rec.mode == "no_pruning" for rec in kept)


def test_child_only_mode(suvs_graph, suvs_taxonomy):
    g = suvs_graph
    mapping = _suvs_setup(g, suvs_taxonomy)
    records = label_corpus(
        g, mapping, [["trucks", "suvs"]], LabelingConfig(mode="child_only")
    )
    got = {
        (g.external_id(rec.page), tuple(a.label for a in rec.assignments))
        for rec in records
    }
    # The trucks root has no direct member pages, only subcategories.
    assert got == {(200, ("suvs",)), (201, ("suvs",))}
    for rec in records:
        assert rec.assignments[0].depth == 1
        assert rec.assignments[0].w_norm == 1.0


def test_all_descendants_mode(suvs_graph, suvs_taxonomy):
    g = suvs_graph
    mapping = _suvs_setup(g, suvs_taxonomy)
    records = label_corpus(
        g, mapping, [["trucks", "suvs"]], LabelingConfig(mode="all_descendants")
    )
    got = {
        g.external_id(rec.page): [a.label for a in rec.assignments]
        for rec in records
    }
    assert got == {200: ["suvs"], 201: ["suvs"], 202: ["trucks"]}


def test_min_dist_mode_ties(make_graph):
    g = make_graph(
        [(1, "A"), (2, "B"), (3, "Bx")],
        [(10, "tied"), (11, "near-a")],
        [
            (1, 10, "member"),
            (2, 10, "member"),
            (1, 11, "member"),
            (2, 3, "subcat"),
            (3, 11, "member"),
        ],
    )
    tax = Taxonomy([TaxonomyLabel("a", "A"), TaxonomyLabel("b", "B")])
    mapping = map_taxonomy(tax, g)
    records = label_corpus(g, mapping, [["a", "b"]], LabelingConfig(mode="min_dist"))
    by_ext = {g.external_id(rec.page): rec for rec in records}
    tied = by_ext[10].assignments
    assert [a.label for a in tied] == ["a", "b"]
    assert all(a.w_norm == 0.5 and a.depth == 1 for a in tied)
    near = by_ext[11].assignments
    assert [(a.label, a.depth) for a in near] == [("a", 1)]


def test_min_dist_ignores_assignment_threshold(suvs_graph, suvs_taxonomy):
    g = suvs_graph
    mapping = _suvs_setup(g, suvs_taxonomy)
    lo = label_corpus(
        g,
        mapping,
        [["trucks", "suvs"]],
        LabelingConfig(mode="min_dist", assignment_threshold=0.0),
    )
    hi = label_corpus(
        g,
        mapping,
        [["trucks", "suvs"]],
        LabelingConfig(mode="min_dist", assignment_threshold=0.9),
    )
    assert lo == hi


def test_label_corpus_empty_assignments_kept(make_graph):
    # Two labels tie at 0.5 each; threshold 0.5 strictly rejects both, but
    # the page still gets a record showing it was considered.
    g = make_graph(
        [(1, "A"), (2, "B")],
        [(10, "p")],
        [(1, 10, "member"), (2, 10, "member")],
    )
    tax = Taxonomy([TaxonomyLabel("a", "A"), TaxonomyLabel("b", "B")])
    mapping = map_taxonomy(tax, g)
    records = label_corpus(
        g, mapping, [["a", "b"]], LabelingConfig(assignment_threshold=0.5)
    )
    (rec,) = records
    assert rec.page == g.page_node(10)
    assert rec.assignments == ()


def test_label_corpus_requires_mapped_labels(suvs_graph, suvs_taxonomy):
    g = suvs_graph
    mapping = _suvs_setup(g, suvs_taxonomy)
    with pytest.raises(TaxonomyError, match="not mapped"):
        label_corpus(g, mapping, [["trucks", "ghost"]], DAG_CFG)


def test_label_corpus_workers_equivalent(suvs_graph, suvs_taxonomy):
    g = suvs_graph
    mapping = _suvs_setup(g, suvs_taxonomy)
    one = label_corpus(g, mapping, [["trucks", "suvs"]], DAG_CFG, workers=1)
    four = label_corpus(g, mapping, [["trucks", "suvs"]], DAG_CFG, workers=4)
    assert one == four


def test_schemes_from_taxonomy():
    tax = Taxonomy(
        [
            TaxonomyLabel("t1", "One"),
            TaxonomyLabel("t2", "Two"),
            TaxonomyLabel("f1", "Fine A", "t1"),
            TaxonomyLabel("f2", "Fine B", "t1"),
        ]
    )
    assert coarse_scheme(tax) == [["t1", "t2"]]
    assert fine_scheme(tax) == [["f1", "f2"]]


def test_build_competition_sets_checks_overlap(make_graph):
    g = make_graph([(1, "A"), (2, "A2")], [], [])
    tax = Taxonomy([TaxonomyLabel("a", "A"), TaxonomyLabel("b", "A2")])
    mapping = map_taxonomy(tax, g, overrides={"b": [g.category_node(1)]})
    with pytest.raises(ConfigurationError, match="mapped for both"):
        build_competition_sets(mapping, [["a", "b"]])


# ------------------------------------------------------------ serialization


def test_labels_round_trip(suvs_graph, suvs_taxonomy, tmp_path):
    g = suvs_graph
    mapping = _suvs_setup(g, suvs_taxonomy)
    records = label_corpus(g, mapping, [["trucks", "suvs"]], DAG_CFG)
    path = tmp_path / "labels.jsonl"
    write_labels(records, g, path)
    rows = read_labels(path)
    assert [row["page"] for row in rows] == [g.external_id(r.page) for r in records]
    assert all(row["mode"] == "full" for row in rows)
    first = rows[0]["assignments"][0]
    assert set(first) == {"label", "w_raw", "w_norm", "depth"}
