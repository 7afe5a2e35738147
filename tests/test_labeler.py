"""Traversal, pruning, path weights, normalization, and labeling modes."""

from __future__ import annotations

import random

import networkx as nx
import numpy as np
import pytest

from conftest import fan_in_case
from wikicat.exceptions import ConfigurationError, TaxonomyError
from wikicat.jsonio import read_jsonl
from wikicat.labeler import (
    CompetitionSet,
    LabelingConfig,
    RootSpec,
    _bfs,
    _coverage,
    build_competition_sets,
    coarse_scheme,
    fine_scheme,
    label_corpus,
    read_labels,
    write_labels,
)
from wikicat.taxonomy_mapper import (
    CategoryMapping,
    MappedCategory,
    Taxonomy,
    TaxonomyLabel,
    map_taxonomy,
)

DAG_CFG = LabelingConfig()


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


# --------------------------------------------------------------- traversal


def _bfs_depth(graph, ext_ids, blocked=(), max_depth=None):
    """Depth of every node from the categories ``ext_ids``, -1 if unreached."""
    spec = RootSpec("r", tuple(graph.category_node(e) for e in ext_ids))
    blocked = frozenset(graph.category_node(e) for e in blocked)
    return _bfs(graph, spec, blocked, max_depth)[0]


def _mapping(graph, roots):
    """Each label mapped to the categories with the given external ids."""
    return CategoryMapping(
        {
            label: [MappedCategory(graph.category_node(e), "exact", 1.0) for e in ext]
            for label, ext in roots.items()
        },
        [],
        {},
        0.9,
    )


def _labeled(graph, roots, **cfg):
    """{external page id: {label: assignment}} for one competition set."""
    records = label_corpus(
        graph, _mapping(graph, roots), [sorted(roots)], LabelingConfig(**cfg)
    )
    return {
        graph.external_id(rec.page): {a.label: a for a in rec.assignments}
        for rec in records
    }


def _page_depths(graph, ext_ids, **cfg):
    """The depth label_corpus records for each page one root reaches."""
    got = _labeled(graph, {"r": ext_ids}, mode="all_descendants", **cfg)
    return {page: labels["r"].depth for page, labels in got.items()}


def test_traverse_depths_on_trucks(trucks_graph):
    g = trucks_graph
    depth = _bfs_depth(g, [1])
    assert depth[g.category_node(1)] == 0
    assert depth[g.category_node(2)] == 1
    assert depth[g.category_node(4)] == 1
    assert depth[g.category_node(3)] == 2
    assert depth[g.category_node(5)] == -1
    assert _page_depths(g, [1]) == {100: 2, 101: 2}  # shortest distance


def test_traverse_blocks_competitors(suvs_graph):
    g = suvs_graph
    assert _bfs_depth(g, [1], blocked=[4])[g.category_node(4)] == -1
    both = _labeled(g, {"trucks": [1], "suvs": [4]}, mode="all_descendants")
    assert {page: set(labels) for page, labels in both.items()} == {
        200: {"suvs"},
        201: {"suvs"},
        202: {"trucks"},
    }
    assert _page_depths(g, [1])[200] == 4


def test_traverse_rejects_page_roots(trucks_graph):
    g = trucks_graph
    mapping = CategoryMapping(
        {"bad": [MappedCategory(g.page_node(100), "exact", 1.0)]}, [], {}, 0.9
    )
    with pytest.raises(ConfigurationError, match="root page 100 of 'bad' is not a"):
        label_corpus(g, mapping, [["bad"]], DAG_CFG)


def test_traverse_terminates_on_cycles(make_graph):
    g = make_graph(
        [(1, "A"), (2, "B"), (3, "C")],
        [(10, "p")],
        [(1, 2, "subcat"), (2, 3, "subcat"), (3, 1, "subcat"), (3, 10, "member")],
    )
    depth = _bfs_depth(g, [1])
    assert depth[g.category_node(1)] == 0
    assert depth[g.category_node(2)] == 1
    assert depth[g.category_node(3)] == 2
    assert _page_depths(g, [1]) == {10: 3}


def test_traverse_max_depth(trucks_graph):
    g = trucks_graph
    capped = _bfs_depth(g, [1], max_depth=1)
    assert capped[g.category_node(2)] == 1
    assert capped[g.category_node(3)] == -1
    assert _page_depths(g, [1], max_depth=1) == {}
    assert _page_depths(g, [1], max_depth=2)[100] == 2


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
        roots = [100 + r for r in rng.sample(range(10), rng.randint(2, 3))]
        multi = _bfs_depth(g, roots)
        singles = [_bfs_depth(g, [r]) for r in roots]
        for node in range(g.n_categories):
            per = [d[node] for d in singles if d[node] >= 0]
            assert multi[node] == (min(per) if per else -1)
        page_singles = [_page_depths(g, [r]) for r in roots]
        assert _page_depths(g, roots) == {
            page: min(d[page] for d in page_singles if page in d)
            for page in set().union(*page_singles)
        }


# ----------------------------------------------------------- coverage


def test_parent_coverage_on_trucks(trucks_graph):
    g = trucks_graph
    pages = np.array([g.page_node(100), g.page_node(101)])
    assert _coverage(g, pages, _bfs_depth(g, [1])).tolist() == [0.75, 0.25]
    # A page is kept when its coverage reaches the threshold.
    assert set(_labeled(g, {"trucks": [1]}, coverage_threshold=0.75)) == {100}
    assert set(_labeled(g, {"trucks": [1]}, coverage_threshold=0.76)) == set()
    assert set(_labeled(g, {"trucks": [1]}, coverage_threshold=0.25)) == {100, 101}


def test_parent_coverage_full(suvs_graph):
    g = suvs_graph
    page = np.array([g.page_node(200)])
    assert _coverage(g, page, _bfs_depth(g, [4])).tolist() == [1.0]


def test_parent_coverage_counts_the_max_depth_level_not_blocked_roots(make_graph):
    # Page 10 has three parents: the root, Edge at the max_depth level
    # (reached, never expanded) and Rival, a blocked competitor's root.
    g = make_graph(
        [(1, "Root"), (2, "Edge"), (3, "Rival")],
        [(10, "p")],
        [(1, 2, "subcat"), (1, 10, "member"), (2, 10, "member"), (3, 10, "member")],
    )
    depth = _bfs_depth(g, [1], blocked=[3], max_depth=1)
    assert _coverage(g, np.array([g.page_node(10)]), depth).tolist() == [2 / 3]
    roots = {"r": [1], "rival": [3]}
    assert set(_labeled(g, roots, max_depth=1, coverage_threshold=2 / 3)) == {10}
    assert set(_labeled(g, roots, max_depth=1, coverage_threshold=0.67)) == set()


# ------------------------------------------------------------ path lengths


def _exact_raw(graph, ext_ids, cap, **cfg):
    """Exact-mode raw weight of each page one root reaches."""
    got = _labeled(
        graph,
        {"r": ext_ids},
        mode="no_pruning",
        path_mode="exact",
        exact_path_cap=cap,
        **cfg,
    )
    return {page: labels["r"].w_raw for page, labels in got.items()}


def test_enumerate_paths_chain_and_diamond(make_graph):
    chain = make_graph(
        [(1, "r"), (2, "c1")],
        [(10, "p")],
        [(1, 2, "subcat"), (2, 10, "member")],
    )
    assert _exact_raw(chain, [1], 8) == {10: 2.0**-2}

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
    assert _exact_raw(diamond, [1], 8) == {10: 2 * 2.0**-3}


def test_enumerate_paths_on_trucks(trucks_graph):
    g = trucks_graph
    # Paths to page 100 have lengths 2, 2 and 3; every one of page 101's
    # other parents is outside the root.
    assert _exact_raw(g, [1], 8) == {100: 0.625, 101: 0.25}
    assert _exact_raw(g, [1], 2) == {100: 0.5, 101: 0.25}
    # A competitor's root is blocked: only 1 -> 4 -> 100 is left.
    blocked = _labeled(
        g,
        {"trucks": [1], "types": [2]},
        path_mode="exact",
        coverage_threshold=0.0,
        assignment_threshold=0.0,
    )
    assert blocked[100]["trucks"].w_raw == 0.25


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
        ext = 100 + rng.randrange(8)
        root = g.category_node(ext)
        cap = rng.randint(2, 6)
        lengths = {
            g.external_id(page): sorted(
                len(path) - 1
                for path in nx.all_simple_paths(nxg, root, page, cutoff=cap)
            )
            for page in range(g.n_categories, g.n_nodes)
            if nx.has_path(nxg, root, page)
        }
        beyond = [page for page, found in lengths.items() if not found]
        if beyond:
            first = min(beyond, key=g.page_node)
            with pytest.raises(
                ConfigurationError,
                match=f"page {first} has no path within the cap {cap}",
            ):
                _exact_raw(g, [ext], cap)
        else:
            assert _exact_raw(g, [ext], cap) == {
                page: sum(2.0**-n for n in found) for page, found in lengths.items()
            }


# ------------------------------------------------------------ page weights


def test_page_weight_single_path(make_graph):
    g = make_graph([(1, "r")], [(10, "p")], [(1, 10, "member")])
    assert _labeled(g, {"r": [1]})[10]["r"].w_raw == 0.5
    assert _exact_raw(g, [1], 8) == {10: 0.5}


def test_page_weight_trucks_fixture(trucks_graph):
    g = trucks_graph
    # exact: paths {2,2,3} -> 1/4 + 1/4 + 1/8
    exact = _labeled(g, {"trucks": [1]}, path_mode="exact", exact_path_cap=8)
    assert exact[100]["trucks"].w_raw == 0.625
    # dag: two depth-increasing paths at depth 2 -> 2/4
    assert _labeled(g, {"trucks": [1]})[100]["trucks"].w_raw == 0.5


def test_page_weight_errors(make_graph):
    # The page lies three edges below the root: no path fits a cap of 2.
    g = make_graph(
        [(1, "r"), (2, "a"), (3, "b")],
        [(10, "near"), (11, "far")],
        [(1, 2, "subcat"), (2, 3, "subcat"), (2, 10, "member"), (3, 11, "member")],
    )
    assert _exact_raw(g, [1], 3) == {10: 0.25, 11: 0.125}
    with pytest.raises(
        ConfigurationError,
        match="page 11 has no path within the cap 2",
    ):
        _exact_raw(g, [1], 2)
    # Within max_depth every candidate has its BFS path under the cap.
    assert _exact_raw(g, [1], 2, max_depth=2) == {10: 0.25}


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
        w_dag = _labeled(g, {"r": top}, mode="no_pruning")
        w_exact = _exact_raw(g, top, 12)
        assert set(w_dag) == set(w_exact)
        for page, labels in w_dag.items():
            assert labels["r"].w_raw == pytest.approx(w_exact[page], abs=1e-9)


def test_dag_at_most_exact_on_cyclic_graphs(make_graph):
    rng = random.Random(6)
    for _ in range(10):
        cats, pages, edges = _random_graph_spec(rng, 8, 4, 30)
        g = make_graph(cats, pages, edges)
        w_dag = _labeled(g, {"r": [100]}, mode="no_pruning")
        w_exact = _exact_raw(g, [100], 10)
        assert set(w_dag) == set(w_exact)
        for page, labels in w_dag.items():
            assert labels["r"].w_raw <= w_exact[page] + 1e-9


def test_adding_competitor_never_raises_exact_weight(make_graph):
    rng = random.Random(13)
    cfg = dict(
        path_mode="exact",
        exact_path_cap=7,
        max_depth=7,
        coverage_threshold=0.0,
        assignment_threshold=0.0,
    )
    for _ in range(15):
        cats, pages, edges = _random_graph_spec(rng, 9, 4, 30)
        g = make_graph(cats, pages, edges)
        root, comp = (100 + c for c in rng.sample(range(9), 2))
        free = _labeled(g, {"r": [root]}, **cfg)
        cut = _labeled(g, {"r": [root], "c": [comp]}, **cfg)
        for page, labels in cut.items():
            if "r" in labels:
                assert labels["r"].w_raw <= free[page]["r"].w_raw + 1e-12


# ------------------------------------------------------- normalize/assign


def _fan_in_shares(make_graph, fan, **cfg):
    """(label, w_norm) of the one fan-in page, coverage pruning off."""
    graph, mapping, scheme = fan_in_case(make_graph, fan)
    cfg = LabelingConfig(**{"coverage_threshold": 0.0, **cfg})
    (rec,) = label_corpus(graph, mapping, scheme, cfg)
    return [(a.label, a.w_norm) for a in rec.assignments]


def test_normalize_and_assign_examples(make_graph):
    # Raw weights 0.5, 0.25, 0.25: only A's share passes 0.3.
    assert _fan_in_shares(make_graph, {"A": 0, "B": 1, "C": 1}) == [("A", 0.5)]
    # Raw weights 0.75, 0.75, 0.5, 0.5: no share is above 0.3.
    assert _fan_in_shares(make_graph, {"A": 3, "B": 3, "C": 2, "D": 2}) == []
    assert _fan_in_shares(make_graph, {"A": 1}) == [("A", 1.0)]


def test_normalize_and_assign_ordering_and_sum(make_graph):
    out = _fan_in_shares(
        make_graph, {"b": 2, "a": 2, "c": 1}, assignment_threshold=0.0
    )
    assert [label for label, _ in out] == ["a", "b", "c"]
    assert sum(w for _, w in out) == pytest.approx(1.0, abs=1e-9)


def test_normalize_and_assign_errors(make_graph):
    g = make_graph([(1, "A")], [], [])
    mapping = _mapping(g, {"a": [1]})
    with pytest.raises(ConfigurationError, match="duplicate labels"):
        label_corpus(g, mapping, [["a", "a"]], DAG_CFG)
    # A page 1 100 edges down has the dag weight 2**-1100, which is 0.0.
    n = 1100
    chain = make_graph(
        [(i, f"C{i}") for i in range(n)],
        [(5000, "deep")],
        [(i, i + 1, "subcat") for i in range(n - 1)] + [(n - 1, 5000, "member")],
    )
    with pytest.raises(ConfigurationError, match="raw weights must be positive"):
        _labeled(chain, {"r": [0]})


def test_assignment_threshold_is_strict(make_graph):
    # Equal raw weights split the page exactly in half.
    fan = {"a": 1, "b": 1}
    assert _fan_in_shares(make_graph, fan, assignment_threshold=0.5) == []
    assert _fan_in_shares(make_graph, fan, assignment_threshold=0.49) == [
        ("a", 0.5),
        ("b", 0.5),
    ]


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
    ((assignment,),) = [rec.assignments for rec in full]
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
    assert list(lo) == list(hi)


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
    assert list(one) == list(four)


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
    labeled = label_corpus(g, mapping, [["trucks", "suvs"]], DAG_CFG)
    path = tmp_path / "labels.jsonl"
    write_labels(labeled, g, path)
    pages, tops = read_labels(path)
    records = list(labeled)
    assert pages == [g.external_id(r.page) for r in records]
    assert tops == [r.assignments[0].label if r.assignments else None for r in records]
    assert tops == labeled.tops()
    rows = [row for _, row in read_jsonl(path)]
    assert all(row["mode"] == "full" for row in rows)
    first = rows[0]["assignments"][0]
    assert set(first) == {"label", "w_raw", "w_norm", "depth"}
