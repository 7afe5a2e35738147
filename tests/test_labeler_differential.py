"""The array labeler and the columnar writer against the loop oracles in
``labeler_oracle``.

Records must be equal, floats included: the array code sums the same
values in the same order as the loops, and the float path weights are
exact here, because every path count is below 2**53 or, on the ladder,
a power of two.  Written labels files must be equal byte for byte.
"""

from __future__ import annotations

import math
import random
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import labeler_oracle
from conftest import write_graph_files
from wikicat.exceptions import ConfigurationError
from wikicat.graph_store import load_graph
from wikicat.labeler import (
    MODES,
    PATH_MODES,
    CorpusLabels,
    LabelingConfig,
    coarse_scheme,
    label_corpus,
    read_labels,
    write_labels,
)
from wikicat.synth import make_ablation_wiki
from wikicat.taxonomy_mapper import (
    CategoryMapping,
    MappedCategory,
    load_taxonomy,
    map_taxonomy,
)


def _load(cats, pages, edges):
    with tempfile.TemporaryDirectory() as d:
        paths = write_graph_files(Path(d), cats, pages, edges)
        return load_graph(paths["categories"], paths["pages"], paths["edges"])


def _random_edges(rng, n_cats, n_pages, n_edges):
    edges = []
    for _ in range(n_edges):
        parent = rng.randrange(n_cats)
        if rng.random() < 0.4:
            edges.append((parent, ("p", rng.randrange(n_pages))))
        else:
            edges.append((parent, ("c", rng.randrange(n_cats))))
    return edges


def _layered_edges(rng, n_cats, n_pages):
    """Edges only from one layer to the next: every path is level-monotone."""
    layer = sorted(rng.randrange(4) for _ in range(n_cats))
    edges = []
    for child in range(n_cats):
        above = [c for c in range(n_cats) if layer[c] == layer[child] - 1]
        for parent in rng.sample(above, min(len(above), rng.randint(1, 3))):
            edges.append((parent, ("c", child)))
    for page in range(n_pages):
        for parent in rng.sample(range(n_cats), min(n_cats, rng.randint(1, 3))):
            edges.append((parent, ("p", page)))
    return edges


def _cyclic_edges(rng, n_cats, n_pages):
    """A ring through every category plus random chords and members."""
    edges = [(c, ("c", (c + 1) % n_cats)) for c in range(n_cats)]
    return edges + _random_edges(rng, n_cats, n_pages, 2 * n_cats)


@st.composite
def labeling_cases(draw):
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "layered", "cyclic"]))
    n_cats = draw(st.integers(2, 10))
    n_pages = draw(st.integers(1, 8))
    if kind == "random":
        edges = _random_edges(rng, n_cats, n_pages, draw(st.integers(0, 30)))
    elif kind == "layered":
        edges = _layered_edges(rng, n_cats, n_pages)
    else:
        edges = _cyclic_edges(rng, n_cats, n_pages)
    # Shuffled external page ids, so id order and node order differ.
    page_ids = rng.sample(range(500, 600), n_pages)
    cats = [(100 + c, f"C{c}") for c in range(n_cats)]
    pages = [(page_ids[p], f"P{p}") for p in range(n_pages)]
    tsv_edges = [
        (100 + parent, 100 + child if table == "c" else page_ids[child],
         "subcat" if table == "c" else "member")
        for parent, (table, child) in edges
    ]
    graph = _load(cats, pages, tsv_edges)

    # Up to four labels, each mapped to one to three distinct categories.
    n_labels = draw(st.integers(1, min(4, n_cats)))
    owned = rng.sample(range(n_cats), n_labels)
    spare = [c for c in range(n_cats) if c not in owned]
    entries = {}
    for i, node in enumerate(owned):
        extra = rng.sample(spare, min(len(spare), rng.randint(0, 2)))
        spare = [c for c in spare if c not in extra]
        entries[f"L{i}"] = [
            MappedCategory(graph.category_node(100 + c), "exact", 1.0)
            for c in [node] + extra
        ]
    mapping = CategoryMapping(entries, [], {}, 0.9)
    labels = sorted(entries, reverse=draw(st.booleans()))
    cut = draw(st.integers(1, len(labels)))
    scheme = [labels] if cut == len(labels) else [labels[:cut], labels[cut:]]

    settings_ = dict(
        max_depth=draw(st.sampled_from([None, None, 0, 1, 2, 3])),
        coverage_threshold=draw(st.sampled_from([0.0, 0.3, 0.5, 1.0])),
        assignment_threshold=draw(st.sampled_from([0.0, 0.3, 0.5])),
        # Caps below a page's depth raise, and caps above it sum many paths.
        exact_path_cap=draw(st.sampled_from([1, 2, 5, 8])),
    )
    return graph, mapping, scheme, settings_


def _records(*args):
    """``label_corpus``'s records as a list of ``PageLabels``."""
    return list(label_corpus(*args))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ConfigurationError as exc:
        return f"ConfigurationError: {exc}"


@seed(20210212)
@settings(max_examples=120, deadline=None, database=None)
@given(labeling_cases())
def test_array_labeler_matches_loop_oracle(case):
    graph, mapping, scheme, settings_ = case
    for mode in MODES:
        for path_mode in ("dag", "exact"):
            cfg = LabelingConfig(mode=mode, path_mode=path_mode, **settings_)
            args = (graph, mapping, scheme, cfg)
            assert _outcome(_records, *args) == _outcome(
                labeler_oracle.label_corpus, *args
            )


def test_ladder_overflow_matches_oracle():
    """Width-4 complete ladder: the path count at depth d is 4**(d-1), so the
    dag weight 2**(d-2) leaves the float range below layer 1100."""
    layers, width = 1100, 4
    cats = [(1, "top"), (2, "near")]
    cats += [(10 + i, f"L{i // width}.{i % width}") for i in range(layers * width)]
    pages = [(900, "bottom"), (901, "middle")]

    def layer(i):
        return [10 + i * width + j for j in range(width)]

    edges = [(1, c, "subcat") for c in layer(0)]
    for i in range(layers - 1):
        edges += [(u, v, "subcat") for u in layer(i) for v in layer(i + 1)]
    edges += [(u, 900, "member") for u in layer(layers - 1)]
    edges += [(u, 901, "member") for u in layer(500)]
    edges += [(2, 900, "member"), (2, 901, "member")]
    graph = _load(cats, pages, edges)
    mapping = CategoryMapping(
        {
            "deep": [MappedCategory(graph.category_node(1), "exact", 1.0)],
            "near": [MappedCategory(graph.category_node(2), "exact", 1.0)],
        },
        [],
        {},
        0.9,
    )
    scheme = [["deep", "near"]]
    for mode in MODES:
        cfg = LabelingConfig(mode=mode)
        got = _records(graph, mapping, scheme, cfg)
        assert got == labeler_oracle.label_corpus(graph, mapping, scheme, cfg)
    got = _records(graph, mapping, scheme, LabelingConfig(mode="no_pruning"))
    bottom = {a.label: a for a in got[0].assignments}
    assert bottom["deep"].w_raw == float("inf") and bottom["deep"].w_norm == 1.0
    middle = {a.label: a for a in got[1].assignments}
    assert middle["deep"].w_raw == 2.0**500


def test_exact_weight_adds_short_paths_first():
    """One path of length 1 and 65 of length 60: added shortest first, each
    2**-60 rounds away against 0.5, as in the sorted per-page sum; longest
    first, they would carry 0.5 up to its next float."""
    chain = [(100 + i, f"C{i}") for i in range(58)]
    fan = [(200 + i, f"D{i}") for i in range(65)]
    edges = [(1, 900, "member"), (1, 100, "subcat")]
    edges += [(100 + i, 101 + i, "subcat") for i in range(57)]
    edges += [(157, d, "subcat") for d, _ in fan]
    edges += [(d, 900, "member") for d, _ in fan]
    graph = _load([(1, "root")] + chain + fan, [(900, "page")], edges)
    mapping = CategoryMapping(
        {"r": [MappedCategory(graph.category_node(1), "exact", 1.0)]}, [], {}, 0.9
    )
    cfg = LabelingConfig(mode="no_pruning", path_mode="exact", exact_path_cap=60)
    got = _records(graph, mapping, [["r"]], cfg)
    assert got == labeler_oracle.label_corpus(graph, mapping, [["r"]], cfg)
    assert got[0].assignments[0].w_raw == 0.5
    assert math.fsum([0.5] + [2.0**-60] * 65) > 0.5


# ------------------------------------------------------------ write_labels

# Pages at the extremes of int64 and around zero; node 0 is a category.
_PAGE_IDS = [-(2**63), -5, 0, 7, 10**15, 2**63 - 1]
_WRITE_GRAPH = _load(
    [(1, "c")], [(ext, f"P{i}") for i, ext in enumerate(_PAGE_IDS)], []
)
_ODD_TEXT = ['"', "\\", "\x00", "\x1f", "\x7f", "é", " ", "\ud800", "😀", ""]
_ODD_FLOATS = [
    float("inf"), float("-inf"), float("nan"), 5e-324, 2.2250738585072014e-308 / 3,
    -0.0, 1e16, 0.1, 1 / 3,
]


@st.composite
def labelings(draw):
    """A CorpusLabels drawn column by column: odd labels and floats, pages
    with no rows, and a page repeated as it is in several sets."""
    text = st.one_of(st.sampled_from(_ODD_TEXT), st.text(max_size=4))
    labels = sorted(draw(st.sets(text, min_size=1, max_size=4)))
    weight = st.one_of(st.sampled_from(_ODD_FLOATS), st.floats())
    row = st.tuples(
        st.integers(0, len(labels) - 1), weight, weight, st.integers(0, 2**40)
    )
    records = draw(st.lists(
        st.tuples(st.integers(1, len(_PAGE_IDS)), st.lists(row, max_size=3)),
        max_size=8,
    ))
    rows = [r for _, page_rows in records for r in page_rows]
    columns = [np.array(col, dtype=dtype) for col, dtype in zip(
        list(zip(*rows)) or [[]] * 4, (np.int64, float, float, np.int64)
    )]
    start = np.cumsum([0] + [len(page_rows) for _, page_rows in records])
    return CorpusLabels(
        draw(st.sampled_from(MODES)),
        tuple(labels),
        np.array([page for page, _ in records], dtype=np.int64),
        start.astype(np.int64),
        *columns,
    )


def _written(write, records, path):
    write(records, _WRITE_GRAPH, path)
    return path.read_bytes()


@seed(20210212)
@settings(max_examples=300, deadline=None, database=None)
@given(labelings())
def test_columnar_writer_matches_dict_writer(labeled):
    with tempfile.TemporaryDirectory() as d:
        got = _written(write_labels, labeled, Path(d) / "got.jsonl")
        want = _written(labeler_oracle.write_labels, list(labeled), Path(d) / "want.jsonl")
        assert got == want
        pages, tops = read_labels(Path(d) / "got.jsonl")
    assert pages == _WRITE_GRAPH.external_ids(labeled.page).tolist()
    assert tops == labeled.tops()
    # the label summary's counts, as they were taken from the records
    records = list(labeled)
    assert labeled.unassigned() == sum(1 for rec in records if not rec.assignments)
    per_label = Counter(a.label for rec in records for a in rec.assignments)
    assert labeled.per_label() == dict(sorted(per_label.items()))
    assert list(labeled.per_label()) == sorted(per_label)


@pytest.mark.parametrize("path_mode", PATH_MODES)
@pytest.mark.parametrize("scheme", ["coarse", "pairs"])
def test_columnar_writer_matches_dict_writer_on_the_ablation_wiki(
    tmp_path, scheme, path_mode
):
    """Every mode, with one set or with each page in two of three sets."""
    make_ablation_wiki(tmp_path, seed=0)
    files = [tmp_path / f"{name}.tsv" for name in ("categories", "pages", "edges")]
    graph = load_graph(*files)
    taxonomy = load_taxonomy(tmp_path / "taxonomy.json")
    (top,) = coarse_scheme(taxonomy)
    groups = [top] if scheme == "coarse" else [top[:2], top[1:], top[::2]]
    mapping = map_taxonomy(taxonomy, graph)
    for mode in MODES:
        cfg = LabelingConfig(mode=mode, path_mode=path_mode)
        labeled = label_corpus(graph, mapping, groups, cfg)
        assert list(labeled) == labeler_oracle.label_corpus(graph, mapping, groups, cfg)
        write_labels(labeled, graph, tmp_path / "got.jsonl")
        labeler_oracle.write_labels(labeled, graph, tmp_path / "want.jsonl")
        got = (tmp_path / "got.jsonl").read_bytes()
        assert got == (tmp_path / "want.jsonl").read_bytes()
        assert got.count(b"\n") == len(labeled) > 0
