"""The array labeler against the loop oracle in ``labeler_oracle``.

Records must be equal, floats included: the array code sums the same
values in the same order as the loops, and the float path weights are
exact here, because every path count is below 2**53 or, on the ladder,
a power of two.
"""

from __future__ import annotations

import math
import random
import tempfile
from pathlib import Path

from hypothesis import given, seed, settings
from hypothesis import strategies as st

import labeler_oracle
from conftest import write_graph_files
from wikicat.exceptions import ConfigurationError
from wikicat.graph_store import load_graph
from wikicat.labeler import MODES, LabelingConfig, label_corpus
from wikicat.taxonomy_mapper import CategoryMapping, MappedCategory


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
            assert _outcome(label_corpus, *args) == _outcome(
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
        got = label_corpus(graph, mapping, scheme, cfg)
        assert got == labeler_oracle.label_corpus(graph, mapping, scheme, cfg)
    got = label_corpus(graph, mapping, scheme, LabelingConfig(mode="no_pruning"))
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
    got = label_corpus(graph, mapping, [["r"]], cfg)
    assert got == labeler_oracle.label_corpus(graph, mapping, [["r"]], cfg)
    assert got[0].assignments[0].w_raw == 0.5
    assert math.fsum([0.5] + [2.0**-60] * 65) > 0.5
