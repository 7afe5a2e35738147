"""The batched Jaro–Winkler kernel and mapper against their loop oracles.

Scores must be equal bit for bit (compared by ``float.hex``): the kernel
counts the same matches, transpositions and prefix as the scalar loop in
``jw_oracle`` and evaluates the same float expression in the same order.
The mapper must write the same mapping file as ``mapper_oracle``.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import jw_oracle
import mapper_oracle
import wikicat.taxonomy_mapper as taxonomy_mapper
from conftest import write_graph_files
from wikicat.graph_store import load_graph
from wikicat.taxonomy_mapper import (
    DEFAULT_THRESHOLD,
    Taxonomy,
    TaxonomyLabel,
    _score_pairs,
    _Strings,
    jaro_winkler,
    map_taxonomy,
    save_mapping,
)

# repeats, BMP letters beyond ASCII, and astral-plane code points
ALPHABET = "aaabbc é中\U0001f600\U00010348"
texts = st.text(alphabet=ALPHABET, max_size=12)


def _kernel(pairs: list[tuple[str, str]]) -> list[float]:
    """Every pair scored in one call of the batched kernel."""
    rows = np.arange(len(pairs))
    queries = _Strings.encode([a for a, _ in pairs])
    forms = _Strings.encode([b for _, b in pairs])
    return _score_pairs(queries, rows, forms, rows).tolist()


def _oracle(pairs: list[tuple[str, str]]) -> list[str]:
    return [jw_oracle.jaro_winkler(a, b).hex() for a, b in pairs]


@st.composite
def pairs(draw):
    kind = draw(st.sampled_from(["free", "prefix", "longer", "shorter"]))
    a, b = draw(texts), draw(texts)
    if kind == "prefix":  # a common prefix longer than the boost's cap
        common = draw(st.text(alphabet=ALPHABET, min_size=5, max_size=8))
        a, b = common + a, common + b
    elif kind == "longer":
        a = b + a + draw(st.text(alphabet=ALPHABET, min_size=1, max_size=6))
    elif kind == "shorter":
        b = a + b + draw(st.text(alphabet=ALPHABET, min_size=1, max_size=6))
    return a, b


@seed(20170419)
@settings(max_examples=300, deadline=None, database=None)
@given(pairs())
def test_one_pair_matches_the_scalar_oracle(pair):
    a, b = pair
    assert jaro_winkler(a, b).hex() == jw_oracle.jaro_winkler(a, b).hex()


@seed(20170420)
@settings(max_examples=60, deadline=None, database=None)
@given(st.lists(pairs(), max_size=40))
def test_a_batch_of_mixed_lengths_matches_the_scalar_oracle(batch):
    assert [s.hex() for s in _kernel(batch)] == _oracle(batch)


@pytest.mark.parametrize(
    ("a", "b"),
    [
        ("", ""),
        ("", "a"),
        ("a", ""),
        ("a", "a"),
        ("a", "b"),
        ("ab", "ba"),
        ("aaaa", "aa"),
        ("aa", "aaaa"),
        ("abcabcabc", "cbacbacba"),
        ("\U0001f600", "\U0001f600x"),
        ("中文字", "中字文"),
        ("pagan", "paganism"),
        ("paganism", "pagan"),
    ],
)
def test_edge_pairs_match_the_scalar_oracle(a, b):
    assert jaro_winkler(a, b).hex() == jw_oracle.jaro_winkler(a, b).hex()


def test_scores_do_not_depend_on_the_block_size(monkeypatch):
    rng = np.random.default_rng(3)
    words = ["", "a", "pagan", "paganism", "wiccan", "light truck", "中文", "aaaa"]
    batch = [
        (str(rng.choice(words)), str(rng.choice(words)) + "s" * int(rng.integers(3)))
        for _ in range(50)
    ]
    want = _oracle(batch)
    for block in (1, 2, 7, taxonomy_mapper._BLOCK_PAIRS):
        monkeypatch.setattr(taxonomy_mapper, "_BLOCK_PAIRS", block)
        assert [s.hex() for s in _kernel(batch)] == want


# ------------------------------------------------------------------ mapper

# Plural pairs share a normalized form; "bran"/"branch"/"brand" share a
# four-letter key; near spellings score just above or below the threshold.
WORDS = [
    "Pagan", "Pagans", "Paganism", "Wiccan", "Wiccans", "Truck", "Trucks",
    "Light", "Road", "Roads", "Bran", "Branch", "Branches", "Brand", "Art",
    "Arts", "Artist", "Emergency", "Service",
]


def _load(cats, redirects):
    with tempfile.TemporaryDirectory() as d:
        paths = write_graph_files(Path(d), cats, [], [], redirects)
        return load_graph(
            paths["categories"], paths["pages"], paths["edges"], paths["redirects"]
        )


@st.composite
def mapping_cases(draw):
    words = st.lists(st.sampled_from(WORDS), min_size=1, max_size=2)
    names = draw(st.lists(words.map(" ".join), min_size=1, max_size=12, unique=True))
    cats = list(enumerate(names, start=1))
    aliases = draw(
        st.lists(
            st.tuples(words.map(" ".join), st.integers(1, len(cats))),
            max_size=4,
            unique_by=lambda row: row[0],
        )
    )
    joins = st.sampled_from([" ", " & ", "/", " and ", ", "])
    label_names = draw(
        st.lists(
            st.tuples(st.sampled_from(WORDS), joins, st.sampled_from(WORDS)).map(
                lambda t: t[0] if t[0] == t[2] else "".join(t)
            ),
            min_size=1,
            max_size=5,
            unique=True,
        )
    )
    taxonomy = Taxonomy(
        [TaxonomyLabel(f"L{i}", name) for i, name in enumerate(label_names)]
    )
    # None: a threshold equal to a real best score, to test ">=" at the edge
    threshold = draw(st.sampled_from([0.0, 0.5, 0.85, 0.9, 1.0, None]))
    overrides = draw(
        st.dictionaries(
            st.sampled_from([lab.id for lab in taxonomy.labels]),
            st.lists(st.integers(0, len(cats) - 1), max_size=2),
            max_size=1,
        )
    )
    return cats, aliases, taxonomy, threshold, overrides


def _mapping_bytes(mapping, graph) -> bytes:
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "mapping.json"
        save_mapping(mapping, graph, path)
        return path.read_bytes()


@seed(20210213)
@settings(max_examples=150, deadline=None, database=None)
@given(mapping_cases(), st.data())
def test_mapper_matches_the_loop_oracle(case, data):
    cats, aliases, taxonomy, threshold, overrides = case
    graph = _load(cats, aliases)
    if threshold is None:
        # at threshold 0 every best candidate is accepted, unless exact
        loose = mapper_oracle.map_taxonomy(taxonomy, graph, overrides, 0.0)
        scores = [mc.score for row in loose.entries.values() for mc in row]
        threshold = data.draw(st.sampled_from(scores or [DEFAULT_THRESHOLD]))
    got = map_taxonomy(taxonomy, graph, overrides, threshold)
    want = mapper_oracle.map_taxonomy(taxonomy, graph, overrides, threshold)
    assert got == want
    assert _mapping_bytes(got, graph) == _mapping_bytes(want, graph)


def test_mapper_edge_cases_match_the_loop_oracle():
    cats = [
        (1, "Paganism"),  # fuzzy for "pagan"
        (2, "Pagans"),  # exact for "pagan", fuzzy for "pagan wiccan"
        (3, "Pagan"),  # same normalized form as node 2
        (4, "Wiccanism"),  # ties node 5: both forms are "wiccanism"
        (5, "Wiccanisms"),
        (6, "Emergency road services"),
    ]
    graph = _load(cats, [("Paganisms", 1), ("Road service", 6)])
    taxonomy = Taxonomy(
        [
            TaxonomyLabel("a", "Pagan/Wiccan"),
            TaxonomyLabel("b", "Wiccan"),
            TaxonomyLabel("c", "Road-Side Assistance"),
            TaxonomyLabel("d", "Zzz"),
        ]
    )
    tie = jw_oracle.jaro_winkler("wiccan", "wiccanism")
    for threshold in (0.9, tie, np.nextafter(tie, 1.0), 0.0, 1.0):
        got = map_taxonomy(taxonomy, graph, threshold=float(threshold))
        want = mapper_oracle.map_taxonomy(taxonomy, graph, threshold=float(threshold))
        assert got == want
        assert _mapping_bytes(got, graph) == _mapping_bytes(want, graph)
    at_edge = map_taxonomy(taxonomy, graph, threshold=tie)
    (fuzzy,) = at_edge.entries["b"]
    assert (fuzzy.node, fuzzy.kind, fuzzy.score) == (3, "fuzzy", tie)
    above = map_taxonomy(taxonomy, graph, threshold=float(np.nextafter(tie, 1.0)))
    assert above.near_misses["b"][0].node == 3
