"""The batched Jaro–Winkler kernel and mapper against their loop oracles.

Scores must be equal bit for bit (compared by ``float.hex``): the kernel
counts the same matches, transpositions and prefix as the scalar loop in
``jw_oracle`` and evaluates the same float expression in the same order.
A run of names must normalize as ``normalize_name`` does one name, and a
pair's score bound must never be below its score.  The mapper, which scores
only the pairs that can still win, must find the same nodes and scores as
``mapper_oracle``, which scores every candidate pair, and write the same
mapping file.
"""

from __future__ import annotations

import tempfile
import tracemalloc
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import jw_oracle
import mapper_oracle
import wikicat.taxonomy_mapper as taxonomy_mapper
from conftest import write_graph_files
from mapper_oracle import normalize_name
from synth_fixtures import make_scale_graph
from wikicat.graph_store import load_graph
from wikicat.taxonomy import Taxonomy, TaxonomyLabel, load_taxonomy
from wikicat.taxonomy_mapper import (
    _SEP,
    DEFAULT_THRESHOLD,
    _bounds,
    _match,
    _name_runs,
    _normalize_run,
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


@seed(20261020)
@settings(max_examples=300, deadline=None, database=None)
@given(st.lists(pairs().filter(all), min_size=1, max_size=40))
def test_the_bound_is_never_below_the_score(batch):
    """Nonempty strings, as the mapper's queries and candidate forms are, of
    mixed lengths, with common prefixes past the boost's cap and astral code
    points, in one batch."""
    rows = np.arange(len(batch))
    queries = _Strings.encode([a for a, _ in batch])
    forms = _Strings.encode([b for _, b in reversed(batch)])  # rows differ
    bound = _bounds(queries, rows, forms, rows[::-1])
    score = _score_pairs(queries, rows, forms, rows[::-1])
    assert (bound >= score).all(), list(zip(batch, bound, score))


def test_the_bound_of_equal_strings_is_one_plus_the_slack():
    strings = _Strings.encode(["pagan", "wiccan"])
    rows = np.arange(2)
    bound = _bounds(strings, rows, strings, rows)
    assert bound.tolist() == [1.0 + taxonomy_mapper._BOUND_SLACK] * 2


# ------------------------------------------------------- batch normalization

# Pieces that lowercasing, the punctuation rule or strip_plural treat apart:
# final sigmas, a capital that lowercases to two characters, "_", digits and
# punctuation runs, tokens that strip_plural empties or shortens, and the
# run separator itself.
NAME_PIECES = [
    "ΟΔΟΣ", "ΑΣ.Β", "Σ", "ς", "İ", "_", "__", "2021", "4x4", "...", " - ",
    "&/", "s", "S", "'s", "ies", "Boxes", "Branches", "Cities", _SEP, " | ",
    "\t", "\x1f", "ǅ", "中文", "\U0001f600",
]
names = st.lists(
    st.one_of(st.text(max_size=3), st.sampled_from(NAME_PIECES)), max_size=6
).map("".join)


@seed(20261021)
@settings(max_examples=300, deadline=None, database=None)
@given(st.lists(names, min_size=1, max_size=30), st.integers(1, 30))
def test_runs_normalize_each_name_as_normalize_name(batch, cut):
    """Two runs, as ``_match`` reads them; the tokens of a run are its forms'
    tokens with the separator between.  The second run may be empty, and
    has no forms then."""
    got = []
    for run in (batch[:cut], batch[cut:]):
        forms, tokens = _normalize_run(run)
        assert tokens == f" {_SEP} ".join(forms).split()
        got += forms
    assert got == [normalize_name(name) for name in batch]


def test_each_ascii_character_normalizes_as_in_normalize_name():
    """Each of the 128 characters in runs of one to three, alone and inside
    words, in one run."""
    run = [
        name
        for chars in (chr(c) * n for c in range(128) for n in (1, 2, 3))
        for name in (chars, chars + "ab", "Ab" + chars + "9S", "x" + chars + "s")
    ]
    assert _normalize_run(run)[0] == [normalize_name(name) for name in run]


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


@st.composite
def match_cases(draw):
    """Names of one to three words, some of them tied on one form; aliases;
    normalized queries, repeated ones and ones with no candidate; and the
    number of names per run."""
    words = st.lists(
        st.sampled_from([*WORDS, "Wiccanism", "Wiccanisms", "Zebra"]),
        min_size=1,
        max_size=3,
    )
    name = st.tuples(words, st.sampled_from([" ", " - ", ", ", "_"])).map(
        lambda t: t[1].join(t[0])
    )
    cats = list(enumerate(draw(st.lists(name, min_size=1, max_size=12, unique=True)), 1))
    aliases = draw(
        st.lists(
            st.tuples(name, st.integers(1, len(cats))),
            max_size=6,
            unique_by=lambda row: row[0],
        )
    )
    query = st.one_of(name.map(normalize_name), st.sampled_from(["zzz", "qqq art"]))
    queries = draw(st.lists(query, min_size=1, max_size=8))
    return cats, aliases, queries, draw(st.sampled_from([1, 2, 3, 4096]))


def _match_oracle(graph, queries):
    index = mapper_oracle.NameIndex(graph)
    found = [mapper_oracle.best_candidate(index, query) for query in queries]
    return (
        [exact for exact, _, _ in found],
        [-1 if node is None else node for _, node, _ in found],
        [score.hex() for _, _, score in found],
    )


def _pruned_match(graph, queries, run):
    with mock.patch.object(taxonomy_mapper, "_RUN_NAMES", run):
        exact, node, score = _match(graph, queries)
    return exact, node, [s.hex() for s in score]


@seed(20261022)
@settings(max_examples=150, deadline=None, database=None)
@given(match_cases())
def test_pruned_match_finds_what_scoring_every_pair_finds(case):
    cats, aliases, queries, run = case
    graph = _load(cats, aliases)
    assert _pruned_match(graph, queries, run) == _match_oracle(graph, queries)


@pytest.mark.parametrize("run", [1, 2, 4096])
def test_pruned_match_edge_cases(run):
    cats = [
        (1, "Wiccanism"),  # ties node 1 for "wiccan"
        (2, "Wiccanisms"),
        (3, "Pagans"),  # an alias makes it exact for "paganism" ...
        (4, "Paganism studies"),
        (5, "Pagan"),  # ... and its name makes it exact for "pagan"
        (6, "Branch"),
    ]
    aliases = [("Paganisms", 3), ("Pagan people", 5), ("Brans", 6)]
    graph = _load(cats, aliases)
    queries = ["wiccan", "paganism", "pagan", "zzz", "pagan", "bran", "branch"]
    got = _pruned_match(graph, queries, run)
    assert got == _match_oracle(graph, queries)
    exact, node, score = got
    assert node[0] == 0  # the lowest of the tied nodes
    assert exact[1] == [2] and node[1] != 2  # its exact node is no candidate
    assert exact[2] == [2, 4] and node[2] not in (2, 4)
    assert (node[3], score[3]) == (-1, (0.0).hex())  # no candidate
    assert got[0][4] == exact[2] and node[4] == node[2]


@pytest.mark.parametrize("run", [1, 2, 3])
def test_each_alias_is_read_in_the_run_of_its_category(run):
    """Every name is read once: a run's category names, then the aliases
    of those categories, in file order, each with its node.  A run holds
    as many categories as fit in ``_RUN_NAMES`` names with their aliases,
    and at least one, whatever its aliases."""
    cats = [(k, f"Name {k}") for k in range(1, 8)]
    aliases = [("Alias a", 5), ("Alias b", 1), ("Alias c", 5), ("Alias d", 7),
               ("Alias e", 2), ("Alias f", 5)]
    graph = _load(cats, aliases)
    with mock.patch.object(taxonomy_mapper, "_RUN_NAMES", run):
        runs = list(_name_runs(graph))
    n_aliases = Counter(graph.aliases.values())
    read, lo = [], 0
    for names, nodes in runs:
        hi = lo  # the category names come first, their nodes counting up
        while hi - lo < len(nodes) and nodes[hi - lo] == hi:
            hi += 1
        assert names[: hi - lo] == graph.names[lo:hi]
        assert nodes[: hi - lo].tolist() == list(range(lo, hi))
        for alias, node in zip(names[hi - lo :], nodes[hi - lo :].tolist()):
            assert lo <= node < hi and graph.aliases[alias] == node
            read.append(alias)
        # within run names with their aliases, or one category alone, and
        # no room for the next category with its aliases
        assert len(names) <= run or hi == lo + 1
        if hi < graph.n_categories:
            assert len(names) + 1 + n_aliases[hi] > run
        lo = hi
    assert lo == graph.n_categories
    assert read == sorted(graph.aliases, key=graph.aliases.__getitem__)


@st.composite
def alias_heavy_cases(draw):
    """A mapping case whose categories hold up to nine aliases each, and a
    few names per run, so that runs end on every kind of boundary."""
    cats, aliases, taxonomy, threshold, overrides = draw(mapping_cases())
    counts = draw(st.lists(st.integers(0, 9), min_size=len(cats), max_size=len(cats)))
    words = st.lists(st.sampled_from(WORDS), min_size=1, max_size=2).map(" ".join)
    taken = {name for name, _ in aliases} | {name for _, name in cats}
    for (k, _), count in zip(cats, counts):
        for i in range(count):
            alias = f"{draw(words)} {k} {i}"
            if alias not in taken:
                taken.add(alias)
                aliases.append((alias, k))
    return cats, aliases, taxonomy, threshold or 0.85, overrides


@seed(20261023)
@settings(max_examples=100, deadline=None, database=None)
@given(alias_heavy_cases(), st.sampled_from([1, 2, 3, 5, 8]))
def test_mapping_bytes_do_not_depend_on_the_run_size(case, run):
    """Runs sized by names and aliases, however small, give the loop
    oracle's mapping file."""
    cats, aliases, taxonomy, threshold, overrides = case
    graph = _load(cats, aliases)
    with mock.patch.object(taxonomy_mapper, "_RUN_NAMES", run):
        got = map_taxonomy(taxonomy, graph, overrides, threshold)
    want = mapper_oracle.map_taxonomy(taxonomy, graph, overrides, threshold)
    assert _mapping_bytes(got, graph) == _mapping_bytes(want, graph)


def test_many_aliases_hold_no_pair_table():
    """10 000 aliases spread over 1 000 categories, each sharing the key
    "bran" with all five labels, read 32 names a run.  A run settles its own
    pairs, so the traced peak is about 0.7 MB; holding every alias pair until
    the category runs raised the floor took 3.4 MB."""
    cats = [(k, f"Branch {k % 5} topic {k}") for k in range(1, 1_001)]
    aliases = [
        (f"Branch {n % 5} topic redirect {' '.join(str(n))}", 1 + n % 1_000)
        for n in range(10_000)
    ]
    graph = _load(cats, aliases)
    taxonomy = Taxonomy(
        [TaxonomyLabel(f"b{r}", f"Branch {r} topics") for r in range(5)]
    )
    with mock.patch.object(taxonomy_mapper, "_RUN_NAMES", 32):
        map_taxonomy(taxonomy, graph)  # numpy's lazy imports
        tracemalloc.start()
        try:
            map_taxonomy(taxonomy, graph)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 1_500_000, peak


@pytest.fixture(scope="module")
def scale_case(tmp_path_factory):
    """The benchmark's shape: labels "Branch r topics" against names
    "Branch t area k", so every form shares the key "bran" with every query,
    and the digit tokens are keys of their own."""
    path = tmp_path_factory.mktemp("scale")
    make_scale_graph(path, n_categories=2_400, n_pages=2_000, n_edges=20_000)
    graph = load_graph(*[path / f"{t}.tsv" for t in ("categories", "pages", "edges")])
    return graph, load_taxonomy(path / "taxonomy.json")


def test_mapper_on_the_scale_graph_matches_the_loop_oracle(scale_case):
    graph, taxonomy = scale_case
    for threshold in (0.9, 0.0):
        got = map_taxonomy(taxonomy, graph, threshold=threshold)
        want = mapper_oracle.map_taxonomy(taxonomy, graph, threshold=threshold)
        assert got == want
        assert _mapping_bytes(got, graph) == _mapping_bytes(want, graph)


def test_mapper_on_the_scale_graph_holds_little_memory(scale_case):
    """All 2 400 names are candidates of all 5 labels.  Normalized a run at
    a time, with only the pairs that can still win kept, the traced peak is
    about 1.8 MB; scoring every pair of names normalized all at once took
    2.9 MB."""
    graph, taxonomy = scale_case
    map_taxonomy(taxonomy, graph)  # numpy's lazy imports
    tracemalloc.start()
    try:
        map_taxonomy(taxonomy, graph)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_500_000, peak
