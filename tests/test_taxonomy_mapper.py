"""Name normalization, string similarity, and taxonomy-to-graph mapping."""

from __future__ import annotations

import random

import pytest

from wikicat.exceptions import TaxonomyError
from wikicat.taxonomy_mapper import (
    CategoryMapping,
    Taxonomy,
    TaxonomyLabel,
    jaro_winkler,
    load_mapping,
    map_taxonomy,
    normalize_name,
    resolve_override_names,
    save_mapping,
    split_conjunctions,
)

# ---------------------------------------------------------------- normalize


@pytest.mark.parametrize(
    ("raw", "expected"),
    [
        ("SUVs", "suv"),
        ("A.D.D.", "a d d"),
        ("Paganism", "paganism"),
        ("Pagans", "pagan"),
        ("Trucks", "truck"),
        ("Buses", "bus"),
        ("Boxes", "box"),
        ("Churches", "church"),
        ("Categories", "category"),
        ("Arts & Entertainment", "art entertainment"),
        ("  Light   trucks ", "light truck"),
        ("1960s", "1960"),
        ("", ""),
        ("---", ""),
    ],
)
def test_normalize_name(raw, expected):
    assert normalize_name(raw) == expected


def test_normalize_output_shape():
    # Always lowercase, single-space separated, no punctuation, no empties.
    rng = random.Random(7)
    alphabet = "abcdefgs .&-XYZ"
    for _ in range(200):
        s = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
        out = normalize_name(s)
        assert out == out.lower()
        assert out == " ".join(out.split())
        assert all(tok.isalnum() for tok in out.split())


# ------------------------------------------------------------- jaro-winkler

# Frozen by hand from the textbook definition (match window
# floor(max/2)-1, greedy matching, half-transpositions, prefix cap 4).
HAND_VALUES = [
    ("MARTHA", "MARHTA", 0.9611),  # m=6, t=1, prefix=3
    ("DIXON", "DICKSONX", 0.8133),  # m=4, t=0, prefix=2
    ("DWAYNE", "DUANE", 0.8400),  # m=4, t=0, prefix=1
    ("pagan", "paganism", 0.9250),  # m=5, t=0, prefix=4
]


@pytest.mark.parametrize(("a", "b", "expected"), HAND_VALUES)
def test_jaro_winkler_known_values(a, b, expected):
    assert jaro_winkler(a, b) == pytest.approx(expected, abs=1e-4)


def test_jaro_winkler_edges():
    assert jaro_winkler("trucks", "trucks") == 1.0
    assert jaro_winkler("", "") == 1.0
    assert jaro_winkler("abc", "") == 0.0
    assert jaro_winkler("", "abc") == 0.0
    assert jaro_winkler("abc", "xyz") == 0.0


def test_jaro_winkler_symmetric_and_bounded():
    rng = random.Random(11)
    letters = "abcdef"
    for _ in range(300):
        a = "".join(rng.choice(letters) for _ in range(rng.randint(0, 9)))
        b = "".join(rng.choice(letters) for _ in range(rng.randint(0, 9)))
        s = jaro_winkler(a, b)
        assert s == jaro_winkler(b, a)
        assert 0.0 <= s <= 1.0
        if a and a == b:
            assert s == 1.0


# ------------------------------------------------------------ conjunctions


@pytest.mark.parametrize(
    ("name", "expected"),
    [
        (
            "Arts & Entertainment",
            ["Arts & Entertainment", "Arts", "Entertainment"],
        ),
        ("Pagan/Wiccan", ["Pagan/Wiccan", "Pagan", "Wiccan"]),
        ("Food", ["Food"]),
        ("Food and Drink", ["Food and Drink", "Food", "Drink"]),
        ("Hand-made", ["Hand-made"]),
    ],
)
def test_split_conjunctions(name, expected):
    assert split_conjunctions(name) == expected


# ----------------------------------------------------------- taxonomy type


def test_taxonomy_validation():
    Taxonomy([TaxonomyLabel("a", "A"), TaxonomyLabel("b", "B", "a")])
    with pytest.raises(TaxonomyError, match="duplicate label id"):
        Taxonomy([TaxonomyLabel("a", "A"), TaxonomyLabel("a", "B")])
    with pytest.raises(TaxonomyError, match="duplicate label name"):
        Taxonomy([TaxonomyLabel("a", "X"), TaxonomyLabel("b", "X")])
    with pytest.raises(TaxonomyError, match="unknown parent"):
        Taxonomy([TaxonomyLabel("a", "A", "ghost")])
    with pytest.raises(TaxonomyError, match="cycle"):
        Taxonomy([TaxonomyLabel("a", "A", "b"), TaxonomyLabel("b", "B", "a")])


def test_taxonomy_tiers():
    tax = Taxonomy(
        [
            TaxonomyLabel("t1", "Coarse"),
            TaxonomyLabel("t2", "Fine", "t1"),
            TaxonomyLabel("t3", "Finer", "t1"),
        ]
    )
    assert [lab.id for lab in tax.roots()] == ["t1"]
    assert [lab.id for lab in tax.children_of("t1")] == ["t2", "t3"]


# -------------------------------------------------------------- map fixtures


def _tax(*names: str) -> Taxonomy:
    return Taxonomy([TaxonomyLabel(f"L{i}", n) for i, n in enumerate(names)])


def test_exact_name_maps_with_score_one(make_graph):
    g = make_graph([(1, "Trucks")], [], [])
    mapping = map_taxonomy(_tax("Trucks"), g)
    (mc,) = mapping.entries["L0"]
    assert (mc.node, mc.kind, mc.score) == (g.category_node(1), "exact", 1.0)
    assert mapping.unmapped == []


def test_conjunction_parts_map(make_graph):
    g = make_graph([(1, "Arts"), (2, "Entertainment")], [], [])
    mapping = map_taxonomy(_tax("Arts & Entertainment"), g)
    got = {(mc.node, mc.kind) for mc in mapping.entries["L0"]}
    assert got == {(g.category_node(1), "exact"), (g.category_node(2), "exact")}
    assert "L0" not in mapping.near_misses


def test_slash_label_maps_three_categories(make_graph):
    g = make_graph([(1, "Paganism"), (2, "Pagans"), (3, "Wiccans")], [], [])
    mapping = map_taxonomy(_tax("Pagan/Wiccan"), g)
    by_node = {mc.node: mc for mc in mapping.entries["L0"]}
    assert set(by_node) == {g.category_node(i) for i in (1, 2, 3)}
    assert by_node[g.category_node(2)].kind == "exact"
    assert by_node[g.category_node(3)].kind == "exact"
    fuzzy = by_node[g.category_node(1)]
    assert fuzzy.kind == "fuzzy"
    assert fuzzy.score == pytest.approx(0.925, abs=1e-4)


def test_alias_gives_exact_match(make_graph):
    g = make_graph(
        [(1, "Attention deficit disorder")],
        [],
        [],
        redirects=[("A.D.D.", 1)],
    )
    mapping = map_taxonomy(_tax("A.D.D."), g)
    (mc,) = mapping.entries["L0"]
    assert (mc.node, mc.kind, mc.score) == (g.category_node(1), "exact", 1.0)


def test_below_threshold_reported_not_accepted(make_graph):
    g = make_graph([(1, "Emergency road services")], [], [])
    tax = _tax("Road-Side Assistance")
    mapping = map_taxonomy(tax, g)
    assert mapping.entries == {}
    assert mapping.unmapped == ["L0"]
    (miss,) = mapping.near_misses["L0"]
    assert miss.node == g.category_node(1)
    assert 0.0 < miss.score < 0.9

    fixed = map_taxonomy(tax, g, overrides={"L0": [g.category_node(1)]})
    (mc,) = fixed.entries["L0"]
    assert (mc.kind, mc.score) == ("override", 1.0)
    assert fixed.unmapped == []


def test_override_validation(make_graph):
    g = make_graph([(1, "A")], [(10, "p")], [(1, 10, "member")])
    tax = _tax("A")
    with pytest.raises(TaxonomyError, match="unknown label"):
        map_taxonomy(tax, g, overrides={"nope": [0]})
    with pytest.raises(TaxonomyError, match="non-category"):
        map_taxonomy(tax, g, overrides={"L0": [g.page_node(10)]})
    empty = map_taxonomy(tax, g, overrides={"L0": []})
    assert empty.unmapped == ["L0"]


def test_resolve_override_names(make_graph):
    g = make_graph([(1, "Trucks")], [], [], redirects=[("Lorries", 1)])
    assert resolve_override_names(g, {"x": ["Trucks"]}) == {"x": [0]}
    assert resolve_override_names(g, {"x": ["Lorries"]}) == {"x": [0]}
    with pytest.raises(TaxonomyError, match="not in graph"):
        resolve_override_names(g, {"x": ["Ships"]})


def test_exact_matches_never_demoted(make_graph):
    # A category exactly matching one part must stay kind=exact even if
    # another part scores it fuzzily.
    g = make_graph([(1, "Pagans")], [], [])
    mapping = map_taxonomy(_tax("Pagan/Wiccan"), g)
    (mc,) = mapping.entries["L0"]
    assert (mc.kind, mc.score) == ("exact", 1.0)


def test_threshold_monotonicity(make_graph):
    g = make_graph(
        [(1, "Paganism"), (2, "Pagans"), (3, "Emergency road services")],
        [],
        [],
    )
    tax = _tax("Pagan/Wiccan", "Road-Side Assistance", "Paganism")
    strict = map_taxonomy(tax, g, threshold=0.9)
    loose = map_taxonomy(tax, g, threshold=0.5)
    for lid, cats in strict.entries.items():
        loose_nodes = {mc.node for mc in loose.entries[lid]}
        assert {mc.node for mc in cats} <= loose_nodes
    assert set(loose.unmapped) <= set(strict.unmapped)


def test_mapping_deterministic(make_graph):
    g = make_graph([(1, "Paganism"), (2, "Pagans"), (3, "Wiccans")], [], [])
    tax = _tax("Pagan/Wiccan", "Paganism")
    assert map_taxonomy(tax, g) == map_taxonomy(tax, g)


def test_mapping_round_trip(make_graph, tmp_path):
    g = make_graph(
        [(1, "Paganism"), (2, "Pagans"), (3, "Emergency road services")],
        [],
        [],
    )
    tax = _tax("Pagan/Wiccan", "Road-Side Assistance")
    mapping = map_taxonomy(tax, g)
    path = tmp_path / "mapping.json"
    save_mapping(mapping, g, path)
    loaded = load_mapping(path, g, tax)
    assert isinstance(loaded, CategoryMapping)
    assert loaded.entries == mapping.entries
    assert loaded.unmapped == mapping.unmapped
    assert loaded.near_misses == mapping.near_misses
    assert loaded.threshold == mapping.threshold
