"""Tokenizer and tf-idf behavior, with hand-frozen idf values."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import textproc_oracle

from wikicat.exceptions import ConfigurationError
from wikicat.textproc import (
    fit_tfidf,
    load_tfidf,
    save_tfidf,
    tokenize,
    transform,
)

from docmatrix import dicts


def test_tokenize():
    assert tokenize("Sport-utility vehicles!") == ["sport", "utility", "vehicles"]
    assert tokenize("") == []
    assert tokenize("A1 b2") == ["a1", "b2"]
    assert tokenize("a b c") == []  # single chars drop
    assert tokenize("xx_yy") == ["xx", "yy"]  # underscore is a separator


def test_fit_assigns_lexicographic_indices():
    corpus = ["zebra apple", "zebra apple", "zebra apple mango"]
    model = fit_tfidf(corpus, min_df=2)
    assert model.terms == ["apple", "zebra"]
    assert model.n_docs == 3


def test_idf_values_frozen():
    # Term in every doc: idf = ln(1) + 1 = 1.0.
    model = fit_tfidf(["common", "common", "common"], min_df=1)
    assert model.idf[model.index["common"]] == pytest.approx(1.0, abs=1e-12)

    # 4 docs, term in exactly 1: idf = ln(5/2) + 1 = 1.916290...
    corpus = ["rare word", "word here", "word there", "word again"]
    model = fit_tfidf(corpus, min_df=1)
    assert model.idf[model.index["rare"]] == pytest.approx(1.9163, abs=1e-4)


def test_min_df_is_document_frequency():
    # "dup" appears 3 times by term count but in only 2 documents.
    corpus = ["dup dup dup keep", "dup keep", "keep"]
    model = fit_tfidf(corpus, min_df=3)
    assert "dup" not in model.index
    assert "keep" in model.index


def test_empty_corpus_errors_all_filtered_warns(caplog):
    with pytest.raises(ConfigurationError, match="empty corpus"):
        fit_tfidf([])
    with caplog.at_level("WARNING"):
        model = fit_tfidf(["one two", "three four"], min_df=3)
    assert model.vocab_size == 0
    assert any("vocabulary is empty" in r.message for r in caplog.records)


def test_transform_normalizes():
    corpus = ["alpha beta", "alpha beta", "alpha gamma", "beta gamma"]
    model = fit_tfidf(corpus, min_df=2)
    [vec] = dicts(transform(model, ["alpha alpha beta unseen"]))
    norm = math.sqrt(sum(w * w for w in vec.values()))
    assert norm == pytest.approx(1.0, abs=1e-9)
    assert set(vec) <= set(range(model.vocab_size))
    assert list(vec) == sorted(vec)

    assert dicts(transform(model, ["unseen words only"])) == [{}]
    [single] = dicts(transform(model, ["alpha alpha alpha"]))
    assert single == {model.index["alpha"]: pytest.approx(1.0)}


def test_transform_scale_invariant():
    corpus = ["alpha beta gamma", "beta gamma", "alpha gamma", "alpha beta"]
    model = fit_tfidf(corpus, min_df=1)
    doc = "alpha beta beta gamma"
    once, thrice = dicts(transform(model, [doc, " ".join([doc] * 3)]))
    assert set(once) == set(thrice)
    for ix in once:
        assert once[ix] == pytest.approx(thrice[ix], abs=1e-12)


def test_fitting_corpus_stays_in_vocab_bounds():
    rng = random.Random(3)
    words = [f"w{i}" for i in range(30)]
    corpus = [
        " ".join(rng.choice(words) for _ in range(rng.randint(1, 20)))
        for _ in range(50)
    ]
    model = fit_tfidf(corpus, min_df=3)
    for vec in dicts(transform(model, corpus)):
        for ix in vec:
            assert 0 <= ix < model.vocab_size


def test_model_round_trip(tmp_path):
    corpus = ["alpha beta", "alpha beta", "alpha gamma", "beta gamma"]
    model = fit_tfidf(corpus, min_df=2)
    path = tmp_path / "tfidf_model.json"
    save_tfidf(model, path)
    loaded = load_tfidf(path)
    assert loaded.terms == model.terms
    assert loaded.df == model.df
    assert loaded.idf == model.idf
    assert loaded.n_docs == model.n_docs
    assert loaded.min_df == model.min_df
    assert dicts(transform(loaded, ["alpha beta"])) == dicts(
        transform(model, ["alpha beta"])
    )


def test_transform_rejects_a_bare_string():
    model = fit_tfidf(["alpha beta", "alpha beta"], min_df=1)
    with pytest.raises(ConfigurationError, match="not a str"):
        transform(model, "alpha beta")


# a small pool, so that tokens repeat; "ü" and "ж" words are non-ASCII, and
# single letters, digits-only words and "_" joiners test the tokenizer
_WORDS = ["alpha", "beta", "gamma", "über", "жук", "x", "42", "a_b", "Alpha", "zz"]


@st.composite
def _transform_cases(draw):
    text = st.lists(st.sampled_from(_WORDS + ["unseen", ""]), max_size=12).map(" ".join)
    fit = draw(st.lists(text, min_size=1, max_size=8))
    corpus = draw(st.lists(text, max_size=8))
    return fit, draw(st.integers(1, 4)), corpus


@seed(20261021)
@settings(max_examples=200, deadline=None)
@given(_transform_cases())
def test_transform_matches_dict_oracle(case):
    fit, min_df, corpus = case
    model = fit_tfidf(fit, min_df=min_df)  # vocabulary may be empty
    got = transform(model, iter(corpus))
    assert len(got) == len(corpus)
    assert got.data.dtype == np.float64
    rows = dicts(got)
    for row, text in zip(rows, corpus):
        want = textproc_oracle.transform(model, text)
        assert list(row) == list(want)
        assert [w.hex() for w in row.values()] == [w.hex() for w in want.values()]


def test_transform_rows_do_not_depend_on_the_run_length(monkeypatch):
    import wikicat.textproc as textproc

    rng = random.Random(4)
    words = _WORDS + ["unseen"]
    corpus = [
        " ".join(rng.choice(words) for _ in range(rng.randint(0, 9)))
        for _ in range(40)
    ]
    model = fit_tfidf(corpus, min_df=2)
    want = [textproc_oracle.transform(model, text) for text in corpus]
    for run in (1, 2, 7, 1 << 14):
        monkeypatch.setattr(textproc, "_RUN_TOKENS", run)
        got = dicts(transform(model, corpus))
        assert [list(row) for row in got] == [list(row) for row in want]
        assert [[w.hex() for w in row.values()] for row in got] == [
            [w.hex() for w in row.values()] for row in want
        ]
