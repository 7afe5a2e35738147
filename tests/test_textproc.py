"""Tokenizer and tf-idf behavior, with hand-frozen idf values."""

from __future__ import annotations

import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import textproc_oracle

from wikicat.exceptions import ConfigurationError
from wikicat.jsonio import read_json, write_json
from wikicat.textproc import (
    _words,
    fit_tfidf,
    tfidf_from_dict,
    tfidf_to_dict,
    transform,
)

from docmatrix import dicts


def tokenize(text: str) -> list[str]:
    """The tokens that ``fit_tfidf`` and ``transform`` count: the words of
    ``_words``, less the one-character ones."""
    return [word for word in _words(text).split() if len(word) > 1]


def test_tokenize():
    assert tokenize("Sport-utility vehicles!") == ["sport", "utility", "vehicles"]
    assert tokenize("") == []
    assert tokenize("A1 b2") == ["a1", "b2"]
    assert tokenize("a b c") == []  # single chars drop
    assert tokenize("xx_yy") == ["xx", "yy"]  # underscore is a separator


# Runs of one, two and more letters or digits from several scripts, with
# separators, and characters that lower() turns into two.
_TOKEN_CHARS = st.one_of(
    st.characters(),
    st.sampled_from(
        list("aZ9_| -\t\n.'") + ["é", "ß", "İ", "ǅ", "٣", "²", "中", "\u0301", "\ud800"]
    ),
)


@seed(20261018)
@settings(max_examples=500, deadline=None, database=None)
@given(st.text(_TOKEN_CHARS, max_size=40))
def test_tokenize_matches_filtered_runs(text):
    assert tokenize(text) == textproc_oracle.tokenize_runs(text)


def test_ascii_tokenize_matches_filtered_runs():
    """An ASCII text is split by a byte table, not by the regex: each of the
    128 characters in runs of one to three at the start, middle and end of a
    token, then seeded random texts.  The same texts with one non-ASCII
    character go through the regex."""
    chars = list(map(chr, range(128)))
    ascii_texts = [
        text
        for run in (c * n for c in chars for n in (1, 2, 3))
        for text in (run, run + "ab", "Ab" + run + "9c", "x" + run, "aB" + run)
    ]
    rng = random.Random(20261020)
    for alphabet in (chars, list("aZ9_ -\t\n.'\x00\x7f")):
        ascii_texts += [
            "".join(rng.choices(alphabet, k=rng.randrange(60))) for _ in range(1000)
        ]
    assert all(map(str.isascii, ascii_texts))
    others = ["é", "ß", "İ", "٣", "²", "中", "\u0301", "\x80", "\xa0"]
    mixed = []
    for text in ascii_texts[::7]:
        at = rng.randrange(len(text) + 1)
        mixed.append(text[:at] + rng.choice(others) + text[at:])
    for text in ascii_texts + mixed:
        assert tokenize(text) == textproc_oracle.tokenize_runs(text), repr(text)


def test_fit_assigns_lexicographic_indices():
    corpus = ["zebra apple", "zebra apple", "zebra apple mango"]
    model = fit_tfidf(corpus, min_df=2)
    assert model.terms == ["apple", "zebra"]
    assert model.n_docs == 3


def test_idf_values_frozen():
    # Term in every doc: idf = ln(1) + 1 = 1.0.
    model = fit_tfidf(["common", "common", "common"], min_df=1)
    assert model.idf[model.terms.index("common")] == pytest.approx(1.0, abs=1e-12)

    # 4 docs, term in exactly 1: idf = ln(5/2) + 1 = 1.916290...
    corpus = ["rare word", "word here", "word there", "word again"]
    model = fit_tfidf(corpus, min_df=1)
    assert model.idf[model.terms.index("rare")] == pytest.approx(1.9163, abs=1e-4)


def test_min_df_is_document_frequency():
    # "dup" appears 3 times by term count but in only 2 documents.
    corpus = ["dup dup dup keep", "dup keep", "keep"]
    model = fit_tfidf(corpus, min_df=3)
    assert "dup" not in model.terms
    assert "keep" in model.terms


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
    assert single == {model.terms.index("alpha"): pytest.approx(1.0)}


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
    write_json(tfidf_to_dict(model), path)
    loaded = tfidf_from_dict(read_json(path))
    assert loaded.terms == model.terms
    assert loaded.df == model.df
    assert loaded.idf == model.idf
    assert loaded.n_docs == model.n_docs
    assert loaded.min_df == model.min_df
    assert dicts(transform(loaded, ["alpha beta"])) == dicts(
        transform(model, ["alpha beta"])
    )


def test_model_terms_must_not_repeat():
    doc = {"n_docs": 3, "min_df": 1, "terms": [["aa", 1, 1.5], ["bb", 1, 1.5]]}
    assert tfidf_from_dict(doc).vocab_size == 2
    doc["terms"] = [["aa", 1, 1.5], ["aa", 2, 1.2], ["bb", 1, 1.5], ["bb", 1, 1.5]]
    with pytest.raises(ConfigurationError, match="^model term 'aa' is repeated$"):
        tfidf_from_dict(doc)


def test_transform_rejects_a_bare_string():
    model = fit_tfidf(["alpha beta", "alpha beta"], min_df=1)
    with pytest.raises(ConfigurationError, match="not a str"):
        transform(model, "alpha beta")


@pytest.mark.parametrize("call", ["fit_tfidf", "transform"])
def test_a_one_pass_iterator_is_refused_before_any_text_is_read(call):
    """Both take a sized collection of texts: a generator fails on its
    length, with none of its texts consumed, rather than being copied or
    read as it comes."""
    model = fit_tfidf(["alpha beta", "alpha beta"], min_df=1)
    texts = iter(["alpha beta", "beta gamma"])
    with pytest.raises(TypeError, match="has no len"):
        fit_tfidf(texts, min_df=1) if call == "fit_tfidf" else transform(model, texts)
    assert list(texts) == ["alpha beta", "beta gamma"]


# a small pool, so that tokens repeat; "ü" and "ж" words are non-ASCII, and
# single letters, digits-only words and "_" joiners test the tokenizer
_WORDS = ["alpha", "beta", "gamma", "über", "жук", "x", "42", "a_b", "Alpha", "zz"]


def _hex_rows(rows):
    return [[(ix, w.hex()) for ix, w in row.items()] for row in rows]


@st.composite
def _transform_cases(draw):
    """Texts of words from a small pool, so that words repeat, or of any
    ``_TOKEN_CHARS``.  The pool is ``_WORDS`` or drawn words, which may be
    empty, one character long, or hold "|", "_" or a lone surrogate."""
    pool = draw(st.one_of(
        st.just(_WORDS + ["unseen", ""]),
        st.lists(st.text(_TOKEN_CHARS, max_size=5), min_size=1, max_size=8),
    ))
    text = st.one_of(
        st.lists(st.sampled_from(pool), max_size=12).map(" ".join),
        st.text(_TOKEN_CHARS, max_size=40),
    )
    fit = draw(st.lists(text, min_size=1, max_size=8))
    corpus = draw(st.lists(text, max_size=8))
    return fit, draw(st.integers(1, 4)), corpus


@seed(20261021)
@settings(max_examples=500, deadline=None, database=None)
@given(_transform_cases())
def test_transform_matches_dict_oracle(case):
    """``fit_tfidf`` and ``transform`` give the loop oracles' model and rows,
    bit for bit; the vocabulary may be empty."""
    fit, min_df, corpus = case
    model = fit_tfidf(fit, min_df=min_df)
    want = textproc_oracle.fit_tfidf(fit, min_df)
    assert (model.n_docs, model.terms, model.df) == (want.n_docs, want.terms, want.df)
    assert [w.hex() for w in model.idf] == [w.hex() for w in want.idf]
    got = transform(model, corpus)
    assert len(got) == len(corpus)
    assert got.data.dtype == np.float64
    rows = _hex_rows(dicts(got))
    assert rows == _hex_rows(textproc_oracle.transform(model, t) for t in corpus)


def test_transform_rows_do_not_depend_on_the_run_length(monkeypatch):
    """Runs of one text each (a bound of 1 character), of a few texts and of
    the default bound, weighed one run or the default number of runs at a
    time, give the oracle's rows, bit for bit."""
    import wikicat.textproc as textproc

    rng = random.Random(4)
    words = _WORDS + ["unseen"]
    corpus = [
        " ".join(rng.choice(words) for _ in range(rng.randint(0, 9)))
        for _ in range(40)
    ]
    model = fit_tfidf(corpus, min_df=2)
    want = _hex_rows(textproc_oracle.transform(model, text) for text in corpus)
    for run in (1, 60, textproc._RUN_CHARS):
        for runs in (1, textproc._PASS_RUNS):
            monkeypatch.setattr(textproc, "_RUN_CHARS", run)
            monkeypatch.setattr(textproc, "_PASS_RUNS", runs)
            assert _hex_rows(dicts(transform(model, corpus))) == want, (run, runs)


def _corpora():
    """Corpora whose first pass is unlike the rest: long texts, then many
    short ones; empty texts, then words; nothing but empty texts; one text."""
    rng = random.Random(8)
    words = _WORDS + ["unseen"]

    def text(n):
        return " ".join(rng.choice(words) for _ in range(n))

    return {
        "long first": [text(3_000) for _ in range(3)] + [text(2) for _ in range(300)],
        "empty first": [""] * 200 + [text(rng.randint(0, 9)) for _ in range(200)],
        "all empty": ["", " ", "|", "x"] * 50,
        "single": [text(7)],
    }


@pytest.mark.parametrize("name", sorted(_corpora()))
@pytest.mark.parametrize("per_pass", ["default", "one"])
def test_transform_written_in_place_matches_the_oracle(monkeypatch, name, per_pass):
    """The columns that each pass writes into, sized from the first pass,
    hold the oracle's rows, bit for bit.  With a run of one character and a
    pass of one run, every text is a pass of its own and the columns grow
    again and again."""
    import wikicat.textproc as textproc

    corpus = _corpora()[name]
    model = fit_tfidf(_corpora()["empty first"], min_df=2)
    if per_pass == "one":
        monkeypatch.setattr(textproc, "_RUN_CHARS", 1)
        monkeypatch.setattr(textproc, "_PASS_RUNS", 1)
    got = transform(model, corpus)
    assert len(got) == len(corpus) == len(got.indptr) - 1
    assert got.indptr[-1] == len(got.indices) == len(got.data)
    assert got.indices.dtype == np.int32 and got.data.dtype == np.float64
    want = _hex_rows(textproc_oracle.transform(model, t) for t in corpus)
    assert _hex_rows(dicts(got)) == want


def test_terms_no_text_yields_load_and_get_no_weight(tmp_path):
    """A model file may hold terms that no text can yield: one character,
    uppercase, with a space or "|", or a lone surrogate.  It loads, and no
    text gives those terms a weight."""
    odd = ["a", "AA", "Ab", "aa bb", "aa|bb", "|", "x\ud800", "\ud800\ud800"]
    terms = sorted(odd + ["aa", "bb"])
    doc = {"n_docs": 9, "min_df": 1, "terms": [[t, 2, 1.5] for t in terms]}
    path = tmp_path / "tfidf_model.json"
    write_json(doc, path)
    model = tfidf_from_dict(read_json(path))
    assert model.terms == terms
    texts = [
        "a A AA Ab aa bb", "aa bb | aa|bb", "x\ud800 aa \ud800\ud800",
        "| a|b A|A", "é a AA bb", "",
    ]
    rows = dicts(transform(model, texts))
    real = {terms.index("aa"), terms.index("bb")}
    assert set().union(*rows) <= real
    assert _hex_rows(rows) == _hex_rows(
        textproc_oracle.transform(model, t) for t in texts
    )


def test_a_bar_in_a_text_never_shifts_another_row(monkeypatch):
    """"|" joins a run's texts, so texts made of it, or holding it between
    words, must keep every row in its place, in one run and in runs of one."""
    import wikicat.textproc as textproc

    model = fit_tfidf(["alpha beta", "beta gamma", "gamma alpha"], min_df=1)
    texts = [
        "alpha | beta", "|", "| |", "gamma|alpha|", "beta", "||| alpha",
        "é|gamma", "", "|é|", "beta |gamma",
    ]
    want = _hex_rows(textproc_oracle.transform(model, t) for t in texts)
    alone = [_hex_rows(dicts(transform(model, [t])))[0] for t in texts]
    assert alone == want
    for run in (1, textproc._RUN_CHARS):
        monkeypatch.setattr(textproc, "_RUN_CHARS", run)
        assert _hex_rows(dicts(transform(model, texts))) == want


def test_transform_temporaries_stay_bounded():
    """Beside the matrix, ``transform`` holds about one pass's or one long
    text's words at a time, not the corpus's.  Two corpora: 3.4 million
    characters of texts, about 50 numpy passes, with one text of 129 000 in
    the middle, in which one word in 20 is a term (1.7 MB beside the
    matrix, where the corpus's words take about 40 MB); and 500 texts of 30
    terms, then 200 000 texts of one three-character term each, whose
    passes hold many rows (1.6 MB beside a 4.2 MB matrix)."""
    rng = random.Random(5)
    vocab = [f"w{i}x" for i in range(2000)]
    model = fit_tfidf([" ".join(vocab[:100])], min_df=1)
    long = [" ".join(rng.choices(vocab, k=30)) for _ in range(17_000)]
    long.insert(8_500, " ".join(rng.choices(vocab, k=20_000)))
    short = [" ".join(rng.choices(vocab[:100], k=30)) for _ in range(500)]
    short += rng.choices(vocab[:10], k=200_000)
    for texts in (long, short):
        matrix, held, peak = _traced_transform(model, texts)
        assert len(matrix) == len(texts)
        assert peak < 2 * held + 2_000_000, (len(texts), peak, held)


def test_transform_passes_of_empty_texts_stay_bounded():
    """A run's separators count towards its characters, so empty texts are
    split into passes like any other texts.  When only their words counted,
    300 000 empty texts made one pass whose words and ids took about five
    times the 2.4 MB matrix."""
    model = fit_tfidf(["alpha beta"], min_df=1)
    matrix, held, peak = _traced_transform(model, [""] * 300_000)
    assert len(matrix) == 300_000 and len(matrix.indices) == 0
    assert peak < 1.25 * held + 1_000_000, (peak, held)


def _traced_transform(model, texts):
    """The matrix, its bytes and the ``tracemalloc`` peak of the call, which
    counts every byte its columns reserve, used or not."""
    tracemalloc.start()
    try:
        matrix = transform(model, texts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = matrix.indptr.nbytes + matrix.indices.nbytes + matrix.data.nbytes
    return matrix, held, peak


def test_transform_holds_its_matrix_once():
    """30 000 texts of 40 words, a 14.5 MB matrix: the passes write into its
    columns, so the peak stays near one matrix, not the two that joining
    every pass's parts at the end holds."""
    rng = random.Random(6)
    vocab = [f"w{i}x" for i in range(3000)]
    model = fit_tfidf([" ".join(vocab)], min_df=1)
    texts = [" ".join(rng.choices(vocab, k=40)) for _ in range(30_000)]
    transform(model, texts[:10])  # numpy's lazy imports
    matrix, held, peak = _traced_transform(model, texts)
    assert len(matrix) == len(texts)
    assert held > 10_000_000
    assert peak < 1.25 * held + 2_000_000, (peak, held)


def test_a_skewed_first_pass_reserves_no_multiple_of_the_matrix():
    """The first pass holds about 340 texts of 30 distinct terms; 600 000
    one-word texts follow, for a 12 MB matrix.  At the first pass's
    nonzeros per text the columns would reserve (and ``resize`` would zero)
    about 240 MB; its nonzeros per character hold them to about the
    matrix."""
    rng = random.Random(7)
    vocab = [f"w{i}x" for i in range(3000)]
    model = fit_tfidf([" ".join(vocab)], min_df=1)
    texts = [" ".join(rng.sample(vocab, 30)) for _ in range(500)]
    texts += ["w7x"] * 600_000
    transform(model, texts[:10])  # numpy's lazy imports
    matrix, held, peak = _traced_transform(model, texts)
    assert matrix.indptr[-1] == 500 * 30 + 600_000
    assert peak < 1.25 * held + 2_000_000, (peak, held)
