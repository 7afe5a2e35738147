"""The class-vectorized trainers and the batch scorer against loop oracles.

Every weight, bias and epoch loss must have the same bits as in
``svm_oracle``, and every centroid weight the same bits as in
``centroid_oracle``: the trainers do each class's float operations in the
loops' order, so nothing may differ, not even the last place.  Every
prediction must name the label that the per-class dict loops of
``predict_oracle`` name.
"""

from __future__ import annotations

import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import centroid_oracle
import predict_oracle
import svm_oracle
import wikicat.classifiers as classifiers
import wikicat.cli as cli
from docmatrix import by_class, dicts, docs, sparse
from wikicat.classifiers import (
    CentroidModel,
    LinearSvmModel,
    TrainConfig,
    load_model,
    predict_centroid,
    predict_svm,
    save_model,
    train_centroid,
    train_svm,
)
from wikicat.exceptions import ConfigurationError
from wikicat.textproc import DocMatrix, TfIdfModel, fit_tfidf, transform

_VALUES = st.one_of(
    st.floats(0.01, 1.0),
    st.floats(-3.0, 3.0),
    st.sampled_from([1.0, 0.5, 1e-6]),
)


@st.composite
def _cases(draw):
    n_features = draw(st.integers(1, 30))
    n_classes = draw(st.integers(2, 8))
    names = [f"c{i}" for i in range(n_classes)]
    docs = []
    for i in range(draw(st.integers(n_classes, 24))):
        # each doc keeps its drawn item order, which need not be sorted;
        # nine or more terms make a blocked sum round differently
        keys = draw(st.permutations(range(n_features)))
        keys = keys[: draw(st.integers(0, n_features))]
        vec = {ix: draw(_VALUES) for ix in keys}
        label = names[i] if i < n_classes else draw(st.sampled_from(names))
        docs.append((vec, label))
    # sample_balance pads small classes with duplicates of their docs
    dup = draw(st.lists(st.integers(0, len(docs) - 1), max_size=8))
    docs += [docs[i] for i in dup]
    if draw(st.booleans()):
        docs.append(({}, names[0]))
    cfg = TrainConfig(
        # lam=1e3 clamps the first shrink at 1e-12; lam=1e12 with a large
        # eta0 clamps later ones too, when u is no longer zero
        lam=draw(st.sampled_from([1e-4, 1e-2, 0.5, 1.0, 1e3, 1e12])),
        epochs=draw(st.integers(1, 4)),
        eta0=draw(st.sampled_from([0.1, 1.0, 50.0, 1e6])),
        seed=draw(st.integers(0, 3)),
    )
    vectors = [vec for vec, _ in docs]
    labels = [label for _, label in docs]
    return vectors, labels, cfg, n_features


def _bits(xs):
    return [float(x).hex() for x in xs]


def _assert_same(model, oracle):
    classes, history = oracle
    assert model.classes == tuple(classes)
    for name, row, bias in zip(model.classes, dicts(model.weights), model.bias):
        want, want_bias = classes[name]
        assert list(row) == list(want), name
        assert _bits(row.values()) == _bits(want.values()), name
        assert _bits([bias]) == _bits([want_bias]), name
        assert _bits(model.loss_history[name]) == _bits(history[name])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@seed(20261018)
@settings(max_examples=150, deadline=None)
@given(_cases())
def test_train_svm_matches_loop_oracle(case):
    vectors, labels, cfg, n_features = case
    model = train_svm(docs(vectors), labels, cfg, n_features)
    _assert_same(model, svm_oracle.train_svm(vectors, labels, cfg, n_features))


def test_huge_regularization_refolds_like_the_loop():
    # lam=1e3 clamps every shrink at 1e-12, so the scale refolds each step.
    vectors = [{0: 1.0, 2: 0.3}, {1: 1.0}, {2: 0.5, 0: 0.2}, {}, {1: 0.7}]
    labels = ["a", "b", "a", "c", "c"]
    cfg = TrainConfig(lam=1e3, epochs=3, eta0=0.1, seed=1)
    model = train_svm(docs(vectors), labels, cfg, 3)
    _assert_same(model, svm_oracle.train_svm(vectors, labels, cfg, 3))
    assert all(math.isfinite(x) for h in model.loss_history.values() for x in h)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_step_keeps_the_pad_sink_clean():
    # eta0 * lam is just below 1, so the first shrink leaves scale near 5e-9,
    # above the refold floor, and eta * y / scale overflows to inf.  The pad
    # slots then get inf * 0.0 = NaN, which must not reach later dot products.
    eta0 = 1e300
    cfg = TrainConfig(lam=(1 - 5e-9) / eta0, epochs=2, eta0=eta0, seed=0)
    vectors = [{0: 1.0}, {1: 0.5, 0: 0.5}, {1: 1.0}]
    labels = ["a", "b", "b"]
    _assert_same(
        train_svm(docs(vectors), labels, cfg, 2),
        svm_oracle.train_svm(vectors, labels, cfg, 2),
    )


# a small pool, so that scores tie; 1e308 overflows to inf in a product
_WEIGHTS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1e308, math.inf, -math.inf, math.nan]),
    st.floats(-2.0, 2.0),
)
_DOC_VALUES = st.one_of(
    st.sampled_from([0.0, 1.0, -1.0, 0.5, 1e308]), st.floats(-2.0, 2.0)
)


@st.composite
def _scoring_cases(draw):
    """A model's weight rows as CSR, each row's items ascending: explicit
    zeros, -0.0, infinities and NaNs among them, and empty rows."""
    n_classes = draw(st.integers(1, 5))
    n_features = draw(st.integers(0, 6))
    classes = tuple(f"c{i}" for i in range(n_classes))
    features = st.integers(0, max(n_features - 1, 0))
    rows = [
        {ix: draw(_WEIGHTS) for ix in draw(st.sets(features, max_size=n_features))}
        for _ in range(n_classes)
    ]
    bias = np.array([draw(_WEIGHTS) for _ in range(n_classes)])
    if n_classes > 1 and draw(st.booleans()):  # an exact tie with class 0
        rows[-1], bias[-1] = rows[0], bias[0]
    weights = docs([dict(sorted(row.items())) for row in rows])
    vectors = []
    for _ in range(draw(st.integers(0, 6))):
        # past-the-end and negative indices sometimes, in any order
        keys = draw(st.lists(st.integers(-1, n_features), unique=True, max_size=9))
        if draw(st.integers(0, 4)):
            keys = [ix for ix in keys if 0 <= ix < n_features]
        vectors.append({ix: draw(_DOC_VALUES) for ix in keys})
    if draw(st.booleans()):
        vectors.insert(draw(st.integers(0, len(vectors))), {})
    return classes, weights, n_features, bias, vectors


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@seed(20261019)
@settings(max_examples=400, deadline=None)
@given(_scoring_cases())
def test_scorer_matches_dict_loops(case):
    classes, weights, n_features, bias, vectors = case
    svm = LinearSvmModel(classes, weights, n_features, bias, TrainConfig())
    centroid = CentroidModel(classes, weights, n_features)
    if any(not 0 <= ix < n_features for vec in vectors for ix in vec):
        for model, predict in ((svm, predict_svm), (centroid, predict_centroid)):
            with pytest.raises(ConfigurationError, match="out of range"):
                predict(model, docs(vectors))
        return
    svm_dicts = predict_oracle.svm_dicts(classes, weights, bias)
    assert predict_svm(svm, docs(vectors)) == [
        predict_oracle.predict_svm(svm_dicts, vec) for vec in vectors
    ]
    centroids = predict_oracle.centroid_dicts(classes, weights)
    assert predict_centroid(centroid, docs(vectors)) == [
        predict_oracle.predict_centroid(centroids, vec) for vec in vectors
    ]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_scorer_returns_none_when_no_score_beats_minus_inf():
    weights = docs([{0: 1.0}, {0: math.nan}])
    for bias in ([math.nan, math.nan], [-math.inf, 0.0]):
        svm = LinearSvmModel(("a", "b"), weights, 1, np.array(bias), TrainConfig())
        assert predict_svm(svm, docs([{0: 1.0}])) == [None]
    centroid = CentroidModel(("a", "b"), docs([{0: -math.inf}, {0: math.nan}]), 1)
    assert predict_centroid(centroid, docs([{0: 1.0}, {}])) == [None, "a"]


def test_scorer_adds_bias_then_terms_in_item_order():
    # In order, 1e16 + 1.0 rounds back to 1e16 twelve times, so "b" wins;
    # adding the ones first, or in pairs, would make "a" reach 1e16 + 12.
    n = 12
    weights = docs([dict.fromkeys(range(n), 1.0), {}])
    bias = np.array([1e16, 1e16 + 2])
    vector = dict.fromkeys(range(n), 1.0)
    svm = LinearSvmModel(("a", "b"), weights, n, bias, TrainConfig())
    want = predict_oracle.predict_svm(
        predict_oracle.svm_dicts(svm.classes, weights, bias), vector
    )
    assert want == "b"
    assert predict_svm(svm, docs([vector])) == [want]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_results_do_not_depend_on_the_chunk_size(monkeypatch):
    # rows of different widths, empty rows, and a NaN weight, scored and
    # trained with the default chunks and with chunks of one to three rows
    rng = np.random.default_rng(5)
    vectors = [
        {int(ix): float(rng.uniform(-1, 1)) for ix in rng.permutation(8)[:k]}
        for k in rng.integers(0, 9, size=23)
    ]
    labels = [f"c{i % 3}" for i in range(len(vectors))]
    weights = rng.uniform(-1, 1, (3, 8))
    weights[1, 4] = math.nan
    svm = LinearSvmModel(
        ("c0", "c1", "c2"), sparse(weights), 8, np.zeros(3), TrainConfig()
    )
    cfg = TrainConfig(epochs=2, seed=1)

    def run():
        trained = train_svm(docs(vectors), labels, cfg, 8)
        return predict_svm(svm, docs(vectors)), trained.loss_history

    want = run()
    for chunk in (3, 6, 9):
        monkeypatch.setattr(classifiers, "_CHUNK_SCORES", chunk)
        assert run() == want
    rows = predict_oracle.svm_dicts(svm.classes, svm.weights, svm.bias)
    assert want[0] == [predict_oracle.predict_svm(rows, vec) for vec in vectors]


@st.composite
def _centroid_cases(draw):
    n_features = draw(st.integers(1, 12))
    names = [f"c{i}" for i in range(draw(st.integers(1, 5)))]
    vectors, labels = [], []
    for i in range(draw(st.integers(len(names), 30))):
        keys = draw(st.lists(st.integers(0, n_features - 1), unique=True, max_size=8))
        vectors.append({ix: draw(st.floats(0.001, 1.0)) for ix in keys})
        labels.append(names[i] if i < len(names) else draw(st.sampled_from(names)))
    for label in names:  # every class needs some weight
        vectors.append({draw(st.integers(0, n_features - 1)): 1.0})
        labels.append(label)
    return vectors, labels, n_features


@seed(20261020)
@settings(max_examples=200, deadline=None)
@given(_centroid_cases())
def test_train_centroid_matches_loop_oracle(case):
    vectors, labels, n_features = case
    model = train_centroid(*by_class(docs(vectors), labels))
    want = centroid_oracle.train_centroid(vectors, labels)
    assert model.classes == tuple(want)
    assert model.n_features == 1 + max(ix for vec in vectors for ix in vec)
    assert len(model.weights) == len(want)
    for row, label in zip(dicts(model.weights), model.classes):
        cols = sorted(want[label])
        assert list(row) == cols, label
        assert _bits(row.values()) == _bits(want[label][ix] for ix in cols), label


@st.composite
def _centroid_item_cases(draw):
    """Documents as (feature, value) items that may repeat a feature, within
    a document and across documents, with the classes' documents
    interleaved in document order."""
    n_features = draw(st.integers(1, 6))
    names = [f"c{i}" for i in range(draw(st.integers(1, 5)))]
    item = st.tuples(st.integers(0, n_features - 1), _VALUES)
    items, labels = [], []
    for _ in range(draw(st.integers(1, 40))):
        items.append(draw(st.lists(item, max_size=10)))
        labels.append(draw(st.sampled_from(names)))
    return items, labels


def _item_rows(items) -> DocMatrix:
    """One row per document, holding its items in order, repeats included."""
    lengths = [len(doc) for doc in items]
    return DocMatrix(
        np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64),
        np.array([ix for doc in items for ix, _ in doc], dtype=np.int32),
        np.array([w for doc in items for _, w in doc], dtype=np.float64),
    )


@seed(20261022)
@settings(max_examples=100, deadline=None)
@given(_centroid_item_cases())
def test_train_centroid_per_class_matches_loop_oracle_on_repeated_items(case):
    items, labels = case
    try:
        want = centroid_oracle.train_centroid(items, labels)
    except ConfigurationError as exc:
        with pytest.raises(ConfigurationError) as got:
            train_centroid(*by_class(_item_rows(items), labels))
        assert str(got.value) == str(exc)
        return
    model = train_centroid(*by_class(_item_rows(items), labels))
    assert model.classes == tuple(want)
    for row, label in zip(dicts(model.weights), model.classes):
        cols = sorted(ix for ix, w in want[label].items() if w != 0.0)
        assert list(row) == cols, label
        assert _bits(row.values()) == _bits(want[label][ix] for ix in cols), label


@pytest.mark.parametrize("n_classes", [1, 2, 1_000])
def test_train_centroid_rows_written_a_class_at_a_time_match_the_oracle(n_classes):
    """Each class's row goes into the model's columns as it is computed; the
    columns are sized from the classes before it.  The rows hold the
    oracle's weights, bit for bit, without the ones that come out 0.0: a
    feature whose values cancel, or one seen only at 0.0."""
    rng = np.random.default_rng(n_classes)
    items, labels = [], []
    for d in range(3 * n_classes):
        # the first class's documents are the longest, so the columns are
        # first sized for rows wider than the rest
        size = 40 if d % n_classes == 0 else int(rng.integers(1, 8))
        doc = [(int(ix), float(w)) for ix, w in zip(
            rng.integers(0, 50, size), rng.normal(size=size)
        )]
        doc += [(50, 0.0), (51, 0.25), (51, -0.25)]
        items.append(doc)
        labels.append(f"c{d % n_classes:04d}")
    model = train_centroid(*by_class(_item_rows(items), labels))
    want = centroid_oracle.train_centroid(items, labels)
    assert model.classes == tuple(want) and len(model.weights) == n_classes
    assert model.weights.indices.dtype == np.int32
    assert model.weights.indptr[-1] == len(model.weights.indices)
    for row, label in zip(dicts(model.weights), model.classes):
        cols = sorted(ix for ix, w in want[label].items() if w != 0.0)
        assert 50 not in cols and 51 not in cols
        assert list(row) == cols, label
        assert _bits(row.values()) == _bits(want[label][ix] for ix in cols), label


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@seed(20261021)
@settings(max_examples=100, deadline=None)
@given(_cases())
def test_models_trained_in_process_predict_as_their_saved_copies(case):
    """``ablate`` scores with models that were never saved; they must give
    the labels of their save -> load copies, from the same weight rows."""
    vectors, labels, cfg, n_features = case
    terms = [f"t{i:02d}" for i in range(n_features)]
    tfidf = TfIdfModel(1, 1, terms, [1] * n_features, [1.0] * n_features)
    matrix = docs(vectors)
    models = [(train_svm(matrix, labels, cfg, n_features, tfidf), predict_svm)]
    try:
        centroid = train_centroid(*by_class(matrix, labels), tfidf=tfidf)
        models.append((centroid, predict_centroid))
    except ConfigurationError:  # a class whose docs cancel out
        pass
    with tempfile.TemporaryDirectory() as d:
        for model, predict in models:
            save_model(model, Path(d) / "model.json")
            loaded = load_model(Path(d) / "model.json")
            assert loaded.n_features == model.n_features == n_features
            assert loaded.weights.indptr.tolist() == model.weights.indptr.tolist()
            assert loaded.weights.indices.tolist() == model.weights.indices.tolist()
            assert _bits(loaded.weights.data) == _bits(model.weights.data)
            assert predict(loaded, matrix) == predict(model, matrix)


# ------------------------------------------- centroid sets, a class at a time

_TEXT_WORDS = "amber basil cedar dune ember fern grove x y".split()


@st.composite
def _centroid_sets(draw):
    """A set's (page, label, text) rows with the labels interleaved, words
    repeated across a class's texts, and texts of no term at all (one
    letter words, or words under min_df), so that a class whose texts all
    lack terms, anywhere in file order, has an all-zero centroid."""
    names = [f"c{i}" for i in range(draw(st.integers(1, 5)))]
    rows = []
    for page in range(draw(st.integers(1, 30))):
        label = draw(st.sampled_from(names))
        words = draw(st.lists(st.sampled_from(_TEXT_WORDS), max_size=6))
        rows.append((page, label, " ".join(words)))
    return rows, draw(st.integers(1, 3))


@seed(20261026)
@settings(max_examples=150, deadline=None, database=None)
@given(_centroid_sets())
def test_centroid_sets_train_a_class_at_a_time_like_the_loop_oracle(case):
    """``train --kind centroid`` transforms each class's texts, in document
    order, as the model reads that class, and gives the weights, or the
    error, of the loop oracle over the whole set's matrix."""
    rows, min_df = case
    labels = [label for _, label, _ in rows]
    texts = [text for _, _, text in rows]
    columns = ([page for page, _, _ in rows], labels, texts)
    tfidf = fit_tfidf(texts, min_df=min_df)
    items = [list(row.items()) for row in dicts(transform(tfidf, texts))]
    calls = []

    def spy(model, class_texts):
        calls.append(list(class_texts))
        return transform(model, class_texts)

    cli._bind(cli.COMMANDS["train"][2])
    with tempfile.TemporaryDirectory() as d, mock.patch.object(cli, "transform", spy):
        try:
            want = centroid_oracle.train_centroid(items, labels)
        except ConfigurationError as exc:
            with pytest.raises(ConfigurationError) as got:
                list(cli._train_sets({"s": columns}, "centroid", min_df, None, Path(d)))
            assert str(got.value) == str(exc)
            return
        [(_, model, _)] = cli._train_sets(
            {"s": columns}, "centroid", min_df, None, Path(d)
        )
    assert calls == [
        [text for _, label, text in rows if label == name] for name in sorted(want)
    ]
    assert model.classes == tuple(want) and model.n_features == tfidf.vocab_size
    for row, label in zip(dicts(model.weights), model.classes):
        cols = sorted(ix for ix, w in want[label].items() if w != 0.0)
        assert list(row) == cols, label
        assert _bits(row.values()) == _bits(want[label][ix] for ix in cols), label


def test_the_first_all_zero_class_in_sorted_order_is_named_after_every_check():
    """'d' has no term and comes first in the file; 'b', whose words fall
    under min_df too, comes first in sorted order."""
    rows = [(1, "d", "x y"), (2, "a", "fern fern"), (3, "b", "amber"),
            (4, "c", "fern dune"), (5, "d", "basil"), (6, "a", "dune")]
    cli._bind(cli.COMMANDS["train"][2])
    with tempfile.TemporaryDirectory() as d, pytest.raises(ConfigurationError) as got:
        columns = [list(column) for column in zip(*rows)]
        list(cli._train_sets({"s": columns}, "centroid", 2, None, Path(d)))
    assert str(got.value) == "class 'b' has an all-zero centroid"


def test_centroid_training_refuses_features_before_all_zero_classes():
    """A class whose rows fall outside the vocabulary is refused before an
    earlier class with an all-zero centroid, and an empty set before both."""
    tfidf = TfIdfModel(1, 1, ["aa", "bb"], [1, 1], [1.0, 1.0])
    zero, wide = docs([{}]), docs([{0: 1.0}, {5: 1.0}])
    with pytest.raises(ConfigurationError, match="^feature index 5 out of range$"):
        train_centroid(["a", "b"], iter([zero, wide]), tfidf=tfidf)
    with pytest.raises(ConfigurationError, match="^no training documents$"):
        train_centroid([], iter([]), tfidf=tfidf)
