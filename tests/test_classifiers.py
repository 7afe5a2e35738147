import json
import logging
import math

import numpy as np
import pytest

import model_file_oracle

from wikicat.classifiers import (
    CentroidModel,
    LinearSvmModel,
    TrainConfig,
    _sgd,
    keyword_vote,
    load_model,
    predict_centroid,
    predict_svm,
    sample_balance,
    save_model,
    train_centroid,
    train_svm,
)
from wikicat.exceptions import ConfigurationError
from wikicat.textproc import TfIdfModel, fit_tfidf

from docmatrix import docs


def _toy_corpus():
    # Linearly separable: each class owns one feature, feature 2 is noise.
    vecs, labs = [], []
    for i in range(8):
        vecs.append({0: 1.0, 2: 0.1 * (i % 3)})
        labs.append("ant")
        vecs.append({1: 1.0, 2: 0.1 * (i % 2)})
        labs.append("bee")
    return vecs, labs


# ------------------------------------------------------------------ balance


def test_balance_downsamples_without_replacement():
    corpus = [(i, "a", f"d{i}") for i in range(5)]
    corpus += [(10, "b", "x"), (11, "b", "y")]
    out = sample_balance(corpus, 3, seed=0)
    assert len(out) == 6
    assert [row[1] for row in out] == ["a"] * 3 + ["b"] * 3
    a_ids = [row[0] for row in out[:3]]
    assert len(set(a_ids)) == 3 and set(a_ids) <= {0, 1, 2, 3, 4}
    b_ids = [row[0] for row in out[3:]]
    assert set(b_ids) == {10, 11}


def test_balance_oversamples_keeping_every_original():
    corpus = [(1, "b", "x"), (2, "b", "y")]
    out = sample_balance(corpus, 5, seed=3)
    assert len(out) == 5
    assert {row[0] for row in out} == {1, 2}
    assert out[0][2] == "x" and out[1][2] == "y"


def test_balance_deterministic_and_seed_sensitive():
    corpus = [(i, "a", str(i)) for i in range(30)]
    one = sample_balance(corpus, 10, seed=7)
    two = sample_balance(corpus, 10, seed=7)
    other = sample_balance(corpus, 10, seed=8)
    assert one == two
    assert one != other


def test_balance_warns_on_missing_expected_class(caplog):
    corpus = [(1, "a", "x")]
    with caplog.at_level(logging.WARNING):
        out = sample_balance(corpus, 2, seed=0, expected_classes=["a", "ghost"])
    assert "ghost" in caplog.text
    assert [row[1] for row in out] == ["a", "a"]


def test_balance_rejects_bad_count():
    with pytest.raises(ConfigurationError):
        sample_balance([(1, "a", "x")], 0, seed=0)


# ----------------------------------------------------------------- centroid


def test_centroid_of_orthogonal_docs():
    # mean of e0 and e1 is (.5, .5); its L2 norm is sqrt(.5), so each
    # normalized component is 1/sqrt(2).
    model = train_centroid(docs([{0: 1.0}, {1: 1.0}]), ["m", "m"])
    assert model.classes == ("m",)
    [cen] = model.weights
    assert cen[0] == pytest.approx(0.70710678, abs=1e-8)
    assert cen[1] == pytest.approx(0.70710678, abs=1e-8)
    assert np.flatnonzero(cen).tolist() == [0, 1]


def test_centroid_predict_hand_fixture():
    model = CentroidModel(
        ("a", "b", "c"), np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]])
    )
    # a: 0.9, b: 0.1, c: 0.62
    assert predict_centroid(model, docs([{0: 0.9, 1: 0.1}])) == ["a"]
    # a: 0.5, b: 0.6, c: 0.78
    assert predict_centroid(model, docs([{0: 0.5, 1: 0.6}])) == ["c"]


def test_centroid_tie_and_empty_vector_pick_first_label():
    model = CentroidModel(("a", "b"), np.array([[1.0], [1.0]]))
    assert predict_centroid(model, docs([{0: 1.0}, {}])) == ["a", "a"]


def test_centroid_separable_corpus_fits_training_set():
    vecs, labs = _toy_corpus()
    model = train_centroid(docs(vecs), labs)
    assert predict_centroid(model, docs(vecs)) == labs


def test_centroid_validation():
    with pytest.raises(ConfigurationError):
        train_centroid(docs([{0: 1.0}]), ["a", "b"])
    with pytest.raises(ConfigurationError):
        train_centroid(docs([]), [])
    with pytest.raises(ConfigurationError, match="all-zero"):
        train_centroid(docs([{}]), ["z"])
    with pytest.raises(ConfigurationError, match="ghost"):
        train_centroid(docs([{0: 1.0}]), ["a"], expected_classes=["a", "ghost"])


# ---------------------------------------------------------------------- svm


def test_svm_single_step_hand_oracle():
    # One sample {0: 1.0}, target +1, lam=.01, eta0=.5, one epoch.
    # eta = .5, margin 0 < 1; scale shrinks to .995; u0 = .5/.995,
    # so w0 = u0 * scale = .5 and bias = .5.  The epoch-end margin is
    # exactly 1, so hinge = 0 and the objective is the penalty alone:
    # .5 * .01 * (scale * u0)^2 = .005 * .25 = .00125.
    cfg = TrainConfig(lam=0.01, epochs=1, eta0=0.5, seed=0)
    weights, bias, [losses] = _sgd(docs([{0: 1.0}]), np.array([[1.0]]), ["pos"], cfg, 2)
    assert weights[0, 0] == pytest.approx(0.5, abs=1e-12)
    assert bias[0] == 0.5
    assert losses == [pytest.approx(0.00125, rel=1e-9)]


def test_svm_fits_separable_corpus():
    vecs, labs = _toy_corpus()
    model = train_svm(docs(vecs), labs, TrainConfig(seed=0), n_features=3)
    assert predict_svm(model, docs(vecs)) == labs


def test_svm_same_seed_reproduces_bitwise():
    vecs, labs = _toy_corpus()
    cfg = TrainConfig(seed=5)
    m1 = train_svm(docs(vecs), labs, cfg, n_features=3)
    m2 = train_svm(docs(vecs), labs, cfg, n_features=3)
    assert m1.classes == m2.classes
    assert np.array_equal(m1.weights, m2.weights)
    assert np.array_equal(m1.bias, m2.bias)
    assert m1.loss_history == m2.loss_history


def test_svm_seed_changes_model():
    vecs, labs = _toy_corpus()
    m1 = train_svm(docs(vecs), labs, TrainConfig(seed=0), n_features=3)
    m2 = train_svm(docs(vecs), labs, TrainConfig(seed=1), n_features=3)
    assert not (
        np.array_equal(m1.weights, m2.weights) and np.array_equal(m1.bias, m2.bias)
    )


def test_svm_loss_history_trends_down():
    vecs, labs = _toy_corpus()
    model = train_svm(
        docs(vecs), labs, TrainConfig(epochs=8, seed=2), n_features=3
    )
    assert set(model.loss_history) == {"ant", "bee"}
    for losses in model.loss_history.values():
        assert len(losses) == 8
        assert all(x >= 0 for x in losses)
        # SGD wobbles; allow 5 percent upticks between epochs.
        for prev, cur in zip(losses, losses[1:]):
            assert cur <= prev * 1.05 + 1e-12


def test_svm_survives_huge_regularization():
    # lam=1e3 drives the per-step shrink to the 1e-12 clamp; the scale
    # refold must keep everything finite.
    vecs, labs = _toy_corpus()
    model = train_svm(docs(vecs), labs, TrainConfig(lam=1e3, seed=0), n_features=3)
    assert np.isfinite(model.bias).all()
    assert np.isfinite(model.weights).all()
    assert (np.abs(model.weights) < 1.0).all()
    for losses in model.loss_history.values():
        assert np.isfinite(losses).all()


def test_svm_classes_train_independently():
    vecs, labs = _toy_corpus()
    vecs = vecs + [{2: 1.0} for _ in range(8)]
    labs = labs + ["cow"] * 8
    base = train_svm(docs(vecs), labs, TrainConfig(seed=0), n_features=3)
    renamed = ["ant" if lab == "ant" else "z" + lab for lab in labs]
    other = train_svm(docs(vecs), renamed, TrainConfig(seed=0), n_features=3)
    ant, other_ant = base.classes.index("ant"), other.classes.index("ant")
    assert np.array_equal(base.weights[ant], other.weights[other_ant])
    assert base.bias[ant] == other.bias[other_ant]
    assert base.loss_history["ant"] == other.loss_history["ant"]


def test_svm_validation():
    with pytest.raises(ConfigurationError):
        train_svm(docs([{0: 1.0}]), ["solo"], TrainConfig(), n_features=1)
    with pytest.raises(ConfigurationError, match="out of range"):
        train_svm(
            docs([{5: 1.0}, {0: 1.0}]), ["a", "b"], TrainConfig(), n_features=2
        )
    with pytest.raises(ConfigurationError):
        TrainConfig(lam=0.0)
    with pytest.raises(ConfigurationError):
        TrainConfig(epochs=0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ConfigurationError, match="lam must be finite"):
            TrainConfig(lam=bad)
        with pytest.raises(ConfigurationError, match="eta0 must be finite"):
            TrainConfig(eta0=bad)


def test_svm_predict_tie_picks_first_label():
    model = LinearSvmModel(("a", "b"), np.zeros((2, 1)), np.zeros(2), TrainConfig())
    assert predict_svm(model, docs([{0: 1.0}])) == ["a"]


# ------------------------------------------------------------ keyword vote


def test_keyword_vote_counts_plural_matches():
    names = {"trucks": "Trucks", "suvs": "SUVs"}
    # tokens truck, truck, suv: 2 votes beat 1
    assert keyword_vote("trucks trucks suv", names, seed=0) == "trucks"


def test_keyword_vote_shared_tokens_can_mislead():
    names = {"kr": "South Korea", "sa": "South America"}
    text = "south america news and more south america"
    assert keyword_vote(text, names, seed=0) == "sa"
    # "south" alone votes for both; "korea" never appears, so a doc of
    # repeated "south" ties and resolves by seeded choice, not evidence.
    tied = keyword_vote("south south south", names, seed=0)
    assert tied in {"kr", "sa"}


def test_keyword_vote_zero_match_falls_back_to_seeded_random():
    names = {"a": "alpha", "b": "beta", "c": "gamma"}
    picks = {keyword_vote("zzz qqq", names, seed=4) for _ in range(5)}
    assert len(picks) == 1 and picks <= set(names)
    spread = {
        keyword_vote(f"nonsense {i} blob", names, seed=4) for i in range(50)
    }
    assert len(spread) > 1


def test_keyword_vote_tie_restricted_to_tied_labels():
    names = {"x": "red", "y": "blue", "w": "green"}
    winners = {keyword_vote("red blue", names, seed=s) for s in range(30)}
    assert winners <= {"x", "y"}
    assert len(winners) == 2


def test_keyword_vote_rejects_empty_labels():
    with pytest.raises(ConfigurationError):
        keyword_vote("text", {}, seed=0)


# ------------------------------------------------------------ serialization


@pytest.fixture()
def small_tfidf():
    return fit_tfidf(["aa bb", "bb cc", "aa cc", "aa bb cc"], min_df=1)


def test_centroid_round_trip(tmp_path, small_tfidf):
    vecs, labs = _toy_corpus()
    model = train_centroid(docs(vecs), labs, tfidf=small_tfidf)
    path = tmp_path / "cen.json"
    save_model(model, path)
    loaded = load_model(path)
    assert isinstance(loaded, CentroidModel)
    assert loaded.classes == model.classes
    assert np.array_equal(loaded.weights, model.weights)
    assert loaded.tfidf.terms == small_tfidf.terms
    assert loaded.tfidf.idf == small_tfidf.idf


def test_svm_round_trip(tmp_path, small_tfidf):
    vecs, labs = _toy_corpus()
    model = train_svm(
        docs(vecs), labs, TrainConfig(seed=9), n_features=3, tfidf=small_tfidf
    )
    path = tmp_path / "svm.json"
    save_model(model, path)
    loaded = load_model(path)
    assert isinstance(loaded, LinearSvmModel)
    assert loaded.config == model.config
    assert loaded.n_features == model.n_features
    assert loaded.loss_history == model.loss_history
    assert loaded.classes == model.classes
    assert np.array_equal(loaded.weights, model.weights)
    assert np.array_equal(loaded.bias, model.bias)
    vec = docs([{0: 0.4, 1: 0.2}])
    assert predict_svm(loaded, vec) == predict_svm(model, vec)


def _odd_tfidf() -> TfIdfModel:
    terms = sorted(['a"b', "back\\slash", "café", "tab\there", "x\u2028y", "z\ud800"])
    idf = [1.5, 5e-324, math.inf, 2.0, 1.0 / 3.0, 1e300]
    return TfIdfModel(9, 2, terms, [2, 3, 4, 5, 6, 9], idf)


def _odd_weights(n_classes: int, n_features: int) -> np.ndarray:
    rng = np.random.default_rng(7)
    weights = rng.standard_normal((n_classes, n_features))
    weights[rng.random(weights.shape) < 0.3] = 0.0
    weights[0, :4] = [math.nan, math.inf, -math.inf, -0.0]
    weights[0, 4:6] = [5e-324, -1e-300]
    return weights


@pytest.mark.parametrize("n_features", [6, 5_000])  # several writer chunks
def test_centroid_file_matches_list_building_writer(tmp_path, n_features):
    classes = ('a"quote', "back\\slash", "naïve", "ß\u2028")
    model = CentroidModel(classes, _odd_weights(4, n_features), _odd_tfidf())
    save_model(model, tmp_path / "got.json")
    model_file_oracle.save_model(model, tmp_path / "want.json")
    assert (tmp_path / "got.json").read_bytes() == (tmp_path / "want.json").read_bytes()


@pytest.mark.parametrize("n_features", [6, 5_000])
def test_svm_file_matches_list_building_writer(tmp_path, n_features):
    classes = ('a"quote', "empty", "naïve", "ß\u2028")
    weights = _odd_weights(4, n_features)
    weights[1] = 0.0  # written as []
    model = LinearSvmModel(
        classes,
        weights,
        np.array([-0.0, 0.25, math.nan, -math.inf]),
        TrainConfig(lam=1e-3, epochs=2, eta0=0.5, seed=4),
        {
            'a"quote': [math.nan, 1.5],
            "empty": [math.inf, -math.inf],
            "naïve": [0.1, -0.0],
            "ß\u2028": [5e-324, 2.0],
        },
        _odd_tfidf(),
    )
    save_model(model, tmp_path / "got.json")
    model_file_oracle.save_model(model, tmp_path / "want.json")
    got = (tmp_path / "got.json").read_bytes()
    assert got == (tmp_path / "want.json").read_bytes()
    assert b'"bias": -0.0' in got and b'"weights": []' in got


def test_save_requires_tfidf(tmp_path):
    model = train_centroid(docs([{0: 1.0}]), ["a"])
    with pytest.raises(ConfigurationError, match="tf-idf"):
        save_model(model, tmp_path / "no.json")


def test_load_rejects_unknown_format(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"format": "nope"}), encoding="utf-8")
    with pytest.raises(ConfigurationError, match="unknown model format"):
        load_model(path)
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigurationError, match="invalid JSON"):
        load_model(path)


@pytest.mark.parametrize("kind", ["centroid", "svm"])
def test_save_load_save_is_byte_identical(tmp_path, small_tfidf, kind):
    vecs, labs = _toy_corpus()
    if kind == "centroid":
        model = train_centroid(docs(vecs), labs, tfidf=small_tfidf)
    else:
        model = train_svm(docs(vecs), labs, TrainConfig(seed=3), 3, tfidf=small_tfidf)
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    save_model(model, first)
    save_model(load_model(first), second)
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("kind", ["centroid", "svm"])
@pytest.mark.parametrize("ix", [3, -1])
def test_load_rejects_weight_index_out_of_range(tmp_path, small_tfidf, kind, ix):
    vecs, labs = _toy_corpus()
    if kind == "centroid":
        model = train_centroid(docs(vecs), labs, tfidf=small_tfidf)
    else:
        model = train_svm(docs(vecs), labs, TrainConfig(), 3, tfidf=small_tfidf)
    path = tmp_path / "model.json"
    save_model(model, path)
    doc = json.loads(path.read_text())
    if kind == "centroid":
        doc["centroids"]["bee"].append([ix, 0.5])
    else:
        doc["classes"]["bee"]["weights"].append([ix, 0.5])
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigurationError, match=rf"model.json: feature index {ix} out"):
        load_model(path)


def test_load_rejects_svm_width_other_than_vocabulary(tmp_path, small_tfidf):
    vecs, labs = _toy_corpus()
    path = tmp_path / "svm.json"
    save_model(train_svm(docs(vecs), labs, TrainConfig(), 3, tfidf=small_tfidf), path)
    doc = json.loads(path.read_text())
    doc["n_features"] = 4
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigurationError, match="svm.json: n_features 4 differs"):
        load_model(path)


def test_load_rejects_svm_loss_history_that_is_not_a_table(tmp_path, small_tfidf):
    vecs, labs = _toy_corpus()
    path = tmp_path / "svm.json"
    save_model(train_svm(docs(vecs), labs, TrainConfig(), 3, tfidf=small_tfidf), path)
    doc = json.loads(path.read_text())
    doc["loss_history"] = []
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigurationError, match="svm.json: malformed model file"):
        load_model(path)


def _set_term_cell(column: int, value):
    def edit(doc):
        doc["tfidf"]["terms"][0][column] = value
    return edit


@pytest.mark.parametrize("edit, message", [
    pytest.param(lambda d: d["classes"]["bee"].update(bias="0.5"),
                 "bias '0.5' is not a number", id="str-bias"),
    pytest.param(lambda d: d["classes"]["bee"].update(bias=True),
                 "bias True is not a number", id="bool-bias"),
    pytest.param(lambda d: d["classes"]["bee"].update(bias=10**400),
                 "int too large to convert to float", id="huge-bias"),
    pytest.param(lambda d: d["loss_history"].update(bee=["1", "2"]),
                 "class 'bee': loss '1' is not a number", id="str-loss"),
    pytest.param(lambda d: d.update(n_features="3"),
                 "n_features '3' is not an int", id="str-n-features"),
    pytest.param(lambda d: d["config"].update(lam=True),
                 "lam True is not a number", id="bool-lam"),
    pytest.param(lambda d: d["config"].update(epochs="5"),
                 "epochs '5' is not an int", id="str-epochs"),
    pytest.param(lambda d: d["config"].update(seed=1.5),
                 "seed 1.5 is not an int", id="float-seed"),
    pytest.param(_set_term_cell(2, "9.5"), "idf '9.5' is not a number", id="str-idf"),
    pytest.param(_set_term_cell(2, False), "idf False is not a number", id="bool-idf"),
    pytest.param(_set_term_cell(2, 10**400), "int too large", id="huge-idf"),
    pytest.param(_set_term_cell(1, 2.7), "df 2.7 is not an int", id="float-df"),
    pytest.param(_set_term_cell(0, 5), "term 5 is not a string", id="int-term"),
    pytest.param(lambda d: d["tfidf"]["terms"][0].append(1.0),
                 r"a term row is not \[term, df, idf\]", id="four-cell-term-row"),
    pytest.param(lambda d: d["tfidf"]["terms"][0].pop(),
                 r"a term row is not \[term, df, idf\]", id="two-cell-term-row"),
    pytest.param(lambda d: d["tfidf"].update(n_docs="3"),
                 "n_docs or min_df '3' is not an int", id="str-n-docs"),
    pytest.param(lambda d: d["tfidf"].update(min_df=True),
                 "n_docs or min_df True is not an int", id="bool-min-df"),
])
def test_load_rejects_model_values_of_the_wrong_json_type(
    tmp_path, small_tfidf, edit, message
):
    vecs, labs = _toy_corpus()
    path = tmp_path / "svm.json"
    save_model(train_svm(docs(vecs), labs, TrainConfig(), 3, tfidf=small_tfidf), path)
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(
        ConfigurationError,
        match=f"svm.json: malformed (model file|tf-idf model): {message}",
    ):
        load_model(path)


def test_load_takes_ints_for_numbers_as_floats(tmp_path, small_tfidf):
    vecs, labs = _toy_corpus()
    path = tmp_path / "svm.json"
    save_model(train_svm(docs(vecs), labs, TrainConfig(), 3, tfidf=small_tfidf), path)
    doc = json.loads(path.read_text())
    doc["classes"]["bee"]["bias"] = 2
    doc["loss_history"]["bee"] = [1, 2.5]
    doc["tfidf"]["terms"][0][2] = 3
    path.write_text(json.dumps(doc))
    model = load_model(path)
    assert model.bias.dtype == np.float64
    assert model.bias[list(model.classes).index("bee")] == 2.0
    assert model.loss_history["bee"] == [1.0, 2.5]
    assert type(model.loss_history["bee"][0]) is float
    assert model.tfidf.idf[0] == 3.0 and type(model.tfidf.idf[0]) is float
