"""The class-vectorized SVM trainer against the loop oracle in ``svm_oracle``.

Every weight, bias and epoch loss must have the same bits: the trainer
does each class's float operations in the loop's order, so nothing may
differ, not even the last place.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import svm_oracle
from wikicat.classifiers import TrainConfig, train_svm

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
    assert list(model.classes) == list(oracle.classes)
    for name, want in oracle.classes.items():
        got = model.classes[name]
        assert list(got.weights) == list(want.weights), name
        assert _bits(got.weights.values()) == _bits(want.weights.values()), name
        assert _bits([got.bias]) == _bits([want.bias]), name
        assert _bits(model.loss_history[name]) == _bits(oracle.loss_history[name])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@seed(20261018)
@settings(max_examples=150, deadline=None)
@given(_cases())
def test_train_svm_matches_loop_oracle(case):
    vectors, labels, cfg, n_features = case
    model = train_svm(vectors, labels, cfg, n_features)
    _assert_same(model, svm_oracle.train_svm(vectors, labels, cfg, n_features))


def test_huge_regularization_refolds_like_the_loop():
    # lam=1e3 clamps every shrink at 1e-12, so the scale refolds each step.
    vectors = [{0: 1.0, 2: 0.3}, {1: 1.0}, {2: 0.5, 0: 0.2}, {}, {1: 0.7}]
    labels = ["a", "b", "a", "c", "c"]
    cfg = TrainConfig(lam=1e3, epochs=3, eta0=0.1, seed=1)
    model = train_svm(vectors, labels, cfg, 3)
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
        train_svm(vectors, labels, cfg, 2),
        svm_oracle.train_svm(vectors, labels, cfg, 2),
    )
