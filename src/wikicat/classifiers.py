"""Corpus balancing, centroid and linear-SVM classifiers, keyword baseline.

Both trainable models consume a tf-idf ``DocMatrix`` and score its rows as
w.x + b.  Their weights are a ``DocMatrix`` too: row c holds the nonzero
weights of class c, as the model file lists them.  The SVM is trained
one-vs-rest by stochastic gradient descent on the hinge loss with an L2
penalty; every class draws its own random generator from (seed, label), so
class models are independent of training order.  All randomness anywhere
in this module flows from explicit seeds.
"""

from __future__ import annotations

import hashlib
import logging
import math
import random
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable, Sequence, TypeVar

import numpy as np

from .exceptions import ConfigurationError
from .jsonio import INTEGER, NUMBER, Rows, read_json, write_json
from .taxonomy_mapper import strip_plural
from .textproc import (
    DocMatrix,
    TfIdfModel,
    tfidf_from_dict,
    tfidf_to_dict,
    tokenize,
)

logger = logging.getLogger(__name__)

CENTROID_FORMAT = "wikicat/centroid/v1"
SVM_FORMAT = "wikicat/svm/v1"

_SCALE_FLOOR = 1e-9  # fold the scale factor back into the weights below this
_CHUNK_SCORES = 1 << 15  # (docs x classes) floats per buffer of the scorer
_MAX_TABLE_BYTES = 1 << 30  # bound on a loaded model's scoring table

T = TypeVar("T")


@dataclass(frozen=True)
class TrainConfig:
    lam: float = 1e-4
    epochs: int = 5
    eta0: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lam) and self.lam > 0):
            raise ConfigurationError(f"lam must be finite and > 0, got {self.lam}")
        if self.epochs < 1:
            raise ConfigurationError("epochs must be >= 1")
        if not (math.isfinite(self.eta0) and self.eta0 > 0):
            raise ConfigurationError(f"eta0 must be finite and > 0, got {self.eta0}")


def _class_rng(seed: int, label: str) -> random.Random:
    # String seeding hashes internally, stable across platforms.
    return random.Random(f"{seed}|{label}")


def sample_balance(
    corpus: Iterable[tuple[int, str, T]],
    n_per_class: int,
    seed: int,
    expected_classes: Iterable[str] | None = None,
) -> list[tuple[int, str, T]]:
    """Balance (doc id, label, payload) rows to n_per_class per label.

    Larger classes are uniformly downsampled without replacement, smaller
    classes keep every document and then draw duplicates with replacement.
    Classes expected but absent are dropped with a warning.  Output order
    is sorted labels, each followed by its sampled rows.
    """
    if n_per_class < 1:
        raise ConfigurationError("n_per_class must be >= 1")
    by_label: dict[str, list[tuple[int, str, T]]] = {}
    for row in corpus:
        by_label.setdefault(row[1], []).append(row)
    if expected_classes is not None:
        missing = sorted(set(expected_classes) - set(by_label))
        if missing:
            logger.warning(
                "dropping classes with no documents: %s", ", ".join(missing)
            )
    out: list[tuple[int, str, T]] = []
    for label in sorted(by_label):
        docs = sorted(by_label[label], key=lambda row: row[0])
        rng = _class_rng(seed, label)
        if len(docs) > n_per_class:
            out.extend(rng.sample(docs, n_per_class))
        elif len(docs) < n_per_class:
            out.extend(docs)
            out.extend(rng.choices(docs, k=n_per_class - len(docs)))
        else:
            out.extend(docs)
    return out


# ------------------------------------------------------------ linear models


def _feature_indices(keys, n_features: int) -> np.ndarray:
    """Feature indices as an int64 array, each checked to lie in [0, n_features)."""
    try:
        ix = np.asarray(keys, dtype=np.int64)
    except OverflowError:
        raise ConfigurationError("feature index out of range") from None
    bad = (ix < 0) | (ix >= n_features)
    if bad.any():
        raise ConfigurationError(f"feature index {ix[bad.argmax()]} out of range")
    return ix


def _pad_docs(
    docs: DocMatrix, pad: int, lo: int = 0, hi: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Rows ``lo:hi`` as ``(rows, width)`` feature index and value arrays.

    Each row keeps its items in order, then has pad slots of value 0.0 that
    point at column ``pad``: a sink of zeros, so that a padded dot product
    adds only exact zeros after the real terms.
    """
    ptr = docs.indptr[lo : None if hi is None else hi + 1]
    lengths = np.diff(ptr)
    filled = np.arange(max(int(lengths.max(initial=0)), 1)) < lengths[:, None]
    idx = np.full(filled.shape, pad, dtype=np.int32)
    idx[filled] = docs.indices[ptr[0] : ptr[-1]]
    val = np.zeros(filled.shape)
    val[filled] = docs.data[ptr[0] : ptr[-1]]
    return idx, val


def _sparse(rows: np.ndarray, cols: np.ndarray, data: np.ndarray, n: int) -> DocMatrix:
    """The n CSR rows of the nonzero ``data[k]`` at ``(rows[k], cols[k])``,
    which come in row-major order."""
    keep = data != 0.0
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows[keep], minlength=n))))
    return DocMatrix(indptr, cols[keep].astype(np.int32), data[keep])


def _dot_chunks(table: np.ndarray, first: np.ndarray, docs: DocMatrix):
    """Yield ``(lo, hi, sums)`` per chunk of rows, with ``sums[r, c]`` equal to
    ``first[c] + table[i0, c] * v0 + table[i1, c] * v1 + ...`` for row
    ``lo + r``.  The table holds a feature per row, then a sink row of zeros.

    The terms are added one at a time in item order, as a loop adds them,
    never in BLAS's blocks, so the sums do not depend on the chunk size.  A
    chunk's buffers hold ``_CHUNK_SCORES`` floats each, which stay in cache.
    """
    n_features, n_cls = len(table) - 1, table.shape[1]
    step = max(1, _CHUNK_SCORES // n_cls)
    for lo in range(0, len(docs), step):
        hi = min(lo + step, len(docs))
        idx, val = _pad_docs(docs, n_features, lo, hi)
        sums = np.tile(first, (hi - lo, 1))
        term = np.empty_like(sums)
        for ix, v in zip(idx.T, val.T):
            np.take(table, ix, axis=0, out=term)
            term *= v[:, None]
            sums += term
        yield lo, hi, sums


def _predict(
    model: CentroidModel | LinearSvmModel, vectors: DocMatrix
) -> list[str | None]:
    """Per row, the class of the first strictly largest w.x + b, or None if
    no score is > -inf.

    Centroids have b = 0.  A NaN score never wins.
    """
    classes, weights = model.classes, model.weights
    if not classes:
        raise ConfigurationError("model has no classes")
    _feature_indices(vectors.indices, model.n_features)
    bias = getattr(model, "bias", np.zeros(len(classes)))
    table = np.zeros((model.n_features + 1, len(classes)))  # the sink row last
    rows = np.repeat(np.arange(len(classes)), np.diff(weights.indptr))
    table[weights.indices, rows] = weights.data
    names = np.array([*classes, None], dtype=object)
    out: list[str | None] = []
    for _, _, scores in _dot_chunks(table, bias, vectors):
        best = np.fmax.reduce(scores, axis=1)  # NaN only if every score is NaN
        win = np.argmax(scores == best[:, None], axis=1)
        win[~(best > -math.inf)] = len(classes)
        out += names[win].tolist()
    return out


# ----------------------------------------------------------------- centroid


@dataclass
class CentroidModel:
    """Unit-length class means: row c of ``weights`` belongs to ``classes[c]``."""

    classes: tuple[str, ...]
    weights: DocMatrix
    n_features: int
    tfidf: TfIdfModel | None = None


def train_centroid(
    vectors: DocMatrix,
    labels: Sequence[str],
    expected_classes: Iterable[str] | None = None,
    tfidf: TfIdfModel | None = None,
) -> CentroidModel:
    """Per class: mean of the class rows, L2-normalized.

    The model is as wide as the tf-idf vocabulary, or one past the largest
    feature index when no tf-idf model is given.
    """
    if len(vectors) != len(labels):
        raise ConfigurationError("vectors and labels differ in length")
    if not len(vectors):
        raise ConfigurationError("no training documents")
    classes = tuple(sorted(set(labels)))
    if expected_classes is not None:
        missing = sorted(set(expected_classes) - set(classes))
        if missing:
            raise ConfigurationError(
                f"classes without documents: {', '.join(missing)}"
            )
    if tfidf is not None:
        width = tfidf.vocab_size
    else:
        width = 1 + int(vectors.indices.max(initial=-1))
    code = {label: i for i, label in enumerate(classes)}
    doc_class = np.fromiter(map(code.__getitem__, labels), np.intp, len(labels))
    key = np.repeat(doc_class * width, np.diff(vectors.indptr))  # row * width + col
    key += _feature_indices(vectors.indices, width)
    keys, first, at = np.unique(key, return_index=True, return_inverse=True)
    sums = np.zeros(len(keys))
    np.add.at(sums, at, vectors.data)  # in document order
    rows, cols = np.divmod(keys, max(width, 1))
    mean = sums / np.bincount(doc_class, minlength=len(classes))[rows]
    # each class's norm adds its features in first-seen order, as the
    # stored bytes depend on it
    seen = np.argsort(first)
    norms = np.zeros(len(classes))
    np.add.at(norms, rows[seen], np.square(mean[seen]))
    norms = np.sqrt(norms)
    zero = np.flatnonzero(norms == 0.0)
    if len(zero):
        raise ConfigurationError(
            f"class {classes[zero[0]]!r} has an all-zero centroid"
        )
    weights = _sparse(rows, cols, mean / norms[rows], len(classes))
    return CentroidModel(classes, weights, width, tfidf)


def predict_centroid(model: CentroidModel, vectors: DocMatrix) -> list[str | None]:
    """Per row, the nearest centroid by dot product; ties go to the first label."""
    return _predict(model, vectors)


# ---------------------------------------------------------------------- svm


@dataclass
class LinearSvmModel:
    """One-vs-rest scorer w.x + b over ``n_features`` features: row c of
    ``weights`` and ``bias[c]`` belong to ``classes[c]``."""

    classes: tuple[str, ...]
    weights: DocMatrix
    n_features: int
    bias: np.ndarray
    config: TrainConfig
    loss_history: dict[str, list[float]] = field(default_factory=dict)
    tfidf: TfIdfModel | None = None


def _sgd(
    vectors: DocMatrix,
    targets: np.ndarray,
    names: Sequence[str],
    cfg: TrainConfig,
    n_features: int,
) -> tuple[np.ndarray, np.ndarray, list[list[float]]]:
    """Hinge-loss SGD for every row of ``targets`` (+1/-1 per doc) at once.

    Row c is the class ``names[c]``: it visits the docs in its own
    ``(seed, name)`` shuffle order and does exactly the float operations of
    a one-class loop, so its model is independent of the other rows.  w is
    kept as scale * u (Bottou 2010), so the L2 shrink each step is O(1);
    eta and scale depend only on the step count, so all rows share them.
    Dot products are sequential sums in feature order (``cumsum``), as a
    loop adds them, never ``np.dot``'s blocked sums.
    """
    _feature_indices(vectors.indices, n_features)
    idx, val = _pad_docs(vectors, n_features)  # u keeps its sink column at 0.0
    n_cls, n_docs = targets.shape
    u = np.zeros((n_cls, n_features + 1))
    flat_u = u.reshape(-1)
    row_start = np.arange(n_cls)[:, None] * (n_features + 1)
    bias = np.zeros(n_cls)
    scale = 1.0
    t = 0
    lam, eta0 = cfg.lam, cfg.eta0
    rngs = [_class_rng(cfg.seed, name) for name in names]
    identity = list(range(n_docs))
    order = np.tile(np.arange(n_docs, dtype=np.int32), (n_cls, 1))
    losses: list[list[float]] = [[] for _ in names]
    for _ in range(cfg.epochs):
        for c, rng in enumerate(rngs):
            # A shuffle's swaps depend only on the length and the generator,
            # so shuffling the identity gives the permutation to apply.
            perm = identity.copy()
            rng.shuffle(perm)
            order[c] = order[c, perm]
        ys = np.take_along_axis(targets, order, axis=1)
        for docs, y in zip(order.T, ys.T):
            eta = eta0 / (1.0 + eta0 * lam * t)
            t += 1
            cols = idx.take(docs, axis=0) + row_start
            x = val.take(docs, axis=0)
            prod = flat_u.take(cols)
            prod *= x
            margin = y * (scale * prod.cumsum(axis=1)[:, -1] + bias)
            scale *= max(1.0 - eta * lam, 1e-12)
            if scale < _SCALE_FLOOR:
                u *= scale
                scale = 1.0
            hit = (margin < 1.0).nonzero()[0]
            if len(hit):
                step = eta * y[hit]
                flat_u[cols[hit]] += (step / scale)[:, None] * x[hit]
                bias[hit] += step
                u[:, n_features] = 0.0  # an inf step leaves inf * 0.0 = NaN there
        # the epoch objective: per class, the hinge losses summed in doc order
        totals = np.zeros((1, n_cls))
        table = u.T.copy()  # rows gathered from a strided view take 3-7x longer
        for lo, hi, dots in _dot_chunks(table, np.zeros(n_cls), vectors):
            hinge = 1.0 - targets[:, lo:hi].T * (scale * dots + bias)
            hinge = np.where(hinge > 0.0, hinge, 0.0)  # max(0.0, nan) is 0.0
            totals = np.cumsum(np.concatenate([totals, hinge]), axis=0)[-1:]
        for c in range(n_cls):
            row = u[c, :n_features].copy()
            penalty = 0.5 * lam * scale * scale * float(np.dot(row, row))
            losses[c].append(float(totals[0, c]) / n_docs + penalty)
    return u[:, :n_features] * scale, bias, losses


def train_svm(
    vectors: DocMatrix,
    labels: Sequence[str],
    cfg: TrainConfig,
    n_features: int,
    tfidf: TfIdfModel | None = None,
) -> LinearSvmModel:
    """One-vs-rest hinge-loss SGD; deterministic per (seed, label)."""
    if len(vectors) != len(labels):
        raise ConfigurationError("vectors and labels differ in length")
    classes = sorted(set(labels))
    if len(classes) < 2:
        raise ConfigurationError("svm training needs at least 2 classes")
    code = {label: i for i, label in enumerate(classes)}
    codes = np.fromiter(map(code.__getitem__, labels), np.intp, len(labels))
    targets = np.where(
        codes == np.arange(len(classes))[:, None], np.int8(1), np.int8(-1)
    )
    dense, bias, losses = _sgd(vectors, targets, classes, cfg, n_features)
    weights = _sparse(*np.nonzero(dense), dense[dense != 0.0], len(classes))
    return LinearSvmModel(
        tuple(classes), weights, n_features, bias, cfg,
        dict(zip(classes, losses)), tfidf,
    )


def predict_svm(model: LinearSvmModel, vectors: DocMatrix) -> list[str | None]:
    """Per row, the argmax of w.x + b over classes; ties go to the first label."""
    return _predict(model, vectors)


# ------------------------------------------------------------ keyword vote


def _match_tokens(text: str) -> list[str]:
    # Plural-stripped so "suv" in a document matches the label name "SUVs".
    return [strip_plural(tok) for tok in tokenize(text)]


def keyword_vote(text: str, label_names: dict[str, str], seed: int) -> str:
    """Label whose name tokens occur most often; random fallback on zeros."""
    if not label_names:
        raise ConfigurationError("keyword voting needs at least one label")
    counts: dict[str, int] = {}
    for tok in _match_tokens(text):
        counts[tok] = counts.get(tok, 0) + 1
    scores = {
        label: sum(counts.get(tok, 0) for tok in _match_tokens(name))
        for label, name in label_names.items()
    }
    best = max(scores.values())
    digest = hashlib.md5(text.encode("utf-8")).hexdigest()
    rng = random.Random(f"{seed}:{digest}")
    if best == 0:
        return rng.choice(sorted(scores))
    tied = sorted(label for label, score in scores.items() if score == best)
    if len(tied) == 1:
        return tied[0]
    return rng.choice(tied)


# ------------------------------------------------------------ serialization


def _weights_rows(classes: Sequence[str], lists: list, n_features: int) -> DocMatrix:
    """Weight rows: row c holds the nonzero ``[index, weight]`` pairs of
    ``classes[c]``, each a JSON integer and a JSON number, as ``save_model``
    writes them, indices strictly ascending.  A model whose scoring table
    would outgrow ``_MAX_TABLE_BYTES`` is refused first."""
    table = len(classes) * (n_features + 1) * 8
    if table > _MAX_TABLE_BYTES:
        raise ConfigurationError(
            f"{len(classes)} classes x {n_features} features need a "
            f"{table}-byte scoring table, over the {_MAX_TABLE_BYTES}-byte limit"
        )
    indices, weights = [np.zeros(0, dtype=np.int64)], [np.zeros(0)]  # for no classes
    for label, pairs in zip(classes, lists):
        ixs = [ix for ix, _ in pairs]
        ws = [w for _, w in pairs]
        INTEGER.check(ixs, f"class {label!r}: feature index")
        NUMBER.check(ws, f"class {label!r}: weight")
        cols = _feature_indices(ixs, n_features)
        if (cols[1:] <= cols[:-1]).any():
            raise ValueError(f"class {label!r}: feature indices are not ascending")
        indices.append(cols)
        weights.append(np.array(ws, dtype=float))
    rows = np.repeat(np.arange(len(classes)), list(map(len, indices[1:])))
    return _sparse(rows, np.concatenate(indices), np.concatenate(weights), len(classes))


def save_model(model: CentroidModel | LinearSvmModel, path: str | Path) -> None:
    if model.tfidf is None:
        raise ConfigurationError("model has no tf-idf reference to serialize")
    if not isinstance(model, (CentroidModel, LinearSvmModel)):
        raise ConfigurationError(f"cannot serialize {type(model).__name__}")
    w, ptr = model.weights, model.weights.indptr.tolist()
    pairs = [Rows(w.indices[a:b], w.data[a:b]) for a, b in zip(ptr, ptr[1:])]
    doc = {"tfidf": tfidf_to_dict(model.tfidf)}
    if isinstance(model, CentroidModel):
        doc.update(format=CENTROID_FORMAT, centroids=dict(zip(model.classes, pairs)))
    else:
        doc.update(
            format=SVM_FORMAT,
            config=asdict(model.config),
            n_features=model.n_features,
            classes={
                label: {"bias": float(b), "weights": row}
                for label, row, b in zip(model.classes, pairs, model.bias)
            },
            loss_history=model.loss_history,
        )
    write_json(doc, path)


_CONFIG_TYPES = {"lam": NUMBER, "epochs": INTEGER, "eta0": NUMBER, "seed": INTEGER}


def load_model(path: str | Path) -> CentroidModel | LinearSvmModel:
    doc = read_json(path)
    fmt = doc.get("format") if isinstance(doc, dict) else None
    try:
        if fmt == CENTROID_FORMAT:
            tfidf = tfidf_from_dict(doc["tfidf"])
            classes = tuple(sorted(doc["centroids"]))
            rows = [doc["centroids"][label] for label in classes]
            n = tfidf.vocab_size
            return CentroidModel(classes, _weights_rows(classes, rows, n), n, tfidf)
        if fmt == SVM_FORMAT:
            config = doc["config"]
            for key, value in config.items():
                if key in _CONFIG_TYPES:
                    _CONFIG_TYPES[key].check([value], key)
            cfg = TrainConfig(**config)
            tfidf = tfidf_from_dict(doc["tfidf"])
            n_features = doc["n_features"]
            INTEGER.check([n_features], "n_features")
            if n_features != tfidf.vocab_size:
                raise ConfigurationError(
                    f"n_features {n_features} differs from the tf-idf "
                    f"vocabulary size {tfidf.vocab_size}"
                )
            classes = tuple(sorted(doc["classes"]))
            rows = [doc["classes"][label] for label in classes]
            bias = [row["bias"] for row in rows]
            NUMBER.check(bias, "bias")
            history = doc["loss_history"]
            for label, losses in history.items():
                NUMBER.check(losses, f"class {label!r}: loss")
            weights = [row["weights"] for row in rows]
            return LinearSvmModel(
                classes, _weights_rows(classes, weights, n_features), n_features,
                np.array(bias, dtype=float), cfg,
                {k: list(map(float, v)) for k, v in history.items()}, tfidf,
            )
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: {exc}") from None
    except (
        AttributeError, KeyError, IndexError, OverflowError, TypeError, ValueError
    ) as exc:
        raise ConfigurationError(f"{path}: malformed model file: {exc}") from None
    raise ConfigurationError(f"{path}: unknown model format {fmt!r}")
