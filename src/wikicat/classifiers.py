"""Corpus balancing, centroid and linear-SVM classifiers.

Both trainable models consume a tf-idf ``DocMatrix`` and score its rows as
w.x + b.  Their weights are a ``DocMatrix`` too: row c holds the nonzero
weights of class c, as the model file lists them.  The SVM is trained
one-vs-rest by stochastic gradient descent on the hinge loss with an L2
penalty; every class draws its own random generator from (seed, label), so
class models are independent of training order.  All randomness anywhere
in this module flows from explicit seeds.
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from .exceptions import ConfigurationError
from .jsonio import INTEGER, NUMBER, Rows, read_json_members, write_json
from .textproc import (
    DocMatrix,
    RowWriter,
    TfIdfModel,
    tfidf_from_dict,
    tfidf_to_dict,
)

CENTROID_FORMAT = "wikicat/centroid/v1"
SVM_FORMAT = "wikicat/svm/v1"

_SCALE_FLOOR = 1e-9  # fold the scale factor back into the weights below this
_CHUNK_SCORES = 1 << 15  # (docs x classes) floats per buffer of the scorer
_MAX_TABLE_BYTES = 1 << 30  # bound on a loaded model's scoring table
_MAX_SAMPLE_ROWS = 1 << 24  # bound on the rows of one balanced sample


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
    pages: np.ndarray,
    labels: np.ndarray,
    names: Sequence[str],
    n_per_class: int,
    seed: int,
) -> np.ndarray:
    """The positions of a sample of rows balanced to n_per_class per label,
    where row ``i`` is page ``pages[i]`` with label ``names[labels[i]]``; a
    row whose label is -1 is not drawn.

    A label's rows are taken in page id order, equal ids in row order.
    Larger classes are uniformly downsampled without replacement, smaller
    classes keep every row and then draw duplicates with replacement.  Each
    class draws positions from its own generator, and which positions it
    draws depends only on its size.  Output order is sorted labels, each
    followed by its sampled rows.  A sample of more than
    ``_MAX_SAMPLE_ROWS`` rows is refused before any draw.
    """
    if n_per_class < 1:
        raise ConfigurationError("n_per_class must be >= 1")
    by_label = np.argsort(labels, kind="stable")
    # where each label's rows start and end in ``by_label``
    bounds = np.searchsorted(labels[by_label], np.arange(len(names) + 1)).tolist()
    classes = [code for code in range(len(names)) if bounds[code] < bounds[code + 1]]
    n_rows = n_per_class * len(classes)
    if n_rows > _MAX_SAMPLE_ROWS:
        raise ConfigurationError(
            f"n_per_class {n_per_class} x {len(classes)} classes is {n_rows} "
            f"rows, over the {_MAX_SAMPLE_ROWS}-row limit"
        )
    out = [np.zeros(0, np.intp)]
    for code in sorted(classes, key=names.__getitem__):
        rows = by_label[bounds[code] : bounds[code + 1]]
        rows = rows[np.argsort(pages[rows], kind="stable")]
        n = len(rows)
        rng = _class_rng(seed, names[code])
        if n > n_per_class:
            rows = rows[rng.sample(range(n), n_per_class)]
        elif n < n_per_class:
            rows = rows[[*range(n), *rng.choices(range(n), k=n_per_class - n)]]
        out.append(rows)
    return np.concatenate(out)


# ------------------------------------------------------------ linear models


def _check_features(ix: np.ndarray, n_features: int) -> None:
    """Refuse the first feature index outside [0, n_features), reading the
    array in place."""
    if len(ix) and (int(ix.min()) < 0 or int(ix.max()) >= n_features):
        bad = (ix < 0) | (ix >= n_features)
        raise ConfigurationError(f"feature index {ix[bad.argmax()]} out of range")


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


def _weight_matrix(
    rows: Iterable[tuple[np.ndarray, np.ndarray]], n_rows: int, most: float
) -> DocMatrix:
    """A model's CSR weight rows, written one class at a time: row c holds
    the nonzero weights of the c-th ``(feature indices, weights)`` pair of
    ``rows``.  ``most`` bounds the pairs' items in all; the columns are
    sized for ``n_rows`` classes like the ones written so far, within it."""
    out = RowWriter(n_rows, lambda done, nonzeros: nonzeros * n_rows / done, most)
    for cols, weights in rows:
        keep = weights != 0.0
        out.add(np.count_nonzero(keep, keepdims=True), cols[keep], weights[keep])
    return out.matrix()


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
    classes = model.classes
    if not classes:
        raise ConfigurationError("model has no classes")
    _check_features(vectors.indices, model.n_features)
    bias = getattr(model, "bias", np.zeros(len(classes)))
    names = np.array([*classes, None], dtype=object)
    out: list[str | None] = []
    for _, _, scores in _dot_chunks(model.table, bias, vectors):
        best = np.fmax.reduce(scores, axis=1)  # NaN only if every score is NaN
        win = np.argmax(scores == best[:, None], axis=1)
        win[~(best > -math.inf)] = len(classes)
        out += names[win].tolist()
    return out


class _LinearModel:
    """What both models score with: ``classes``, their ``weights`` rows and
    ``n_features``."""

    @cached_property
    def table(self) -> np.ndarray:
        """The weights as a dense ``(n_features + 1) x classes`` table, a
        feature per row, then a sink row of zeros.  It is built on the
        first prediction and kept, so every later call reuses it."""
        weights, n_cls = self.weights, len(self.classes)
        table = np.zeros((self.n_features + 1, n_cls))
        rows = np.repeat(np.arange(n_cls), np.diff(weights.indptr))
        table[weights.indices, rows] = weights.data
        return table

    def drop_weights(self) -> None:
        """Build the scoring table and let the weight rows go: a model that
        only predicts from here on scores with the table alone, which holds
        every weight.  Such a model can no longer be saved."""
        self.table  # built and kept
        self.weights = None


# ----------------------------------------------------------------- centroid


@dataclass
class CentroidModel(_LinearModel):
    """Unit-length class means: row c of ``weights`` belongs to ``classes[c]``."""

    classes: tuple[str, ...]
    weights: DocMatrix
    n_features: int
    tfidf: TfIdfModel | None = None


def _centroid_row(matrix: DocMatrix) -> tuple[np.ndarray, np.ndarray] | None:
    """The features and unit-length mean of a class's rows, or None when the
    mean is all zero.  The items are summed per feature in row order, and
    the squared means in the order the rows first hold their features."""
    keys, first, at = np.unique(
        matrix.indices, return_index=True, return_inverse=True
    )
    mean = np.zeros(len(keys))
    np.add.at(mean, at, matrix.data)
    mean /= len(matrix)
    norm = np.zeros(1)
    np.add.at(norm, np.zeros_like(keys), np.square(mean[np.argsort(first)]))
    return None if norm[0] == 0.0 else (keys, mean / np.sqrt(norm[0]))


def train_centroid(
    classes: Sequence[str],
    class_rows: Iterable[DocMatrix],
    tfidf: TfIdfModel | None = None,
) -> CentroidModel:
    """Per class: mean of its rows, L2-normalized.  ``class_rows`` gives the
    rows of ``classes[0]``, then those of ``classes[1]`` and so on, the
    classes in sorted order, each once.

    The model is as wide as the tf-idf vocabulary, or one past the largest
    feature index when no tf-idf model is given.

    A class's items, in row order, are summed per feature, and the squares
    of its means are added up in the order the class first saw its
    features, as the stored bytes depend on it; the class's weights are its
    means over that norm.  The rows are read a class at a time, so a caller
    that makes each class's matrix as it is asked for never holds the set's
    whole matrix, and each class's weights go straight into the model's
    rows.  The refusals come after every class is read, in this order: no
    rows at all, the first feature index out of range, then the first class
    whose centroid is all zero.
    """
    classes = tuple(classes)
    if list(classes) != sorted(set(classes)):
        raise ValueError("classes are not sorted and distinct")
    width = math.inf if tfidf is None else tfidf.vocab_size
    n_rows, widest, faults = 0, -1, {}

    def rows() -> Iterator[tuple[np.ndarray, np.ndarray]]:
        nonlocal n_rows, widest
        for label, matrix in zip(classes, class_rows, strict=True):
            n_rows += len(matrix)
            widest = max(widest, int(matrix.indices.max(initial=-1)))
            try:
                _check_features(matrix.indices, width)
            except ConfigurationError as exc:
                faults.setdefault("features", exc)
            row = None if faults else _centroid_row(matrix)
            if row is None:  # past a fault, only the checks go on
                faults.setdefault("zero", ConfigurationError(
                    f"class {label!r} has an all-zero centroid"
                ))
                row = matrix.indices[:0], matrix.data[:0]
            yield row

    # a class has at most one weight per feature
    weights = _weight_matrix(rows(), len(classes), len(classes) * width)
    if not n_rows:
        raise ConfigurationError("no training documents")
    if faults:
        raise faults.get("features") or faults["zero"]
    n_features = 1 + widest if tfidf is None else tfidf.vocab_size
    return CentroidModel(classes, weights, n_features, tfidf)


def predict_centroid(model: CentroidModel, vectors: DocMatrix) -> list[str | None]:
    """Per row, the nearest centroid by dot product; ties go to the first label."""
    return _predict(model, vectors)


# ---------------------------------------------------------------------- svm


@dataclass
class LinearSvmModel(_LinearModel):
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
    _check_features(vectors.indices, n_features)
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
    every = np.arange(n_features)
    weights = _weight_matrix(
        ((every, row) for row in dense), len(classes), dense.size
    )
    return LinearSvmModel(
        tuple(classes), weights, n_features, bias, cfg,
        dict(zip(classes, losses)), tfidf,
    )


def predict_svm(model: LinearSvmModel, vectors: DocMatrix) -> list[str | None]:
    """Per row, the argmax of w.x + b over classes; ties go to the first label."""
    return _predict(model, vectors)


# ------------------------------------------------------------ serialization


def _weight_columns(keys: tuple[str, ...], value: Any) -> Any:
    """A class's ``[index, weight]`` rows, as a model file's reader decodes
    them, turned into ``Rows`` of an int64 and a float64 array when every
    row is a JSON integer and a JSON number that fit them; the indices are
    int32, as the model's rows hold them, when they fit that.  Any other
    value is kept as decoded, for ``_weights_rows`` to check."""
    if not (
        len(keys) == 2 and keys[0] == "centroids"
        or len(keys) == 3 and keys[0] == "classes" and keys[2] == "weights"
    ) or type(value) is not list:
        return value
    if not ({list} >= set(map(type, value)) and {2} >= set(map(len, value))):
        return value
    ixs, ws = zip(*value) if value else ((), ())
    if not (
        INTEGER.types.issuperset(map(type, ixs))
        and NUMBER.types.issuperset(map(type, ws))
    ):
        return value
    try:
        cols, ws = np.array(ixs, dtype=np.int64), np.array(ws, dtype=float)
    except OverflowError:
        return value
    if len(cols) and cols.min() >= 0 and cols.max() <= np.iinfo(np.int32).max:
        cols = cols.astype(np.int32)
    return Rows(cols, ws)


def _weights_rows(classes: Sequence[str], lists: list, n_features: int) -> DocMatrix:
    """Weight rows: row c holds the nonzero ``[index, weight]`` pairs of
    ``classes[c]``, each a JSON integer and a JSON number, as ``save_model``
    writes them, indices strictly ascending.  A class is given as decoded, or
    as the ``Rows`` that ``_weight_columns`` made of it, which passed the
    type checks.  A model whose scoring table would outgrow
    ``_MAX_TABLE_BYTES``, or that has no classes, is refused first."""
    if not classes:
        raise ConfigurationError("model has no classes")
    table = len(classes) * (n_features + 1) * 8
    if table > _MAX_TABLE_BYTES:
        raise ConfigurationError(
            f"{len(classes)} classes x {n_features} features need a "
            f"{table}-byte scoring table, over the {_MAX_TABLE_BYTES}-byte limit"
        )
    indices, weights = [], []
    for label, pairs in zip(classes, lists):
        if isinstance(pairs, Rows):
            cols, ws = pairs.columns
        else:
            ixs = [ix for ix, _ in pairs]
            ws = [w for _, w in pairs]
            INTEGER.check(ixs, f"class {label!r}: feature index")
            NUMBER.check(ws, f"class {label!r}: weight")
            try:
                cols = np.array(ixs, dtype=np.int64)
            except OverflowError:
                raise ConfigurationError("feature index out of range") from None
        _check_features(cols, n_features)
        if (cols[1:] <= cols[:-1]).any():
            raise ValueError(f"class {label!r}: feature indices are not ascending")
        indices.append(cols)
        weights.append(np.asarray(ws, dtype=float))
    return _weight_matrix(zip(indices, weights), len(classes), sum(map(len, indices)))


def save_model(model: CentroidModel | LinearSvmModel, path: str | Path) -> None:
    if not isinstance(model, (CentroidModel, LinearSvmModel)):
        raise ConfigurationError(f"cannot serialize {type(model).__name__}")
    if model.tfidf is None:
        raise ConfigurationError("model has no tf-idf reference to serialize")
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
    doc = read_json_members(path, _weight_columns)
    fmt = doc.get("format") if isinstance(doc, dict) else None
    try:
        if fmt == CENTROID_FORMAT:
            tfidf = tfidf_from_dict(doc.pop("tfidf"))  # frees its rows
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
            tfidf = tfidf_from_dict(doc.pop("tfidf"))  # frees its rows
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
