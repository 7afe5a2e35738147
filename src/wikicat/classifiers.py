"""Corpus balancing, centroid and linear-SVM classifiers, keyword baseline.

Both trainable models consume sparse tf-idf vectors.  The SVM is trained
one-vs-rest by stochastic gradient descent on the hinge loss with an L2
penalty; every class draws its own random generator from (seed, label), so
class models are independent of training order.  All randomness anywhere
in this module flows from explicit seeds.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import random
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Iterable, Sequence, TypeVar

import numpy as np

from .exceptions import ConfigurationError
from .taxonomy_mapper import strip_plural
from .textproc import (
    DocumentVector,
    TfIdfModel,
    tfidf_from_dict,
    tfidf_to_dict,
    tokenize,
)

logger = logging.getLogger(__name__)

CENTROID_FORMAT = "wikicat/centroid/v1"
SVM_FORMAT = "wikicat/svm/v1"

_SCALE_FLOOR = 1e-9  # fold the scale factor back into the weights below this
_OBJECTIVE_BLOCK = 1 << 13  # gathered weights per chunk of the epoch objective

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


# ----------------------------------------------------------------- centroid


@dataclass
class CentroidModel:
    centroids: dict[str, DocumentVector]
    tfidf: TfIdfModel | None = None


def train_centroid(
    vectors: Sequence[DocumentVector],
    labels: Sequence[str],
    expected_classes: Iterable[str] | None = None,
    tfidf: TfIdfModel | None = None,
) -> CentroidModel:
    """Per class: mean of the class vectors, L2-normalized."""
    if len(vectors) != len(labels):
        raise ConfigurationError("vectors and labels differ in length")
    if not vectors:
        raise ConfigurationError("no training documents")
    sums: dict[str, dict[int, float]] = {}
    counts: dict[str, int] = {}
    for vec, label in zip(vectors, labels):
        acc = sums.setdefault(label, {})
        for ix, w in vec.items():
            acc[ix] = acc.get(ix, 0.0) + w
        counts[label] = counts.get(label, 0) + 1
    if expected_classes is not None:
        missing = sorted(set(expected_classes) - set(sums))
        if missing:
            raise ConfigurationError(
                f"classes without documents: {', '.join(missing)}"
            )
    centroids: dict[str, DocumentVector] = {}
    for label in sorted(sums):
        mean = {ix: v / counts[label] for ix, v in sums[label].items()}
        norm = math.sqrt(sum(w * w for w in mean.values()))
        if norm == 0.0:
            raise ConfigurationError(f"class {label!r} has an all-zero centroid")
        centroids[label] = {ix: w / norm for ix, w in sorted(mean.items())}
    return CentroidModel(centroids, tfidf)


def predict_centroid(model: CentroidModel, vector: DocumentVector) -> str:
    """Nearest centroid by dot product; ties break to the first label id."""
    if not model.centroids:
        raise ConfigurationError("centroid model has no classes")
    best_label = None
    best_score = -math.inf
    for label in sorted(model.centroids):
        centroid = model.centroids[label]
        score = sum(w * centroid.get(ix, 0.0) for ix, w in vector.items())
        if score > best_score:
            best_label, best_score = label, score
    return best_label


# ---------------------------------------------------------------------- svm


@dataclass
class SvmClass:
    weights: dict[int, float]
    bias: float


@dataclass
class LinearSvmModel:
    classes: dict[str, SvmClass]
    config: TrainConfig
    n_features: int
    loss_history: dict[str, list[float]] = field(default_factory=dict)
    tfidf: TfIdfModel | None = None


def _pad_docs(
    vectors: Sequence[DocumentVector], n_features: int
) -> tuple[np.ndarray, np.ndarray]:
    """Docs as ``(n_docs, width)`` feature index and value arrays.

    Each row keeps its document's own item order.  Pad slots carry 0.0 and
    point at column ``n_features``, a sink the trainer keeps at 0.0, so a
    padded dot product adds only exact zeros after the real terms.
    """
    lengths = np.fromiter(map(len, vectors), dtype=np.intp, count=len(vectors))
    n_items = int(lengths.sum())
    filled = np.arange(max(int(lengths.max(initial=0)), 1)) < lengths[:, None]
    try:
        keys = np.fromiter(chain.from_iterable(vectors), dtype=np.int64, count=n_items)
    except OverflowError:
        raise ConfigurationError("feature index out of range") from None
    bad = (keys < 0) | (keys >= n_features)
    if bad.any():
        raise ConfigurationError(f"feature index {keys[bad.argmax()]} out of range")
    idx = np.full(filled.shape, n_features, dtype=np.int32)
    idx[filled] = keys
    del keys
    val = np.zeros(filled.shape)
    val[filled] = np.fromiter(
        chain.from_iterable(vec.values() for vec in vectors),
        dtype=np.float64,
        count=n_items,
    )
    return idx, val


def _hinge_totals(
    idx: np.ndarray,
    val: np.ndarray,
    targets: np.ndarray,
    u: np.ndarray,
    scale: float,
    bias: np.ndarray,
) -> np.ndarray:
    """Per class, the hinge losses of all docs summed in doc order."""
    n_cls, n_docs = targets.shape
    totals = np.zeros((n_cls, 1))
    rows = max(1, _OBJECTIVE_BLOCK // (n_cls * idx.shape[1]))
    for lo in range(0, n_docs, rows):
        prod = u[:, idx[lo : lo + rows]]
        prod *= val[lo : lo + rows]
        dots = np.cumsum(prod, axis=2, out=prod)[:, :, -1]
        hinge = 1.0 - targets[:, lo : lo + rows] * (scale * dots + bias[:, None])
        # not np.maximum: max(0.0, nan) is 0.0
        hinge = np.where(hinge > 0.0, hinge, 0.0)
        totals = np.cumsum(np.concatenate([totals, hinge], axis=1), axis=1)[:, -1:]
    return totals[:, 0]


def _train_classes(
    vectors: Sequence[DocumentVector],
    targets: np.ndarray,
    names: Sequence[str],
    cfg: TrainConfig,
    n_features: int,
) -> list[tuple[SvmClass, list[float]]]:
    """One model and its per-epoch losses per row of ``targets``."""
    w, bias, losses = _sgd(vectors, targets, names, cfg, n_features)
    out = []
    for c, row in enumerate(w):
        nz = np.flatnonzero(row)
        weights = dict(zip(nz.tolist(), row[nz].tolist()))
        out.append((SvmClass(weights, float(bias[c])), losses[c]))
    return out


def _sgd(
    vectors: Sequence[DocumentVector],
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
    idx, val = _pad_docs(vectors, n_features)
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
        totals = _hinge_totals(idx, val, targets, u, scale, bias)
        for c in range(n_cls):
            row = u[c, :n_features].copy()
            penalty = 0.5 * lam * scale * scale * float(np.dot(row, row))
            losses[c].append(float(totals[c]) / n_docs + penalty)
    return u[:, :n_features] * scale, bias, losses


def train_svm(
    vectors: Sequence[DocumentVector],
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
    trained = _train_classes(vectors, targets, classes, cfg, n_features)
    return LinearSvmModel(
        {label: cls for label, (cls, _) in zip(classes, trained)},
        cfg,
        n_features,
        {label: losses for label, (_, losses) in zip(classes, trained)},
        tfidf,
    )


def predict_svm(model: LinearSvmModel, vector: DocumentVector) -> str:
    """Argmax of w.x + b over classes; ties break to the first label id."""
    if not model.classes:
        raise ConfigurationError("svm model has no classes")
    best_label = None
    best_score = -math.inf
    for label in sorted(model.classes):
        cls = model.classes[label]
        score = cls.bias
        weights = cls.weights
        for ix, v in vector.items():
            w = weights.get(ix)
            if w is not None:
                score += w * v
        if score > best_score:
            best_label, best_score = label, score
    return best_label


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


def _weights_rows(weights: dict[int, float]) -> list[list]:
    return [[ix, weights[ix]] for ix in sorted(weights)]


def save_model(model: CentroidModel | LinearSvmModel, path: str | Path) -> None:
    if model.tfidf is None:
        raise ConfigurationError("model has no tf-idf reference to serialize")
    if isinstance(model, CentroidModel):
        doc = {
            "format": CENTROID_FORMAT,
            "tfidf": tfidf_to_dict(model.tfidf),
            "centroids": {
                label: _weights_rows(vec)
                for label, vec in model.centroids.items()
            },
        }
    elif isinstance(model, LinearSvmModel):
        doc = {
            "format": SVM_FORMAT,
            "tfidf": tfidf_to_dict(model.tfidf),
            "config": {
                "lam": model.config.lam,
                "epochs": model.config.epochs,
                "eta0": model.config.eta0,
                "seed": model.config.seed,
            },
            "n_features": model.n_features,
            "classes": {
                label: {"bias": cls.bias, "weights": _weights_rows(cls.weights)}
                for label, cls in model.classes.items()
            },
            "loss_history": model.loss_history,
        }
    else:
        raise ConfigurationError(f"cannot serialize {type(model).__name__}")
    Path(path).write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def load_model(path: str | Path) -> CentroidModel | LinearSvmModel:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path}: invalid JSON: {exc}") from None
    fmt = doc.get("format") if isinstance(doc, dict) else None
    try:
        if fmt == CENTROID_FORMAT:
            return CentroidModel(
                centroids={
                    label: {int(ix): float(w) for ix, w in rows}
                    for label, rows in doc["centroids"].items()
                },
                tfidf=tfidf_from_dict(doc["tfidf"]),
            )
        if fmt == SVM_FORMAT:
            cfg = TrainConfig(**doc["config"])
            classes = {
                label: SvmClass(
                    weights={int(ix): float(w) for ix, w in row["weights"]},
                    bias=float(row["bias"]),
                )
                for label, row in doc["classes"].items()
            }
            return LinearSvmModel(
                classes,
                cfg,
                int(doc["n_features"]),
                {k: list(map(float, v)) for k, v in doc["loss_history"].items()},
                tfidf_from_dict(doc["tfidf"]),
            )
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: {exc}") from None
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"{path}: malformed model file: {exc}") from None
    raise ConfigurationError(f"{path}: unknown model format {fmt!r}")
