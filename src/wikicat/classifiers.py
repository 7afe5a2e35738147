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

T = TypeVar("T")


@dataclass(frozen=True)
class TrainConfig:
    lam: float = 1e-4
    epochs: int = 5
    eta0: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.lam <= 0:
            raise ConfigurationError("lam must be > 0")
        if self.epochs < 1:
            raise ConfigurationError("epochs must be >= 1")
        if self.eta0 <= 0:
            raise ConfigurationError("eta0 must be > 0")


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


def _objective(
    vectors: Sequence[DocumentVector],
    targets: Sequence[float],
    u: np.ndarray,
    scale: float,
    bias: float,
    lam: float,
) -> float:
    total = 0.0
    for vec, y in zip(vectors, targets):
        dot = 0.0
        for ix, v in vec.items():
            dot += u[ix] * v
        total += max(0.0, 1.0 - y * (scale * dot + bias))
    penalty = 0.5 * lam * scale * scale * float(np.dot(u, u))
    return total / len(vectors) + penalty


def _train_one_class(
    vectors: Sequence[DocumentVector],
    targets: Sequence[float],
    label: str,
    cfg: TrainConfig,
    n_features: int,
) -> tuple[SvmClass, list[float]]:
    # w is kept as scale * u so the L2 shrink each step is O(1) and only
    # the nonzero features of a document cost work.
    u = np.zeros(n_features, dtype=np.float64)
    scale = 1.0
    bias = 0.0
    t = 0
    rng = _class_rng(cfg.seed, label)
    order = list(range(len(vectors)))
    losses: list[float] = []
    for _ in range(cfg.epochs):
        rng.shuffle(order)
        for i in order:
            vec = vectors[i]
            y = targets[i]
            eta = cfg.eta0 / (1.0 + cfg.eta0 * cfg.lam * t)
            t += 1
            dot = 0.0
            for ix, v in vec.items():
                dot += u[ix] * v
            margin = y * (scale * dot + bias)
            scale *= max(1.0 - eta * cfg.lam, 1e-12)
            if scale < _SCALE_FLOOR:
                u *= scale
                scale = 1.0
            if margin < 1.0:
                coef = eta * y / scale
                for ix, v in vec.items():
                    u[ix] += coef * v
                bias += eta * y
        losses.append(_objective(vectors, targets, u, scale, bias, cfg.lam))
    w = u * scale
    weights = {int(ix): float(w[ix]) for ix in np.nonzero(w)[0]}
    return SvmClass(weights, float(bias)), losses


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
    for vec in vectors:
        for ix in vec:
            if not 0 <= ix < n_features:
                raise ConfigurationError(f"feature index {ix} out of range")
    vectors = list(vectors)
    out: dict[str, SvmClass] = {}
    history: dict[str, list[float]] = {}
    for cls in classes:
        targets = [1.0 if lab == cls else -1.0 for lab in labels]
        out[cls], history[cls] = _train_one_class(
            vectors, targets, cls, cfg, n_features
        )
    return LinearSvmModel(out, cfg, n_features, history, tfidf)


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
