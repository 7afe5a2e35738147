"""Loop reference for ``wikicat.classifiers.train_svm``.

One class, one document and one feature at a time: Bottou's scale * u
hinge-loss SGD as a plain Python loop, and the per-epoch objective as a
second pass over the documents.  Slow, but each step reads like the update
rule, so the class-vectorized trainer is tested against it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from wikicat.classifiers import _SCALE_FLOOR, TrainConfig, _class_rng
from wikicat.exceptions import ConfigurationError

DocumentVector = dict[int, float]


def objective(
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


def train_one_class(
    vectors: Sequence[DocumentVector],
    targets: Sequence[float],
    label: str,
    cfg: TrainConfig,
    n_features: int,
) -> tuple[dict[int, float], float, list[float]]:
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
        losses.append(objective(vectors, targets, u, scale, bias, cfg.lam))
    w = u * scale
    weights = {int(ix): float(w[ix]) for ix in np.nonzero(w)[0]}
    return weights, float(bias), losses


def train_svm(
    vectors: Sequence[DocumentVector],
    labels: Sequence[str],
    cfg: TrainConfig,
    n_features: int,
) -> tuple[dict[str, tuple[dict[int, float], float]], dict[str, list[float]]]:
    """Per class its nonzero weights and bias, and its per-epoch losses."""
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
    out: dict[str, tuple[dict[int, float], float]] = {}
    history: dict[str, list[float]] = {}
    for cls in classes:
        targets = [1.0 if lab == cls else -1.0 for lab in labels]
        weights, bias, history[cls] = train_one_class(
            vectors, targets, cls, cfg, n_features
        )
        out[cls] = weights, bias
    return out, history
