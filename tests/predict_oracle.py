"""Loop reference for ``predict_centroid`` and ``predict_svm``.

Each model as per-class dicts, each score a plain ``s += w * v`` loop over
the document's items in order.  Not ``sum()``: from Python 3.12 it adds
floats with compensated summation, so it would not be an in-order sum.
"""

from __future__ import annotations

import math

import numpy as np

DocumentVector = dict[int, float]


def centroid_dicts(classes, weights) -> dict[str, dict[int, float]]:
    """Every column of every row, as the trainer's dicts held them."""
    return {label: dict(enumerate(row.tolist())) for label, row in zip(classes, weights)}


def svm_dicts(classes, weights, bias) -> dict[str, tuple[dict[int, float], float]]:
    """Nonzero weights and the bias per class, as the trainer's dicts held them."""
    return {
        label: ({int(ix): float(row[ix]) for ix in np.flatnonzero(row)}, float(b))
        for label, row, b in zip(classes, weights, bias)
    }


def _first_best(scores: dict[str, float]) -> str | None:
    best_label = None
    best_score = -math.inf
    for label in sorted(scores):
        if scores[label] > best_score:
            best_label, best_score = label, scores[label]
    return best_label


def predict_centroid(
    centroids: dict[str, dict[int, float]], vector: DocumentVector
) -> str | None:
    scores = {}
    for label, centroid in centroids.items():
        score = 0.0
        for ix, w in vector.items():
            score += w * centroid.get(ix, 0.0)
        scores[label] = score
    return _first_best(scores)


def predict_svm(
    classes: dict[str, tuple[dict[int, float], float]], vector: DocumentVector
) -> str | None:
    scores = {}
    for label, (weights, bias) in classes.items():
        score = bias
        for ix, v in vector.items():
            w = weights.get(ix)
            if w is not None:
                score += w * v
        scores[label] = score
    return _first_best(scores)
