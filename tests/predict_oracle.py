"""Loop reference for ``predict_centroid`` and ``predict_svm``.

Each model as per-class dicts, each score a plain ``s += w * v`` loop over
the document's items in order.  Not ``sum()``: from Python 3.12 it adds
floats with compensated summation, so it would not be an in-order sum.
"""

from __future__ import annotations

import math

from docmatrix import dicts

DocumentVector = dict[int, float]


def centroid_dicts(classes, weights) -> dict[str, dict[int, float]]:
    """The weight rows of a model (a ``DocMatrix``) as per-class dicts."""
    return dict(zip(classes, dicts(weights)))


def svm_dicts(classes, weights, bias) -> dict[str, tuple[dict[int, float], float]]:
    """The weight rows (a ``DocMatrix``) and the bias per class."""
    return {
        label: (row, float(b)) for label, row, b in zip(classes, dicts(weights), bias)
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
