"""Loop reference for ``wikicat.classifiers.train_centroid``.

Per class a dict of feature sums, filled document by document in item
order; the mean of each feature, then the norm added up with a plain
``s += w * w`` loop in the order the class first saw its features.
"""

from __future__ import annotations

import math
from typing import Sequence

from wikicat.exceptions import ConfigurationError


def train_centroid(
    vectors: Sequence[dict[int, float]], labels: Sequence[str]
) -> dict[str, dict[int, float]]:
    """Per class, its normalized nonzero-or-seen weights in first-seen order."""
    sums: dict[str, dict[int, float]] = {}
    counts: dict[str, int] = {}
    for vec, label in zip(vectors, labels):
        acc = sums.setdefault(label, {})
        for ix, w in vec.items():
            acc[ix] = acc.get(ix, 0.0) + w
        counts[label] = counts.get(label, 0) + 1
    out = {}
    for label in sorted(sums):
        mean = {ix: v / counts[label] for ix, v in sums[label].items()}
        total = 0.0
        for w in mean.values():
            total += w * w
        norm = math.sqrt(total)
        if norm == 0.0:
            raise ConfigurationError(f"class {label!r} has an all-zero centroid")
        out[label] = {ix: w / norm for ix, w in mean.items()}
    return out
