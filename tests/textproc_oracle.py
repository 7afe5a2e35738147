"""Loop reference for ``wikicat.textproc.transform``: one dict per text.

Counts the known terms of a text in a dict, in the order they first occur,
then adds the squared weights in that order with a plain ``s += w * w``
loop (not ``sum()``, which adds floats with compensated summation from
Python 3.12 on) and returns the normalized weights sorted by feature id.
"""

from __future__ import annotations

import math

from wikicat.textproc import TfIdfModel, tokenize


def transform(model: TfIdfModel, text: str) -> dict[int, float]:
    counts: dict[int, int] = {}
    for tok in tokenize(text):
        ix = model.index.get(tok)
        if ix is not None:
            counts[ix] = counts.get(ix, 0) + 1
    if not counts:
        return {}
    vec = {ix: c * model.idf[ix] for ix, c in counts.items()}
    total = 0.0
    for w in vec.values():
        total += w * w
    norm = math.sqrt(total)
    return {ix: w / norm for ix, w in sorted(vec.items())}
