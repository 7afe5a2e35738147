"""Loop references for ``wikicat.textproc``.

``tokenize_runs`` finds every run of letters and digits, then drops the
runs under two characters.  ``fit_tfidf`` counts each token once per text
in a dict and keeps the tokens with ``df >= min_df``, sorted as strings.
``transform`` uses one dict per text: it looks the tokens up in its own
term-to-index dict, built from ``model.terms``, counts the known terms of a
text in the order they first occur, then adds the squared weights in that
order with a plain ``s += w * w`` loop (not ``sum()``, which adds floats
with compensated summation from Python 3.12 on) and returns the normalized
weights sorted by feature id.
"""

from __future__ import annotations

import math
import re

from wikicat.textproc import TfIdfModel

_RUN = re.compile(r"[^\W_]+")


def tokenize_runs(text: str) -> list[str]:
    return [t for t in _RUN.findall(text.lower()) if len(t) >= 2]


def fit_tfidf(corpus: list[str], min_df: int) -> TfIdfModel:
    df: dict[str, int] = {}
    for text in corpus:
        for tok in set(tokenize_runs(text)):
            df[tok] = df.get(tok, 0) + 1
    terms = sorted(t for t, c in df.items() if c >= min_df)
    kept = [df[t] for t in terms]
    n_docs = len(corpus)
    idf = [math.log((1 + n_docs) / (1 + c)) + 1.0 for c in kept]
    return TfIdfModel(n_docs, min_df, terms, kept, idf)


def transform(model: TfIdfModel, text: str) -> dict[int, float]:
    index = {t: i for i, t in enumerate(model.terms)}
    counts: dict[int, int] = {}
    for tok in tokenize_runs(text):
        ix = index.get(tok)
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
