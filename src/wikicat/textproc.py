"""Tokenization and tf-idf vectorization shared by all classifiers."""

from __future__ import annotations

import json
import logging
import math
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .exceptions import ConfigurationError

logger = logging.getLogger(__name__)

_TOKEN = re.compile(r"[^\W_]+")

# sparse document vector: feature index -> weight
DocumentVector = dict[int, float]


def tokenize(text: str) -> list[str]:
    """Lowercase tokens split on non-alphanumerics; tokens under 2 chars drop."""
    return [t for t in _TOKEN.findall(text.lower()) if len(t) >= 2]


@dataclass
class TfIdfModel:
    n_docs: int
    min_df: int
    terms: list[str]  # lexicographic; position is the feature index
    df: list[int]
    idf: list[float]

    def __post_init__(self) -> None:
        self.index = {t: i for i, t in enumerate(self.terms)}

    @property
    def vocab_size(self) -> int:
        return len(self.terms)


def _idf(n_docs: int, df: int) -> float:
    return math.log((1 + n_docs) / (1 + df)) + 1.0


def fit_tfidf(corpus: Iterable[str], min_df: int = 3) -> TfIdfModel:
    """Count document frequencies in one pass, keep terms with df >= min_df."""
    if min_df < 1:
        raise ConfigurationError(f"min_df must be >= 1, got {min_df}")
    df: Counter[str] = Counter()
    n_docs = 0
    for text in corpus:
        n_docs += 1
        df.update(set(tokenize(text)))
    if n_docs == 0:
        raise ConfigurationError("cannot fit tf-idf on an empty corpus")
    terms = sorted(t for t, c in df.items() if c >= min_df)
    if not terms:
        logger.warning(
            "no term reached min_df=%d over %d documents; vocabulary is empty",
            min_df,
            n_docs,
        )
    kept_df = [df[t] for t in terms]
    idf = [_idf(n_docs, c) for c in kept_df]
    return TfIdfModel(n_docs, min_df, terms, kept_df, idf)


def transform(model: TfIdfModel, text: str) -> DocumentVector:
    """Term counts times idf, L2 normalized; unknown terms are ignored."""
    counts: Counter[int] = Counter()
    index = model.index
    for tok in tokenize(text):
        ix = index.get(tok)
        if ix is not None:
            counts[ix] += 1
    if not counts:
        return {}
    vec = {ix: c * model.idf[ix] for ix, c in counts.items()}
    norm = math.sqrt(sum(w * w for w in vec.values()))
    return {ix: w / norm for ix, w in sorted(vec.items())}


def save_tfidf(model: TfIdfModel, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(tfidf_to_dict(model), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def load_tfidf(path: str | Path) -> TfIdfModel:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path}: invalid JSON: {exc}") from None
    try:
        return tfidf_from_dict(doc)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: {exc}") from None


def tfidf_from_dict(doc: dict) -> TfIdfModel:
    """Rebuild a model from its dict form, as in tf-idf and classifier files."""
    try:
        terms = [str(row[0]) for row in doc["terms"]]
        df = [int(row[1]) for row in doc["terms"]]
        idf = [float(row[2]) for row in doc["terms"]]
        model = TfIdfModel(int(doc["n_docs"]), int(doc["min_df"]), terms, df, idf)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"malformed tf-idf model: {exc}") from None
    if terms != sorted(terms):
        raise ConfigurationError("model terms are not sorted")
    return model


def tfidf_to_dict(model: TfIdfModel) -> dict:
    return {
        "n_docs": model.n_docs,
        "min_df": model.min_df,
        "terms": [[t, d, i] for t, d, i in zip(model.terms, model.df, model.idf)],
    }
