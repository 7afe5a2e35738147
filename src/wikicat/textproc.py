"""Tokenization, tf-idf vectorization and the document matrix of all classifiers."""

from __future__ import annotations

import logging
import math
import re
from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .exceptions import ConfigurationError
from .jsonio import INTEGER, NUMBER, STRING, Rows

logger = logging.getLogger(__name__)

_TOKEN = re.compile(r"[^\W_]{2,}")
# Among ASCII characters ``[^\W_]`` matches exactly 0-9, A-Z and a-z, so the
# tokens of an ASCII text are the runs of two or more characters that this
# table leaves between spaces: it keeps 0-9 and a-z, lowercases A-Z and turns
# every other byte into a space.
_ALNUM = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
_ASCII_WORDS = bytes(
    ord(chr(c).lower()) if chr(c) in _ALNUM else 32 for c in range(256)
)
_RUN_TOKENS = 1 << 14  # known tokens per numpy pass of transform


@dataclass(frozen=True, eq=False)  # arrays have no single truth value
class DocMatrix:
    """CSR rows: row r holds ``data[indptr[r]:indptr[r + 1]]`` (float64) at the
    feature ids ``indices[indptr[r]:indptr[r + 1]]``: a document's (ascending
    from ``transform``, added in that order) or a class's weights in a model."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    def __len__(self) -> int:
        return len(self.indptr) - 1


def tokenize(text: str) -> list[str]:
    """Lowercase tokens split on non-alphanumerics; tokens under 2 chars drop.

    An ASCII text is split by a byte table, which gives the regex's tokens
    in about half its time."""
    if text.isascii():
        words = text.encode().translate(_ASCII_WORDS).decode().split()
        return [word for word in words if len(word) > 1]
    return _TOKEN.findall(text.lower())


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


def transform(model: TfIdfModel, texts: Iterable[str]) -> DocMatrix:
    """One row per text: term counts times idf, L2 normalized.

    Unknown terms are ignored.  A row's norm adds the squared weights in the
    order the terms first occur in its text.  The texts are weighed in runs
    of about ``_RUN_TOKENS`` known tokens, so their temporary arrays stay
    small beside the matrix, which takes 12 bytes per nonzero.
    """
    if isinstance(texts, str):
        raise ConfigurationError("transform takes an iterable of texts, not a str")
    lookup, idf = model.index.get, np.array(model.idf)
    runs = []
    ids, ends = array("q"), array("q", [0])  # known terms in token order, row ends
    for text in texts:
        ids.extend([ix for ix in map(lookup, tokenize(text)) if ix is not None])
        ends.append(len(ids))
        if len(ids) >= _RUN_TOKENS:
            runs.append(_weigh(idf, ids, ends))
            ids, ends = array("q"), array("q", [0])
    runs.append(_weigh(idf, ids, ends))
    lengths, indices, data = (np.concatenate(parts) for parts in zip(*runs))
    return DocMatrix(np.concatenate([[0], np.cumsum(lengths)]), indices, data)


def _weigh(idf: np.ndarray, ids: array, ends: array):
    """Row lengths, int32 feature ids and normalized weights of a run of texts."""
    n_docs, width = len(ends) - 1, max(len(idf), 1)
    keys = np.repeat(np.arange(n_docs) * width, np.diff(ends))  # row * width + id
    keys += np.frombuffer(ids, np.int64)
    keys, first, counts = np.unique(keys, return_index=True, return_counts=True)
    rows, cols = np.divmod(keys, width)
    data = counts * idf[cols]
    # np.add.at adds one term at a time, so each row's squares add up in
    # first-seen order, as a loop over a dict of counts adds them
    seen = np.argsort(first)
    norms = np.zeros(n_docs)
    np.add.at(norms, rows[seen], np.square(data[seen]))
    data /= np.sqrt(norms)[rows]
    return np.bincount(rows, minlength=n_docs), cols.astype(np.int32), data


def tfidf_from_dict(doc: dict) -> TfIdfModel:
    """Rebuild a model from its dict form, as in tf-idf and classifier files."""
    try:
        rows = doc["terms"]
        if set(map(len, rows)) - {3}:
            raise ValueError("a term row is not [term, df, idf]")
        terms = [row[0] for row in rows]
        df = [row[1] for row in rows]
        idf = [row[2] for row in rows]
        counts = [doc["n_docs"], doc["min_df"]]
        STRING.check(terms, "term")
        INTEGER.check(df, "df")
        NUMBER.check(idf, "idf")
        INTEGER.check(counts, "n_docs or min_df")
        model = TfIdfModel(*counts, terms, df, list(map(float, idf)))
    except (KeyError, IndexError, OverflowError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"malformed tf-idf model: {exc}") from None
    if terms != sorted(terms):
        raise ConfigurationError("model terms are not sorted")
    if len(model.index) < len(terms):  # sorted, so a repeat is adjacent
        repeated = next(a for a, b in zip(terms, terms[1:]) if a == b)
        raise ConfigurationError(f"model term {repeated!r} is repeated")
    return model


def tfidf_to_dict(model: TfIdfModel) -> dict:
    """The dict form of a model, for ``jsonio.write_json``: its ``terms`` are
    the rows ``[term, df, idf]``."""
    return {
        "n_docs": model.n_docs,
        "min_df": model.min_df,
        "terms": Rows(model.terms, model.df, model.idf),
    }
