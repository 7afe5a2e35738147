"""Tokenization, tf-idf vectorization and the document matrix of all classifiers."""

from __future__ import annotations

import logging
import math
import re
from collections import Counter
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Callable, Iterable

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
# transform joins the words of a run of texts with " | ", then splits them and
# looks them up in one call each.  No text yields "|" as a word, so the model
# maps it to _SEP_ID: each text's ids end with it, and a word's row is the
# number of separators before it.
_SEP, _SEP_ID = "|", -2
_RUN_CHARS = 1 << 12  # characters of words per split and lookup of transform
_PASS_RUNS = 16  # runs per numpy pass of transform


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


def _words(text: str) -> str:
    """A text's tokens, between spaces.  An ASCII text is split by a byte
    table, which gives the regex's tokens in about half its time, and also
    keeps its one-character words, which are no tokens."""
    if text.isascii():
        return text.encode().translate(_ASCII_WORDS).decode()
    return " ".join(_TOKEN.findall(text.lower()))


@dataclass
class TfIdfModel:
    n_docs: int
    min_df: int
    terms: list[str]  # lexicographic; position is the feature index
    df: list[int]
    idf: list[float]

    def __post_init__(self) -> None:
        # A token's feature index, and transform's run separator's _SEP_ID.  A
        # term under two characters is no token, so it is left out.  The keys
        # are the terms themselves, so the model holds no second copy of them.
        self.word_ids = {
            term: ix for ix, term in enumerate(self.terms) if len(term) > 1
        }
        self.word_ids[_SEP] = _SEP_ID

    @property
    def vocab_size(self) -> int:
        return len(self.terms)


def _idf(n_docs: int, df: int) -> float:
    return math.log((1 + n_docs) / (1 + df)) + 1.0


def fit_tfidf(corpus: Iterable[str], min_df: int = 3) -> TfIdfModel:
    """Count document frequencies in one pass, keep terms with df >= min_df."""
    if min_df < 1:
        raise ConfigurationError(f"min_df must be >= 1, got {min_df}")
    texts = list(corpus)
    if not texts:
        raise ConfigurationError("cannot fit tf-idf on an empty corpus")
    n_docs = len(texts)
    df = Counter(chain.from_iterable(map(set, map(str.split, map(_words, texts)))))
    # one-character words, which only ASCII texts give, are no tokens
    terms = sorted(w for w, c in df.items() if c >= min_df and len(w) > 1)
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
    order the terms first occur in its text.  The words of a run of texts,
    about ``_RUN_CHARS`` characters, are split and looked up in one call
    each, so per text only the tokenizing runs in Python; ``_PASS_RUNS``
    runs are weighed in one numpy pass.  Their temporaries stay small beside
    the matrix, which takes 12 bytes per nonzero.
    """
    if isinstance(texts, str):
        raise ConfigurationError("transform takes an iterable of texts, not a str")
    lookup, idf = model.word_ids.get, np.array(model.idf)
    passes, ids, run, size = [], [], [], 0
    for words in map(_words, texts):
        run.append(words)
        size += len(words)
        if size >= _RUN_CHARS:
            ids.append(_look_up(lookup, run))
            run, size = [], 0
            if len(ids) == _PASS_RUNS:
                passes.append(_weigh(idf, ids))
                ids = []
    ids.append(_look_up(lookup, run))
    passes.append(_weigh(idf, ids))
    lengths, indices, data = (np.concatenate(parts) for parts in zip(*passes))
    return DocMatrix(np.concatenate([[0], np.cumsum(lengths)]), indices, data)


def _look_up(lookup: Callable, run: list[str]) -> np.ndarray:
    """The ids of a run of texts' words, each text's ending with _SEP_ID; an
    unknown word's id is -1."""
    words = f" {_SEP} ".join([*run, ""]).split()
    return np.fromiter(map(lookup, words, repeat(-1)), np.int64, len(words))


def _weigh(idf: np.ndarray, runs: list[np.ndarray]):
    """Row lengths, int32 feature ids and normalized weights of runs of texts,
    each run given by its word ids."""
    ids = np.concatenate(runs)
    ends = ids == _SEP_ID
    n_docs, width = np.count_nonzero(ends), max(len(idf), 1)
    known = ids >= 0  # neither unknown (-1) nor a separator
    keys = np.cumsum(ends)[known] * width  # row * width + id
    keys += ids[known]
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
    repeated = next((a for a, b in zip(terms, terms[1:]) if a == b), None)
    if repeated is not None:  # sorted, so a repeat is adjacent
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
