"""Tokenization, tf-idf vectorization and the document matrix of all classifiers."""

from __future__ import annotations

import logging
import math
import re
from collections import Counter
from dataclasses import dataclass
from itertools import chain, islice, repeat
from typing import Callable, Collection

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
_RUN_CHARS = 1 << 12  # characters of a joined run of transform, separators too
_PASS_RUNS = 16  # runs per numpy pass of transform
_HEADROOM = 1.1  # a RowWriter's room past the nonzeros it expects


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


class RowWriter:
    """A ``DocMatrix`` of ``n_rows`` rows, written a batch of rows at a time
    into columns that grow in place (``ndarray.resize``), then trimmed once,
    so that no step holds the rows' parts beside a joined copy.

    When a batch does not fit, the columns grow to ``_HEADROOM`` times
    ``expect(rows, nonzeros)``, the caller's estimate of all the nonzeros
    from the rows and nonzeros written so far, but never past ``most``, an
    upper bound on them; and by at least a quarter, so that a low estimate
    costs few copies.
    """

    def __init__(
        self,
        n_rows: int,
        expect: Callable[[int, int], float],
        most: float = math.inf,
    ) -> None:
        self.indptr = np.zeros(n_rows + 1, np.int64)
        self.indices = np.empty(0, np.int32)
        self.data = np.empty(0)
        self.rows = 0
        self._expect, self._most = expect, most

    def add(self, lengths: np.ndarray, indices: np.ndarray, data: np.ndarray) -> None:
        """Append rows with ``lengths[r]`` items each, given one row after another."""
        lo, hi = self.rows, self.rows + len(lengths)
        start = int(self.indptr[lo])
        stop = start + len(indices)
        ends = self.indptr[lo + 1 : hi + 1]
        np.cumsum(lengths, out=ends)
        ends += start
        if stop > len(self.indices):
            want = max(self._expect(hi, stop) * _HEADROOM, len(self.indices) * 1.25)
            size = max(stop, int(min(want, self._most)))
            self.indices.resize(size, refcheck=False)
            self.data.resize(size, refcheck=False)
        self.indices[start:stop] = indices
        self.data[start:stop] = data
        self.rows = hi

    def matrix(self) -> DocMatrix:
        """The rows written, in columns trimmed to them."""
        size = int(self.indptr[-1])
        self.indices.resize(size, refcheck=False)
        self.data.resize(size, refcheck=False)
        return DocMatrix(self.indptr, self.indices, self.data)


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
        self.idf_weights = np.array(self.idf)  # as transform weighs with them

    @property
    def vocab_size(self) -> int:
        return len(self.terms)


def _idf(n_docs: int, df: int) -> float:
    return math.log((1 + n_docs) / (1 + df)) + 1.0


def fit_tfidf(corpus: Collection[str], min_df: int = 3) -> TfIdfModel:
    """Count document frequencies in one pass, keep terms with df >= min_df."""
    if min_df < 1:
        raise ConfigurationError(f"min_df must be >= 1, got {min_df}")
    if not corpus:
        raise ConfigurationError("cannot fit tf-idf on an empty corpus")
    n_docs = len(corpus)
    df = Counter(chain.from_iterable(map(set, map(str.split, map(_words, corpus)))))
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


def transform(model: TfIdfModel, texts: Collection[str]) -> DocMatrix:
    """One row per text: term counts times idf, L2 normalized.

    Unknown terms are ignored.  A row's norm adds the squared weights in the
    order the terms first occur in its text.  The words of a run of texts,
    about ``_RUN_CHARS`` characters joined, are split and looked up in one
    call each, so per text only the tokenizing runs in Python;
    ``_PASS_RUNS`` runs are weighed in one numpy pass, whose rows a
    ``RowWriter`` writes straight into the matrix.  The matrix takes 12
    bytes per nonzero; from the first pass its columns are sized for all
    the texts, at the lower of that pass's nonzeros per text and per
    character, so a corpus whose first texts are unlike the rest grows them
    a few times rather than reserving a multiple of the matrix.  Separators
    count as a run's characters, so however short the texts, a pass's
    temporaries take about 1.5 MB (more for a text longer than a run).
    """
    if isinstance(texts, str):
        raise ConfigurationError("transform takes a collection of texts, not a str")
    lookup, idf = model.word_ids.get, model.idf_weights
    n_texts, n_chars = len(texts), sum(map(len, texts))

    def expect(rows: int, nonzeros: int) -> float:
        chars = sum(map(len, islice(texts, rows)))  # > 0, as nonzeros > 0
        return nonzeros * min(n_texts / rows, n_chars / chars)

    out = RowWriter(n_texts, expect)
    ids, run, size = [], [], 0
    for words in map(_words, texts):
        run.append(words)
        size += len(words) + 3  # and the " | " after them
        if size >= _RUN_CHARS:
            ids.append(_look_up(lookup, run))
            run, size = [], 0
            if len(ids) == _PASS_RUNS:
                out.add(*_weigh(idf, ids))
                ids = []
    ids.append(_look_up(lookup, run))
    out.add(*_weigh(idf, ids))
    return out.matrix()


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
