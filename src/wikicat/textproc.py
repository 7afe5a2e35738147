"""The corpus file, tokenization, tf-idf vectorization and the document
matrix of all classifiers.

A corpus file is read a run of lines at a time.  Its page ids become one
column, not an object per page, and only the texts a step keeps are held.
"""

from __future__ import annotations

import logging
import math
import re
from collections import Counter
from dataclasses import dataclass
from itertools import chain, compress, islice, repeat
from pathlib import Path
from typing import Callable, Collection, Iterator, Sequence

import numpy as np

from .exceptions import ConfigurationError
from .jsonio import INTEGER, NUMBER, STRING, Rows, int_column, read_jsonl

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


def corpus_runs(
    path: str | Path, docs: int, chars: int, ids: list[np.ndarray]
) -> Iterator[tuple[np.ndarray, list[str]]]:
    """Each run of a corpus file, JSON lines of an int ``id`` and a str
    ``text``, as a page id column (``int_column``) and the texts, in file
    order.  A run ends after ``docs`` documents, or at the first document
    that takes its texts to ``chars`` characters.  Every line is checked.

    ``ids`` starts empty.  Each run's column is appended to it before the
    run is yielded, and once the file is read ``ids`` holds one column of
    every id.  A page id that repeats is refused, naming the line where it
    first repeats: after the last line, and before the fault of a bad line,
    so that the fault named is the first in the file.
    """
    run_ids: list[int] = []
    texts: list[str] = []
    size = 0
    try:
        for where, row in read_jsonl(path):
            if (
                not isinstance(row, dict)
                or type(row.get("id")) not in INTEGER.types
                or type(row.get("text")) not in STRING.types
            ):
                raise ConfigurationError(
                    f"{where}: expected an object with int 'id' and str 'text'"
                )
            run_ids.append(row["id"])
            texts.append(row["text"])
            size += len(row["text"])
            if len(texts) == docs or size >= chars:
                ids.append(int_column(run_ids))
                yield ids[-1], texts
                run_ids, texts, size = [], [], 0
    except ConfigurationError:
        _refuse_repeat(path, np.concatenate([*ids, int_column(run_ids)]))
        raise
    if texts:
        ids.append(int_column(run_ids))
        yield ids[-1], texts
    if not ids:
        raise ConfigurationError(f"{path}: no documents")
    ids[:] = [np.concatenate(ids)]
    _refuse_repeat(path, ids[0])


def _refuse_repeat(path: str | Path, ids: np.ndarray) -> None:
    """Refuse the first of a corpus file's ``ids``, in file order, that
    repeats an earlier one, naming its line."""
    ranked = np.sort(ids)
    if not (ranked[1:] == ranked[:-1]).any():
        return
    del ranked
    order = np.argsort(ids, kind="stable")  # equal ids stay in file order
    ranked = ids[order]
    at = int(order[1:][ranked[1:] == ranked[:-1]].min())
    where, _ = next(islice(read_jsonl(path), at, None))
    raise ConfigurationError(f"{where}: duplicate page id {ids[at]}")


def _in_sorted(values: np.ndarray, ranked: np.ndarray) -> np.ndarray:
    """Whether each of ``values`` is in the sorted column ``ranked``."""
    if not len(ranked):
        return np.zeros(len(values), bool)
    at = np.searchsorted(ranked, values)
    np.minimum(at, len(ranked) - 1, out=at)
    return ranked[at] == values


@dataclass(frozen=True, eq=False)
class Corpus:
    """A corpus file's page ids, sorted, and the texts it kept, with their
    page ids, sorted."""

    ids: np.ndarray
    kept: np.ndarray
    texts: list[str]

    def has(self, pages: np.ndarray) -> np.ndarray:
        """Whether each of ``pages`` is in the corpus."""
        return _in_sorted(pages, self.ids)

    def texts_of(self, pages: np.ndarray) -> list[str]:
        """The kept text of each of ``pages``."""
        texts = self.texts
        return [texts[i] for i in np.searchsorted(self.kept, pages).tolist()]


def read_corpus(
    path: str | Path, docs: int, chars: int, keep: Sequence[np.ndarray] | None = None
) -> Corpus:
    """A corpus file read as ``corpus_runs`` reads it, keeping the texts of
    the page ids in the ``keep`` columns, or of every page."""
    ids: list[np.ndarray] = []
    ranked_keep = None if keep is None else np.sort(np.concatenate(keep))
    kept: list[np.ndarray] = []
    texts: list[str] = []
    for run_ids, run_texts in corpus_runs(path, docs, chars, ids):
        if ranked_keep is not None:
            hit = _in_sorted(run_ids, ranked_keep)
            run_ids = run_ids[hit]
            run_texts = list(compress(run_texts, hit.tolist()))
        kept.append(run_ids)
        texts += run_texts
        del run_texts  # before the next run is read
    kept_ids = np.concatenate(kept)
    order = np.argsort(kept_ids)
    kept_ids = kept_ids[order]
    texts = [texts[i] for i in order.tolist()]
    return Corpus(kept_ids if keep is None else np.sort(ids[0]), kept_ids, texts)


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
