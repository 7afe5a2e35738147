"""Test-only conversions between per-row dicts, dense arrays and a ``DocMatrix``."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from wikicat.textproc import DocMatrix


def docs(vectors: Sequence[dict[int, float]]) -> DocMatrix:
    """One row per dict, holding its items in the dict's own order."""
    lengths = [len(vec) for vec in vectors]
    return DocMatrix(
        np.concatenate([[0], np.cumsum(lengths, dtype=np.int64)]).astype(np.int64),
        np.array([ix for vec in vectors for ix in vec], dtype=np.int64),
        np.array([w for vec in vectors for w in vec.values()], dtype=np.float64),
    )


def dicts(matrix: DocMatrix) -> list[dict[int, float]]:
    """The rows of a matrix as {feature id: weight} dicts, in row order."""
    ptr = matrix.indptr.tolist()
    return [
        dict(zip(matrix.indices[a:b].tolist(), matrix.data[a:b].tolist()))
        for a, b in zip(ptr, ptr[1:])
    ]


def sparse(dense: np.ndarray) -> DocMatrix:
    """The nonzero entries of a 2-D array as rows, in ascending column order."""
    return docs([{int(ix): row[ix] for ix in np.flatnonzero(row)} for row in dense])


def dense(matrix: DocMatrix, width: int) -> np.ndarray:
    """The rows of a matrix as a (rows x width) array, 0.0 where a row has no item."""
    out = np.zeros((len(matrix), width))
    rows = np.repeat(np.arange(len(matrix)), np.diff(matrix.indptr))
    out[rows, matrix.indices] = matrix.data
    return out


def by_class(
    vectors: DocMatrix, labels: Sequence[str]
) -> tuple[list[str], list[DocMatrix]]:
    """``train_centroid``'s classes and class rows for a whole matrix: the
    sorted labels, and per label the rows it labels, in row order."""
    if len(vectors) != len(labels):
        raise ValueError("vectors and labels differ in length")
    classes = sorted(set(labels))
    ptr = vectors.indptr.tolist()
    matrices = []
    for label in classes:
        rows = [r for r, lab in enumerate(labels) if lab == label]
        lengths = [ptr[r + 1] - ptr[r] for r in rows]
        parts = [slice(ptr[r], ptr[r + 1]) for r in rows]
        matrices.append(DocMatrix(
            np.concatenate([[0], np.cumsum(lengths, dtype=np.int64)]).astype(np.int64),
            np.concatenate([vectors.indices[p] for p in parts]),
            np.concatenate([vectors.data[p] for p in parts]),
        ))
    return classes, matrices
