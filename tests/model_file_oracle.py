"""List-building reference for ``wikicat.classifiers.save_model``.

Builds the whole document as plain dicts and lists, with one ``[ix, w]``
list per nonzero weight and one ``[term, df, idf]`` list per tf-idf term,
and writes it with ``json.JSONEncoder(indent=2, sort_keys=True)``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from wikicat.classifiers import (
    CENTROID_FORMAT,
    SVM_FORMAT,
    CentroidModel,
    LinearSvmModel,
)
from wikicat.textproc import TfIdfModel


def _weights_rows(row: np.ndarray) -> list[list]:
    nz = np.flatnonzero(row)
    return [[ix, w] for ix, w in zip(nz.tolist(), row[nz].tolist())]


def _tfidf(model: TfIdfModel) -> dict:
    return {
        "n_docs": model.n_docs,
        "min_df": model.min_df,
        "terms": [[t, d, i] for t, d, i in zip(model.terms, model.df, model.idf)],
    }


def save_model(model: CentroidModel | LinearSvmModel, path: str | Path) -> None:
    if isinstance(model, CentroidModel):
        doc = {
            "format": CENTROID_FORMAT,
            "tfidf": _tfidf(model.tfidf),
            "centroids": {
                label: _weights_rows(row)
                for label, row in zip(model.classes, model.weights)
            },
        }
    else:
        doc = {
            "format": SVM_FORMAT,
            "tfidf": _tfidf(model.tfidf),
            "config": {
                "lam": model.config.lam,
                "epochs": model.config.epochs,
                "eta0": model.config.eta0,
                "seed": model.config.seed,
            },
            "n_features": model.n_features,
            "classes": {
                label: {"bias": float(b), "weights": _weights_rows(row)}
                for label, row, b in zip(model.classes, model.weights, model.bias)
            },
            "loss_history": model.loss_history,
        }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.JSONEncoder(indent=2, sort_keys=True).encode(doc) + "\n")
