"""List-building reference for ``wikicat.classifiers.load_model``.

Decodes the whole file with ``json.loads`` and checks each class's
``[index, weight]`` pairs as lists, in the order the refusals are stated:
the model's classes and scoring table, then per class in sorted order the
index and weight types, the int64 range, the feature range and the
ascending order.  It returns the loaded parts as plain values.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from wikicat.classifiers import (
    _CONFIG_TYPES,
    _MAX_TABLE_BYTES,
    CENTROID_FORMAT,
    SVM_FORMAT,
    TrainConfig,
)
from wikicat.exceptions import ConfigurationError
from wikicat.jsonio import INTEGER, NUMBER
from wikicat.textproc import tfidf_from_dict


def _read(path: Path):
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"{path}: not UTF-8: {exc}") from None
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ConfigurationError(f"{path}: invalid JSON: {exc}") from None


def _rows(classes, lists, n_features):
    if not classes:
        raise ConfigurationError("model has no classes")
    table = len(classes) * (n_features + 1) * 8
    if table > _MAX_TABLE_BYTES:
        raise ConfigurationError(
            f"{len(classes)} classes x {n_features} features need a "
            f"{table}-byte scoring table, over the {_MAX_TABLE_BYTES}-byte limit"
        )
    out = []
    for label, pairs in zip(classes, lists):
        ixs = [ix for ix, _ in pairs]
        ws = [w for _, w in pairs]
        INTEGER.check(ixs, f"class {label!r}: feature index")
        NUMBER.check(ws, f"class {label!r}: weight")
        if any(not -(2**63) <= ix < 2**63 for ix in ixs):
            raise ConfigurationError("feature index out of range")
        bad = [ix for ix in ixs if not 0 <= ix < n_features]
        if bad:
            raise ConfigurationError(f"feature index {bad[0]} out of range")
        if any(b <= a for a, b in zip(ixs, ixs[1:])):
            raise ValueError(f"class {label!r}: feature indices are not ascending")
        ws = [float(w) for w in ws]
        out.append([(ix, w) for ix, w in zip(ixs, ws) if w != 0.0])
    return out


def load_model(path: str | Path) -> dict:
    """``{"classes", "rows", "n_features", "tfidf", ...}``: per class the
    kept ``(index, weight)`` pairs, as Python ints and floats."""
    path = Path(path)
    doc = _read(path)
    fmt = doc.get("format") if isinstance(doc, dict) else None
    try:
        if fmt == CENTROID_FORMAT:
            tfidf = tfidf_from_dict(doc["tfidf"])
            classes = tuple(sorted(doc["centroids"]))
            lists = [doc["centroids"][label] for label in classes]
            n = tfidf.vocab_size
            return {
                "classes": classes, "rows": _rows(classes, lists, n),
                "n_features": n, "tfidf": tfidf,
            }
        if fmt == SVM_FORMAT:
            config = doc["config"]
            for key, value in config.items():
                if key in _CONFIG_TYPES:
                    _CONFIG_TYPES[key].check([value], key)
            cfg = TrainConfig(**config)
            tfidf = tfidf_from_dict(doc["tfidf"])
            n_features = doc["n_features"]
            INTEGER.check([n_features], "n_features")
            if n_features != tfidf.vocab_size:
                raise ConfigurationError(
                    f"n_features {n_features} differs from the tf-idf "
                    f"vocabulary size {tfidf.vocab_size}"
                )
            classes = tuple(sorted(doc["classes"]))
            rows = [doc["classes"][label] for label in classes]
            bias = [row["bias"] for row in rows]
            NUMBER.check(bias, "bias")
            history = doc["loss_history"]
            for label, losses in history.items():
                NUMBER.check(losses, f"class {label!r}: loss")
            lists = [row["weights"] for row in rows]
            return {
                "classes": classes, "rows": _rows(classes, lists, n_features),
                "n_features": n_features, "tfidf": tfidf,
                "bias": np.array(bias, dtype=float), "config": cfg,
                "loss_history": {k: list(map(float, v)) for k, v in history.items()},
            }
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: {exc}") from None
    except (
        AttributeError, KeyError, IndexError, OverflowError, TypeError, ValueError
    ) as exc:
        raise ConfigurationError(f"{path}: malformed model file: {exc}") from None
    raise ConfigurationError(f"{path}: unknown model format {fmt!r}")
