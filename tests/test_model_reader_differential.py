"""``load_model``, which decodes a model file one class at a time, against
``model_loader_oracle``, which decodes it whole with ``json.loads``.

Every well-formed variant of a file (reindented, compact, with repeated
keys, non-finite and signed-zero weights, integer weights, exponents,
escaped and non-ASCII labels, empty classes) must load to bit-identical
arrays, and every broken one must raise the oracle's exact text.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

import model_loader_oracle
import wikicat.jsonio as jsonio
from wikicat.classifiers import (
    CENTROID_FORMAT,
    SVM_FORMAT,
    LinearSvmModel,
    load_model,
)
from wikicat.exceptions import ConfigurationError

_TFIDF = {
    "min_df": 1,
    "n_docs": 5,
    "terms": [["aa", 2, 1.4054651081081644], ["bb", 1, 1.8109302162163288],
              ["cc", 3, 1.1823215567939547], ["dd", 1, 1.8109302162163288]],
}
_ROWS = {
    "plain": [[0, 0.5], [2, -0.25]],
    "café": [[1, 1e-300], [3, 2.5e300]],
    'say "hi"\\': [[0, 1], [1, -3], [3, 0]],
    "\U0001f600\t/": [],
    "special": [[0, math.nan], [1, math.inf], [2, -math.inf], [3, -0.0]],
    "exp": [[0, 0.375], [1, 1.5e-05], [3, 123456789.0]],
}


def _centroid_doc() -> dict:
    return {"centroids": json.loads(json.dumps(_ROWS)), "format": CENTROID_FORMAT,
            "tfidf": _TFIDF}


def _svm_doc() -> dict:
    rows = json.loads(json.dumps(_ROWS))
    return {
        "classes": {
            label: {"bias": [0.5, -0.0, 2, math.inf, -1e-7, 0.0][i], "weights": row}
            for i, (label, row) in enumerate(rows.items())
        },
        "config": {"epochs": 5, "eta0": 0.1, "lam": 0.0001, "seed": 0},
        "format": SVM_FORMAT,
        "loss_history": {"plain": [1.0, 0.5], "exp": [2]},
        "n_features": 4,
        "tfidf": _TFIDF,
    }


def _compact(doc: dict) -> str:
    return json.dumps(doc, separators=(",", ":"), sort_keys=True)


# Each layout writes the same document.
_LAYOUTS = {
    "indent-2": lambda doc: json.dumps(doc, indent=2, sort_keys=True) + "\n",
    "compact": _compact,
    "indent-4-unsorted": lambda doc: json.dumps(doc, indent=4),
    "tabs-crlf": lambda doc: json.dumps(doc, indent="\t").replace("\n", "\r\n"),
    "raw-non-ascii": lambda doc: json.dumps(doc, ensure_ascii=False),
    "spaced": lambda doc: " \n\t" + json.dumps(
        doc, indent=1, separators=(" , ", " :  ")
    ) + "\r\n \n",
}


def _exponents(text: str) -> str:
    for old, new in [("0.375", "3.75E-1"), ("1.5e-05", "15e-6"),
                     ("123456789.0", "1.23456789e+8"), ("0.5", "5E-1")]:
        assert old in text
        text = text.replace(old, new)
    return text


def _repeated_class(text: str) -> str:
    # an earlier "plain" in the same object: the last one is kept
    head = '"centroids":{'
    return text.replace(head, head + '"plain":[[3,9.5]],"gone":[[0,1.0]],', 1)


def _repeated_top_keys(text: str) -> str:
    # an earlier "centroids" and "format": the last of each is kept
    return '{"format":"nope","centroids":{"zzz":[[0,1.0]]},' + text[1:]


def _repeated_weights(text: str) -> str:
    head = '"plain":{'
    return text.replace(head, head + '"weights":[[1,4.0]],', 1)


_CENTROID_TEXTS = {
    **{name: layout(_centroid_doc()) for name, layout in _LAYOUTS.items()},
    "exponents": _exponents(_compact(_centroid_doc())),
    "repeated-class": _repeated_class(_compact(_centroid_doc())),
    "repeated-top-keys": _repeated_top_keys(_compact(_centroid_doc())),
    "escaped-labels": _compact(_centroid_doc()).replace("plain", "pl\\u0061in"),
}
_SVM_TEXTS = {
    **{name: layout(_svm_doc()) for name, layout in _LAYOUTS.items()},
    "exponents": _exponents(_compact(_svm_doc())),
    "repeated-weights": _repeated_weights(_compact(_svm_doc())),
    "repeated-top-keys": '{"classes":{},' + _compact(_svm_doc())[1:],
}


def _bits(values) -> list[int]:
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


def _assert_same(path: Path) -> None:
    got, want = load_model(path), model_loader_oracle.load_model(path)
    assert got.classes == want["classes"]
    assert got.n_features == want["n_features"]
    ptr = got.weights.indptr.tolist()
    assert len(ptr) == len(want["rows"]) + 1
    for lo, hi, row in zip(ptr, ptr[1:], want["rows"]):
        assert got.weights.indices[lo:hi].tolist() == [ix for ix, _ in row]
        assert _bits(got.weights.data[lo:hi]) == _bits([w for _, w in row])
    assert got.weights.indices.dtype == np.int32
    for key in ("n_docs", "min_df", "terms", "df"):
        assert getattr(got.tfidf, key) == getattr(want["tfidf"], key)
    assert _bits(got.tfidf.idf) == _bits(want["tfidf"].idf)
    if isinstance(got, LinearSvmModel):
        assert _bits(got.bias) == _bits(want["bias"])
        assert got.config == want["config"]
        assert got.loss_history == want["loss_history"]


@pytest.fixture
def no_fallback(monkeypatch):
    """A well-formed file must be read one member at a time, never handed
    to ``read_json``."""

    def fail(path):
        raise AssertionError(f"{path} fell back to read_json")

    monkeypatch.setattr(jsonio, "read_json", fail)


@pytest.mark.parametrize("name", sorted(_CENTROID_TEXTS))
def test_centroid_file_loads_as_json_loads_reads_it(tmp_path, no_fallback, name):
    path = tmp_path / "model.json"
    path.write_text(_CENTROID_TEXTS[name], encoding="utf-8")
    _assert_same(path)


@pytest.mark.parametrize("name", sorted(_SVM_TEXTS))
def test_svm_file_loads_as_json_loads_reads_it(tmp_path, no_fallback, name):
    path = tmp_path / "model.json"
    path.write_text(_SVM_TEXTS[name], encoding="utf-8")
    _assert_same(path)


def test_the_variants_keep_their_special_values(tmp_path):
    """The well-formed variants do reach the values they are meant to."""
    path = tmp_path / "model.json"
    path.write_text(_CENTROID_TEXTS["repeated-class"], encoding="utf-8")
    model = load_model(path)
    assert "gone" in model.classes and "zzz" not in model.classes
    by_class = dict(zip(model.classes, np.split(model.weights.data,
                                                model.weights.indptr[1:-1])))
    assert by_class["plain"].tolist() == [0.5, -0.25]  # the last "plain"
    special = by_class["special"]  # -0.0 is dropped, as 0.0 is
    assert math.isnan(special[0]) and special[1:].tolist() == [math.inf, -math.inf]
    assert by_class['say "hi"\\'].tolist() == [1.0, -3.0]
    assert by_class["\U0001f600\t/"].tolist() == []


# ----------------------------------------------------------- broken files


def _set_class(doc: dict, label: str, value) -> dict:
    if "centroids" in doc:
        doc["centroids"][label] = value
    else:
        doc["classes"][label]["weights"] = value
    return doc


_BAD_ROWS = {
    "float-index": [[0.9, 1.0]],
    "str-index": [["1", "0.5"]],
    "bool-index": [[True, 1.0], [1, 2.0]],
    "duplicate": [[1, 1.0], [1, 2.0]],
    "descending": [[1, 1.0], [0, 2.0]],
    "str-weight": [[0, "0.5"]],
    "bool-weight": [[0, True]],
    "null-weight": [[0, None]],
    "huge-weight": [[0, 10**400]],
    "huge-weight-after-descending": [[1, 10**400], [0, 1.0]],
    "triple": [[0, 1.0, 2.0]],
    "single": [[0]],
    "empty-pair": [[]],
    "int64-overflow-index": [[2**63, 1.0]],
    "int64-underflow-index": [[-(2**63) - 1, 1.0]],
    "negative-index": [[-1, 1.0]],
    "index-past-vocabulary": [[4, 1.0]],
    "object-pair": [{"a": 1, "b": 2}],
    "string-pair": ["ab"],
    "int-class": 5,
    "null-class": None,
    "object-class": {"0": 1.0},
    "string-class": "0.5",
}


def _two_bad_classes(doc: dict) -> dict:
    # the first class in sorted order is refused first: 'café' before 'plain'
    _set_class(doc, "plain", [[0, "x"]])
    return _set_class(doc, "café", [[9, 1.0]])


def _doc_faults(make) -> dict:
    faults = {
        f"rows-{name}": (lambda rows: lambda: _compact(
            _set_class(make(), "plain", rows)
        ))(rows)
        for name, rows in _BAD_ROWS.items()
    }
    faults["two-bad-classes"] = lambda: _compact(_two_bad_classes(make()))
    return faults


def _text_faults(make) -> dict:
    def edit(old, new):
        def broken():
            text = _compact(make())
            assert old in text
            return text.replace(old, new, 1)
        return broken

    return {
        "cut": lambda: _compact(make())[:-7],
        "extra-data": lambda: _compact(make()) + "x",
        "bom": lambda: "\ufeff" + _compact(make()),
        "top-level-list": lambda: "[" + _compact(make()) + "]",
        "top-level-string": lambda: json.dumps(_compact(make())),
        "empty": lambda: "",
        "blank": lambda: " \n",
        "leading-comma": edit('"format"', ',"format"'),
        "trailing-comma": edit('"format":', '"x":1,}'),
        "missing-colon": edit('"format":', '"format" '),
        "single-quoted-key": edit('"format"', "'format'"),
        "bare-key": edit('"format":', "format:"),
        "control-char-in-key": edit('"plain"', '"pl\x01ain"'),
        "bad-escape-in-key": edit('"plain"', '"pl\\qain"'),
        "cut-escape-in-key": edit('"plain"', '"plain\\u00"'),
        "leading-zero": edit("[[0,", "[[00,"),
        "plus-sign": edit("0.5", "+0.5"),
        "bare-fraction": edit("0.5", ".5"),
        "nan-lowercase": edit("NaN", "nan"),
        "deep-nesting": edit('"format":', '"x":' + '{"a":' * 5000 + "1" + "}" * 5000
                             + ',"format":'),
        # past int's digit limit from Python 3.11, past int64 before it
        "long-integer": edit("[[0,", "[[1" + "0" * 5000 + ","),
        "unknown-format": edit('"wikicat/', '"nope/'),
        "no-format": edit('"format":', '"formats":'),
    }


_FAULTS = {
    **{f"centroid-{k}": v for k, v in _doc_faults(_centroid_doc).items()},
    **{f"centroid-{k}": v for k, v in _text_faults(_centroid_doc).items()},
    **{f"svm-{k}": v for k, v in _doc_faults(_svm_doc).items()},
    **{f"svm-{k}": v for k, v in _text_faults(_svm_doc).items()},
    "centroid-no-classes": lambda: _compact({**_centroid_doc(), "centroids": {}}),
    "centroid-classes-a-list": lambda: _compact({**_centroid_doc(), "centroids": []}),
    "svm-class-a-list": lambda: _compact(
        {**_svm_doc(), "classes": {"a": [[0, 1.0]]}}
    ),
    "svm-bias-a-string": lambda: _compact(
        {**_svm_doc(), "classes": {"a": {"bias": "1", "weights": [[0, 1.0]]}}}
    ),
    "svm-weights-missing": lambda: _compact(
        {**_svm_doc(), "classes": {"a": {"bias": 1.0}}}
    ),
}


@pytest.mark.parametrize("name", sorted(_FAULTS))
def test_broken_file_raises_what_json_loads_and_the_checks_raise(tmp_path, name):
    path = tmp_path / "model.json"
    path.write_text(_FAULTS[name](), encoding="utf-8")
    with pytest.raises(ConfigurationError) as want:
        model_loader_oracle.load_model(path)
    with pytest.raises(ConfigurationError) as got:
        load_model(path)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("kind", ["centroid", "svm"])
def test_file_that_is_not_utf8_raises_what_read_json_raises(tmp_path, kind):
    doc = _centroid_doc() if kind == "centroid" else _svm_doc()
    path = tmp_path / "model.json"
    path.write_bytes(_compact(doc).encode().replace(b"plain", b"pl\xffain"))
    with pytest.raises(ConfigurationError) as want:
        model_loader_oracle.load_model(path)
    with pytest.raises(ConfigurationError) as got:
        load_model(path)
    assert str(got.value) == str(want.value)
    assert "not UTF-8" in str(got.value)
