"""What ``perfbench/shim.py`` relies on in the package.

The traced benchmark wraps the layer functions that ``wikicat.cli``
imports, by name, and counts classes through ``model.classes``.  A rename
here would break ``run.py --trace 1`` and ``--smoke`` before any other
test noticed.
"""

from __future__ import annotations

import importlib.util
from collections import Counter
from pathlib import Path

import pytest

import wikicat.cli as cli
from wikicat.classifiers import TrainConfig, train_centroid, train_svm

SHIM = Path(__file__).resolve().parents[1] / "perfbench" / "shim.py"


@pytest.fixture(scope="module")
def shim():
    spec = importlib.util.spec_from_file_location("perfbench_shim", SHIM)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_function_is_in_cli(shim):
    names = [name for funcs in shim.LAYERS.values() for name, _ in funcs]
    assert names
    assert [name for name in names if not hasattr(cli, name)] == []


def test_doc_class_counter_reads_both_model_kinds(shim):
    # the hook tests ``model.classes`` for truth, which an array would refuse
    vectors = [{0: 1.0}, {1: 1.0}, {0: 0.5, 1: 0.5}]
    labels = ["a", "b", "c"]
    models = [
        train_centroid(vectors, labels),
        train_svm(vectors, labels, TrainConfig(), n_features=2),
    ]
    for model in models:
        counts = Counter()
        shim._count_doc_classes(counts, {"model": model}, "a")
        assert counts["doc_classes"] == 3
