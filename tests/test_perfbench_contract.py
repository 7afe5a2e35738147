"""What ``perfbench/shim.py`` relies on in the package.

The traced benchmark wraps the layer functions that ``wikicat.cli``
imports, by name, and its counter hooks read their arguments by parameter
name and their results by attribute.  A rename here would break
``run.py --trace 1`` and ``--smoke`` before any other test noticed, so
every hook is run here on the arguments the CLI passes.
"""

from __future__ import annotations

import importlib.util
import inspect
import json
from collections import Counter
from pathlib import Path

import pytest

import wikicat.cli as cli
from docmatrix import docs
from wikicat.classifiers import TrainConfig, train_centroid, train_svm
from wikicat.labeler import LabelingConfig, coarse_scheme
from wikicat.synth import make_ablation_wiki
from wikicat.taxonomy_mapper import load_taxonomy, map_taxonomy

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
    vectors = docs([{0: 1.0}, {1: 1.0}, {0: 0.5, 1: 0.5}])
    labels = ["a", "b", "c"]
    models = [
        train_centroid(vectors, labels),
        train_svm(vectors, labels, TrainConfig(), n_features=2),
    ]
    for model in models:
        counts = Counter()
        shim._count_doc_classes(counts, {"model": model}, "a")
        assert counts["doc_classes"] == 3


@pytest.fixture(scope="module")
def calls(tmp_path_factory):
    """Per hooked function, the (args, kwargs) of a call as the CLI makes it."""
    d = tmp_path_factory.mktemp("wiki")
    make_ablation_wiki(d, seed=0)
    files = [d / f"{name}.tsv" for name in ("categories", "pages", "edges")]
    graph = cli.load_graph(*files, None)
    taxonomy = load_taxonomy(d / "taxonomy.json")
    mapping = map_taxonomy(taxonomy, graph)
    rows = [json.loads(line) for line in open(d / "corpus.jsonl", encoding="utf-8")]
    texts = [row["text"] for row in rows]
    labels = ["alpha", "bravo", "charlie"] * (len(texts) // 3)
    texts = texts[: len(labels)]
    tfidf = cli.fit_tfidf(texts, min_df=2)
    vectors = cli.transform(tfidf, texts)
    svm = cli.train_svm(vectors, labels, TrainConfig(epochs=1), tfidf.vocab_size, tfidf)
    centroid = cli.train_centroid(vectors, labels, tfidf=tfidf)
    return {
        "load_graph": ((*files, None), {}),
        "label_corpus": (
            (graph, mapping, coarse_scheme(taxonomy), LabelingConfig()),
            {"workers": 1},
        ),
        "fit_tfidf": ((texts,), {"min_df": 2}),
        "train_svm": (
            (vectors, labels, TrainConfig(epochs=1)),
            {"n_features": tfidf.vocab_size, "tfidf": tfidf},
        ),
        "predict_svm": ((svm, vectors), {}),
        "predict_centroid": ((centroid, vectors), {}),
        "load_eval": ((d / "eval.jsonl",), {"valid_labels": labels}),
    }


def test_every_counter_hook_reads_a_real_call(shim, calls):
    counts = Counter()
    hooked = []
    for funcs in shim.LAYERS.values():
        for name, hook in funcs:
            if hook is None:
                continue
            hooked.append(name)
            args, kwargs = calls[name]
            func = getattr(cli, name)
            result = func(*args, **kwargs)
            bound = inspect.signature(func).bind(*args, **kwargs).arguments
            hook(counts, bound, result)
    assert sorted(hooked) == sorted(calls)
    n_docs = len(calls["train_svm"][0][0])
    assert counts["sgd_pairs"] == 3 * n_docs * 1
    # one batch call per model over every document, three classes each
    assert counts["doc_classes"] == 3 + 3
    assert counts["edges"] == 501
    assert counts["traversals"] == 3
    assert counts["records"] >= counts["assigned"] > 0
    assert counts["vocab"] == calls["train_svm"][1]["n_features"]
    assert counts["instances"] == 90
