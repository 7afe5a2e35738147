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
from collections.abc import Iterator
from pathlib import Path

import pytest

import wikicat.cli as cli
import wikicat.taxonomy_mapper as taxonomy_mapper
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
    lines = (d / "corpus.jsonl").read_text(encoding="utf-8").splitlines()
    rows = [json.loads(line) for line in lines]
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


def test_mapper_counters_see_the_calls_they_wrap(shim, tmp_path, monkeypatch):
    """``install`` replaces two module attributes of ``taxonomy_mapper``;
    the mapper must look ``split_conjunctions`` up there when it runs, or
    ``query_parts`` reads 0."""
    for name in ("jaro_winkler", "split_conjunctions"):
        assert callable(getattr(taxonomy_mapper, name))
    real = taxonomy_mapper.split_conjunctions
    tracer = shim.Tracer()
    monkeypatch.setattr(
        taxonomy_mapper,
        "split_conjunctions",
        tracer.counting("query_parts", real, per_result=True),
    )
    make_ablation_wiki(tmp_path, seed=0)
    files = [tmp_path / f"{name}.tsv" for name in ("categories", "pages", "edges")]
    taxonomy = load_taxonomy(tmp_path / "taxonomy.json")
    map_taxonomy(taxonomy, cli.load_graph(*files, None))
    parts = sum(len(real(lab.name)) for lab in taxonomy.labels)
    assert tracer.counts["query_parts"] == parts > 0


def test_the_mapper_splits_each_label_without_an_override_once(
    tmp_path, monkeypatch
):
    """``query_parts`` adds up the parts of every ``split_conjunctions``
    call, so the mapper must split each automatic label exactly once, and
    a label with an override not at all."""
    real = taxonomy_mapper.split_conjunctions
    split: list[str] = []

    def counting(name: str) -> list[str]:
        split.append(name)
        return real(name)

    monkeypatch.setattr(taxonomy_mapper, "split_conjunctions", counting)
    make_ablation_wiki(tmp_path, seed=0)
    files = [tmp_path / f"{name}.tsv" for name in ("categories", "pages", "edges")]
    taxonomy = load_taxonomy(tmp_path / "taxonomy.json")
    first, *rest = taxonomy.labels
    map_taxonomy(taxonomy, cli.load_graph(*files, None), overrides={first.id: [0]})
    assert sorted(split) == sorted(lab.name for lab in rest)
    assert rest


def test_read_labels_returns_what_it_read(calls, tmp_path):
    """The ``labeler.read_labels`` span times the whole read only if the call
    returns every value, not an iterator that reads later."""
    args, kwargs = calls["label_corpus"]
    graph = args[0]
    labeled = cli.label_corpus(*args, **kwargs)
    path = tmp_path / "labels.jsonl"
    cli.write_labels(labeled, graph, path)
    result = cli.read_labels(path)
    path.unlink()
    assert not isinstance(result, Iterator)
    pages, tops = result
    assert isinstance(pages, list) and isinstance(tops, list)
    assert pages == graph.external_ids(labeled.page).tolist()
    assert tops == labeled.tops()
    assert len(pages) == len(labeled) > 0
