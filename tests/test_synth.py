import json

from wikicat.evaluation import load_eval
from wikicat.graph_store import load_graph
from synth_fixtures import make_scale_graph, make_separable_corpus, split_corpus
from wikicat.synth import make_ablation_wiki
from wikicat.taxonomy import load_taxonomy
from wikicat.taxonomy_mapper import map_taxonomy


def _load_dir(d):
    return load_graph(d / "categories.tsv", d / "pages.tsv", d / "edges.tsv")


def test_separable_corpus_shape_and_determinism():
    rows, names = make_separable_corpus(5, 200, seed=0)
    assert len(rows) == 1000
    assert len({r[0] for r in rows}) == 1000
    per = {}
    for _, lab, _ in rows:
        per[lab] = per.get(lab, 0) + 1
    assert set(per) == set(names) and all(v == 200 for v in per.values())
    again, _ = make_separable_corpus(5, 200, seed=0)
    assert rows == again
    other, _ = make_separable_corpus(5, 200, seed=1)
    assert rows != other


def test_separable_corpus_cores_are_disjoint():
    rows, _ = make_separable_corpus(3, 30, seed=2)
    for _, lab, text in rows:
        for tok in text.split():
            if "term" in tok:
                assert tok.startswith(lab)


def test_split_corpus_balanced_holdout():
    rows, _ = make_separable_corpus(5, 200, seed=0)
    train, test = split_corpus(rows, fold=5)
    assert len(train) == 800 and len(test) == 200
    assert {r[0] for r in train} | {r[0] for r in test} == {r[0] for r in rows}
    per = {}
    for _, lab, _ in test:
        per[lab] = per.get(lab, 0) + 1
    assert all(v == 40 for v in per.values())


def test_ablation_wiki_artifacts(tmp_path):
    stats = make_ablation_wiki(tmp_path, seed=0)
    assert stats["pages"] == 204 and stats["labels"] == ["alpha", "bravo", "charlie"]
    graph = _load_dir(tmp_path)
    got = graph.stats()
    assert got["n_categories"] == stats["categories"]
    assert got["n_pages"] == stats["pages"]
    assert got["n_subcat_edges"] + got["n_member_edges"] == stats["edges"]
    taxonomy = load_taxonomy(tmp_path / "taxonomy.json")
    mapping = map_taxonomy(taxonomy, graph)
    assert mapping.unmapped == []
    assert sorted(mapping.entries) == stats["labels"]
    corpus_ids = set()
    with open(tmp_path / "corpus.jsonl", encoding="utf-8") as fh:
        for line in fh:
            corpus_ids.add(json.loads(line)["id"])
    assert len(corpus_ids) == 204
    instances = load_eval(tmp_path / "eval.jsonl")
    assert len(instances) == 90
    assert {inst.gold[0] for inst in instances} == set(stats["labels"])


def test_ablation_wiki_deterministic(tmp_path):
    make_ablation_wiki(tmp_path / "a", seed=3)
    make_ablation_wiki(tmp_path / "b", seed=3)
    for name in ("categories.tsv", "pages.tsv", "edges.tsv", "corpus.jsonl",
                 "eval.jsonl", "taxonomy.json"):
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name
        ).read_bytes()


def test_scale_graph_small_variant(tmp_path):
    stats = make_scale_graph(
        tmp_path, n_roots=5, n_categories=2300, n_pages=400, n_edges=9000, seed=1
    )
    assert stats["edges"] == 9000
    assert stats["categories"] == 2300 and stats["pages"] == 400
    graph = _load_dir(tmp_path)
    got = graph.stats()
    assert got["n_categories"] == 2300 and got["n_pages"] == 400
    assert got["n_subcat_edges"] + got["n_member_edges"] == 9000
    taxonomy = load_taxonomy(tmp_path / "taxonomy.json")
    mapping = map_taxonomy(taxonomy, graph)
    assert mapping.unmapped == []
    assert len(mapping.entries) == 5
