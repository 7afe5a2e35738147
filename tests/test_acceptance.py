"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line with the measured numbers, then
asserts.  Tolerances are pinned in the assertions themselves.
"""

import json
import random
import subprocess
import sys
import time

import numpy as np
import pytest

from wikicat.classifiers import (
    TrainConfig,
    keyword_vote,
    predict_centroid,
    predict_svm,
    train_centroid,
    train_svm,
)
from wikicat.cli import main
from wikicat.labeler import (
    LabelingConfig,
    RootSpec,
    _bfs,
    _coverage,
    coarse_scheme,
    label_corpus,
)
from wikicat.synth import make_ablation_wiki, make_scale_graph, make_separable_corpus, split_corpus
from wikicat.taxonomy_mapper import (
    CategoryMapping,
    MappedCategory,
    Taxonomy,
    TaxonomyLabel,
    jaro_winkler,
    map_taxonomy,
)
from wikicat.textproc import fit_tfidf, transform

from conftest import fan_in_case, write_graph_files
from wikicat.graph_store import load_graph


def _line(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def wiki_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("acc_wiki")
    make_ablation_wiki(d, seed=0)
    return d


# --------------------------------------------------------------- criterion 1


def _layered_dag(rng):
    n_layers = rng.randint(2, 5)
    cats, layers, ext = [], [], 100
    for _ in range(n_layers):
        ids = []
        for _ in range(rng.randint(1, 6)):
            cats.append((ext, f"C{ext}"))
            ids.append(ext)
            ext += 1
        layers.append(ids)
    edges = []
    for a, b in zip(layers, layers[1:]):
        for child in b:
            for parent in rng.sample(a, rng.randint(1, len(a))):
                edges.append((parent, child, "subcat"))
    pages = []
    for i in range(rng.randint(2, 3)):
        pages.append((900 + i, f"P{i}"))
        for parent in rng.sample(layers[-1], rng.randint(1, len(layers[-1]))):
            edges.append((parent, 900 + i, "member"))
    return cats, pages, edges, layers[0]


def _cyclic_graph(rng):
    n = rng.randint(6, 12)
    cats = [(100 + i, f"C{i}") for i in range(n)]
    edges, seen = [], set()
    for _ in range(n * 3):
        a, b = rng.sample(range(n), 2)
        if (a, b) not in seen:
            seen.add((a, b))
            edges.append((100 + a, 100 + b, "subcat"))
    pages = []
    for i in range(3):
        pages.append((900 + i, f"P{i}"))
        for c in rng.sample(range(n), rng.randint(1, 3)):
            edges.append((100 + c, 900 + i, "member"))
    return cats, pages, edges


def _raw_by_page(g, top, cfg):
    """w_raw of every page the one label rooted at ``top`` reaches."""
    mapping = CategoryMapping(
        {"r": [MappedCategory(g.category_node(e), "exact", 1.0) for e in top]},
        [],
        {},
        0.9,
    )
    return {
        rec.page: rec.assignments[0].w_raw
        for rec in label_corpus(g, mapping, [["r"]], cfg)
    }


def test_c1_dag_mode_matches_exact_enumeration(tmp_path):
    rng = random.Random(101)
    t0 = time.monotonic()
    dag_cfg = LabelingConfig(mode="no_pruning")
    exact_cfg = LabelingConfig(mode="no_pruning", path_mode="exact", exact_path_cap=12)
    max_err, n_pages = 0.0, 0
    for i in range(110):
        cats, pages, edges, top = _layered_dag(rng)
        assert len(cats) + len(pages) <= 50
        paths = write_graph_files(tmp_path / f"dag{i}", cats, pages, edges)
        g = load_graph(paths["categories"], paths["pages"], paths["edges"])
        w_dag = _raw_by_page(g, top, dag_cfg)
        w_exact = _raw_by_page(g, top, exact_cfg)
        assert w_dag.keys() == w_exact.keys()
        for page in w_dag:
            max_err = max(max_err, abs(w_dag[page] - w_exact[page]))
            n_pages += 1
    cyc_ok, n_cyc = True, 0
    cyc_dag = LabelingConfig(mode="no_pruning", max_depth=7)
    cyc_exact = LabelingConfig(
        mode="no_pruning", max_depth=7, path_mode="exact", exact_path_cap=8
    )
    for i in range(30):
        cats, pages, edges = _cyclic_graph(rng)
        paths = write_graph_files(tmp_path / f"cyc{i}", cats, pages, edges)
        g = load_graph(paths["categories"], paths["pages"], paths["edges"])
        w_dag = _raw_by_page(g, [100], cyc_dag)
        w_exact = _raw_by_page(g, [100], cyc_exact)
        assert w_dag.keys() == w_exact.keys()
        for page in w_dag:
            cyc_ok = cyc_ok and w_dag[page] <= w_exact[page] + 1e-9
            n_cyc += 1
    elapsed = time.monotonic() - t0
    ok = max_err <= 1e-9 and cyc_ok and elapsed < 60 and n_pages >= 110
    _line(
        "C1",
        ok,
        f"110 level-monotone DAGs ({n_pages} pages, max |dag-exact| {max_err:.2e}),"
        f" 30 cyclic graphs ({n_cyc} pages, dag<=exact {cyc_ok}), {elapsed:.1f}s",
    )


# --------------------------------------------------------------- criterion 2


def test_c2_depth_coverage_and_pruning(trucks_graph, trucks_taxonomy):
    g = trucks_graph
    mapping = map_taxonomy(trucks_taxonomy, g)
    ford = g.page_node(100)
    club = g.page_node(101)
    scheme = coarse_scheme(trucks_taxonomy)
    full = label_corpus(g, mapping, scheme, LabelingConfig())
    depths = {r.page: a.depth for r in full for a in r.assignments}
    depth_ok = depths.get(ford) == 2
    # Coverage is not in the labels file: read it from the BFS depths.
    nodes = tuple(mc.node for mc in mapping.entries["trucks"])
    depth, _ = _bfs(g, RootSpec("trucks", nodes), frozenset(), None)
    cov_ford, cov_club = _coverage(g, np.array([ford, club]), depth).tolist()
    full_pages = {g.external_id(r.page) for r in full}
    nop_pages = {
        g.external_id(r.page)
        for r in label_corpus(g, mapping, scheme, LabelingConfig(mode="no_pruning"))
    }
    ok = (
        depth_ok
        and cov_ford == 0.75
        and cov_club == 0.25
        and full_pages == {100}
        and nop_pages == {100, 101}
    )
    _line(
        "C2",
        ok,
        f"depth {depths.get(ford)} (want 2), coverage {cov_ford}/{cov_club}"
        f" (want 0.75/0.25), full keeps {sorted(full_pages)},"
        f" no_pruning keeps {sorted(nop_pages)}",
    )


# --------------------------------------------------------------- criterion 3


def test_c3_competition_reassigns_branch(suvs_graph, suvs_taxonomy):
    g = suvs_graph
    mapping = map_taxonomy(suvs_taxonomy, g)
    cfg = LabelingConfig()

    def labels_by_page(scheme):
        out = {}
        for rec in label_corpus(g, mapping, scheme, cfg):
            out[g.external_id(rec.page)] = [a.label for a in rec.assignments]
        return out

    both = labels_by_page([["trucks", "suvs"]])
    solo = labels_by_page([["trucks"]])
    ok = (
        both.get(200) == ["suvs"]
        and both.get(201) == ["suvs"]
        and both.get(202) == ["trucks"]
        and all("trucks" not in both.get(p, []) for p in (200, 201))
        and solo.get(200) == ["trucks"]
        and solo.get(201) == ["trucks"]
    )
    _line(
        "C3",
        ok,
        f"with competition 200/201/202 -> {both.get(200)}/{both.get(201)}/"
        f"{both.get(202)}; trucks alone 200/201 -> {solo.get(200)}/{solo.get(201)}",
    )


# --------------------------------------------------------------- criterion 4


def test_c4_normalization_threshold_is_strict(make_graph):
    def assigned(fan):
        graph, mapping, scheme = fan_in_case(make_graph, fan)
        cfg = LabelingConfig(coverage_threshold=0.0)
        (rec,) = label_corpus(graph, mapping, scheme, cfg)
        return [(a.label, a.w_norm) for a in rec.assignments]

    # Raw weights 0.5, 0.25, 0.25 and 0.75, 0.75, 0.5, 0.5.
    one = assigned({"A": 0, "B": 1, "C": 1})
    none = assigned({"A": 3, "B": 3, "C": 2, "D": 2})
    ok = [lab for lab, _ in one] == ["A"] and none == []
    _line(
        "C4",
        ok,
        f"{{0.5,0.25,0.25}} -> {[lab for lab, _ in one]} (want ['A']),"
        f" {{0.3,0.3,0.2,0.2}} -> {none} (want [])",
    )


# --------------------------------------------------------------- criterion 5


def test_c5_fuzzy_matching_and_mapping(tmp_path):
    martha = jaro_winkler("MARTHA", "MARHTA")
    ident = jaro_winkler("category", "category")
    disjoint = jaro_winkler("abc", "xyz")
    paths = write_graph_files(
        tmp_path,
        [(1, "Music"), (2, "Arts"), (3, "Entertainment"),
         (4, "Emergency road services")],
        [(10, "Some page")],
        [(1, 10, "member")],
    )
    g = load_graph(paths["categories"], paths["pages"], paths["edges"])
    taxonomy = Taxonomy([
        TaxonomyLabel("music", "Music"),
        TaxonomyLabel("arts_ent", "Arts & Entertainment"),
        TaxonomyLabel("roadside", "Road-Side Assistance"),
    ])
    mapping = map_taxonomy(taxonomy, g)
    arts_nodes = {g.node_name(mc.node) for mc in mapping.entries.get("arts_ent", [])}
    misses = mapping.near_misses.get("roadside", [])
    ok = (
        abs(martha - 0.9611) <= 1e-4
        and ident == 1.0
        and disjoint == 0.0
        and [mc.score for mc in mapping.entries.get("music", [])] == [1.0]
        and arts_nodes == {"Arts", "Entertainment"}
        and "roadside" in mapping.unmapped
        and len(misses) >= 1
        and all(0.0 < nm.score < 0.9 for nm in misses)
    )
    _line(
        "C5",
        ok,
        f"JW(MARTHA,MARHTA)={martha:.4f} (want 0.9611 +/- 1e-4), identity={ident},"
        f" disjoint={disjoint}, conjunction -> {sorted(arts_nodes)},"
        f" below-threshold reported={len(misses)} accepted={'roadside' in mapping.entries}",
    )


# --------------------------------------------------------------- criterion 6


def test_c6_classifiers_beat_keyword_baseline():
    t0 = time.monotonic()
    rows, names = make_separable_corpus(5, 200, seed=0)
    train, test = split_corpus(rows, fold=5)
    tfidf = fit_tfidf((text for _, _, text in train), min_df=3)
    vectors = transform(tfidf, [text for _, _, text in train])
    labels = [lab for _, lab, _ in train]
    cen = train_centroid(vectors, labels)
    svm = train_svm(vectors, labels, TrainConfig(seed=0), tfidf.vocab_size)

    def acc(predict):
        preds = predict([text for _, _, text in test])
        hits = sum(1 for (_, lab, _), pred in zip(test, preds) if pred == lab)
        return hits / len(test)

    cen_acc = acc(lambda ts: predict_centroid(cen, transform(tfidf, ts)))
    svm_acc = acc(lambda ts: predict_svm(svm, transform(tfidf, ts)))
    kw_acc = acc(lambda ts: [keyword_vote(t, names, seed=0) for t in ts])
    elapsed = time.monotonic() - t0
    ok = (
        cen_acc >= 0.95
        and svm_acc >= 0.95
        and cen_acc > kw_acc
        and svm_acc > kw_acc
        and elapsed < 120
    )
    _line(
        "C6",
        ok,
        f"held-out accuracy centroid {cen_acc:.3f} svm {svm_acc:.3f}"
        f" (want >= 0.95) vs keyword {kw_acc:.3f} (both strictly above),"
        f" {elapsed:.1f}s",
    )


# --------------------------------------------------------------- criterion 7


def test_c7_full_mode_tops_ablation(wiki_dir, tmp_path):
    rc = main([
        "ablate",
        "--graph", str(wiki_dir),
        "--taxonomy", str(wiki_dir / "taxonomy.json"),
        "--corpus", str(wiki_dir / "corpus.jsonl"),
        "--eval", str(wiki_dir / "eval.jsonl"),
        "--seed", "0",
        "--workers", "2",
        "--out-dir", str(tmp_path / "ablation"),
    ])
    assert rc == 0
    doc = json.loads((tmp_path / "ablation" / "ablation.json").read_text())
    f1 = {row["mode"]: row["macro_f1"] for row in doc["rows"]}
    baselines = ("child_only", "all_descendants", "no_pruning")
    ok = all(f1["full"] >= f1[mode] for mode in baselines)
    _line(
        "C7",
        ok,
        "svm macro-F1 by labeling mode: "
        + ", ".join(f"{m}={f1[m]:.4f}" for m in ("full",) + baselines),
    )


# --------------------------------------------------------------- criterion 8


def _pipeline(wiki_dir, out, workers):
    out.mkdir(parents=True, exist_ok=True)
    steps = [
        ["build-graph",
         "--categories", str(wiki_dir / "categories.tsv"),
         "--pages", str(wiki_dir / "pages.tsv"),
         "--edges", str(wiki_dir / "edges.tsv"),
         "--out", str(out / "graph.bin")],
        ["map", "--graph", str(out / "graph.bin"),
         "--taxonomy", str(wiki_dir / "taxonomy.json"),
         "--out", str(out / "mapping.json")],
        ["label", "--graph", str(out / "graph.bin"),
         "--taxonomy", str(wiki_dir / "taxonomy.json"),
         "--mapping", str(out / "mapping.json"),
         "--workers", str(workers),
         "--out", str(out / "labels.jsonl")],
        ["train", "--labels", str(out / "labels.jsonl"),
         "--corpus", str(wiki_dir / "corpus.jsonl"),
         "--taxonomy", str(wiki_dir / "taxonomy.json"),
         "--kind", "svm", "--n-per-class", "60", "--seed", "7",
         "--out-dir", str(out / "models")],
        ["train", "--labels", str(out / "labels.jsonl"),
         "--corpus", str(wiki_dir / "corpus.jsonl"),
         "--taxonomy", str(wiki_dir / "taxonomy.json"),
         "--kind", "centroid", "--seed", "7",
         "--out-dir", str(out / "models")],
        ["evaluate", "--eval", str(wiki_dir / "eval.jsonl"),
         "--models-dir", str(out / "models"),
         "--kind", "svm",
         "--taxonomy", str(wiki_dir / "taxonomy.json"),
         "--out", str(out / "report.json")],
    ]
    for step in steps:
        assert main(step) == 0, step[0]
    return {
        name: (out / name).read_bytes()
        for name in (
            "labels.jsonl",
            "models/coarse.svm.json",
            "models/coarse.centroid.json",
            "report.json",
        )
    }


def test_c8_pipeline_is_deterministic(wiki_dir, tmp_path):
    first = _pipeline(wiki_dir, tmp_path / "run", workers=1)
    second = _pipeline(wiki_dir, tmp_path / "run", workers=1)
    rerun_same = {k: first[k] == second[k] for k in first}
    other = _pipeline(wiki_dir, tmp_path / "run8", workers=8)
    cross = {
        k: first[k] == other[k]
        for k in ("labels.jsonl", "models/coarse.svm.json",
                  "models/coarse.centroid.json")
    }
    ok = all(rerun_same.values()) and all(cross.values())
    _line(
        "C8",
        ok,
        f"same-seed rerun byte-identical: {rerun_same};"
        f" workers 1 vs 8 byte-identical: {cross}",
    )


# --------------------------------------------------------------- criterion 9


_SCALE_SNIPPET = """\
import json, resource, sys, time

from wikicat.graph_store import load_graph
from wikicat.labeler import LabelingConfig, coarse_scheme, label_corpus, write_labels
from wikicat.taxonomy_mapper import load_taxonomy, map_taxonomy

src, out = sys.argv[1], sys.argv[2]
t0 = time.monotonic()
graph = load_graph(src + "/categories.tsv", src + "/pages.tsv", src + "/edges.tsv")
taxonomy = load_taxonomy(src + "/taxonomy.json")
mapping = map_taxonomy(taxonomy, graph)
records = label_corpus(graph, mapping, coarse_scheme(taxonomy), LabelingConfig(), workers=4)
write_labels(records, graph, out)
print(json.dumps({
    "elapsed": time.monotonic() - t0,
    "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    "records": len(records),
    "assigned": sum(1 for r in records if r.assignments),
}))
"""


def test_c9_scale_smoke(tmp_path):
    stats = make_scale_graph(tmp_path / "scale", seed=0)
    assert stats["edges"] == 1_000_000 and stats["pages"] == 100_000
    script = tmp_path / "run_scale.py"
    script.write_text(_SCALE_SNIPPET, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(script), str(tmp_path / "scale"),
         str(tmp_path / "labels.jsonl")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    rss_gb = result["rss_kb"] / (1024 * 1024)
    ok = (
        result["elapsed"] < 120
        and rss_gb < 2.0
        and result["records"] == 100_000
        and result["assigned"] == 100_000
    )
    _line(
        "C9",
        ok,
        f"1M edges / 100k pages labeled in {result['elapsed']:.1f}s"
        f" (budget 120s), peak rss {rss_gb:.2f} GiB (budget 2),"
        f" {result['assigned']} pages assigned",
    )
