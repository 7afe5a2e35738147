import json
import logging
import os
import re
import struct
import subprocess
import sys
from dataclasses import fields

import pytest

from wikicat.classifiers import TrainConfig, save_model, train_centroid, train_svm
from wikicat.cli import KINDS, main
from wikicat.graph_store import load_snapshot
from wikicat.labeler import MODES, Assignment, LabelingConfig, PageLabels
from wikicat.synth import make_ablation_wiki
from wikicat.textproc import fit_tfidf, transform

from conftest import write_graph_files
from snapshot_v1_oracle import save_snapshot_v1


def _last_json(capsys):
    out = capsys.readouterr().out.strip().splitlines()
    return json.loads(out[-1])


@pytest.fixture(scope="module")
def wiki(tmp_path_factory):
    """Ablation wiki with a built snapshot and mapping, used read-only."""
    d = tmp_path_factory.mktemp("wiki")
    make_ablation_wiki(d, seed=0)
    assert main([
        "build-graph",
        "--categories", str(d / "categories.tsv"),
        "--pages", str(d / "pages.tsv"),
        "--edges", str(d / "edges.tsv"),
        "--out", str(d / "graph.bin"),
    ]) == 0
    assert main([
        "map",
        "--graph", str(d / "graph.bin"),
        "--taxonomy", str(d / "taxonomy.json"),
        "--out", str(d / "mapping.json"),
    ]) == 0
    return d


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "wikicat.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0


def test_build_graph_stats_line(tmp_path, capsys):
    paths = write_graph_files(
        tmp_path,
        [(1, "Top"), (2, "Mid"), (3, "Other")],
        [(10, "Page a"), (11, "Page b")],
        [(1, 2, "subcat"), (2, 10, "member"), (3, 11, "member"), (1, 11, "member")],
    )
    rc = main([
        "build-graph",
        "--categories", str(paths["categories"]),
        "--pages", str(paths["pages"]),
        "--edges", str(paths["edges"]),
        "--out", str(tmp_path / "g.bin"),
    ])
    assert rc == 0
    stats = _last_json(capsys)["stats"]
    assert stats["n_categories"] == 3
    assert stats["n_pages"] == 2
    assert stats["n_subcat_edges"] + stats["n_member_edges"] == 4


def test_build_graph_missing_file_exits_2(tmp_path, capsys):
    rc = main([
        "build-graph",
        "--categories", str(tmp_path / "none.tsv"),
        "--pages", str(tmp_path / "none2.tsv"),
        "--edges", str(tmp_path / "none3.tsv"),
        "--out", str(tmp_path / "g.bin"),
    ])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_build_graph_corrupt_line_names_file_and_line(tmp_path, capsys):
    paths = write_graph_files(tmp_path, [(1, "Top")], [(10, "P")], [])
    paths["edges"].write_text("1\t10\n", encoding="utf-8")  # missing kind field
    rc = main([
        "build-graph",
        "--categories", str(paths["categories"]),
        "--pages", str(paths["pages"]),
        "--edges", str(paths["edges"]),
        "--out", str(tmp_path / "g.bin"),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert "edges.tsv:1" in err


@pytest.mark.parametrize(
    "table, what", [("categories", "category"), ("pages", "page")]
)
@pytest.mark.parametrize("raw", ["99999999999999999999", "-9223372036854775809"])
def test_build_graph_id_beyond_int64_exits_2(tmp_path, capsys, table, what, raw):
    paths = write_graph_files(tmp_path, [(1, "Top")], [(10, "P")], [])
    paths[table].write_text(f"{raw}\tHuge\n", encoding="utf-8")
    rc = main([
        "build-graph",
        "--categories", str(paths["categories"]),
        "--pages", str(paths["pages"]),
        "--edges", str(paths["edges"]),
        "--out", str(tmp_path / "g.bin"),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{table}.tsv:1: {what} id out of range: '{raw}'" in err
    assert not (tmp_path / "g.bin").exists()


@pytest.mark.parametrize("table, line", [
    pytest.param("categories", b"1\tA\xff\n", id="categories"),
    pytest.param("pages", b"10\tP\xff\n", id="pages"),
    pytest.param("edges", b"1\t10\tmember\xff\n", id="edges"),
])
def test_build_graph_non_utf8_tsv_exits_2(tmp_path, capsys, table, line):
    paths = write_graph_files(tmp_path, [(1, "Top")], [(10, "P")], [])
    paths[table].write_bytes(line)
    rc = main([
        "build-graph",
        "--categories", str(paths["categories"]),
        "--pages", str(paths["pages"]),
        "--edges", str(paths["edges"]),
        "--out", str(tmp_path / "g.bin"),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {paths[table]}: not UTF-8: ")
    assert "Traceback" not in err
    assert not (tmp_path / "g.bin").exists()


def test_map_reports_unmapped_and_applies_override(wiki, tmp_path, capsys):
    taxonomy = json.loads((wiki / "taxonomy.json").read_text())
    taxonomy["labels"].append({"id": "zeta", "name": "Zetaqq", "parent": None})
    tax_path = tmp_path / "tax.json"
    tax_path.write_text(json.dumps(taxonomy))
    rc = main([
        "map",
        "--graph", str(wiki / "graph.bin"),
        "--taxonomy", str(tax_path),
        "--out", str(tmp_path / "m.json"),
    ])
    assert rc == 0
    summary = _last_json(capsys)
    assert summary["unmapped"] == ["zeta"]
    overrides = tmp_path / "ov.json"
    overrides.write_text(json.dumps({"zeta": ["Standalone archive 0"]}))
    rc = main([
        "map",
        "--graph", str(wiki / "graph.bin"),
        "--taxonomy", str(tax_path),
        "--overrides", str(overrides),
        "--out", str(tmp_path / "m2.json"),
    ])
    assert rc == 0
    summary = _last_json(capsys)
    assert summary["unmapped"] == []
    assert "zeta" in summary["mapped"]


def test_map_is_idempotent(wiki, tmp_path):
    out = tmp_path / "m.json"
    for _ in range(2):
        assert main([
            "map",
            "--graph", str(wiki / "graph.bin"),
            "--taxonomy", str(wiki / "taxonomy.json"),
            "--out", str(out),
        ]) == 0
    assert out.read_bytes() == (wiki / "mapping.json").read_bytes()


def test_label_full_mode_summary(wiki, tmp_path, capsys):
    rc = main([
        "label",
        "--graph", str(wiki / "graph.bin"),
        "--taxonomy", str(wiki / "taxonomy.json"),
        "--mapping", str(wiki / "mapping.json"),
        "--out", str(tmp_path / "labels.jsonl"),
        "--workers", "1",
    ])
    assert rc == 0
    summary = _last_json(capsys)
    assert summary["pages_seen"] == 159
    assert summary["per_label"] == {"alpha": 53, "bravo": 53, "charlie": 53}
    assert summary["config"]["mode"] == "full"


def test_label_summary_does_not_depend_on_cpu_count(
    wiki, tmp_path, capsys, monkeypatch
):
    argv = [
        "label",
        "--graph", str(wiki / "graph.bin"),
        "--taxonomy", str(wiki / "taxonomy.json"),
        "--mapping", str(wiki / "mapping.json"),
        "--out", str(tmp_path / "labels.jsonl"),
    ]
    assert main(argv) == 0
    summary = _last_json(capsys)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert main(argv) == 0
    assert _last_json(capsys) == summary
    assert summary["config"]["workers"] == 1


def test_label_mode_flag_switches_behavior(wiki, tmp_path, capsys):
    rc = main([
        "label",
        "--graph", str(wiki / "graph.bin"),
        "--taxonomy", str(wiki / "taxonomy.json"),
        "--mapping", str(wiki / "mapping.json"),
        "--mode", "no_pruning",
        "--out", str(tmp_path / "labels.jsonl"),
        "--workers", "1",
    ])
    assert rc == 0
    summary = _last_json(capsys)
    # weakly attached distractor pages come back once pruning is off
    assert summary["pages_seen"] == 204


def test_label_unmapped_label_exits_2(wiki, tmp_path, capsys):
    taxonomy = json.loads((wiki / "taxonomy.json").read_text())
    taxonomy["labels"].append({"id": "zeta", "name": "Zetaqq", "parent": None})
    tax_path = tmp_path / "tax.json"
    tax_path.write_text(json.dumps(taxonomy))
    rc = main([
        "label",
        "--graph", str(wiki / "graph.bin"),
        "--taxonomy", str(tax_path),
        "--mapping", str(wiki / "mapping.json"),
        "--out", str(tmp_path / "labels.jsonl"),
    ])
    assert rc == 2
    assert "zeta" in capsys.readouterr().err


def test_train_predict_evaluate_round_trip(wiki, tmp_path, capsys):
    labels_path = tmp_path / "labels.jsonl"
    assert main([
        "label",
        "--graph", str(wiki / "graph.bin"),
        "--taxonomy", str(wiki / "taxonomy.json"),
        "--mapping", str(wiki / "mapping.json"),
        "--out", str(labels_path),
        "--workers", "1",
    ]) == 0
    for kind in ("svm", "centroid"):
        assert main([
            "train",
            "--labels", str(labels_path),
            "--corpus", str(wiki / "corpus.jsonl"),
            "--taxonomy", str(wiki / "taxonomy.json"),
            "--kind", kind,
            "--n-per-class", "60",
            "--out-dir", str(tmp_path / "models"),
        ]) == 0
        assert (tmp_path / "models" / f"coarse.{kind}.json").exists()
        assert main([
            "evaluate",
            "--eval", str(wiki / "eval.jsonl"),
            "--models-dir", str(tmp_path / "models"),
            "--kind", kind,
            "--taxonomy", str(wiki / "taxonomy.json"),
            "--out", str(tmp_path / f"report.{kind}.json"),
        ]) == 0
        summary = _last_json(capsys)
        assert summary["n"] == 90
        assert summary["accuracy"] >= 0.9
        report = json.loads((tmp_path / f"report.{kind}.json").read_text())
        assert set(report) == {"config", "pooled", "per_parent"}
        assert report["per_parent"]["coarse"]["n"] == 90
    assert main([
        "predict",
        "--model", str(tmp_path / "models" / "coarse.svm.json"),
        "--corpus", str(wiki / "corpus.jsonl"),
        "--out", str(tmp_path / "preds.jsonl"),
    ]) == 0
    rows = [
        json.loads(line)
        for line in (tmp_path / "preds.jsonl").read_text().splitlines()
    ]
    assert len(rows) == 204
    assert all(row["label"] in {"alpha", "bravo", "charlie"} for row in rows)


def test_sample_writes_balanced_rows(wiki, tmp_path, capsys):
    labels_path = tmp_path / "labels.jsonl"
    assert main([
        "label",
        "--graph", str(wiki / "graph.bin"),
        "--taxonomy", str(wiki / "taxonomy.json"),
        "--mapping", str(wiki / "mapping.json"),
        "--out", str(labels_path),
        "--workers", "1",
    ]) == 0
    assert main([
        "sample",
        "--labels", str(labels_path),
        "--corpus", str(wiki / "corpus.jsonl"),
        "--taxonomy", str(wiki / "taxonomy.json"),
        "--n-per-class", "10",
        "--seed", "4",
        "--out", str(tmp_path / "sampled.jsonl"),
    ]) == 0
    rows = [
        json.loads(line)
        for line in (tmp_path / "sampled.jsonl").read_text().splitlines()
    ]
    assert len(rows) == 30
    per = {}
    for row in rows:
        per[row["label"]] = per.get(row["label"], 0) + 1
        assert row["set"] == "coarse"
    assert per == {"alpha": 10, "bravo": 10, "charlie": 10}


def test_config_file_supplies_values_and_flags_override(wiki, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "graph": str(wiki / "graph.bin"),
        "taxonomy": str(wiki / "taxonomy.json"),
        "threshold": 0.5,
        "out": str(tmp_path / "m.json"),
    }))
    assert main(["map", "--config", str(config)]) == 0
    doc = json.loads((tmp_path / "m.json").read_text())
    assert doc["threshold"] == 0.5
    assert main(["map", "--config", str(config), "--threshold", "0.95"]) == 0
    doc = json.loads((tmp_path / "m.json").read_text())
    assert doc["threshold"] == 0.95


def test_bad_config_exits_2(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text("{broken")
    assert main(["map", "--config", str(config)]) == 2
    config.write_text("[1, 2]")
    assert main(["map", "--config", str(config)]) == 2


def test_missing_required_setting_exits_2(capsys):
    rc = main(["map"])
    assert rc == 2
    assert "graph" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value",
    [
        ("exact_path_cap", None),
        ("max_depth", "x"),
        ("coverage_threshold", [1]),
        ("workers", 0),
    ],
)
def test_label_bad_config_value_exits_2(wiki, tmp_path, capsys, key, value):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "graph": str(wiki / "graph.bin"),
        "taxonomy": str(wiki / "taxonomy.json"),
        "mapping": str(wiki / "mapping.json"),
        "out": str(tmp_path / "labels.jsonl"),
        key: value,
    }))
    assert main(["label", "--config", str(config)]) == 2
    assert key in capsys.readouterr().err


def test_map_malformed_overrides_exits_2(wiki, tmp_path, capsys):
    overrides = tmp_path / "ov.json"
    for text in (
        "{broken",
        '["a list"]',
        '{"alpha": 5}',
        '{"alpha": ["No such category"]}',
        '{"zulu": ["Standalone archive 0"]}',
    ):
        overrides.write_text(text)
        rc = main([
            "map",
            "--graph", str(wiki / "graph.bin"),
            "--taxonomy", str(wiki / "taxonomy.json"),
            "--overrides", str(overrides),
            "--out", str(tmp_path / "m.json"),
        ])
        assert rc == 2
        assert "ov.json" in capsys.readouterr().err


def test_label_fine_scheme_on_flat_taxonomy_exits_2(wiki, tmp_path, capsys):
    rc = main([
        "label",
        "--graph", str(wiki / "graph.bin"),
        "--taxonomy", str(wiki / "taxonomy.json"),
        "--mapping", str(wiki / "mapping.json"),
        "--scheme", "fine",
        "--out", str(tmp_path / "labels.jsonl"),
    ])
    assert rc == 2
    assert "taxonomy has no child labels" in capsys.readouterr().err


def test_predict_model_with_unsorted_terms_exits_2(tmp_path, capsys):
    tfidf = fit_tfidf(["aa bb", "bb cc"], min_df=1)
    vectors = transform(tfidf, ["aa bb", "bb cc"])
    model_path = tmp_path / "model.json"
    save_model(train_centroid(vectors, ["x", "y"], tfidf=tfidf), model_path)
    doc = json.loads(model_path.read_text())
    doc["tfidf"]["terms"].reverse()
    model_path.write_text(json.dumps(doc))
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text('{"id": 1, "text": "aa cc"}\n')
    rc = main([
        "predict",
        "--model", str(model_path),
        "--corpus", str(corpus),
        "--out", str(tmp_path / "preds.jsonl"),
    ])
    assert rc == 2
    assert "model.json: model terms are not sorted" in capsys.readouterr().err


@pytest.mark.parametrize("pairs, message", [
    pytest.param([[0.9, 1.0]], "feature index 0.9 is not an int", id="float-index"),
    pytest.param([["1", "0.5"]], "feature index '1' is not an int", id="str-index"),
    pytest.param([[True, 1.0], [1, 2.0]], "feature index True is not", id="bool-index"),
    pytest.param([[1, 1.0], [1, 2.0]], "indices are not ascending", id="duplicate"),
    pytest.param([[1, 1.0], [0, 2.0]], "indices are not ascending", id="descending"),
    pytest.param([[0, "0.5"]], "weight '0.5' is not a number", id="str-weight"),
    pytest.param([[0, True]], "weight True is not a number", id="bool-weight"),
    pytest.param([[0, None]], "weight None is not a number", id="null-weight"),
    pytest.param([[0, 10**400]], "int too large to convert to float", id="huge-weight"),
    pytest.param([[0, 1.0, 2.0]], "too many values to unpack", id="triple"),
])
@pytest.mark.parametrize("kind", ["centroid", "svm"])
def test_predict_model_with_malformed_weight_pairs_exits_2(
    tmp_path, capsys, kind, pairs, message
):
    texts, labels = ["aa bb", "bb cc", "aa cc"], ["x", "y", "x"]
    tfidf = fit_tfidf(texts, min_df=1)
    vectors = transform(tfidf, texts)
    model_path = tmp_path / "model.json"
    if kind == "centroid":
        save_model(train_centroid(vectors, labels, tfidf=tfidf), model_path)
    else:
        model = train_svm(vectors, labels, TrainConfig(), tfidf.vocab_size, tfidf)
        save_model(model, model_path)
    doc = json.loads(model_path.read_text())
    if kind == "centroid":
        doc["centroids"]["y"] = pairs
    else:
        doc["classes"]["y"]["weights"] = pairs
    model_path.write_text(json.dumps(doc))
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text('{"id": 1, "text": "aa cc"}\n')
    rc = main([
        "predict",
        "--model", str(model_path),
        "--corpus", str(corpus),
        "--out", str(tmp_path / "preds.jsonl"),
    ])
    assert rc == 2
    assert re.search(
        f"model.json: malformed model file: .*{message}", capsys.readouterr().err
    )


def test_package_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "wikicat", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0.1.0"


@pytest.fixture(scope="module")
def labels_path(wiki, tmp_path_factory):
    """Coarse labels of the ablation wiki, used read-only."""
    path = tmp_path_factory.mktemp("labeled") / "labels.jsonl"
    assert main([
        "label",
        "--graph", str(wiki / "graph.bin"),
        "--taxonomy", str(wiki / "taxonomy.json"),
        "--mapping", str(wiki / "mapping.json"),
        "--out", str(path),
        "--workers", "1",
    ]) == 0
    return path


def test_map_bad_threshold_exits_2(wiki, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "graph": str(wiki / "graph.bin"),
        "taxonomy": str(wiki / "taxonomy.json"),
        "out": str(tmp_path / "m.json"),
        "threshold": "x",
    }))
    assert main(["map", "--config", str(config)]) == 2
    assert "threshold" in capsys.readouterr().err


@pytest.mark.parametrize("threshold", ["nan", "-1", "inf", "1.5"])
def test_map_threshold_outside_0_1_exits_2(wiki, tmp_path, capsys, threshold):
    rc = main([
        "map",
        "--graph", str(wiki / "graph.bin"),
        "--taxonomy", str(wiki / "taxonomy.json"),
        "--threshold", threshold,
        "--out", str(tmp_path / "m.json"),
    ])
    assert rc == 2
    assert "threshold must be in [0, 1]" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("train", "lam", "x"),
        ("train", "lam", "nan"),
        ("train", "eta0", "inf"),
        ("train", "epochs", "x"),
        ("train", "seed", [1]),
        ("train", "min_df", None),
        ("train", "n_per_class", "x"),
        ("train", "n_per_class", 0),
        ("sample", "seed", "x"),
        ("sample", "n_per_class", "x"),
        ("sample", "n_per_class", 0),
    ],
)
def test_bad_training_config_value_exits_2(
    wiki, labels_path, tmp_path, capsys, command, key, value
):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "labels": str(labels_path),
        "corpus": str(wiki / "corpus.jsonl"),
        "taxonomy": str(wiki / "taxonomy.json"),
        "out": str(tmp_path / "sampled.jsonl"),
        "out_dir": str(tmp_path / "models"),
        key: value,
    }))
    assert main([command, "--config", str(config)]) == 2
    assert key in capsys.readouterr().err


def test_ablate_bad_config_value_exits_2(wiki, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "graph": str(wiki / "graph.bin"),
        "taxonomy": str(wiki / "taxonomy.json"),
        "corpus": str(wiki / "corpus.jsonl"),
        "out_dir": str(tmp_path / "ablate"),
        "min_df": "x",
    }))
    assert main(["ablate", "--config", str(config)]) == 2
    assert "min_df" in capsys.readouterr().err


def test_ablate_n_per_class_0_exits_2(wiki, tmp_path, capsys):
    rc = main([
        "ablate",
        "--graph", str(wiki / "graph.bin"),
        "--taxonomy", str(wiki / "taxonomy.json"),
        "--corpus", str(wiki / "corpus.jsonl"),
        "--eval", str(wiki / "eval.jsonl"),
        "--n-per-class", "0",
        "--out-dir", str(tmp_path / "ablate"),
    ])
    assert rc == 2
    assert "n_per_class must be >= 1" in capsys.readouterr().err
    assert list((tmp_path / "ablate").glob("labels.*.jsonl")) == []


def _mapping_with_zulu(wiki, path, table):
    """The wiki's mapping, with label ``zulu`` added to one of its tables."""
    doc = json.loads((wiki / "mapping.json").read_text(encoding="utf-8"))
    if table == "unmapped":
        doc["unmapped"].append("zulu")
    else:
        doc[table]["zulu"] = doc["labels"]["alpha"] if table == "labels" else []
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


@pytest.mark.parametrize("table", ["labels", "near_misses", "unmapped"])
def test_label_refuses_a_mapping_label_the_taxonomy_lacks(
    wiki, tmp_path, capsys, table
):
    mapping = _mapping_with_zulu(wiki, tmp_path / "mapping.json", table)
    rc = main([
        "label",
        "--graph", str(wiki / "graph.bin"),
        "--taxonomy", str(wiki / "taxonomy.json"),
        "--mapping", str(mapping),
        "--out", str(tmp_path / "labels.jsonl"),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"error: {mapping}: label 'zulu' is not in the taxonomy" in err
    assert not (tmp_path / "labels.jsonl").exists()


def test_ablate_refuses_a_mapping_label_the_taxonomy_lacks(wiki, tmp_path, capsys):
    mapping = _mapping_with_zulu(wiki, tmp_path / "mapping.json", "labels")
    rc = main([
        "ablate",
        "--graph", str(wiki / "graph.bin"),
        "--taxonomy", str(wiki / "taxonomy.json"),
        "--mapping", str(mapping),
        "--corpus", str(wiki / "corpus.jsonl"),
        "--eval", str(wiki / "eval.jsonl"),
        "--out-dir", str(tmp_path / "ablate"),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"error: {mapping}: label 'zulu' is not in the taxonomy" in err
    assert list((tmp_path / "ablate").glob("labels.*.jsonl")) == []


def test_label_refuses_a_mapping_that_lists_a_category_twice(wiki, tmp_path, capsys):
    """A hand-edited mapping is named with the category's id, not left to
    the labeler to report as an internal node mapped twice."""
    doc = json.loads((wiki / "mapping.json").read_text(encoding="utf-8"))
    row = doc["labels"]["alpha"][0]
    doc["labels"]["alpha"].append(dict(row, kind="override"))
    mapping = tmp_path / "mapping.json"
    mapping.write_text(json.dumps(doc), encoding="utf-8")
    rc = main([
        "label",
        "--graph", str(wiki / "graph.bin"),
        "--taxonomy", str(wiki / "taxonomy.json"),
        "--mapping", str(mapping),
        "--out", str(tmp_path / "labels.jsonl"),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    cid = row["category_id"]
    assert f"error: {mapping}: label 'alpha' lists category {cid} twice" in err
    assert not (tmp_path / "labels.jsonl").exists()


@pytest.mark.parametrize("command", ["label", "train"])
def test_unknown_scheme_in_config_exits_2(
    wiki, labels_path, tmp_path, capsys, command
):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "graph": str(wiki / "graph.bin"),
        "taxonomy": str(wiki / "taxonomy.json"),
        "mapping": str(wiki / "mapping.json"),
        "labels": str(labels_path),
        "corpus": str(wiki / "corpus.jsonl"),
        "out": str(tmp_path / "labels.jsonl"),
        "out_dir": str(tmp_path / "models"),
        "scheme": "bogus",
    }))
    assert main([command, "--config", str(config)]) == 2
    assert "unknown scheme 'bogus'" in capsys.readouterr().err


def _truncated(data: bytes, n_edges: int) -> bytes:
    return data[:100]


def _index_flipped(data: bytes, n_edges: int) -> bytes:
    # No aliases, so the edge indices are the last 4 * n_edges bytes; setting
    # bit 30 of the first one points it a billion nodes past the end.
    out = bytearray(data)
    out[len(data) - 4 * n_edges + 3] ^= 0x40
    return bytes(out)


def _huge_count(data: bytes, n_edges: int) -> bytes:
    # The category count, past the C size type that numpy takes.
    return data[:8] + (2**63).to_bytes(8, "little") + data[16:]


@pytest.mark.parametrize("damage", [_truncated, _index_flipped, _huge_count])
def test_damaged_snapshot_exits_2_naming_it(wiki, tmp_path, damage):
    graph = load_snapshot(wiki / "graph.bin")
    assert not graph.aliases
    v1 = tmp_path / "v1.bin"
    save_snapshot_v1(graph, v1)
    bad = tmp_path / "damaged.bin"
    bad.write_bytes(damage(v1.read_bytes(), len(graph.indices)))
    proc = _map_under_2_gib(wiki, bad, tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert f"error: {bad}: corrupt snapshot" in proc.stderr


def _under_gib(gib: int, *args: str) -> subprocess.CompletedProcess:
    """The CLI run with ``args`` in a child process under an address-space
    limit of ``gib`` GiB, where a larger allocation fails with exit 3
    instead of being attempted on the machine."""
    limit = (
        "import resource, sys; "
        f"resource.setrlimit(resource.RLIMIT_AS, ({gib} << 30, {gib} << 30)); "
        "from wikicat.cli import main; sys.exit(main(sys.argv[1:]))"
    )
    return subprocess.run(
        [sys.executable, "-c", limit, *args], capture_output=True, text=True
    )


def _map_under_2_gib(wiki, graph, tmp_path):
    """``map --graph graph`` in a child process under a 2 GiB limit."""
    return _under_gib(
        2,
        "map",
        "--graph", str(graph),
        "--taxonomy", str(wiki / "taxonomy.json"),
        "--out", str(tmp_path / "mapping.json"),
    )


@pytest.mark.parametrize(("head", "message"), [
    pytest.param(b"JUNK", "not a graph snapshot", id="junk"),
    # one category with a one-byte name: a 113-byte file
    pytest.param(
        b"WCG2" + struct.pack("<I7Q", 2, 1, 0, 0, 0, 1, 0, 0),
        "corrupt snapshot: its counts need 113 bytes, the file has 3221225472",
        id="v2",
    ),
    # more categories than the file could hold
    pytest.param(
        b"WCG1" + struct.pack("<I4Q", 1, 2**62, 0, 0, 0),
        "corrupt snapshot: its counts need", id="v1",
    ),
    # an empty graph: 48 bytes of records, then trailing bytes
    pytest.param(
        b"WCG1" + struct.pack("<I4Q", 1, 0, 0, 0, 0),
        "trailing bytes in snapshot", id="v1-empty",
    ),
    # one category whose name, its length at byte 48, claims 4 GiB
    pytest.param(
        b"WCG1" + struct.pack("<I4Q", 1, 1, 0, 0, 0) + bytes(8) + b"\xff" * 4,
        "corrupt snapshot: truncated at byte 52", id="v1-long-name",
    ),
])
def test_big_file_that_is_not_a_snapshot_exits_2_unread(wiki, tmp_path, head, message):
    """A 3 GiB sparse file, past the child's 2 GiB limit, is refused from
    its first bytes without being read."""
    big = tmp_path / "big.bin"
    try:
        with open(big, "wb") as fh:
            fh.write(head)
            fh.truncate(3 << 30)
        proc = _map_under_2_gib(wiki, big, tmp_path)
    finally:
        big.unlink()
    assert proc.returncode == 2, proc.stderr
    assert f"error: {big}: {message}" in proc.stderr


def test_model_too_wide_to_score_exits_2(tmp_path):
    """20 000 empty classes over 200 000 terms: a 4.5 MB centroid file
    whose scoring table would take 32 GB, run by ``predict`` under a 3 GiB
    limit."""
    terms = [[f"t{i:06d}", 1, 1.0] for i in range(200_000)]
    model = tmp_path / "wide.json"
    model.write_text(json.dumps({
        "format": "wikicat/centroid/v1",
        "tfidf": {"n_docs": 1, "min_df": 1, "terms": terms},
        "centroids": {f"c{i:05d}": [] for i in range(20_000)},
    }))
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text('{"id": 1, "text": "t000001"}\n')
    proc = _under_gib(
        3, "predict", "--model", str(model), "--corpus", str(corpus),
        "--out", str(tmp_path / "predictions.jsonl"),
    )
    assert proc.returncode == 2, proc.stderr
    assert (
        f"error: {model}: 20000 classes x 200000 features need a "
        "32000160000-byte scoring table"
    ) in proc.stderr


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_unknown_kind_in_config_exits_2(
    wiki, labels_path, tmp_path, capsys, command
):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "taxonomy": str(wiki / "taxonomy.json"),
        "labels": str(labels_path),
        "corpus": str(wiki / "corpus.jsonl"),
        "eval": str(wiki / "eval.jsonl"),
        "out_dir": str(tmp_path / "models"),
        "models_dir": str(tmp_path / "models"),
        "out": str(tmp_path / "report.json"),
        "kind": "bogus",
    }))
    assert main([command, "--config", str(config)]) == 2
    assert "unknown kind 'bogus'" in capsys.readouterr().err
    assert not (tmp_path / "models" / "coarse.bogus.json").exists()


@pytest.fixture(scope="module")
def centroid_dir(wiki, labels_path, tmp_path_factory):
    """Coarse centroid model of the ablation wiki, used read-only."""
    out_dir = tmp_path_factory.mktemp("centroid")
    assert main([
        "train",
        "--labels", str(labels_path),
        "--corpus", str(wiki / "corpus.jsonl"),
        "--taxonomy", str(wiki / "taxonomy.json"),
        "--kind", "centroid",
        "--out-dir", str(out_dir),
    ]) == 0
    return out_dir


def _byte_ff(data: bytes) -> bytes:
    cut = data.index(b"\n") + 20  # inside the second line
    return data[:cut] + b"\xff" + data[cut:]


def _last_line_cut(data: bytes) -> bytes:
    return data[:-10]


def _json_edit(edit):
    def damage(data: bytes) -> bytes:
        doc = json.loads(data)
        edit(doc)
        return json.dumps(doc).encode()
    return damage


def _labels_line(line: bytes):
    return lambda data: line + b"\n" + data


# Which subcommand reads each file; the rest of the config is shared.
_READER = {
    "config.json": "train",
    "corpus.jsonl": "train",
    "taxonomy.json": "train",
    "labels.jsonl": "train",
    "eval.jsonl": "evaluate",
    "mapping.json": "label",
    "coarse.centroid.json": "evaluate",
}


@pytest.mark.parametrize("bad, damage", [
    pytest.param("config.json", _byte_ff, id="config.json"),
    pytest.param("corpus.jsonl", _byte_ff, id="corpus.jsonl"),
    pytest.param("taxonomy.json", _byte_ff, id="taxonomy.json"),
    *(
        pytest.param(bad, damage, id=f"{bad}-{damage.__name__.strip('_')}")
        for bad in ("labels.jsonl", "eval.jsonl", "mapping.json", "coarse.centroid.json")
        for damage in (_byte_ff, _last_line_cut)
    ),
    pytest.param("labels.jsonl", _labels_line(b"[1]"), id="labels.jsonl-list"),
    pytest.param(
        "labels.jsonl", _labels_line(b'{"page": 1}'), id="labels.jsonl-no-assignments"
    ),
    pytest.param(
        "labels.jsonl",
        _labels_line(b'{"page": 1000, "assignments": [{"w_norm": 1.0}]}'),
        id="labels.jsonl-no-label",
    ),
    pytest.param(
        "mapping.json",
        _json_edit(lambda doc: doc["labels"].update(alpha=[1])),
        id="mapping.json-row-int",
    ),
    pytest.param(
        "mapping.json",
        _json_edit(lambda doc: doc["labels"]["alpha"][0].update(category_id="x")),
        id="mapping.json-id-str",
    ),
    pytest.param(
        "mapping.json",
        _json_edit(lambda doc: doc.update(near_misses=[])),
        id="mapping.json-near-misses-list",
    ),
    pytest.param(
        "taxonomy.json",
        _json_edit(lambda doc: doc["labels"].append(dict(doc["labels"][0]))),
        id="taxonomy.json-duplicate-label",
    ),
])
def test_non_utf8_input_exits_2_naming_the_file(
    wiki, labels_path, centroid_dir, tmp_path, capsys, bad, damage
):
    """An undecodable, cut or wrong-shape input file exits 2 and names the
    file, whichever subcommand reads it."""
    inputs = {
        "taxonomy.json": wiki / "taxonomy.json",
        "corpus.jsonl": wiki / "corpus.jsonl",
        "labels.jsonl": labels_path,
        "eval.jsonl": wiki / "eval.jsonl",
        "mapping.json": wiki / "mapping.json",
        "coarse.centroid.json": centroid_dir / "coarse.centroid.json",
    }
    if bad in inputs:
        data = inputs[bad].read_bytes()
        inputs[bad] = tmp_path / bad
        inputs[bad].write_bytes(damage(data))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "graph": str(wiki / "graph.bin"),
        "taxonomy": str(inputs["taxonomy.json"]),
        "corpus": str(inputs["corpus.jsonl"]),
        "labels": str(inputs["labels.jsonl"]),
        "eval": str(inputs["eval.jsonl"]),
        "mapping": str(inputs["mapping.json"]),
        "models_dir": str(inputs["coarse.centroid.json"].parent),
        "kind": "centroid",
        "out_dir": str(tmp_path / "models"),
        "out": str(tmp_path / "out"),
    }, indent=0))  # one key a line
    if bad == "config.json":
        config.write_bytes(damage(config.read_bytes()))
    assert main([_READER[bad], "--config", str(config)]) == 2
    assert str(tmp_path / bad) in capsys.readouterr().err


@pytest.mark.parametrize("modes", [5, "full", ["full", 3], []])
def test_ablate_modes_must_be_a_list_of_strings(wiki, tmp_path, capsys, modes):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "graph": str(wiki / "graph.bin"),
        "taxonomy": str(wiki / "taxonomy.json"),
        "corpus": str(wiki / "corpus.jsonl"),
        "eval": str(wiki / "eval.jsonl"),
        "out_dir": str(tmp_path / "ablate"),
        "modes": modes,
    }))
    assert main(["ablate", "--config", str(config)]) == 2
    assert "modes: expected a list of strings" in capsys.readouterr().err


@pytest.mark.parametrize("lenient, code", [("no", 2), (1, 2), (True, 0), (False, 0)])
def test_build_graph_lenient_must_be_a_json_bool(
    wiki, tmp_path, capsys, lenient, code
):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "categories": str(wiki / "categories.tsv"),
        "pages": str(wiki / "pages.tsv"),
        "edges": str(wiki / "edges.tsv"),
        "out": str(tmp_path / "graph.bin"),
        "lenient": lenient,
    }))
    assert main(["build-graph", "--config", str(config)]) == code
    if code == 2:
        assert "lenient: expected true or false" in capsys.readouterr().err


# Two faults in one input: the first one the parent commit reported still
# comes first, since taxonomy, labels, corpus, scheme and rows are checked in
# that order, and rows in file order.


def _label_line(page: int, label: str) -> str:
    return json.dumps({"assignments": [{"label": label}], "mode": "full", "page": page})


_GOOD = _label_line(1000, "alpha")
_GHOST = _label_line(1001, "ghost")  # a label outside the scheme
_MISSING = _label_line(999_999, "alpha")  # a page outside the corpus
_BOTH = _label_line(999_999, "ghost")


@pytest.mark.parametrize("command", ["train", "sample"])
@pytest.mark.parametrize("labels, corpus_ok, scheme, first", [
    pytest.param(
        [_GOOD, "{oops"], False, "coarse", "labels.jsonl:2: invalid JSON",
        id="bad-labels-line-and-bad-corpus-line",
    ),
    pytest.param(
        [_GOOD, _GHOST, _MISSING], True, "coarse",
        "label 'ghost' in labels file is not in the chosen scheme",
        id="ghost-label-then-missing-page",
    ),
    pytest.param(
        [_GOOD, _MISSING, _GHOST], True, "coarse", "page 999999 missing from corpus",
        id="missing-page-then-ghost-label",
    ),
    pytest.param(
        [_BOTH], True, "coarse",
        "label 'ghost' in labels file is not in the chosen scheme",
        id="ghost-label-of-a-missing-page",
    ),
    pytest.param(
        [_GOOD], False, "bogus", "corpus.jsonl:3: invalid JSON",
        id="unknown-scheme-and-bad-corpus-line",
    ),
])
def test_two_faults_report_the_first(
    wiki, tmp_path, capsys, command, labels, corpus_ok, scheme, first
):
    labels_path = tmp_path / "labels.jsonl"
    labels_path.write_text("".join(line + "\n" for line in labels), encoding="utf-8")
    corpus = wiki / "corpus.jsonl"
    if not corpus_ok:
        lines = corpus.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[2] = "{oops\n"
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("".join(lines), encoding="utf-8")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "taxonomy": str(wiki / "taxonomy.json"),
        "labels": str(labels_path),
        "corpus": str(corpus),
        "scheme": scheme,
        "out": str(tmp_path / "sampled.jsonl"),
        "out_dir": str(tmp_path / "models"),
    }))
    assert main([command, "--config", str(config)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert first in err[0]
    if first.endswith("invalid JSON"):
        assert err[0].startswith(f"error: {tmp_path / first}")


@pytest.fixture
def no_page_objects(monkeypatch):
    """Building a PageLabels or an Assignment fails."""
    def refuse(self, *args, **kwargs):
        raise AssertionError(f"built a {type(self).__name__}")

    for cls in (PageLabels, Assignment):
        monkeypatch.setattr(cls, "__init__", refuse)
    with pytest.raises(AssertionError, match="built a PageLabels"):
        PageLabels(0, (), "full")


def test_cli_never_builds_per_page_objects(wiki, tmp_path, capsys, no_page_objects):
    common = ["--taxonomy", str(wiki / "taxonomy.json")]
    labels = tmp_path / "labels.jsonl"
    assert main([
        "label", *common, "--graph", str(wiki / "graph.bin"),
        "--mapping", str(wiki / "mapping.json"), "--out", str(labels),
    ]) == 0
    assert _last_json(capsys)["per_label"] == {"alpha": 53, "bravo": 53, "charlie": 53}
    reads = [*common, "--labels", str(labels), "--corpus", str(wiki / "corpus.jsonl")]
    assert main(["sample", *reads, "--out", str(tmp_path / "sampled.jsonl")]) == 0
    assert main([
        "train", *reads, "--n-per-class", "20", "--out-dir", str(tmp_path / "models"),
    ]) == 0
    assert main([
        "ablate", *common, "--graph", str(wiki / "graph.bin"),
        "--corpus", str(wiki / "corpus.jsonl"), "--eval", str(wiki / "eval.jsonl"),
        "--n-per-class", "20", "--out-dir", str(tmp_path / "ablate"),
    ]) == 0
    rows = _last_json(capsys)["rows"]
    assert [row["mode"] for row in rows] == list(MODES)
    assert all(row["labeled_pages"] > 0 for row in rows)


def test_predict_corpus_id_true_exits_2(centroid_dir, tmp_path, capsys):
    """A JSON true is no int id, though Python counts a bool as an int."""
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text('{"id": true, "text": "alpha words"}\n', encoding="utf-8")
    assert main([
        "predict", "--model", str(centroid_dir / "coarse.centroid.json"),
        "--corpus", str(corpus), "--out", str(tmp_path / "preds.jsonl"),
    ]) == 2
    assert f"{corpus}:1: expected an object with int 'id'" in capsys.readouterr().err
    assert not (tmp_path / "preds.jsonl").exists()


def test_train_labels_page_true_exits_2(wiki, tmp_path, capsys):
    labels = tmp_path / "labels.jsonl"
    labels.write_text(f"{_GOOD}\n{_label_line(True, 'alpha')}\n", encoding="utf-8")
    assert main([
        "train", "--labels", str(labels), "--corpus", str(wiki / "corpus.jsonl"),
        "--taxonomy", str(wiki / "taxonomy.json"), "--out-dir", str(tmp_path / "m"),
    ]) == 2
    assert f"{labels}:2: expected an object with int 'page'" in capsys.readouterr().err


@pytest.mark.parametrize("kind", KINDS)
def test_train_warns_once_per_class_with_no_documents(
    wiki, labels_path, tmp_path, capsys, caplog, kind
):
    labels = tmp_path / "labels.jsonl"
    lines = labels_path.read_text(encoding="utf-8").splitlines(keepends=True)
    labels.write_text(
        "".join(line for line in lines if '"charlie"' not in line), encoding="utf-8"
    )
    with caplog.at_level(logging.WARNING):
        assert main([
            "train", "--labels", str(labels), "--corpus", str(wiki / "corpus.jsonl"),
            "--taxonomy", str(wiki / "taxonomy.json"), "--kind", kind,
            "--n-per-class", "20", "--out-dir", str(tmp_path / "models"),
        ]) == 0
    warnings = [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]
    assert warnings == ["classes with no training documents: charlie"]
    assert set(_last_json(capsys)["sets"]["coarse"]["classes"]) == {"alpha", "bravo"}


def test_ablation_json_echoes_the_labeling_settings(wiki, tmp_path, capsys):
    configs = []
    for coverage in ("0.3", "0.5"):
        out_dir = tmp_path / coverage
        assert main([
            "ablate", "--graph", str(wiki / "graph.bin"),
            "--taxonomy", str(wiki / "taxonomy.json"),
            "--mapping", str(wiki / "mapping.json"),
            "--corpus", str(wiki / "corpus.jsonl"), "--eval", str(wiki / "eval.jsonl"),
            "--modes", "full", "--n-per-class", "20",
            "--coverage-threshold", coverage, "--out-dir", str(out_dir),
        ]) == 0
        configs.append(json.loads((out_dir / "ablation.json").read_text())["config"])
    assert {f.name for f in fields(LabelingConfig)} - {"mode"} <= set(configs[0])
    assert configs[0]["coverage_threshold"] == 0.3
    assert {**configs[0], "coverage_threshold": 0.5} == configs[1]


def _fine_taxonomy(path, groups):
    """A two-tier taxonomy file: each parent id of ``groups`` over its
    children, whose ids are label ids of the ablation wiki or new ones."""
    labels = []
    for parent, kids in groups.items():
        labels.append({"id": parent, "name": f"Parent {parent}", "parent": None})
        labels += [{"id": kid, "name": kid.title(), "parent": parent} for kid in kids]
    path.write_text(json.dumps({"labels": labels}), encoding="utf-8")
    return path


def test_train_refuses_a_set_without_pages_before_writing_any_model(
    wiki, labels_path, tmp_path, capsys
):
    """Set "b", the last by name, has no labeled page."""
    taxonomy = _fine_taxonomy(
        tmp_path / "taxonomy.json", {"a": ["alpha", "bravo", "charlie"], "b": ["delta"]}
    )
    out_dir = tmp_path / "models"
    assert main([
        "train", "--labels", str(labels_path), "--corpus", str(wiki / "corpus.jsonl"),
        "--taxonomy", str(taxonomy), "--scheme", "fine", "--kind", "centroid",
        "--out-dir", str(out_dir),
    ]) == 2
    err = capsys.readouterr().err
    assert f"{labels_path}: no labeled documents for set 'b'" in err
    assert not out_dir.exists() or not any(out_dir.iterdir())


def test_sample_warns_once_per_set_with_classes_without_rows(
    wiki, labels_path, tmp_path, caplog
):
    """The sets come in name order, though the taxonomy lists "b" first."""
    taxonomy = _fine_taxonomy(
        tmp_path / "taxonomy.json",
        {"b": ["charlie", "yankee", "zulu"], "a": ["alpha", "bravo", "xray"]},
    )
    sampled = tmp_path / "sampled.jsonl"
    with caplog.at_level(logging.WARNING):
        assert main([
            "sample", "--labels", str(labels_path),
            "--corpus", str(wiki / "corpus.jsonl"), "--taxonomy", str(taxonomy),
            "--scheme", "fine", "--n-per-class", "5", "--out", str(sampled),
        ]) == 0
    warnings = [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]
    assert warnings == [
        "classes with no training documents: xray",
        "classes with no training documents: yankee, zulu",
    ]
    rows = [json.loads(line) for line in sampled.read_text().splitlines()]
    assert [row["set"] for row in rows] == ["a"] * 10 + ["b"] * 5


@pytest.mark.parametrize("name", ["../escape", "..", ".", "", "sub/dir"])
def test_train_refuses_a_set_name_that_is_no_file_name(
    wiki, labels_path, tmp_path, capsys, name
):
    taxonomy = _fine_taxonomy(
        tmp_path / "taxonomy.json", {name: ["alpha", "bravo", "charlie"]}
    )
    work = tmp_path / "work"
    assert main([
        "train", "--labels", str(labels_path), "--corpus", str(wiki / "corpus.jsonl"),
        "--taxonomy", str(taxonomy), "--scheme", "fine", "--kind", "centroid",
        "--out-dir", str(work / "out" / "models"),
    ]) == 2
    err = capsys.readouterr().err
    assert f"{taxonomy}: label {name!r} names a competition set" in err
    assert not [p for p in work.rglob("*") if p.is_file()]


def test_evaluate_refuses_an_eval_parent_that_is_no_file_name(
    wiki, centroid_dir, tmp_path, capsys
):
    models = tmp_path / "models"
    models.mkdir()
    model = (centroid_dir / "coarse.centroid.json").read_bytes()
    (models / "coarse.centroid.json").write_bytes(model)
    (tmp_path / "escape.centroid.json").write_bytes(model)  # beside --models-dir
    lines = (wiki / "eval.jsonl").read_text(encoding="utf-8").splitlines()
    row = json.loads(lines[0])
    eval_path = tmp_path / "eval.jsonl"
    eval_path.write_text(
        json.dumps({**row, "parent": "../escape"}) + "\n" + "\n".join(lines[1:]) + "\n",
        encoding="utf-8",
    )
    assert main([
        "evaluate", "--eval", str(eval_path), "--models-dir", str(models),
        "--taxonomy", str(wiki / "taxonomy.json"), "--kind", "centroid",
        "--out", str(tmp_path / "report.json"),
    ]) == 2
    err = capsys.readouterr().err
    assert f"{eval_path}: parent '../escape' names a competition set" in err


@pytest.mark.parametrize("command", ["train", "sample"])
@pytest.mark.parametrize("line, file, message", [
    pytest.param(
        _GHOST, "labels", "label 'ghost' in labels file is not in the chosen scheme",
        id="ghost-label",
    ),
    pytest.param(
        _MISSING, "corpus", "page 999999 missing from corpus", id="missing-page"
    ),
])
def test_training_row_faults_name_their_file(
    wiki, tmp_path, capsys, command, line, file, message
):
    labels = tmp_path / "labels.jsonl"
    labels.write_text(f"{_GOOD}\n{line}\n", encoding="utf-8")
    paths = {"labels": labels, "corpus": wiki / "corpus.jsonl"}
    out = {"train": ["--out-dir", str(tmp_path / "m")],
           "sample": ["--out", str(tmp_path / "sampled.jsonl")]}[command]
    assert main([
        command, "--labels", str(labels), "--corpus", str(paths["corpus"]),
        "--taxonomy", str(wiki / "taxonomy.json"), *out,
    ]) == 2
    assert f"{paths[file]}: {message}" in capsys.readouterr().err


def test_label_fine_scheme_on_flat_taxonomy_names_the_taxonomy(wiki, tmp_path, capsys):
    taxonomy = wiki / "taxonomy.json"
    assert main([
        "label", "--graph", str(wiki / "graph.bin"), "--taxonomy", str(taxonomy),
        "--mapping", str(wiki / "mapping.json"), "--scheme", "fine",
        "--out", str(tmp_path / "labels.jsonl"),
    ]) == 2
    assert f"{taxonomy}: scheme 'fine'" in capsys.readouterr().err


@pytest.mark.parametrize("edit, message", [
    pytest.param(
        lambda labels: {**labels, "charlie": []},
        "label 'charlie' is not mapped to any category", id="unmapped-label",
    ),
    pytest.param(
        lambda labels: {**labels, "bravo": labels["alpha"] + labels["bravo"]},
        "category 1 is mapped for both 'alpha' and 'bravo'", id="shared-category",
    ),
])
def test_label_mapping_faults_name_the_mapping(wiki, tmp_path, capsys, edit, message):
    doc = json.loads((wiki / "mapping.json").read_text(encoding="utf-8"))
    mapping = tmp_path / "mapping.json"
    mapping.write_text(json.dumps({**doc, "labels": edit(doc["labels"])}))
    assert main([
        "label", "--graph", str(wiki / "graph.bin"),
        "--taxonomy", str(wiki / "taxonomy.json"), "--mapping", str(mapping),
        "--out", str(tmp_path / "labels.jsonl"),
    ]) == 2
    assert f"{mapping}: {message}" in capsys.readouterr().err
    assert not (tmp_path / "labels.jsonl").exists()


def test_predict_model_without_classes_names_the_model(
    wiki, centroid_dir, tmp_path, capsys
):
    doc = json.loads((centroid_dir / "coarse.centroid.json").read_text())
    model = tmp_path / "model.json"
    model.write_text(json.dumps({**doc, "centroids": {}}))
    assert main([
        "predict", "--model", str(model), "--corpus", str(wiki / "corpus.jsonl"),
        "--out", str(tmp_path / "preds.jsonl"),
    ]) == 2
    assert f"{model}: model has no classes" in capsys.readouterr().err
