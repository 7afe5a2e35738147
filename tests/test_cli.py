import json
import subprocess
import sys

import pytest

from wikicat.classifiers import save_model, train_centroid
from wikicat.cli import main
from wikicat.graph_store import load_snapshot
from wikicat.synth import make_ablation_wiki
from wikicat.textproc import fit_tfidf, transform

from conftest import write_graph_files


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
    [("exact_path_cap", None), ("max_depth", "x"), ("coverage_threshold", [1])],
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
    for text in ("{broken", '["a list"]'):
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
        ("sample", "seed", "x"),
        ("sample", "n_per_class", "x"),
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


@pytest.mark.parametrize("damage", [_truncated, _index_flipped])
def test_damaged_snapshot_exits_2_naming_it(wiki, tmp_path, damage):
    graph = load_snapshot(wiki / "graph.bin")
    assert not graph.aliases
    bad = tmp_path / "damaged.bin"
    bad.write_bytes(damage((wiki / "graph.bin").read_bytes(), len(graph.indices)))
    # Under a 2 GiB address-space limit a multi-GiB allocation fails with
    # exit 3 instead of being attempted on the machine.
    limit = (
        "import resource, sys; "
        "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)); "
        "from wikicat.cli import main; sys.exit(main(sys.argv[1:]))"
    )
    proc = subprocess.run(
        [
            sys.executable, "-c", limit,
            "map",
            "--graph", str(bad),
            "--taxonomy", str(wiki / "taxonomy.json"),
            "--out", str(tmp_path / "mapping.json"),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2, proc.stderr
    assert f"error: {bad}: corrupt snapshot" in proc.stderr


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


@pytest.mark.parametrize("bad", ["config.json", "corpus.jsonl", "taxonomy.json"])
def test_non_utf8_input_exits_2_naming_the_file(
    wiki, labels_path, tmp_path, capsys, bad
):
    inputs = {
        "taxonomy.json": wiki / "taxonomy.json",
        "corpus.jsonl": wiki / "corpus.jsonl",
    }
    if bad in inputs:
        data = inputs[bad].read_bytes()
        cut = data.index(b"\n") + 20  # inside the second line's text
        inputs[bad] = tmp_path / bad
        inputs[bad].write_bytes(data[:cut] + b"\xff" + data[cut:])
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "taxonomy": str(inputs["taxonomy.json"]),
        "corpus": str(inputs["corpus.jsonl"]),
        "labels": str(labels_path),
        "out_dir": str(tmp_path / "models"),
    }))
    if bad == "config.json":
        config.write_bytes(config.read_bytes().replace(b"models", b"m\xffdels"))
    assert main(["train", "--config", str(config)]) == 2
    assert str(tmp_path / bad) in capsys.readouterr().err


@pytest.mark.parametrize("modes", [5, "full", ["full", 3]])
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
