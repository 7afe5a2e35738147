"""The settings table of the CLI: flags built from it, and config values
checked against each setting's JSON type."""

import argparse
import inspect
import json
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from wikicat.classifiers import TrainConfig
from wikicat.cli import SETTINGS, build_parser, main
from wikicat.labeler import LabelingConfig, label_corpus
from wikicat.synth import make_ablation_wiki
from wikicat.taxonomy_mapper import map_taxonomy
from wikicat.textproc import fit_tfidf


@pytest.fixture(scope="module")
def shared(tmp_path_factory):
    """One config for every subcommand, with valid values of the ablation
    wiki; each subcommand ignores the keys it does not take."""
    d = tmp_path_factory.mktemp("wiki")
    make_ablation_wiki(d, seed=0)
    tsv = {name: str(d / f"{name}.tsv") for name in ("categories", "pages", "edges")}
    paths = {
        **tsv,
        "graph": str(d / "graph.bin"),
        "taxonomy": str(d / "taxonomy.json"),
        "mapping": str(d / "mapping.json"),
        "labels": str(d / "labels.jsonl"),
        "corpus": str(d / "corpus.jsonl"),
        "eval": str(d / "eval.jsonl"),
        "models_dir": str(d / "models"),
        "model": str(d / "models" / "coarse.svm.json"),
    }
    flags = [f"--{key}={paths[key]}" for key in tsv]
    assert main(["build-graph", *flags, f"--out={paths['graph']}"]) == 0
    common = [f"--graph={paths['graph']}", f"--taxonomy={paths['taxonomy']}"]
    assert main(["map", *common, f"--out={paths['mapping']}"]) == 0
    assert main([
        "label", *common, f"--mapping={paths['mapping']}", f"--out={paths['labels']}",
    ]) == 0
    assert main([
        "train", f"--taxonomy={paths['taxonomy']}", f"--labels={paths['labels']}",
        f"--corpus={paths['corpus']}", "--n-per-class=20",
        f"--out-dir={paths['models_dir']}",
    ]) == 0
    out = tmp_path_factory.mktemp("out")
    return {**paths, "out": str(out / "out"), "out_dir": str(out / "out_dir")}


def _subparsers() -> dict[str, argparse.ArgumentParser]:
    parser = build_parser()
    action = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    return action.choices


def _run(tmp_path, capsys, command: str, config: dict) -> tuple[int, str, str]:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code = main([command, "--config", str(path)])
    out, err = capsys.readouterr()
    return code, out, err


# The option strings of each subcommand, which the settings table must keep.
_OPTIONS = {
    "build-graph": [
        "--categories", "--config", "--edges", "--help", "--lenient", "--out",
        "--pages", "--redirects", "--stats-out", "-h",
    ],
    "map": [
        "--config", "--graph", "--help", "--out", "--overrides", "--summary-out",
        "--taxonomy", "--threshold", "-h",
    ],
    "label": [
        "--assignment-threshold", "--config", "--coverage-threshold",
        "--exact-path-cap", "--graph", "--help", "--mapping", "--max-depth",
        "--mode", "--out", "--path-mode", "--scheme", "--summary-out",
        "--taxonomy", "--workers", "-h",
    ],
    "sample": [
        "--config", "--corpus", "--help", "--labels", "--n-per-class", "--out",
        "--scheme", "--seed", "--summary-out", "--taxonomy", "-h",
    ],
    "train": [
        "--config", "--corpus", "--epochs", "--eta0", "--help", "--kind",
        "--labels", "--lam", "--min-df", "--n-per-class", "--out-dir", "--scheme",
        "--seed", "--taxonomy", "-h",
    ],
    "predict": ["--config", "--corpus", "--help", "--model", "--out", "-h"],
    "evaluate": [
        "--config", "--eval", "--help", "--kind", "--models-dir", "--out",
        "--taxonomy", "-h",
    ],
    "ablate": [
        "--assignment-threshold", "--config", "--corpus", "--coverage-threshold",
        "--eval", "--exact-path-cap", "--graph", "--help", "--mapping",
        "--max-depth", "--min-df", "--modes", "--n-per-class", "--out-dir",
        "--path-mode", "--scheme", "--seed", "--taxonomy", "--workers", "-h",
    ],
}


def test_each_subcommand_keeps_its_option_strings():
    got = {
        name: sorted(s for a in p._actions for s in a.option_strings)
        for name, p in _subparsers().items()
    }
    assert got == _OPTIONS


def test_every_flag_is_a_setting_of_its_subcommand():
    for name, p in _subparsers().items():
        settings = p.get_default("settings")
        dests = {a.dest for a in p._actions} - {"help", "config"}
        assert dests == set(settings), name
        assert all(s.key == key for key, s in settings.items())


# Config values of the wrong JSON type, by setting type; null is added where
# the default is not null.
_WRONG = {
    "str": [7, True, 1.5, ["x"], {"x": "y"}],
    "int": ["3", True, 2.7, 3.0, [3]],
    "float": ["0.5", True, [0.5], {"x": 0.5}],
    "bool": ["true", 1, 0.0, [True]],
    "choice": [7, True, ["coarse"], "bogus"],
    "choices": ["full", 5, [3], [True], ["full", "bogus"]],
}
_PAIRS = [
    pytest.param(name, setting, id=f"{name}-{setting.key}")
    for name, p in _subparsers().items()
    for setting in p.get_default("settings").values()
]


@pytest.mark.parametrize("command, setting", _PAIRS)
def test_wrong_json_type_in_config_exits_2_naming_the_key(
    shared, tmp_path, capsys, command, setting
):
    wrong = _WRONG[setting.type] + ([None] if setting.default is not None else [])
    for value in wrong:
        code, out, err = _run(tmp_path, capsys, command, {**shared, setting.key: value})
        assert code == 2, (value, err)
        assert out == ""
        assert re.match(rf"error: ({setting.key}: |unknown {setting.key} )", err), (
            value, err,
        )


def test_every_subcommand_has_settings_in_the_pair_test():
    assert {param.values[0] for param in _PAIRS} == set(_OPTIONS)
    assert len(_PAIRS) == sum(len(opts) - 3 for opts in _OPTIONS.values())


def _subprocess_run(tmp_path, command: str, config: dict):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return subprocess.run(
        [sys.executable, "-m", "wikicat.cli", command, "--config", str(path)],
        capture_output=True,
    )


def test_build_graph_out_true_writes_nothing_to_stdout(shared, tmp_path):
    # open(True) would write the snapshot to file descriptor 1, stdout.
    proc = _subprocess_run(tmp_path, "build-graph", {**shared, "out": True})
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert b"error: out: expected a string, got True" in proc.stderr


def test_build_graph_stats_out_7_exits_2(shared, tmp_path):
    out = tmp_path / "graph.bin"
    config = {**shared, "out": str(out), "stats_out": 7}
    proc = _subprocess_run(tmp_path, "build-graph", config)
    assert proc.returncode == 2
    assert b"error: stats_out: expected a string, got 7" in proc.stderr
    assert not out.exists()


def test_label_graph_list_exits_2_not_3(shared, tmp_path, capsys):
    config = {**shared, "graph": [shared["graph"]]}
    code, _, err = _run(tmp_path, capsys, "label", config)
    assert code == 2
    assert "Traceback" not in err
    assert "graph: expected a string" in err


def test_label_max_depth_2_7_exits_2(shared, tmp_path, capsys):
    code, _, err = _run(tmp_path, capsys, "label", {**shared, "max_depth": 2.7})
    assert code == 2
    assert "max_depth: expected an int, got 2.7" in err


def test_map_threshold_true_exits_2(shared, tmp_path, capsys):
    out = tmp_path / "mapping.json"
    config = {**shared, "threshold": True, "out": str(out)}
    code, _, err = _run(tmp_path, capsys, "map", config)
    assert code == 2
    assert "threshold: expected a number, got True" in err
    assert not out.exists()


def test_float_setting_beyond_float_range_exits_2(shared, tmp_path, capsys):
    code, _, err = _run(tmp_path, capsys, "map", {**shared, "threshold": 10**400})
    assert code == 2
    assert "threshold: number beyond float range" in err


def test_float_setting_takes_an_int_and_writes_a_float(shared, tmp_path, capsys):
    summary = tmp_path / "summary.json"
    config = {
        **shared, "threshold": 1, "out": str(tmp_path / "m.json"),
        "summary_out": str(summary),
    }
    code, out, _ = _run(tmp_path, capsys, "map", config)
    assert code == 0
    assert '"threshold": 1.0' in out
    assert '"threshold": 1.0' in summary.read_text()


def test_null_is_taken_where_the_default_is_null(shared, tmp_path, capsys):
    config = {
        **shared, "out": str(tmp_path / "labels.jsonl"), "max_depth": None,
        "summary_out": None,
    }
    code, out, _ = _run(tmp_path, capsys, "label", config)
    assert code == 0
    assert json.loads(out)["config"]["max_depth"] is None


def test_flag_wins_over_a_wrong_config_value(shared, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**shared, "out": str(tmp_path / "preds.jsonl"),
                                  "model": 5}))
    assert main(["predict", "--config", str(config), "--model", shared["model"]]) == 0


def test_keys_a_subcommand_does_not_take_are_ignored(shared, tmp_path, capsys):
    config = {
        **shared, "out": str(tmp_path / "preds.jsonl"),
        "threshold": "x", "lenient": "no", "mode": "bogus", "no_such_key": [1],
    }
    code, _, _ = _run(tmp_path, capsys, "predict", config)
    assert code == 0


def _mapping_edit(edit):
    def apply(doc):
        label = sorted(doc["labels"])[0]
        edit(doc, doc["labels"][label][0])
    return apply


def _near_miss(part):
    def edit(doc, row):
        doc["near_misses"] = {
            "alpha": [{"part": part, "category_id": row["category_id"], "score": 0.5}]
        }
    return edit


@pytest.mark.parametrize("edit, message", [
    pytest.param(lambda d, r: r.update(category_id=str(r["category_id"])),
                 "category_id '[0-9]+' is not an int", id="str-category-id"),
    pytest.param(lambda d, r: r.update(category_id=True),
                 "category_id True is not an int", id="bool-category-id"),
    pytest.param(lambda d, r: r.update(category_id=float(r["category_id"])),
                 r"category_id [0-9]+\.0 is not an int", id="float-category-id"),
    pytest.param(lambda d, r: r.update(score=True),
                 "score True is not a number", id="bool-score"),
    pytest.param(lambda d, r: r.update(score="1.0"),
                 "score '1.0' is not a number", id="str-score"),
    pytest.param(lambda d, r: r.update(score=10**400),
                 "int too large to convert to float", id="huge-score"),
    pytest.param(lambda d, r: r.update(kind=7),
                 "kind 7 is not one of exact, fuzzy, override", id="int-kind"),
    pytest.param(lambda d, r: r.update(kind="bogus"),
                 "kind 'bogus' is not one of", id="unknown-kind"),
    pytest.param(_near_miss(5), "part 5 is not a string", id="int-part"),
    pytest.param(lambda d, r: d.update(unmapped="ab"),
                 "unmapped 'ab' is not a list", id="str-unmapped"),
    pytest.param(lambda d, r: d.update(unmapped=[5]),
                 "unmapped label 5 is not a string", id="int-unmapped"),
    pytest.param(lambda d, r: d.update(threshold=True),
                 "threshold True is not a number", id="bool-threshold"),
    pytest.param(lambda d, r: d.update(threshold="0.9"),
                 "threshold '0.9' is not a number", id="str-threshold"),
])
def test_mapping_value_of_the_wrong_json_type_exits_2(
    shared, tmp_path, capsys, edit, message
):
    doc = json.loads(Path(shared["mapping"]).read_text(encoding="utf-8"))
    _mapping_edit(edit)(doc)
    mapping = tmp_path / "mapping.json"
    mapping.write_text(json.dumps(doc))
    config = {**shared, "mapping": str(mapping), "out": str(tmp_path / "l.jsonl")}
    code, _, err = _run(tmp_path, capsys, "label", config)
    assert code == 2
    assert re.search(f"error: {mapping}: malformed mapping file: {message}", err), err


def test_mapping_with_int_scores_labels_as_with_floats(shared, tmp_path, capsys):
    doc = json.loads(Path(shared["mapping"]).read_text(encoding="utf-8"))
    for rows in doc["labels"].values():
        for row in rows:
            if row["score"] == 1.0:
                row["score"] = 1
    mapping = tmp_path / "mapping.json"
    mapping.write_text(json.dumps(doc))
    runs = []
    for path in (shared["mapping"], str(mapping)):
        out = tmp_path / "labels.jsonl"
        config = {**shared, "mapping": path, "out": str(out)}
        assert _run(tmp_path, capsys, "label", config)[0] == 0
        runs.append(out.read_bytes())
    assert runs[0] == runs[1]


def test_cli_defaults_equal_the_library_defaults():
    """The defaults that SETTINGS restates from the library stay equal to it."""
    library = {f.name: f.default for f in fields(LabelingConfig) + fields(TrainConfig)}
    for func, key in (
        (map_taxonomy, "threshold"), (fit_tfidf, "min_df"), (label_corpus, "workers"),
    ):
        library[key] = inspect.signature(func).parameters[key].default
    assert len(library) == 13
    assert {key: SETTINGS[key].default for key in library} == library
