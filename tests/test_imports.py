"""What each step imports: only the layer modules it runs.

Every check runs in a fresh interpreter, since a module that one test
imports stays loaded for the rest of the session.
"""

from __future__ import annotations

import json
import subprocess
import sys

import wikicat.cli
from wikicat.synth import make_ablation_wiki

# Loaded by every command: the CLI itself, its errors and its JSON files.
_BASE = {"cli", "exceptions", "jsonio"}
# What a command does not run, it does not load: graph_store reads the
# graph, taxonomy the taxonomy, taxonomy_mapper maps it and reads mappings,
# labeler the labels (classifiers loads textproc, which its models hold).
_LOADED = {
    "build-graph": {"graph_store"},
    "map": {"graph_store", "taxonomy", "taxonomy_mapper"},
    "label": {"graph_store", "taxonomy", "taxonomy_mapper", "labeler"},
    "sample": {"taxonomy", "labeler", "classifiers", "textproc"},
    "train": {"taxonomy", "labeler", "classifiers", "textproc"},
    "predict": {"classifiers", "textproc"},
    "evaluate": {"taxonomy", "evaluation", "classifiers", "textproc"},
    "ablate": {
        "graph_store", "taxonomy", "taxonomy_mapper", "labeler", "classifiers",
        "textproc", "evaluation",
    },
}


def _child(code: str, *args: str) -> str:
    """The last line that ``code`` prints in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


def _modules(code: str, *args: str) -> set[str]:
    """The ``wikicat`` modules loaded after ``code`` runs, without the
    package's own prefix."""
    listed = "; import json; print(json.dumps(sorted(sys.modules)))"
    loaded = json.loads(_child(f"import sys; {code}{listed}", *args))
    return {name.split(".", 1)[1] for name in loaded if name.startswith("wikicat.")}


def test_each_command_loads_only_the_layers_it_runs(tmp_path):
    make_ablation_wiki(tmp_path, seed=0)
    d = {
        name: str(tmp_path / name)
        for name in (
            "categories.tsv", "pages.tsv", "edges.tsv", "taxonomy.json",
            "corpus.jsonl", "eval.jsonl", "graph.bin", "mapping.json",
            "labels.jsonl", "models",
        )
    }
    argv = {
        "build-graph": [
            "--categories", d["categories.tsv"], "--pages", d["pages.tsv"],
            "--edges", d["edges.tsv"], "--out", d["graph.bin"],
        ],
        "map": [
            "--graph", d["graph.bin"], "--taxonomy", d["taxonomy.json"],
            "--out", d["mapping.json"],
        ],
        "label": [
            "--graph", d["graph.bin"], "--taxonomy", d["taxonomy.json"],
            "--mapping", d["mapping.json"], "--out", d["labels.jsonl"],
        ],
        "sample": [
            "--labels", d["labels.jsonl"], "--corpus", d["corpus.jsonl"],
            "--taxonomy", d["taxonomy.json"], "--n-per-class", "5",
            "--out", str(tmp_path / "sample.jsonl"),
        ],
        "train": [
            "--labels", d["labels.jsonl"], "--corpus", d["corpus.jsonl"],
            "--taxonomy", d["taxonomy.json"], "--n-per-class", "20",
            "--out-dir", d["models"],
        ],
        "predict": [
            "--model", str(tmp_path / "models" / "coarse.svm.json"),
            "--corpus", d["corpus.jsonl"], "--out", str(tmp_path / "pred.jsonl"),
        ],
        "evaluate": [
            "--eval", d["eval.jsonl"], "--models-dir", d["models"],
            "--taxonomy", d["taxonomy.json"], "--out", str(tmp_path / "report.json"),
        ],
        "ablate": [
            "--graph", d["graph.bin"], "--taxonomy", d["taxonomy.json"],
            "--corpus", d["corpus.jsonl"], "--eval", d["eval.jsonl"],
            "--modes", "full", "--n-per-class", "20",
            "--out-dir", str(tmp_path / "ablate"),
        ],
    }
    assert list(argv) == list(wikicat.cli.COMMANDS) == list(_LOADED)
    run = "from wikicat.cli import main; assert main(sys.argv[1:]) == 0"
    loaded = {
        command: _modules(run, command, *args) - _BASE for command, args in argv.items()
    }
    assert loaded == _LOADED


def test_import_wikicat_loads_no_layer():
    assert _modules("import wikicat") == set()
    assert _modules("import wikicat.cli") == _BASE


def test_every_export_resolves_in_a_fresh_interpreter():
    names = [name for name in wikicat.__all__ if name != "__version__"]
    imports = "".join(f"from wikicat import {name}; " for name in names)
    assert _child(f"{imports}import wikicat; print(wikicat.__version__)") == "0.1.0"
    assert _child("import wikicat; print(wikicat.label_corpus.__module__)") == (
        "wikicat.labeler"
    )
    assert _child(
        "import wikicat; print(hasattr(wikicat, 'no_such_name'))"
    ) == "False"


def test_cli_serves_every_layer_name_before_main():
    """A caller may read ``cli``'s layer names before any command binds them,
    as the benchmark's tracer does before it wraps them.  They are the names
    the package exports from its layers; ``cli`` keeps no list of its own."""
    layers = {
        module: names for module, names in wikicat._EXPORTS.items()
        if module != "exceptions"
    }
    code = (
        "import json, sys, wikicat.cli as cli; "
        "layers = json.loads(sys.argv[1]); "
        "names = {m: [getattr(cli, n).__module__ for n in ns] "
        "for m, ns in layers.items()}; "
        "print(json.dumps([names, hasattr(cli, 'no_such_name')]))"
    )
    names, unknown = json.loads(_child(code, json.dumps(layers)))
    assert names == {
        module: [f"wikicat.{module}"] * len(layer) for module, layer in layers.items()
    }
    assert unknown is False
    assert not hasattr(wikicat.cli, "_LAYERS")
