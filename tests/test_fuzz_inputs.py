"""A seeded structural fuzz of the JSON inputs of the subcommands.

Each case replaces one value of one input (``taxonomy.json``,
``mapping.json``, a model file, or the first line of ``labels.jsonl``,
``corpus.jsonl`` or ``eval.jsonl``) with one of a fixed set of JSON values,
then runs, in process, every subcommand among map, label, train, sample,
predict and evaluate that reads the file.  A run must exit 0 or 2, never 3,
and every exit-2 message must name a path given on the command line.

``cases`` lists every case of an input; the test runs a fixed, seeded
sample of them per input, which keeps it to a few seconds.
"""

from __future__ import annotations

import copy
import json
import random
from pathlib import Path
from typing import Any, Iterator

import pytest

from wikicat.cli import main
from wikicat.synth import make_ablation_wiki

# The substitutions: every JSON type, ints beyond int64, a label id of the
# wiki and a string that is not a file name.
VALUES = (None, True, 0, 1, -1, 2**64, 0.5, "", "alpha", "../x", [], {})

# Each fuzzed input: its file under the wiki, whether only its first line is
# fuzzed, and the subcommands that read it.
INPUTS = {
    "taxonomy": (
        "taxonomy.json", False, ("map", "label", "train", "sample", "evaluate")
    ),
    "mapping": ("mapping.json", False, ("label",)),
    "model": ("models/coarse.centroid.json", False, ("predict", "evaluate")),
    "labels": ("labels.jsonl", True, ("train", "sample")),
    "corpus": ("corpus.jsonl", True, ("train", "sample", "predict")),
    "eval": ("eval.jsonl", True, ("evaluate",)),
}

# Each subcommand's flags: an input's name stands for its path, an "out"
# name for a path in the case's own directory.
COMMANDS = {
    "map": ("--graph", "graph", "--taxonomy", "taxonomy", "--out", "out/mapping.json"),
    "label": (
        "--graph", "graph", "--taxonomy", "taxonomy", "--mapping", "mapping",
        "--out", "out/labels.jsonl",
    ),
    "train": (
        "--labels", "labels", "--corpus", "corpus", "--taxonomy", "taxonomy",
        "--kind", "centroid", "--out-dir", "out/models",
    ),
    "sample": (
        "--labels", "labels", "--corpus", "corpus", "--taxonomy", "taxonomy",
        "--n-per-class", "5", "--out", "out/sample.jsonl",
    ),
    "predict": ("--model", "model", "--corpus", "corpus", "--out", "out/preds.jsonl"),
    "evaluate": (
        "--eval", "eval", "--models-dir", "models", "--taxonomy", "taxonomy",
        "--kind", "centroid", "--out", "out/report.json",
    ),
}

SAMPLE_PER_INPUT = 40
SEED = 0


def positions(doc: Any, path: tuple = ()) -> Iterator[tuple]:
    """The path to a JSON document and to the values in it, the document
    first.  Of a list only the first two items and the last are visited:
    the others are of the same kinds."""
    yield path
    if isinstance(doc, dict):
        items = list(doc.items())
    elif isinstance(doc, list):
        keep = {0, 1, len(doc) - 1} & set(range(len(doc)))
        items = [(i, doc[i]) for i in sorted(keep)]
    else:
        items = []
    for key, value in items:
        yield from positions(value, (*path, key))


def replaced(doc: Any, path: tuple, value: Any) -> Any:
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def build_wiki(d: Path) -> dict[str, Path]:
    """The ablation wiki (seed 0) with its graph, mapping, labels and a
    coarse centroid model: every path a subcommand above takes."""
    make_ablation_wiki(d, seed=0)
    paths = {
        "graph": d / "graph.bin", "models": d / "models",
        **{name: d / file for name, (file, _, _) in INPUTS.items()},
    }
    for argv in (
        ["build-graph", "--categories", d / "categories.tsv", "--pages",
         d / "pages.tsv", "--edges", d / "edges.tsv", "--out", paths["graph"]],
        ["map", "--graph", paths["graph"], "--taxonomy", paths["taxonomy"],
         "--out", paths["mapping"]],
        ["label", "--graph", paths["graph"], "--taxonomy", paths["taxonomy"],
         "--mapping", paths["mapping"], "--out", paths["labels"]],
        ["train", "--labels", paths["labels"], "--corpus", paths["corpus"],
         "--taxonomy", paths["taxonomy"], "--kind", "centroid",
         "--out-dir", paths["models"]],
    ):
        assert main([str(arg) for arg in argv]) == 0
    return paths


def cases(paths: dict[str, Path], name: str) -> list[tuple[tuple, Any]]:
    """Every (path in the document, value) substitution of the input ``name``."""
    text = paths[name].read_text(encoding="utf-8")
    doc = json.loads(text.splitlines()[0] if INPUTS[name][1] else text)
    return [(path, value) for path in positions(doc) for value in VALUES]


def run_case(
    paths: dict[str, Path], work: Path, name: str, path: tuple, value: Any, capsys
) -> list[tuple[list[str], int, str]]:
    """Write the input ``name`` with ``path`` replaced by ``value`` into
    ``work``, run every subcommand that reads it, and return each one's
    (command, exit code, stderr)."""
    file, first_line, commands = INPUTS[name]
    text = paths[name].read_text(encoding="utf-8")
    if first_line:
        head, rest = text.split("\n", 1)
        new = json.dumps(replaced(json.loads(head), path, value)) + "\n" + rest
    else:
        new = json.dumps(replaced(json.loads(text), path, value))
    models = work / "models"
    models.mkdir(parents=True, exist_ok=True)
    (work / "out").mkdir(exist_ok=True)
    fuzzed = {**paths, "models": models, "model": models / "coarse.centroid.json"}
    fuzzed["model"].write_bytes(paths["model"].read_bytes())
    if name != "model":
        fuzzed[name] = work / Path(file).name
    fuzzed[name].write_text(new, encoding="utf-8")
    results = []
    for command in commands:
        argv = [command] + [
            str(fuzzed[arg]) if arg in fuzzed
            else str(work / arg) if arg.startswith("out/") else arg
            for arg in COMMANDS[command]
        ]
        capsys.readouterr()
        code = main(argv)
        results.append((argv, code, capsys.readouterr().err))
    return results


def faults(results: list[tuple[list[str], int, str]]) -> list[str]:
    """The runs that exited other than 0 or 2, or exited 2 without naming a
    path of their command line."""
    bad = []
    for argv, code, err in results:
        named = any(arg in err for arg in argv if Path(arg).is_absolute())
        if code not in (0, 2) or (code == 2 and not named):
            bad.append(f"{' '.join(argv)}: exit {code}: {err.strip()}")
    return bad


@pytest.fixture(scope="module")
def wiki_inputs(tmp_path_factory):
    return build_wiki(tmp_path_factory.mktemp("fuzz_wiki"))


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_fuzzed_input_exits_0_or_2_naming_a_file(wiki_inputs, tmp_path, capsys, name):
    every = cases(wiki_inputs, name)
    sample = random.Random(f"{SEED}:{name}").sample(
        every, min(SAMPLE_PER_INPUT, len(every))
    )
    bad = []
    for path, value in sample:
        bad += faults(run_case(wiki_inputs, tmp_path, name, path, value, capsys))
    assert not bad, "\n".join(bad)
