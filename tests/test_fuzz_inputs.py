"""A seeded structural fuzz of the JSON inputs of the subcommands.

Each case replaces one value of one input (``taxonomy.json``,
``mapping.json``, a model file, the first or last line of ``labels.jsonl``
or ``corpus.jsonl``, or the first line of ``eval.jsonl``) with one of a
fixed set of JSON values, then runs, in process, every subcommand among
map, label, train (centroid, and svm with a sample that skips most pages),
sample, predict and evaluate that reads the file.  A run must exit 0 or 2,
never 3, and every exit-2 message must name a path given on the command
line.

``cases`` lists every case of an input; the test runs a fixed, seeded
sample of them per input, which keeps it to a few seconds.

The four TSV inputs of ``build-graph`` (categories, pages, edges and
redirects) are fuzzed at the byte level instead: a case flips a bit,
inserts a byte, deletes bytes or truncates the file, at a seeded place.
``build-graph`` runs in process, strict and lenient, and must exit 0, or
exit 2 naming a TSV as ``file:line`` or ``file: not UTF-8``.

The JSON inputs above, all but the model file, take the same byte-level
mutations.  Each goes through every run that reads it, and the taxonomy,
mapping, corpus and eval files through ``ablate`` (two modes, two
documents per class) too, under the rule of the value substitutions.

The snapshot of the ``suvs`` fixture graph takes the same byte-level
mutations, once as mutated and once with its CRC-32 recomputed after the
mutation, so that a flipped byte gets past the checksum to the structural
checks.  Each mutated file goes through ``load_snapshot`` and, if it loads,
``map_taxonomy`` and ``label_corpus``, in process: the only exceptions
allowed are ``WikicatError``, which the CLI reports with exit 2, and
``OSError``, and the traced peak stays under a fixed bound.

Three more inputs run through ``main`` in process, each case under
``tracemalloc`` with a fixed bound on its peak, and must exit 0 or 2:
- a ``--config`` file that holds one odd JSON value for one key of one
  command, its flag left out, for every key of every command;
- ``map --overrides`` files, with a value replaced or a byte mutated, whose
  exit-2 messages must name a file;
- the bytes of a centroid and an SVM model, mutated as the TSVs are, through
  ``predict``, whose exit-2 messages must name a file.
"""

from __future__ import annotations

import copy
import json
import random
import re
import tracemalloc
from pathlib import Path
from typing import Any, Iterator

import pytest

from wikicat.cli import COMMANDS as CLI_COMMANDS
from wikicat.cli import main
from wikicat.exceptions import WikicatError
from wikicat.graph_store import load_snapshot, save_snapshot
from wikicat.labeler import LabelingConfig, coarse_scheme, label_corpus
from wikicat.synth import make_ablation_wiki
from wikicat.taxonomy_mapper import map_taxonomy

from conftest import with_crc

# The substitutions: every JSON type, ints beyond int64, a label id of the
# wiki and a string that is not a file name.
VALUES = (None, True, 0, 1, -1, 2**64, 0.5, "", "alpha", "../x", [], {})

# Each fuzzed input: its file under the wiki, the lines fuzzed (None for the
# whole document), and the runs that read it.
TRAINING = ("train", "train-svm", "sample")
INPUTS = {
    "taxonomy": ("taxonomy.json", None, ("map", "label", *TRAINING, "evaluate")),
    "mapping": ("mapping.json", None, ("label",)),
    "model": ("models/coarse.centroid.json", None, ("predict", "evaluate")),
    "labels": ("labels.jsonl", (0, -1), TRAINING),
    "corpus": ("corpus.jsonl", (0, -1), (*TRAINING, "predict")),
    "eval": ("eval.jsonl", (0,), ("evaluate",)),
}

# Each run's command line: an input's name stands for its path, an "out"
# name for a path in the case's own directory.
COMMANDS = {
    "map": (
        "map", "--graph", "graph", "--taxonomy", "taxonomy",
        "--out", "out/mapping.json",
    ),
    "label": (
        "label", "--graph", "graph", "--taxonomy", "taxonomy", "--mapping", "mapping",
        "--out", "out/labels.jsonl",
    ),
    "train": (
        "train", "--labels", "labels", "--corpus", "corpus", "--taxonomy", "taxonomy",
        "--kind", "centroid", "--out-dir", "out/models",
    ),
    "train-svm": (
        "train", "--labels", "labels", "--corpus", "corpus", "--taxonomy", "taxonomy",
        "--kind", "svm", "--n-per-class", "2", "--out-dir", "out/models",
    ),
    "sample": (
        "sample", "--labels", "labels", "--corpus", "corpus", "--taxonomy", "taxonomy",
        "--n-per-class", "5", "--out", "out/sample.jsonl",
    ),
    "predict": (
        "predict", "--model", "model", "--corpus", "corpus", "--out", "out/preds.jsonl",
    ),
    "evaluate": (
        "evaluate", "--eval", "eval", "--models-dir", "models", "--taxonomy",
        "taxonomy", "--kind", "centroid", "--out", "out/report.json",
    ),
    "ablate": (
        "ablate", "--graph", "graph", "--taxonomy", "taxonomy", "--mapping", "mapping",
        "--corpus", "corpus", "--eval", "eval", "--out-dir", "out/ablate",
        "--modes", "full", "child_only", "--n-per-class", "2", "--min-df", "1",
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


def cases(paths: dict[str, Path], name: str) -> list[tuple[int | None, tuple, Any]]:
    """Every (line, path in the document, value) substitution of the input
    ``name``; the line is None for a whole document."""
    text = paths[name].read_text(encoding="utf-8")
    lines = INPUTS[name][1]
    if lines is None:
        docs = [(None, json.loads(text))]
    else:
        docs = [(line, json.loads(text.splitlines()[line])) for line in lines]
    return [
        (line, path, value)
        for line, doc in docs for path in positions(doc) for value in VALUES
    ]


def run_case(
    paths: dict[str, Path], work: Path, name: str, line: int | None, path: tuple,
    value: Any, capsys,
) -> list[tuple[list[str], int, str]]:
    """Write the input ``name`` with ``path`` of its ``line`` replaced by
    ``value`` into ``work``, run every subcommand that reads it, and return
    each one's (command, exit code, stderr)."""
    text = paths[name].read_text(encoding="utf-8")
    if line is None:
        new = json.dumps(replaced(json.loads(text), path, value))
    else:
        lines = text.splitlines()
        lines[line] = json.dumps(replaced(json.loads(lines[line]), path, value))
        new = "".join(item + "\n" for item in lines)
    return run_commands(paths, work, name, new.encode("utf-8"), INPUTS[name][2], capsys)


def run_commands(
    paths: dict[str, Path], work: Path, name: str, data: bytes,
    commands: tuple[str, ...], capsys,
) -> list[tuple[list[str], int, str]]:
    """Write ``data`` as the input ``name`` into ``work``, run ``commands``
    on it, and return each one's (command, exit code, stderr)."""
    models = work / "models"
    models.mkdir(parents=True, exist_ok=True)
    (work / "out").mkdir(exist_ok=True)
    fuzzed = {**paths, "models": models, "model": models / "coarse.centroid.json"}
    fuzzed["model"].write_bytes(paths["model"].read_bytes())
    if name != "model":
        fuzzed[name] = work / Path(INPUTS[name][0]).name
    fuzzed[name].write_bytes(data)
    results = []
    for command in commands:
        argv = [
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
    for line, path, value in sample:
        bad += faults(run_case(wiki_inputs, tmp_path, name, line, path, value, capsys))
    assert not bad, "\n".join(bad)


# ------------------------------------------------------------ TSV bytes

TSVS = ("categories", "pages", "edges", "redirects")
MUTATIONS = ("flip", "insert", "delete", "truncate")
CASES_PER_MUTATION = 250
TSV_SAMPLE_PER_INPUT = 40
# Inserted bytes: the separators, bytes that are never or only inside
# UTF-8 characters, and the characters of ids and kinds.
INSERTS = b"\t\n\r\x00\x80\xc3\xe2\xf0\xff -+_0579emsu"


def build_tsvs(d: Path) -> dict[str, Path]:
    """The ablation wiki's TSVs (seed 0) and a redirects file: an alias for
    each of its first categories, one of them named twice for one target."""
    make_ablation_wiki(d, seed=0)
    text = (d / "categories.tsv").read_text(encoding="utf-8")
    rows = [line.split("\t") for line in text.splitlines()[:6]]
    lines = [f"{name} (alias)\t{category}\n" for category, name in rows]
    (d / "redirects.tsv").write_text("".join(lines + lines[:1]), encoding="utf-8")
    return {name: d / f"{name}.tsv" for name in TSVS}


def byte_cases(name: str) -> list[tuple[str, str, int]]:
    """Every (input, mutation, seed) case of the input ``name``."""
    return [
        (name, mutation, seed)
        for mutation in MUTATIONS for seed in range(CASES_PER_MUTATION)
    ]


def mutated(data: bytes, mutation: str, seed: int) -> bytes:
    """``data`` with one seeded byte-level mutation at a byte of it."""
    rng = random.Random(f"{mutation}:{seed}")
    at = rng.randrange(len(data))
    if mutation == "flip":
        return data[:at] + bytes([data[at] ^ 1 << rng.randrange(8)]) + data[at + 1 :]
    if mutation == "insert":
        return data[:at] + bytes([rng.choice(INSERTS)]) + data[at:]
    if mutation == "delete":
        return data[:at] + data[at + rng.randint(1, 4) :]
    return data[:at]  # truncate


def run_tsv_case(
    tsvs: dict[str, Path], work: Path, case: tuple[str, str, int], capsys
) -> list[str]:
    """Run ``build-graph``, strict and lenient, on the TSVs with one of
    them mutated; the runs that exit other than 0 or 2, or exit 2 without
    naming a TSV as ``file:line`` or ``file: not UTF-8``."""
    name, mutation, seed = case
    files = {**tsvs, name: work / f"{name}.tsv"}
    files[name].write_bytes(mutated(tsvs[name].read_bytes(), mutation, seed))
    named = re.compile(
        "error: (%s):(\\d+| not UTF-8): " % "|".join(
            re.escape(str(path)) for path in files.values()
        )
    )
    argv = ["build-graph", "--out", str(work / "graph.bin")]
    for key, path in files.items():
        argv += [f"--{key}", str(path)]
    bad = []
    for lenient in ([], ["--lenient"]):
        capsys.readouterr()
        code = main(argv + lenient)
        err = capsys.readouterr().err
        if code not in (0, 2) or (code == 2 and not named.match(err)):
            bad.append(f"{case} {lenient}: exit {code}: {err.strip()}")
    return bad


@pytest.fixture(scope="module")
def wiki_tsvs(tmp_path_factory):
    return build_tsvs(tmp_path_factory.mktemp("fuzz_tsvs"))


@pytest.mark.parametrize("name", TSVS)
def test_fuzzed_tsv_exits_0_or_2_naming_a_line(wiki_tsvs, tmp_path, capsys, name):
    every = byte_cases(name)
    sample = random.Random(f"{SEED}:{name}").sample(every, TSV_SAMPLE_PER_INPUT)
    bad = []
    for case in sample:
        bad += run_tsv_case(wiki_tsvs, tmp_path, case, capsys)
    assert not bad, "\n".join(bad)


# ------------------------------------------------------- JSON input bytes

# The inputs whose bytes are mutated, and those of them that ablate reads too.
BYTE_INPUTS = ("corpus", "eval", "labels", "mapping", "taxonomy")
ABLATE_INPUTS = ("corpus", "eval", "mapping", "taxonomy")
BYTES_SAMPLE_PER_INPUT = 20


def byte_commands(name: str) -> tuple[str, ...]:
    """Every run that reads the input ``name``."""
    return (*INPUTS[name][2], *(("ablate",) if name in ABLATE_INPUTS else ()))


@pytest.mark.parametrize("name", BYTE_INPUTS)
def test_mutated_input_bytes_exit_0_or_2_naming_a_file(
    wiki_inputs, tmp_path, capsys, name
):
    sample = random.Random(f"{SEED}:bytes:{name}").sample(
        byte_cases(name), BYTES_SAMPLE_PER_INPUT
    )
    data = wiki_inputs[name].read_bytes()
    bad = []
    for _, mutation, seed in sample:
        results = run_commands(
            wiki_inputs, tmp_path, name, mutated(data, mutation, seed),
            byte_commands(name), capsys,
        )
        bad += [f"{mutation}:{seed}: {fault}" for fault in faults(results)]
    assert not bad, "\n".join(bad)


# ------------------------------------------------------- snapshot bytes

# What each snapshot input makes of a mutated file: the bytes as they are,
# which the CRC refuses almost always, or with the CRC mended.
SNAPSHOTS = {"v2": bytes, "v2-crc": with_crc}
SNAPSHOT_SAMPLE_PER_INPUT = 250
# A sample's traced peak.  The file is 431 bytes, and the 1 000 cases with
# the CRC mended peaked at 1.2 MB all together, so a count read from
# corrupt bytes that sized an array would pass it.
SNAPSHOT_PEAK_BYTES = 16 << 20


def run_snapshot_case(
    snapshot: Path, taxonomy, work: Path, case: tuple[str, str, int]
) -> list[str]:
    """Load the snapshot with one mutation and, if it loads, map the
    taxonomy onto it and label its pages; the case if it raised other than
    a WikicatError or an OSError."""
    name, mutation, seed = case
    path = work / "graph.bin"
    path.write_bytes(SNAPSHOTS[name](mutated(snapshot.read_bytes(), mutation, seed)))
    try:
        graph = load_snapshot(path)
        mapping = map_taxonomy(taxonomy, graph)
        label_corpus(graph, mapping, coarse_scheme(taxonomy), LabelingConfig())
    except (WikicatError, OSError):
        pass
    except Exception as exc:
        return [f"{case}: {type(exc).__name__}: {exc}"]
    return []


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory, suvs_graph):
    path = tmp_path_factory.mktemp("fuzz_snapshot") / "graph.bin"
    save_snapshot(suvs_graph, path)
    return path


@pytest.mark.parametrize("name", sorted(SNAPSHOTS))
def test_fuzzed_snapshot_loads_or_is_refused(snapshot, suvs_taxonomy, tmp_path, name):
    sample = random.Random(f"{SEED}:{name}").sample(
        byte_cases(name), SNAPSHOT_SAMPLE_PER_INPUT
    )
    tracemalloc.start()
    try:
        bad = [
            fault for case in sample
            for fault in run_snapshot_case(snapshot, suvs_taxonomy, tmp_path, case)
        ]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not bad, "\n".join(bad)
    assert peak < SNAPSHOT_PEAK_BYTES, peak


# ------------------------------------------- configs, overrides and models


@pytest.fixture(scope="module")
def wiki_files(wiki_inputs):
    """The fuzz wiki's inputs, with its TSVs, an SVM model trained on two
    documents per class, and an overrides file that names two categories
    for one label and one for another."""
    d = wiki_inputs["graph"].parent
    paths = {**wiki_inputs, **{name: d / f"{name}.tsv" for name in TSVS[:3]}}
    paths["svm"] = d / "svm" / "coarse.svm.json"
    argv = [
        "train", "--labels", paths["labels"], "--corpus", paths["corpus"],
        "--taxonomy", paths["taxonomy"], "--kind", "svm", "--n-per-class", "2",
        "--out-dir", paths["svm"].parent,
    ]
    assert main([str(arg) for arg in argv]) == 0
    paths["overrides"] = d / "overrides.json"
    paths["overrides"].write_text(
        json.dumps({"alpha": ["Alpha", "Alpha section 1"], "charlie": ["Charlie"]}),
        encoding="utf-8",
    )
    return paths


def flags(values: dict[str, str], paths: dict[str, Path], work: Path) -> list[str]:
    """Command-line flags: an input's name stands for its path, an "out"
    name for a path in ``work``, and any other value for itself."""
    argv = []
    for key, arg in values.items():
        value = paths.get(arg) or (work / arg if arg.startswith("out/") else arg)
        argv += ["--" + key.replace("_", "-"), str(value)]
    return argv


def traced_faults(
    runs: list[tuple[Any, list[str], Path]], bound: int, capsys, monkeypatch,
    name_a_file: bool = True,
) -> list[str]:
    """Run each (case, command line, working directory) in process under
    ``tracemalloc``; the runs that exited other than 0 or 2, that traced
    ``bound`` bytes or more above what was traced before them, or, with
    ``name_a_file``, that exited 2 without naming a path of their command
    line."""
    bad = []
    tracemalloc.start()
    try:
        for case, argv, cwd in runs:
            monkeypatch.chdir(cwd)
            capsys.readouterr()
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1] - before
            err = capsys.readouterr().err
            named = any(arg in err for arg in argv if Path(arg).is_absolute())
            if code not in (0, 2) or peak >= bound or (
                name_a_file and code == 2 and not named
            ):
                bad.append(f"{case}: exit {code}, peak {peak}: {err.strip()}")
    finally:
        tracemalloc.stop()
    return bad


# A config key's odd values: every JSON type, int64's edge and an int beyond
# any float, signed zero and the extreme floats, a NUL, a relative path, a
# scheme's name and a list of labeling modes.
CONFIG_VALUES = (
    None, True, False, 0, 1, -1, 2**63, 10**400, -0.0, 0.5, 5e-324, 1e308,
    "", "\0", "coarse", "../x", [], {}, ["full", "min_dist"],
)
# An SVM epoch is a pass over the training rows, so 2**63 epochs is work that
# the config asks for, not a fault: ``epochs`` takes no value above this.
MOST_EPOCHS = 3
# Each command's flags for a run that exits 0.  A case leaves out its key's
# flag, so that the config's value is read.  Two or five documents per
# class keep training and sampling fast.
CONFIG_FLAGS = {
    "build-graph": {
        "categories": "categories", "pages": "pages", "edges": "edges",
        "out": "out/graph.bin",
    },
    "map": {"graph": "graph", "taxonomy": "taxonomy", "out": "out/mapping.json"},
    "label": {
        "graph": "graph", "taxonomy": "taxonomy", "mapping": "mapping",
        "out": "out/labels.jsonl",
    },
    "sample": {
        "labels": "labels", "corpus": "corpus", "taxonomy": "taxonomy",
        "n_per_class": "5", "out": "out/sample.jsonl",
    },
    "train": {
        "labels": "labels", "corpus": "corpus", "taxonomy": "taxonomy",
        "n_per_class": "2", "out_dir": "out/models",
    },
    "predict": {"model": "model", "corpus": "corpus", "out": "out/preds.jsonl"},
    "evaluate": {
        "eval": "eval", "models_dir": "models", "taxonomy": "taxonomy",
        "kind": "centroid", "out": "out/report.json",
    },
    "ablate": {
        "graph": "graph", "taxonomy": "taxonomy", "corpus": "corpus", "eval": "eval",
        "n_per_class": "2", "out_dir": "out/ablate",
    },
}
CONFIG_SAMPLE = 120
# A config case's traced peak.  The sample's worst was 1.3 MB, ``ablate``'s
# default of 200 documents per class; of every case, ``train``'s default of
# 20 000 per class (3 classes) peaked highest, at 67 MB, in 50 s.
CONFIG_PEAK_BYTES = 16 << 20


def config_cases() -> list[tuple[str, str, Any]]:
    """Every (command, key, value) case: each value for each key of each
    command, but ``epochs`` above MOST_EPOCHS."""
    return [
        (command, key, value)
        for command, (_, _, _, keys) in CLI_COMMANDS.items()
        for key in (getattr(k, "key", k) for k in keys)
        for value in CONFIG_VALUES
        if key != "epochs" or type(value) is not int or value <= MOST_EPOCHS
    ]


def config_run(
    paths: dict[str, Path], work: Path, case: tuple[str, str, Any]
) -> tuple[Any, list[str], Path]:
    """A case's run: its config, in ``work``, holds the case's value, and
    the command's other flags are CONFIG_FLAGS'.  ``work`` is the working
    directory too, so that a relative path in the config stays inside it."""
    command, key, value = case
    (work / "out").mkdir(parents=True)
    config = work / "config.json"
    config.write_text(json.dumps({key: value}), encoding="utf-8")
    values = {k: v for k, v in CONFIG_FLAGS[command].items() if k != key}
    return case, [command, "--config", str(config), *flags(values, paths, work)], work


def test_fuzzed_config_exits_0_or_2(wiki_files, tmp_path, capsys, monkeypatch):
    sample = random.Random(SEED).sample(config_cases(), CONFIG_SAMPLE)
    runs = [
        config_run(wiki_files, tmp_path / str(i), case)
        for i, case in enumerate(sample)
    ]
    bad = traced_faults(runs, CONFIG_PEAK_BYTES, capsys, monkeypatch, False)
    assert not bad, "\n".join(bad)


OVERRIDES_SAMPLE = 150
OVERRIDES_PEAK_BYTES = 4 << 20  # every case peaked at 0.13 MB or less


def overrides_cases(paths: dict[str, Path]) -> list[tuple]:
    """Every ("value", path in the document, value) and every ("bytes",
    mutation, seed) case of the overrides file."""
    doc = json.loads(paths["overrides"].read_text(encoding="utf-8"))
    values = [("value", path, value) for path in positions(doc) for value in VALUES]
    return values + byte_cases("bytes")


def overrides_run(
    paths: dict[str, Path], work: Path, case: tuple
) -> tuple[Any, list[str], Path]:
    """``map`` with the case's overrides file, written into ``work``."""
    data = paths["overrides"].read_bytes()
    if case[0] == "value":
        data = json.dumps(replaced(json.loads(data), *case[1:])).encode()
    else:
        data = mutated(data, *case[1:])
    (work / "out").mkdir(parents=True)
    fuzzed = {**paths, "overrides": work / "overrides.json"}
    fuzzed["overrides"].write_bytes(data)
    values = {
        "graph": "graph", "taxonomy": "taxonomy", "overrides": "overrides",
        "out": "out/mapping.json",
    }
    return case, ["map", *flags(values, fuzzed, work)], work


MODELS = ("model", "svm")  # the centroid model and the SVM one
MODEL_SAMPLE = 150  # per model
# Every case peaked at 0.7 MB or less, for model files of 22 and 3.4 KB.
MODEL_PEAK_BYTES = 8 << 20


def model_run(
    paths: dict[str, Path], work: Path, case: tuple[str, str, int]
) -> tuple[Any, list[str], Path]:
    """``predict`` with the case's model file, written into ``work``."""
    name, mutation, seed = case
    (work / "out").mkdir(parents=True)
    fuzzed = {**paths, "model": work / "model.json"}
    fuzzed["model"].write_bytes(mutated(paths[name].read_bytes(), mutation, seed))
    values = {"model": "model", "corpus": "corpus", "out": "out/preds.jsonl"}
    return case, ["predict", *flags(values, fuzzed, work)], work


def test_fuzzed_overrides_exit_0_or_2_naming_a_file(
    wiki_files, tmp_path, capsys, monkeypatch
):
    every = overrides_cases(wiki_files)
    sample = random.Random(SEED).sample(every, OVERRIDES_SAMPLE)
    runs = [
        overrides_run(wiki_files, tmp_path / str(i), case)
        for i, case in enumerate(sample)
    ]
    bad = traced_faults(runs, OVERRIDES_PEAK_BYTES, capsys, monkeypatch)
    assert not bad, "\n".join(bad)


@pytest.mark.parametrize("name", MODELS)
def test_fuzzed_model_bytes_exit_0_or_2_naming_a_file(
    wiki_files, tmp_path, capsys, monkeypatch, name
):
    sample = random.Random(f"{SEED}:{name}").sample(byte_cases(name), MODEL_SAMPLE)
    runs = [
        model_run(wiki_files, tmp_path / str(i), case) for i, case in enumerate(sample)
    ]
    bad = traced_faults(runs, MODEL_PEAK_BYTES, capsys, monkeypatch)
    assert not bad, "\n".join(bad)
