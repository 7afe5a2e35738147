"""``sample`` and ``train`` against the every-text reference in
``training_rows_oracle``, on drawn labels and corpus files.

Each case draws a two-tier taxonomy's labels file (with unassigned records
and repeated pages) and a corpus, adds at most one file fault and at most
one set of config faults, then runs ``train --kind svm``, ``train --kind
centroid`` and ``sample`` once through ``cli`` and once through the
reference, each in its own directory.  Both must give the same exit code,
the same stderr, the same log records, the same stdout and the same bytes
in every file written.  ``ablate``, which samples from the corpus it holds,
must train the reference's models.
"""

from __future__ import annotations

import contextlib
import json
import logging
import random
from pathlib import Path
from typing import Iterator

import pytest

import training_rows_oracle
from wikicat import cli
from wikicat.synth import make_ablation_wiki

TAXONOMY = {"p": ["a", "b"], "q": ["c", "d", "e"]}
WORDS = (
    "apple brick cloud dune ember fjord grove harbor iris jade kiln lumen "
    "marsh nectar oak"
).split()

# Each file fault: a change to the drawn labels or corpus lines.
FILE_FAULTS = (
    "none", "ghost-label", "missing-page", "duplicate-id", "bad-last-corpus-line",
)
# Each set of config faults: values that do not resolve.
CONFIG_FAULTS = {
    "none": {},
    "scheme": {"scheme": "bogus"},
    "seed": {"seed": "x"},
    "kind": {"kind": "nope"},
    "all": {"scheme": "bogus", "seed": "x", "kind": "nope"},
}
# The draws of each pair of faults.  A config fault is reported before any
# file is read, so only the configs without one reach the rows' checks: six
# draws are what it takes for those to reach every outcome below.
DRAWS = range(6)
# Each run: its subcommand and the config values of its own.
RUNS = {
    "train-svm": ("train", {"kind": "svm"}),
    "train-centroid": ("train", {"kind": "centroid"}),
    "sample": ("sample", {}),
}


def _label_line(page: int, label: str | None) -> str:
    assignments = [] if label is None else [{"label": label}]
    return json.dumps({"assignments": assignments, "mode": "full", "page": page})


def _draw(rng: random.Random, d: Path, file_fault: str, scheme: str = "") -> dict:
    """Write a taxonomy, labels and corpus into ``d`` and return the config
    values that name them, with a drawn seed, n_per_class and scheme (unless
    given)."""
    scheme = scheme or rng.choice(["coarse", "fine"])
    labels = list(TAXONOMY) if scheme == "coarse" else [
        kid for kids in TAXONOMY.values() for kid in kids
    ]
    weights = [rng.choice([0, 1, 3]) for _ in labels] + [1]  # the last: none
    n_pages = rng.randint(6, 30)
    ids = rng.sample(range(1, 4 * n_pages), n_pages)
    corpus = [
        json.dumps({
            "id": page,
            "text": " ".join(rng.choice(WORDS) for _ in range(rng.randint(2, 9))),
        })
        for page in ids
    ]
    records = [
        _label_line(rng.choice(ids), rng.choices([*labels, None], weights)[0])
        for _ in range(rng.randint(4, 50))
    ]
    spot = rng.randint(0, len(records))
    if file_fault == "ghost-label":
        records.insert(spot, _label_line(rng.choice(ids), "ghost"))
    elif file_fault == "missing-page":
        records.insert(spot, _label_line(10_000, rng.choice(labels)))
    elif file_fault == "duplicate-id":
        at = rng.randint(1, len(corpus))
        corpus.insert(at, json.dumps({"id": ids[rng.randrange(at)], "text": "oak"}))
    elif file_fault == "bad-last-corpus-line":
        corpus.append("{oops")
    taxonomy = [{"id": root, "name": root.upper(), "parent": None} for root in TAXONOMY]
    taxonomy += [
        {"id": kid, "name": kid.upper(), "parent": root}
        for root, kids in TAXONOMY.items() for kid in kids
    ]
    files = {
        "taxonomy": json.dumps({"labels": taxonomy}),
        "labels": "".join(line + "\n" for line in records),
        "corpus": "".join(line + "\n" for line in corpus),
    }
    for key, text in files.items():
        (d / f"{key}.json").write_text(text, encoding="utf-8")
    return {
        **{key: str(d / f"{key}.json") for key in files},
        "scheme": scheme,
        "seed": rng.randrange(100),
        "n_per_class": rng.randint(1, 6),
        "min_df": 1,
        "epochs": 2,
        "out": "sample.jsonl",
        "out_dir": "models",
    }


@contextlib.contextmanager
def _reference() -> Iterator[None]:
    """Within it, ``cli.main`` runs ``sample`` and ``train`` through the
    reference."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "COMMANDS", {**cli.COMMANDS, **training_rows_oracle.COMMANDS})
        yield


def _run(command: str, config: dict, d: Path, caplog, capsys) -> dict:
    """Run ``command`` with ``config`` in ``d`` and return what it did."""
    d.mkdir()
    (d / "config.json").write_text(json.dumps(config), encoding="utf-8")
    capsys.readouterr()
    caplog.clear()
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(d)
        code = cli.main([command, "--config", "config.json"])
    out, err = capsys.readouterr()
    return {
        "code": code,
        "out": out,
        "err": err,
        "log": [(r.levelname, r.getMessage()) for r in caplog.records],
        "files": {
            str(path.relative_to(d)): path.read_bytes()
            for path in sorted(d.rglob("*")) if path.is_file()
        },
    }


@pytest.mark.parametrize("draw", DRAWS)
@pytest.mark.parametrize("config_fault", sorted(CONFIG_FAULTS))
@pytest.mark.parametrize("file_fault", FILE_FAULTS)
def test_rows_match_the_every_text_reference(
    tmp_path, caplog, capsys, file_fault, config_fault, draw
):
    rng = random.Random(f"{file_fault}:{config_fault}:{draw}")
    base = _draw(rng, tmp_path, file_fault)
    caplog.set_level(logging.INFO, logger=cli.logger.name)
    for run, (command, own) in RUNS.items():
        config = {**base, **own, **CONFIG_FAULTS[config_fault]}
        got = _run(command, config, tmp_path / run, caplog, capsys)
        with _reference():
            want = _run(command, config, tmp_path / f"{run}.oracle", caplog, capsys)
        assert got == want, run
        assert got["code"] in (0, 2)
        if got["code"] == 2:
            assert got["err"].startswith("error: ") and got["err"].count("\n") == 1


@pytest.mark.parametrize("scheme", ["coarse", "fine"])
def test_default_sample_size_matches_the_reference(tmp_path, caplog, capsys, scheme):
    """Without n_per_class, a sample balances to the largest labeled class
    of the scheme, within 20 000 a class for a coarse set and 1 000 for a
    fine set."""
    config = _draw(random.Random(scheme), tmp_path, "none", scheme)
    del config["n_per_class"]
    got = _run("sample", config, tmp_path / "run", caplog, capsys)
    with _reference():
        want = _run("sample", config, tmp_path / "oracle", caplog, capsys)
    assert got == want
    assert got["code"] == 0


def test_ablate_trains_as_the_reference_does(tmp_path, capsys):
    """Each mode's model from ``ablate`` is the one the reference's ``train
    --kind svm`` fits on that mode's labels file."""
    make_ablation_wiki(tmp_path, seed=0)
    common = [
        "--taxonomy", str(tmp_path / "taxonomy.json"),
        "--corpus", str(tmp_path / "corpus.jsonl"), "--n-per-class", "20", "--seed", "3",
    ]
    ablate = tmp_path / "ablate"
    assert cli.main([
        "ablate", *common, "--graph", str(tmp_path),
        "--eval", str(tmp_path / "eval.jsonl"),
        "--modes", "full", "min_dist", "--out-dir", str(ablate),
    ]) == 0
    with _reference():
        for mode in ("full", "min_dist"):
            assert cli.main([
                "train", *common, "--labels", str(ablate / f"labels.{mode}.jsonl"),
                "--kind", "svm", "--out-dir", str(tmp_path / mode),
            ]) == 0
            model = (tmp_path / mode / "coarse.svm.json").read_bytes()
            assert model == (ablate / f"{mode}.coarse.svm.json").read_bytes()


# What the drawn cases must reach: each fault's error, and log records.
OUTCOMES = (
    "not in the chosen scheme", "missing from corpus", "duplicate page id",
    "invalid JSON", "no labeled documents", "unknown scheme", "seed: expected",
    "unknown kind", "skipped", "classes with no training documents",
)


def test_the_draws_reach_every_outcome(tmp_path, caplog, capsys):
    """The cases above train, fail on every fault, skip unassigned records
    and warn about classes without rows."""
    caplog.set_level(logging.INFO, logger=cli.logger.name)
    codes, seen = set(), set()
    for file_fault in FILE_FAULTS:
        for config_fault in CONFIG_FAULTS:
            for draw in DRAWS:
                rng = random.Random(f"{file_fault}:{config_fault}:{draw}")
                d = tmp_path / f"{file_fault}.{config_fault}.{draw}"
                d.mkdir()
                config = {
                    **_draw(rng, d, file_fault), **RUNS["train-svm"][1],
                    **CONFIG_FAULTS[config_fault],
                }
                got = _run("train", config, d / "run", caplog, capsys)
                codes.add(got["code"])
                text = got["err"] + "".join(msg for _, msg in got["log"])
                seen.update(outcome for outcome in OUTCOMES if outcome in text)
    assert codes == {0, 2}
    assert seen == set(OUTCOMES)
