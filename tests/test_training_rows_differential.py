"""``sample`` and ``train`` against the every-text reference in
``training_rows_oracle``, on drawn labels and corpus files.

``cli`` holds the labels and the corpus ids as columns and balances on
positions; the reference holds one Python row per page and balances rows.

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
import tempfile
import tracemalloc
from pathlib import Path
from typing import Iterator
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, seed, settings
from hypothesis import strategies as st

import training_rows_oracle
from wikicat import cli, labeler
from wikicat.classifiers import sample_balance
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


# ------------------------------------------------------- drawn columns

# Page ids near and past int64's ends, which make the id columns objects.
_EDGE_IDS = (2**63 - 1, -(2**63), 2**63, 10**20)
_TEXTS = ("apple brick", "cloud dune ember", "fjord grove", "harbor iris jade kiln")
# A fault of each file, each drawn on its own: several can meet in a case.
_FAULTS = ("ghost-label", "missing-page", "bad-labels-line", "repeat-id", "bad-corpus-line")
_BAD_LINES = ("{oops", "[1]", '{"id": "7", "text": "x"}', '{"page": 1}')
# Sizes of the sample: None is the default, the last is past the row limit.
_N_PER_CLASS = (None, 1, 2, 3, 5, 8, (1 << 24) + 1)


@st.composite
def _rows_cases(draw) -> tuple[dict, dict, tuple[str, dict], dict]:
    """A labels file, a corpus, the config that names them, a run and the
    run sizes of the readers.  Labels interleave, records go without
    labels, pages repeat in the labels file and can be missing from the
    corpus, and a corpus id can repeat."""
    scheme = draw(st.sampled_from(["coarse", "fine"]))
    labels = list(TAXONOMY) if scheme == "coarse" else [
        kid for kids in TAXONOMY.values() for kid in kids
    ]
    faults = {fault for fault in _FAULTS if draw(st.integers(0, 4)) == 0}
    ids = draw(st.lists(
        st.one_of(st.integers(-3, 60), st.sampled_from(_EDGE_IDS)),
        min_size=1, max_size=25, unique=True,
    ))
    corpus = [
        json.dumps({"id": page, "text": draw(st.sampled_from(_TEXTS))}) for page in ids
    ]
    tops = st.sampled_from([*labels, *labels, None])  # some records unassigned
    records = [
        _label_line(page, top)
        for page, top in draw(st.lists(st.tuples(st.sampled_from(ids), tops), max_size=40))
    ]
    for fault, line in (
        ("ghost-label", _label_line(draw(st.sampled_from(ids)), "ghost")),
        ("missing-page", _label_line(10_000, draw(st.sampled_from(labels)))),
        ("bad-labels-line", draw(st.sampled_from(_BAD_LINES))),
    ):
        if fault in faults:
            records.insert(draw(st.integers(0, len(records))), line)
    if "repeat-id" in faults:
        at = draw(st.integers(1, len(corpus)))
        page = ids[draw(st.integers(0, at - 1))]
        corpus.insert(at, json.dumps({"id": page, "text": "oak"}))
    if "bad-corpus-line" in faults:
        corpus.insert(draw(st.integers(0, len(corpus))), draw(st.sampled_from(_BAD_LINES)))
    files = {
        "labels": "".join(line + "\n" for line in records),
        "corpus": "".join(line + "\n" for line in corpus),
    }
    config = {
        "scheme": scheme,
        "seed": draw(st.integers(0, 99)),
        "n_per_class": draw(st.sampled_from(_N_PER_CLASS)),
        "min_df": 1,
        "epochs": 2,
        "out": "sample.jsonl",
        "out_dir": "models",
    }
    if config["n_per_class"] is None:
        del config["n_per_class"]
    run = RUNS[draw(st.sampled_from(sorted(RUNS)))]
    sizes = {
        "docs": draw(st.sampled_from([1, 2, 3, 2048])),
        "chars": draw(st.sampled_from([1, 12, 1 << 18])),
        "records": draw(st.sampled_from([1, 2, 5, 1024])),
    }
    return files, config, run, sizes


def _taxonomy_text() -> str:
    labels = [{"id": root, "name": root.upper(), "parent": None} for root in TAXONOMY]
    labels += [
        {"id": kid, "name": kid.upper(), "parent": root}
        for root, kids in TAXONOMY.items() for kid in kids
    ]
    return json.dumps({"labels": labels})


@seed(20261022)
@settings(
    max_examples=200, deadline=None, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(_rows_cases())
@example((
    {"labels": _label_line(5, "a") + "\n" + _label_line(2**63, "b") + "\n",
     "corpus": json.dumps({"id": 2**63, "text": "oak"}) + "\n"
     + json.dumps({"id": 5, "text": "fern"}) + "\n"},
    {"scheme": "coarse", "seed": 1, "min_df": 1, "epochs": 2, "out": "sample.jsonl",
     "out_dir": "models"},
    RUNS["sample"], {"docs": 1, "chars": 1 << 18, "records": 1},
))
def test_drawn_columns_match_the_row_reference(caplog, capsys, case):
    """Every run gives the reference's exit code, first error line, log
    records, stdout and file bytes, whatever runs the readers take."""
    files, base, (command, own), sizes = case
    caplog.set_level(logging.INFO, logger=cli.logger.name)
    with tempfile.TemporaryDirectory() as d, \
            mock.patch.object(cli, "_RUN_DOCS", sizes["docs"]), \
            mock.patch.object(cli, "_RUN_CHARS", sizes["chars"]), \
            mock.patch.object(labeler, "_RECORDS_PER_RUN", sizes["records"]):
        root = Path(d)
        for key, text in {**files, "taxonomy": _taxonomy_text()}.items():
            (root / f"{key}.json").write_text(text, encoding="utf-8")
        config = {
            **{key: str(root / f"{key}.json") for key in ("labels", "corpus", "taxonomy")},
            **base, **own,
        }
        got = _run(command, config, root / "run", caplog, capsys)
        with _reference():
            want = _run(command, config, root / "oracle", caplog, capsys)
    assert got == want
    assert got["code"] in (0, 2)


@seed(20261023)
@settings(max_examples=300, deadline=None, database=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 12), st.sampled_from(["b", "a", "c", "aa"])),
        max_size=30,
    ),
    st.integers(1, 9),
    st.integers(0, 5),
)
def test_positions_pick_the_rows_of_the_row_form(rows, n_per_class, seed_):
    """``sample_balance`` on columns picks the rows that the row form picks:
    classes smaller than, equal to and larger than ``n_per_class``, repeated
    page ids and label codes in first-seen order."""
    rows = [(page, label, i) for i, (page, label) in enumerate(rows)]
    names = list(dict.fromkeys(label for _, label, _ in rows))
    picked = sample_balance(
        np.array([page for page, _, _ in rows], dtype=np.int64),
        np.array([names.index(label) for _, label, _ in rows], dtype=np.int32),
        names, n_per_class, seed_,
    )
    want = training_rows_oracle.sample_balance(rows, n_per_class, seed_)
    assert [rows[i] for i in picked.tolist()] == want


def _train_peak(d: Path, n_pages: int) -> int:
    """The traced peak of ``train --kind svm --n-per-class 2`` on
    ``n_pages`` labeled pages of two classes, each with a short text."""
    d.mkdir()
    (d / "taxonomy.json").write_text(json.dumps({"labels": [
        {"id": "a", "name": "A", "parent": None}, {"id": "b", "name": "B", "parent": None},
    ]}), encoding="utf-8")
    (d / "labels.jsonl").write_text("".join(
        _label_line(page, "ab"[page % 2]) + "\n" for page in range(n_pages)
    ), encoding="utf-8")
    (d / "corpus.jsonl").write_text("".join(
        json.dumps({"id": page, "text": f"w{page % 7} v{page % 5}"}) + "\n"
        for page in range(n_pages)
    ), encoding="utf-8")
    args = [
        "train", "--labels", str(d / "labels.jsonl"), "--corpus", str(d / "corpus.jsonl"),
        "--taxonomy", str(d / "taxonomy.json"), "--kind", "svm", "--n-per-class", "2",
        "--min-df", "1", "--out-dir", str(d / "models"),
    ]
    tracemalloc.start()
    try:
        assert cli.main(args) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_train_holds_a_few_bytes_per_labeled_page(tmp_path, capsys):
    """Choosing 4 rows from 40 000 labeled pages holds columns of the pages
    and the corpus ids, not a Python object for each.  The columns take 20
    bytes a page and their sorts and masks about as much again; rows of
    Python objects took 139 bytes a page."""
    _train_peak(tmp_path / "warm", 2_000)  # lazy imports
    small = _train_peak(tmp_path / "small", 10_000)
    large = _train_peak(tmp_path / "large", 40_000)
    capsys.readouterr()
    assert (large - small) / 30_000 < 64, (small, large)
