"""Reference for the training rows of ``sample`` and ``train``: every text,
one Python row per page.

It reads the labels file into (page id, top label or None) rows and the
whole corpus into one dict, groups the pages into (page id, top label,
text) rows per competition set, checks them in file order, logging through
``cli``'s logger, and only then samples with the row form of
``sample_balance``: ``sample`` every set, ``train`` each set of an svm just
before fitting it.  A sample past the row limit is refused before the
corpus is read, as ``cli`` refuses it.  ``cli`` holds the labels and the
corpus ids as columns, draws the same sample by position before it reads
the corpus and keeps only the texts it uses; the differential tests
require the same exit code, the same first error line, the same log
records and the same output bytes.

``sample`` and ``train`` take ``get``, the resolved settings, as the
subcommands do; ``COMMANDS`` gives their entries for ``cli.COMMANDS``.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import asdict
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, TypeVar

from docmatrix import by_class
from wikicat import cli
from wikicat.classifiers import (
    _MAX_SAMPLE_ROWS,
    TrainConfig,
    save_model,
    train_centroid,
    train_svm,
)
from wikicat.exceptions import ConfigurationError
from wikicat.jsonio import INTEGER, STRING, read_jsonl, write_jsonl
from wikicat.taxonomy import load_taxonomy
from wikicat.textproc import fit_tfidf, transform

T = TypeVar("T")


def read_labels(path: str | Path) -> list[tuple[int, str | None]]:
    """Each record's (external page id, top label or None), in file order."""
    rows = []
    for where, rec in read_jsonl(path):
        assignments = rec.get("assignments") if isinstance(rec, dict) else None
        if not (
            isinstance(assignments, list)
            and type(rec.get("page")) in INTEGER.types
            and all(
                isinstance(a, dict) and type(a.get("label")) in STRING.types
                for a in assignments
            )
        ):
            raise ConfigurationError(
                f"{where}: expected an object with int 'page' and a list of "
                "'assignments', each with a str 'label'"
            )
        rows.append((rec["page"], assignments[0]["label"] if assignments else None))
    return rows


def _class_rng(seed: int, label: str) -> random.Random:
    return random.Random(f"{seed}|{label}")


def sample_balance(
    corpus: Iterable[tuple[int, str, T]], n_per_class: int, seed: int
) -> list[tuple[int, str, T]]:
    """Balance (doc id, label, payload) rows to n_per_class per label: each
    label's rows sorted by doc id, downsampled with ``Random.sample`` or
    kept whole and topped up with ``Random.choices``, in sorted label order.
    """
    if n_per_class < 1:
        raise ConfigurationError("n_per_class must be >= 1")
    by_label: dict[str, list[tuple[int, str, T]]] = {}
    for row in corpus:
        by_label.setdefault(row[1], []).append(row)
    _check_limit(n_per_class, len(by_label))
    out: list[tuple[int, str, T]] = []
    for label in sorted(by_label):
        docs = sorted(by_label[label], key=lambda row: row[0])
        rng = _class_rng(seed, label)
        if len(docs) > n_per_class:
            out.extend(rng.sample(docs, n_per_class))
        elif len(docs) < n_per_class:
            out.extend(docs)
            out.extend(rng.choices(docs, k=n_per_class - len(docs)))
        else:
            out.extend(docs)
    return out


def _check_limit(n_per_class: int, n_classes: int) -> None:
    n_rows = n_per_class * n_classes
    if n_rows > _MAX_SAMPLE_ROWS:
        raise ConfigurationError(
            f"n_per_class {n_per_class} x {n_classes} classes is {n_rows} "
            f"rows, over the {_MAX_SAMPLE_ROWS}-row limit"
        )


def load_corpus(path: str | Path) -> dict[int, str]:
    texts: dict[int, str] = {}
    for where, row in read_jsonl(path):
        if (
            not isinstance(row, dict)
            or type(row.get("id")) not in INTEGER.types
            or type(row.get("text")) not in STRING.types
        ):
            raise ConfigurationError(
                f"{where}: expected an object with int 'id' and str 'text'"
            )
        if row["id"] in texts:
            raise ConfigurationError(f"{where}: duplicate page id {row['id']}")
        texts[row["id"]] = row["text"]
    if not texts:
        raise ConfigurationError(f"{path}: no documents")
    return texts


def collect_training_rows(
    tops: Iterable[tuple[int, str | None]],
    corpus: dict[int, str],
    named: dict[str, list[str]],
    labels_path: str | Path,
    corpus_path: str,
) -> dict[str, list[tuple[int, str, str]]]:
    label_to_set = {
        label: name for name, group in named.items() for label in group
    }
    rows: dict[str, list[tuple[int, str, str]]] = {name: [] for name in named}
    skipped = 0
    for page, top in tops:
        if top is None:
            skipped += 1
            continue
        set_name = label_to_set.get(top)
        if set_name is None:
            raise ConfigurationError(
                f"{labels_path}: label {top!r} in labels file is not in the "
                "chosen scheme"
            )
        text = corpus.get(page)
        if text is None:
            raise ConfigurationError(f"{corpus_path}: page {page} missing from corpus")
        rows[set_name].append((page, top, text))
    if skipped:
        cli.logger.info("skipped %d pages with no assignment", skipped)
    for name, set_rows in rows.items():
        if not set_rows:
            raise ConfigurationError(
                f"{labels_path}: no labeled documents for set {name!r}"
            )
        missing = sorted(set(named[name]).difference(top for _, top, _ in set_rows))
        if missing:
            cli.logger.warning(
                "classes with no training documents: %s", ", ".join(missing)
            )
    return rows


def labeled_rows(get: Callable[[str], Any], balanced: bool) -> tuple:
    """The scheme's name, each set's (page id, top label, text) rows and the
    rows per class; where the rows are ``balanced``, a sample past the row
    limit is refused before the corpus is read."""
    n_per_class = cli._at_least_1(get, "n_per_class")
    taxonomy = load_taxonomy(get("taxonomy"))
    named = cli._named_scheme(get, taxonomy)
    tops = read_labels(get("labels"))
    scheme_name = get("scheme")
    in_set = {label: name for name, group in named.items() for label in group}
    if balanced and n_per_class is None:
        # the largest class of the scheme, within the scheme's default
        counts = Counter(top for _, top in tops if top in in_set)
        largest = max(counts.values(), default=1)
        n_per_class = min(largest, 20_000 if scheme_name == cli.COARSE_SET else 1_000)
    if balanced:
        for name in named:
            classes = {top for _, top in tops if in_set.get(top) == name}
            _check_limit(n_per_class, len(classes))
    corpus = load_corpus(get("corpus"))
    rows = collect_training_rows(tops, corpus, named, get("labels"), get("corpus"))
    return scheme_name, rows, n_per_class


def train_sets(rows, kind, n_per_class, min_df, train_cfg, out_dir) -> Iterator:
    for name, set_rows in rows.items():
        if kind == "svm":
            set_rows = sample_balance(set_rows, n_per_class, train_cfg.seed)
        labels = [label for _, label, _ in set_rows]
        counts = Counter(labels)
        texts = [text for _, _, text in set_rows]
        tfidf = fit_tfidf(texts, min_df=min_df)
        vectors = transform(tfidf, texts)
        if kind == "centroid":
            model = train_centroid(*by_class(vectors, labels), tfidf=tfidf)
        else:
            model = train_svm(
                vectors, labels, train_cfg, n_features=tfidf.vocab_size, tfidf=tfidf
            )
        save_model(model, out_dir / f"{name}.{kind}.json")
        yield name, model, counts


def sample(get: Callable[[str], Any]) -> int:
    scheme_name, rows, n_per_class = labeled_rows(get, True)
    seed, out, summary_out = get("seed"), get("out"), get("summary_out")
    balanced = {
        name: sample_balance(set_rows, n_per_class, seed)
        for name, set_rows in rows.items()
    }
    write_jsonl(
        (
            {"id": page, "label": label, "set": name, "text": text}
            for name, set_rows in balanced.items()
            for page, label, text in set_rows
        ),
        out,
    )
    summary = {
        "config": {"scheme": scheme_name, "n_per_class": n_per_class, "seed": seed},
        "out": out,
        "rows": sum(map(len, balanced.values())),
    }
    cli._emit(summary, summary_out)
    return 0


def train(get: Callable[[str], Any]) -> int:
    kind, min_df = get("kind"), cli._at_least_1(get, "min_df")
    train_cfg = TrainConfig(
        lam=get("lam"), epochs=get("epochs"), eta0=get("eta0"), seed=get("seed")
    )
    out_dir = Path(get("out_dir"))
    scheme_name, rows, n_per_class = labeled_rows(get, kind == "svm")
    out_dir.mkdir(parents=True, exist_ok=True)
    sets_summary = {
        name: {
            "classes": dict(sorted(counts.items())),
            "n_train": sum(counts.values()),
            "vocab_size": model.tfidf.vocab_size,
        }
        for name, model, counts in train_sets(
            rows, kind, n_per_class, min_df, train_cfg, out_dir
        )
    }
    summary = {
        "config": {
            "scheme": scheme_name,
            "kind": kind,
            "n_per_class": n_per_class if kind == "svm" else None,
            "min_df": min_df,
            **asdict(train_cfg),
        },
        "out_dir": str(out_dir),
        "sets": sets_summary,
    }
    cli._emit(summary, out_dir / "train_summary.json")
    return 0


COMMANDS = {
    name: (func, *cli.COMMANDS[name][1:])
    for name, func in (("sample", sample), ("train", train))
}
