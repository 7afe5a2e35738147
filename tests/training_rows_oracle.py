"""Reference for the training rows of ``sample`` and ``train``: every text.

It reads the whole corpus into one dict, groups the labels file's pages
into (page id, top label, text) rows per competition set, checks them in
file order, logging through ``cli``'s logger, and only then samples:
``sample`` every set, ``train`` each set of an svm just before fitting it.
``cli`` draws the same sample from the labels file before it reads the
corpus and keeps only the texts it uses; the differential tests require
the same exit code, the same first error line, the same log records and
the same output bytes.

``sample`` and ``train`` take ``get``, the resolved settings, as the
subcommands do; ``COMMANDS`` gives their entries for ``cli.COMMANDS``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

from docmatrix import by_class
from wikicat import cli
from wikicat.classifiers import (
    TrainConfig,
    sample_balance,
    save_model,
    train_centroid,
    train_svm,
)
from wikicat.exceptions import ConfigurationError
from wikicat.jsonio import INTEGER, STRING, read_jsonl, write_jsonl
from wikicat.labeler import read_labels
from wikicat.taxonomy import load_taxonomy
from wikicat.textproc import fit_tfidf, transform


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


def labeled_rows(get: Callable[[str], Any]) -> tuple:
    n_per_class = cli._at_least_1(get, "n_per_class")
    taxonomy = load_taxonomy(get("taxonomy"))
    named = cli._named_scheme(get, taxonomy)
    pages, tops = read_labels(get("labels"))
    corpus = load_corpus(get("corpus"))
    rows = collect_training_rows(
        zip(pages, tops), corpus, named, get("labels"), get("corpus")
    )
    scheme_name = get("scheme")
    if n_per_class is None:  # the largest class, within the scheme's default
        largest = max(
            count
            for set_rows in rows.values()
            for count in Counter(top for _, top, _ in set_rows).values()
        )
        n_per_class = min(largest, 20_000 if scheme_name == cli.COARSE_SET else 1_000)
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
    scheme_name, rows, n_per_class = labeled_rows(get)
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
    scheme_name, rows, n_per_class = labeled_rows(get)
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
