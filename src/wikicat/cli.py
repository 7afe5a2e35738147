"""Command line pipeline around the library modules.

Subcommands cover the whole flow: build-graph, map, label, sample, train,
predict, evaluate, and ablate.  Every value can come from a JSON config
file (--config); explicit flags win over the config, which wins over the
built-in defaults.  Outputs embed the resolved settings, never timestamps,
so identical inputs and seeds reproduce identical bytes.

Exit codes: 0 success, 2 input or validation problem, 3 internal error.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import traceback
from collections import Counter
from dataclasses import asdict, replace
from pathlib import Path
from typing import Callable, Iterable, Sequence

from . import __version__
from .classifiers import (
    CentroidModel,
    LinearSvmModel,
    TrainConfig,
    load_model,
    predict_centroid,
    predict_svm,
    sample_balance,
    save_model,
    train_centroid,
    train_svm,
)
from .evaluation import EvalInstance, evaluate_grouped, load_eval
from .exceptions import ConfigurationError, TaxonomyError, WikicatError
from .graph_store import load_graph, load_snapshot, save_snapshot
from .jsonio import read_json, read_jsonl, write_json, write_jsonl
from .labeler import (
    MODES,
    PATH_MODES,
    LabelingConfig,
    coarse_scheme,
    fine_scheme,
    label_corpus,
    read_labels,
    write_labels,
)
from .taxonomy_mapper import (
    Taxonomy,
    load_mapping,
    load_taxonomy,
    map_taxonomy,
    resolve_override_names,
    save_mapping,
)
from .textproc import fit_tfidf, transform

logger = logging.getLogger(__name__)

COARSE_SET = "coarse"
SCHEMES = ("coarse", "fine")
KINDS = ("centroid", "svm")
WORKERS_HELP = "must be >= 1 (default: 1); labeling runs in one thread"


# ------------------------------------------------------------ shared bits


def _load_config(path: str | None) -> dict:
    """The JSON object in a file (a config, or map's overrides); None gives {}."""
    if path is None:
        return {}
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise ConfigurationError(f"{path}: expected a JSON object")
    return doc


def _get(args: argparse.Namespace, cfg: dict, key: str, default):
    """Flag value if given, else config value, else default."""
    val = getattr(args, key, None)
    if val is None:
        val = cfg.get(key, default)
    return val


def _get_as(args: argparse.Namespace, cfg: dict, key: str, default, kind):
    """``_get`` converted by ``kind``; None passes through when it is the default."""
    val = _get(args, cfg, key, default)
    if val is None and default is None:
        return None
    try:
        return kind(val)
    except (TypeError, ValueError):
        raise ConfigurationError(
            f"{key}: expected {kind.__name__}, got {val!r}"
        ) from None


def _one_of(key: str, val, choices: Sequence[str]):
    if val not in choices:
        raise ConfigurationError(
            f"unknown {key} {val!r}; expected one of {', '.join(choices)}"
        )
    return val


def _require(args: argparse.Namespace, cfg: dict, key: str):
    val = _get(args, cfg, key, None)
    if val is None:
        raise ConfigurationError(f"missing required setting: {key.replace('_', '-')}")
    return val


def _load_graph_arg(path: str):
    """A directory means TSV inputs; a file means a binary snapshot."""
    p = Path(path)
    if p.is_dir():
        redirects = p / "redirects.tsv"
        return load_graph(
            p / "categories.tsv",
            p / "pages.tsv",
            p / "edges.tsv",
            redirects if redirects.exists() else None,
        )
    return load_snapshot(p)


def _load_corpus(path: str | Path) -> dict[int, str]:
    texts: dict[int, str] = {}
    for where, row in read_jsonl(path):
        if (
            not isinstance(row, dict)
            or not isinstance(row.get("id"), int)
            or not isinstance(row.get("text"), str)
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


def _named_scheme(taxonomy: Taxonomy, scheme: str) -> dict[str, list[str]]:
    """Competition sets keyed by name: 'coarse', or one set per parent."""
    if _one_of("scheme", scheme, SCHEMES) == "coarse":
        return {COARSE_SET: coarse_scheme(taxonomy)[0]}
    out = {taxonomy.by_id[group[0]].parent: group for group in fine_scheme(taxonomy)}
    if not out:
        raise ConfigurationError("scheme 'fine': taxonomy has no child labels")
    return out


def _collect_training_rows(
    tops: Iterable[tuple[int, str | None]],
    corpus: dict[int, str],
    named: dict[str, list[str]],
) -> dict[str, list[tuple[int, str, str]]]:
    """Group (page id, top label or None) pairs into (page id, top label,
    text) rows per set."""
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
                f"label {top!r} in labels file is not in the chosen scheme"
            )
        text = corpus.get(page)
        if text is None:
            raise ConfigurationError(f"page {page} missing from corpus")
        rows[set_name].append((page, top, text))
    if skipped:
        logger.info("skipped %d pages with no assignment", skipped)
    return rows


def _labeled_rows(args: argparse.Namespace, cfg: dict) -> tuple:
    """The scheme name, its competition sets by name, and the labels file's
    (page id, top label, text) rows per set."""
    taxonomy = load_taxonomy(_require(args, cfg, "taxonomy"))
    pages, tops = read_labels(_require(args, cfg, "labels"))
    corpus = _load_corpus(_require(args, cfg, "corpus"))
    scheme_name = _get(args, cfg, "scheme", "coarse")
    named = _named_scheme(taxonomy, scheme_name)
    return scheme_name, named, _collect_training_rows(zip(pages, tops), corpus, named)


def _train_sets(
    rows: dict[str, list[tuple[int, str, str]]],
    named: dict[str, list[str]],
    kind: str,
    n_per_class: int,
    min_df: int,
    train_cfg: TrainConfig,
    out_dir: Path,
    prefix: str = "",
) -> dict[str, tuple[CentroidModel | LinearSvmModel, dict[str, int]]]:
    """Fit tf-idf and one model per competition set, in name order, and save
    each as ``out_dir/<prefix><set>.<kind>.json``; with each its class counts."""
    out = {}
    for name in sorted(named):
        set_rows = rows[name]
        if not set_rows:
            raise ConfigurationError(f"no labeled documents for set {name!r}")
        if kind == "svm":
            set_rows = sample_balance(set_rows, n_per_class, train_cfg.seed, named[name])
        labels = [label for _, label, _ in set_rows]
        counts = Counter(labels)
        missing = sorted(set(named[name]) - set(counts))
        if missing:
            logger.warning(
                "classes with no training documents: %s", ", ".join(missing)
            )
        tfidf = fit_tfidf((text for _, _, text in set_rows), min_df=min_df)
        vectors = transform(tfidf, [text for _, _, text in set_rows])
        if kind == "centroid":
            model = train_centroid(vectors, labels, tfidf=tfidf)
        else:
            model = train_svm(
                vectors, labels, train_cfg, n_features=tfidf.vocab_size, tfidf=tfidf
            )
        save_model(model, out_dir / f"{prefix}{name}.{kind}.json")
        out[name] = model, counts
    return out


def _load_eval_sets(path: str, taxonomy: Taxonomy) -> list[EvalInstance]:
    """Gold instances, each with its competition set (``parent`` or coarse)."""
    valid = [lab.id for lab in taxonomy.labels]
    return [
        EvalInstance(inst.text, inst.gold, inst.parent or COARSE_SET)
        for inst in load_eval(path, valid_labels=valid)
    ]


def _predictor(
    model: CentroidModel | LinearSvmModel,
) -> Callable[[Sequence[str]], list[str | None]]:
    """Classify a batch of texts in one call, with the model's own tf-idf."""
    if isinstance(model, CentroidModel):
        return lambda texts: predict_centroid(model, transform(model.tfidf, texts))
    return lambda texts: predict_svm(model, transform(model.tfidf, texts))


def _emit(summary: dict, out: str | None) -> None:
    if out is not None:
        write_json(summary, out)
    print(json.dumps(summary, sort_keys=True))


# ------------------------------------------------------------ subcommands


def _cmd_build_graph(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    lenient = cfg.get("lenient", False)
    if not isinstance(lenient, bool):
        raise ConfigurationError(f"lenient: expected true or false, got {lenient!r}")
    strict = not (args.lenient or lenient)
    categories = _require(args, cfg, "categories")
    pages = _require(args, cfg, "pages")
    edges = _require(args, cfg, "edges")
    redirects = _get(args, cfg, "redirects", None)
    out = _require(args, cfg, "out")
    graph = load_graph(categories, pages, edges, redirects, strict=strict)
    save_snapshot(graph, out)
    summary = {
        "config": {
            "categories": str(categories),
            "pages": str(pages),
            "edges": str(edges),
            "redirects": None if redirects is None else str(redirects),
            "lenient": not strict,
            "out": str(out),
        },
        "stats": graph.stats(),
    }
    _emit(summary, _get(args, cfg, "stats_out", None))
    return 0


def _cmd_map(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    graph = _load_graph_arg(_require(args, cfg, "graph"))
    taxonomy = load_taxonomy(_require(args, cfg, "taxonomy"))
    threshold = _get_as(args, cfg, "threshold", 0.9, float)
    overrides_path = _get(args, cfg, "overrides", None)
    out = _require(args, cfg, "out")
    raw = None if overrides_path is None else _load_config(overrides_path)
    try:
        overrides = None if raw is None else resolve_override_names(graph, raw)
        mapping = map_taxonomy(
            taxonomy, graph, overrides=overrides, threshold=threshold
        )
    except TaxonomyError as exc:  # only an override row can raise it here
        raise TaxonomyError(f"{overrides_path}: {exc}") from None
    save_mapping(mapping, graph, out)
    summary = {
        "config": {
            "graph": str(_require(args, cfg, "graph")),
            "taxonomy": str(_require(args, cfg, "taxonomy")),
            "overrides": None if overrides_path is None else str(overrides_path),
            "threshold": threshold,
            "out": str(out),
        },
        "mapped": sorted(mapping.entries),
        "unmapped": mapping.unmapped,
        "near_misses": {
            lid: len(rows) for lid, rows in mapping.near_misses.items()
        },
    }
    _emit(summary, _get(args, cfg, "summary_out", None))
    return 0


def _label_config(args: argparse.Namespace, cfg: dict) -> LabelingConfig:
    return LabelingConfig(
        mode=_get(args, cfg, "mode", "full"),
        coverage_threshold=_get_as(args, cfg, "coverage_threshold", 0.3, float),
        assignment_threshold=_get_as(args, cfg, "assignment_threshold", 0.3, float),
        max_depth=_get_as(args, cfg, "max_depth", None, int),
        path_mode=_get(args, cfg, "path_mode", "dag"),
        exact_path_cap=_get_as(args, cfg, "exact_path_cap", 8, int),
    )


def _cmd_label(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    graph = _load_graph_arg(_require(args, cfg, "graph"))
    taxonomy = load_taxonomy(_require(args, cfg, "taxonomy"))
    mapping = load_mapping(_require(args, cfg, "mapping"), graph)
    scheme_name = _get(args, cfg, "scheme", "coarse")
    lab_cfg = _label_config(args, cfg)
    workers = _get_as(args, cfg, "workers", 1, int)
    out = _require(args, cfg, "out")
    named = _named_scheme(taxonomy, scheme_name)
    scheme = [named[name] for name in sorted(named)]
    labeled = label_corpus(graph, mapping, scheme, lab_cfg, workers=workers)
    write_labels(labeled, graph, out)
    summary = {
        "config": {**asdict(lab_cfg), "scheme": scheme_name, "workers": workers},
        "out": str(out),
        "pages_seen": len(labeled),
        "unassigned": labeled.unassigned(),
        "per_label": labeled.per_label(),
    }
    _emit(summary, _get(args, cfg, "summary_out", None))
    return 0


def _n_per_class(args: argparse.Namespace, cfg: dict, default: int) -> int:
    """The ``n_per_class`` setting; only an absent one takes the default.

    Read before a subcommand does any work, so a bad value writes nothing.
    """
    n = _get_as(args, cfg, "n_per_class", None, int)
    if n is None:
        return default
    if n < 1:
        raise ConfigurationError("n_per_class must be >= 1")
    return n


def _default_n_per_class(args: argparse.Namespace, cfg: dict) -> int:
    # Coarse sets span the whole corpus; fine sets are per parent.
    return 20_000 if _get(args, cfg, "scheme", "coarse") == "coarse" else 1_000


def _cmd_sample(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    n_per_class = _n_per_class(args, cfg, _default_n_per_class(args, cfg))
    scheme_name, named, rows = _labeled_rows(args, cfg)
    seed = _get_as(args, cfg, "seed", 0, int)
    out = _require(args, cfg, "out")
    balanced = {}
    for name in sorted(rows):
        if not rows[name]:
            raise ConfigurationError(f"no labeled documents for set {name!r}")
        balanced[name] = sample_balance(rows[name], n_per_class, seed, named[name])
    write_jsonl(
        (
            {"id": page, "label": label, "set": name, "text": text}
            for name, set_rows in balanced.items()
            for page, label, text in set_rows
        ),
        out,
    )
    summary = {
        "config": {
            "scheme": scheme_name,
            "n_per_class": n_per_class,
            "seed": seed,
        },
        "out": str(out),
        "rows": sum(map(len, balanced.values())),
    }
    _emit(summary, _get(args, cfg, "summary_out", None))
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    n_per_class = _n_per_class(args, cfg, _default_n_per_class(args, cfg))
    scheme_name, named, rows = _labeled_rows(args, cfg)
    kind = _one_of("kind", _get(args, cfg, "kind", "svm"), KINDS)
    seed = _get_as(args, cfg, "seed", 0, int)
    min_df = _get_as(args, cfg, "min_df", 3, int)
    train_cfg = TrainConfig(
        lam=_get_as(args, cfg, "lam", 1e-4, float),
        epochs=_get_as(args, cfg, "epochs", 5, int),
        eta0=_get_as(args, cfg, "eta0", 0.1, float),
        seed=seed,
    )
    out_dir = Path(_require(args, cfg, "out_dir"))
    out_dir.mkdir(parents=True, exist_ok=True)
    trained = _train_sets(
        rows, named, kind, n_per_class, min_df, train_cfg, out_dir
    )
    sets_summary = {
        name: {
            "classes": dict(sorted(counts.items())),
            "n_train": sum(counts.values()),
            "vocab_size": model.tfidf.vocab_size,
        }
        for name, (model, counts) in trained.items()
    }
    summary = {
        "config": {
            "scheme": scheme_name,
            "kind": kind,
            "n_per_class": n_per_class if kind == "svm" else None,
            "min_df": min_df,
            "lam": train_cfg.lam,
            "epochs": train_cfg.epochs,
            "eta0": train_cfg.eta0,
            "seed": seed,
        },
        "out_dir": str(out_dir),
        "sets": sets_summary,
    }
    _emit(summary, out_dir / "train_summary.json")
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    model = load_model(_require(args, cfg, "model"))
    corpus = _load_corpus(_require(args, cfg, "corpus"))
    out = _require(args, cfg, "out")
    pages = sorted(corpus)
    labels = _predictor(model)([corpus[page] for page in pages])
    write_jsonl(
        ({"id": page, "label": label} for page, label in zip(pages, labels)), out
    )
    print(json.dumps({"n": len(corpus), "out": str(out)}, sort_keys=True))
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    taxonomy = load_taxonomy(_require(args, cfg, "taxonomy"))
    kind = _one_of("kind", _get(args, cfg, "kind", "svm"), KINDS)
    models_dir = Path(_require(args, cfg, "models_dir"))
    out = _require(args, cfg, "out")
    instances = _load_eval_sets(_require(args, cfg, "eval"), taxonomy)
    models = {}
    for parent in sorted({inst.parent for inst in instances}):
        path = models_dir / f"{parent}.{kind}.json"
        if not path.exists():
            raise ConfigurationError(f"missing model file: {path}")
        models[parent] = _predictor(load_model(path))
    reports, pooled = evaluate_grouped(instances, models)
    doc = {
        "config": {
            "eval": str(_require(args, cfg, "eval")),
            "models_dir": str(models_dir),
            "kind": kind,
        },
        "pooled": pooled.to_dict(),
        "per_parent": {name: rep.to_dict() for name, rep in reports.items()},
    }
    write_json(doc, out)
    print(
        json.dumps(
            {
                "accuracy": pooled.accuracy,
                "macro_f1": pooled.macro_f1,
                "n": pooled.n,
                "out": str(out),
            },
            sort_keys=True,
        )
    )
    return 0


def _cmd_ablate(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    n_per_class = _n_per_class(args, cfg, 200)
    graph = _load_graph_arg(_require(args, cfg, "graph"))
    taxonomy = load_taxonomy(_require(args, cfg, "taxonomy"))
    corpus = _load_corpus(_require(args, cfg, "corpus"))
    scheme_name = _get(args, cfg, "scheme", "coarse")
    seed = _get_as(args, cfg, "seed", 0, int)
    min_df = _get_as(args, cfg, "min_df", 3, int)
    workers = _get_as(args, cfg, "workers", 1, int)
    out_dir = Path(_require(args, cfg, "out_dir"))
    out_dir.mkdir(parents=True, exist_ok=True)
    mapping_path = _get(args, cfg, "mapping", None)
    if mapping_path is not None:
        mapping = load_mapping(mapping_path, graph)
    else:
        mapping = map_taxonomy(taxonomy, graph)
    instances = _load_eval_sets(_require(args, cfg, "eval"), taxonomy)
    named = _named_scheme(taxonomy, scheme_name)
    scheme = [named[name] for name in sorted(named)]
    train_cfg = TrainConfig(seed=seed)
    modes = _get(args, cfg, "modes", None) or list(MODES)
    if not (isinstance(modes, list) and all(isinstance(m, str) for m in modes)):
        raise ConfigurationError(f"modes: expected a list of strings, got {modes!r}")
    base_cfg = _label_config(args, cfg)
    rows_out = []
    for mode in modes:
        lab_cfg = replace(base_cfg, mode=mode)
        labeled = label_corpus(graph, mapping, scheme, lab_cfg, workers=workers)
        write_labels(labeled, graph, out_dir / f"labels.{mode}.jsonl")
        pages = graph.external_ids(labeled.page).tolist()
        tops = labeled.tops()
        trained = _train_sets(
            _collect_training_rows(zip(pages, tops), corpus, named),
            named, "svm", n_per_class, min_df, train_cfg, out_dir, f"{mode}.",
        )
        models = {name: _predictor(model) for name, (model, _) in trained.items()}
        n_train = sum(sum(counts.values()) for _, counts in trained.values())
        _, pooled = evaluate_grouped(instances, models)
        row = {
            "mode": mode,
            "labeled_pages": len(labeled) - labeled.unassigned(),
            "n_train_docs": n_train,
            "accuracy": pooled.accuracy,
            "macro_f1": pooled.macro_f1,
        }
        rows_out.append(row)
        logger.info(
            "mode %-15s acc %.4f macro_f1 %.4f", mode, row["accuracy"], row["macro_f1"]
        )
    doc = {
        "config": {
            "scheme": scheme_name,
            "seed": seed,
            "min_df": min_df,
            "n_per_class": n_per_class,
            "modes": list(modes),
            "path_mode": base_cfg.path_mode,
        },
        "rows": rows_out,
    }
    write_json(doc, out_dir / "ablation.json")
    print(json.dumps({"rows": rows_out}, sort_keys=True))
    return 0


# ----------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wikicat",
        description="Bootstrap text classifiers from a category graph.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument(
        "-v", "--verbose", action="store_true", help="log progress to stderr"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_text: str, *paths: str) -> argparse.ArgumentParser:
        """A subcommand with --config and a plain string option per path flag."""
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file; flags override it")
        for flag in paths:
            p.add_argument(flag)
        p.set_defaults(func=func)
        return p

    def add_labeling(p: argparse.ArgumentParser) -> None:
        p.add_argument("--scheme", choices=SCHEMES)
        p.add_argument("--coverage-threshold", type=float)
        p.add_argument("--assignment-threshold", type=float)
        p.add_argument("--max-depth", type=int)
        p.add_argument("--path-mode", choices=PATH_MODES)
        p.add_argument("--exact-path-cap", type=int)
        p.add_argument("--workers", type=int, help=WORKERS_HELP)

    p = add(
        "build-graph", _cmd_build_graph, "load TSV graph files, write a snapshot",
        "--categories", "--pages", "--edges", "--redirects", "--stats-out",
    )
    p.add_argument("--lenient", action="store_true", help="drop bad edges instead of failing")
    p.add_argument("--out", help="snapshot output path")

    p = add(
        "map", _cmd_map, "map taxonomy labels onto category nodes",
        "--taxonomy", "--summary-out",
    )
    p.add_argument("--graph", help="snapshot file or TSV directory")
    p.add_argument("--overrides", help="JSON {label id: [category names]}")
    p.add_argument("--threshold", type=float)
    p.add_argument("--out", help="mapping output path")

    p = add(
        "label", _cmd_label, "propagate labels to pages over the graph",
        "--graph", "--taxonomy", "--mapping", "--summary-out",
    )
    add_labeling(p)
    p.add_argument("--mode", choices=MODES)
    p.add_argument("--out", help="labels JSONL output path")

    p = add(
        "sample", _cmd_sample, "balance labeled pages per class",
        "--labels", "--corpus", "--taxonomy", "--out", "--summary-out",
    )
    p.add_argument("--scheme", choices=SCHEMES)
    p.add_argument("--n-per-class", type=int)
    p.add_argument("--seed", type=int)

    p = add(
        "train", _cmd_train, "train one model per competition set",
        "--labels", "--corpus", "--taxonomy", "--out-dir",
    )
    p.add_argument("--scheme", choices=SCHEMES)
    p.add_argument("--kind", choices=KINDS)
    p.add_argument("--n-per-class", type=int)
    p.add_argument("--min-df", type=int)
    p.add_argument("--lam", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--eta0", type=float)
    p.add_argument("--seed", type=int)

    add(
        "predict", _cmd_predict, "classify a corpus with a saved model",
        "--model", "--corpus", "--out",
    )

    p = add(
        "evaluate", _cmd_evaluate, "score saved models on gold instances",
        "--eval", "--models-dir", "--taxonomy",
    )
    p.add_argument("--kind", choices=KINDS)
    p.add_argument("--out", help="report output path")

    p = add(
        "ablate", _cmd_ablate, "compare labeling modes end to end",
        "--graph", "--taxonomy", "--mapping", "--corpus", "--eval", "--out-dir",
    )
    add_labeling(p)
    p.add_argument("--modes", nargs="+", choices=MODES)
    p.add_argument("--n-per-class", type=int)
    p.add_argument("--min-df", type=int)
    p.add_argument("--seed", type=int)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        return args.func(args)
    except (WikicatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
