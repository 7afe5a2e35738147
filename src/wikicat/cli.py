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
import os
import sys
import traceback
from dataclasses import asdict, replace
from pathlib import Path
from typing import Callable, Sequence

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
from .exceptions import ConfigurationError, WikicatError
from .graph_store import load_graph, load_snapshot, save_snapshot
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
WORKERS_HELP = "must be >= 1 (default: CPU count); labeling runs in one thread"


# ------------------------------------------------------------ shared bits


def _load_config(path: str | None) -> dict:
    """The JSON object in a file (a config, or map's overrides); None gives {}."""
    if path is None:
        return {}
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path}: invalid JSON: {exc}") from None
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
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}:{lineno}"
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ConfigurationError(f"{where}: invalid JSON: {exc}") from None
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
    if scheme == "coarse":
        return {COARSE_SET: coarse_scheme(taxonomy)[0]}
    out = {taxonomy.by_id[group[0]].parent: group for group in fine_scheme(taxonomy)}
    if not out:
        raise ConfigurationError("scheme 'fine': taxonomy has no child labels")
    return out


def _collect_training_rows(
    records: list[dict],
    corpus: dict[int, str],
    named: dict[str, list[str]],
) -> dict[str, list[tuple[int, str, str]]]:
    """Group labeled pages into (page id, top label, text) rows per set."""
    label_to_set = {
        label: name for name, group in named.items() for label in group
    }
    rows: dict[str, list[tuple[int, str, str]]] = {name: [] for name in named}
    skipped = 0
    for rec in records:
        if not rec["assignments"]:
            skipped += 1
            continue
        top = rec["assignments"][0]["label"]
        set_name = label_to_set.get(top)
        if set_name is None:
            raise ConfigurationError(
                f"label {top!r} in labels file is not in the chosen scheme"
            )
        text = corpus.get(rec["page"])
        if text is None:
            raise ConfigurationError(f"page {rec['page']} missing from corpus")
        rows[set_name].append((rec["page"], top, text))
    if skipped:
        logger.info("skipped %d pages with no assignment", skipped)
    return rows


def _train_set(
    rows: list[tuple[int, str, str]],
    group: list[str],
    kind: str,
    n_per_class: int,
    min_df: int,
    train_cfg: TrainConfig,
) -> tuple[CentroidModel | LinearSvmModel, dict[str, int]]:
    """Fit tf-idf and one model on this competition set's documents."""
    if kind == "svm":
        rows = sample_balance(rows, n_per_class, train_cfg.seed, group)
    counts: dict[str, int] = {}
    for _, label, _ in rows:
        counts[label] = counts.get(label, 0) + 1
    missing = sorted(set(group) - set(counts))
    if missing:
        logger.warning("classes with no training documents: %s", ", ".join(missing))
    tfidf = fit_tfidf((text for _, _, text in rows), min_df=min_df)
    vectors = [transform(tfidf, text) for _, _, text in rows]
    labels = [label for _, label, _ in rows]
    if kind == "centroid":
        model = train_centroid(vectors, labels, tfidf=tfidf)
    else:
        model = train_svm(
            vectors, labels, train_cfg, n_features=tfidf.vocab_size, tfidf=tfidf
        )
    return model, counts


def _predictor(model: CentroidModel | LinearSvmModel) -> Callable[[str], str]:
    if isinstance(model, CentroidModel):
        return lambda text: predict_centroid(model, transform(model.tfidf, text))
    return lambda text: predict_svm(model, transform(model.tfidf, text))


def _write_json(doc: dict, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _emit(summary: dict, out: str | None) -> None:
    if out is not None:
        _write_json(summary, out)
    print(json.dumps(summary, sort_keys=True))


# ------------------------------------------------------------ subcommands


def _cmd_build_graph(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    strict = not (args.lenient or bool(cfg.get("lenient", False)))
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
    threshold = float(_get(args, cfg, "threshold", 0.9))
    overrides_path = _get(args, cfg, "overrides", None)
    overrides = None
    if overrides_path is not None:
        overrides = resolve_override_names(graph, _load_config(overrides_path))
    out = _require(args, cfg, "out")
    mapping = map_taxonomy(taxonomy, graph, overrides=overrides, threshold=threshold)
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


def _label_echo(lab_cfg: LabelingConfig, scheme: str, workers: int) -> dict:
    return {**asdict(lab_cfg), "scheme": scheme, "workers": workers}


def _cmd_label(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    graph = _load_graph_arg(_require(args, cfg, "graph"))
    taxonomy = load_taxonomy(_require(args, cfg, "taxonomy"))
    mapping = load_mapping(_require(args, cfg, "mapping"), graph)
    scheme_name = _get(args, cfg, "scheme", "coarse")
    lab_cfg = _label_config(args, cfg)
    workers = _get_as(args, cfg, "workers", 0, int) or (os.cpu_count() or 1)
    out = _require(args, cfg, "out")
    named = _named_scheme(taxonomy, scheme_name)
    records = []
    for name in sorted(named):
        records.extend(
            label_corpus(graph, mapping, [named[name]], lab_cfg, workers=workers)
        )
    write_labels(records, graph, out)
    per_label: dict[str, int] = {}
    unassigned = 0
    for rec in records:
        if not rec.assignments:
            unassigned += 1
        for a in rec.assignments:
            per_label[a.label] = per_label.get(a.label, 0) + 1
    summary = {
        "config": _label_echo(lab_cfg, scheme_name, workers),
        "out": str(out),
        "pages_seen": len(records),
        "unassigned": unassigned,
        "per_label": dict(sorted(per_label.items())),
    }
    _emit(summary, _get(args, cfg, "summary_out", None))
    return 0


def _default_n_per_class(scheme: str) -> int:
    # Coarse sets span the whole corpus; fine sets are per parent.
    return 20_000 if scheme == "coarse" else 1_000


def _cmd_sample(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    taxonomy = load_taxonomy(_require(args, cfg, "taxonomy"))
    records = read_labels(_require(args, cfg, "labels"))
    corpus = _load_corpus(_require(args, cfg, "corpus"))
    scheme_name = _get(args, cfg, "scheme", "coarse")
    seed = int(_get(args, cfg, "seed", 0))
    n_per_class = int(
        _get(args, cfg, "n_per_class", 0) or _default_n_per_class(scheme_name)
    )
    out = _require(args, cfg, "out")
    named = _named_scheme(taxonomy, scheme_name)
    rows = _collect_training_rows(records, corpus, named)
    n_rows = 0
    with open(out, "w", encoding="utf-8") as fh:
        for name in sorted(rows):
            if not rows[name]:
                raise ConfigurationError(f"no labeled documents for set {name!r}")
            balanced = sample_balance(rows[name], n_per_class, seed, named[name])
            for page, label, text in balanced:
                fh.write(
                    json.dumps(
                        {"id": page, "label": label, "set": name, "text": text},
                        sort_keys=True,
                    )
                    + "\n"
                )
            n_rows += len(balanced)
    summary = {
        "config": {
            "scheme": scheme_name,
            "n_per_class": n_per_class,
            "seed": seed,
        },
        "out": str(out),
        "rows": n_rows,
    }
    _emit(summary, _get(args, cfg, "summary_out", None))
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    taxonomy = load_taxonomy(_require(args, cfg, "taxonomy"))
    records = read_labels(_require(args, cfg, "labels"))
    corpus = _load_corpus(_require(args, cfg, "corpus"))
    scheme_name = _get(args, cfg, "scheme", "coarse")
    kind = _get(args, cfg, "kind", "svm")
    seed = int(_get(args, cfg, "seed", 0))
    min_df = int(_get(args, cfg, "min_df", 3))
    n_per_class = int(
        _get(args, cfg, "n_per_class", 0) or _default_n_per_class(scheme_name)
    )
    train_cfg = TrainConfig(
        lam=float(_get(args, cfg, "lam", 1e-4)),
        epochs=int(_get(args, cfg, "epochs", 5)),
        eta0=float(_get(args, cfg, "eta0", 0.1)),
        seed=seed,
    )
    out_dir = Path(_require(args, cfg, "out_dir"))
    out_dir.mkdir(parents=True, exist_ok=True)
    named = _named_scheme(taxonomy, scheme_name)
    rows = _collect_training_rows(records, corpus, named)
    sets_summary: dict[str, dict] = {}
    for name in sorted(named):
        if not rows[name]:
            raise ConfigurationError(f"no labeled documents for set {name!r}")
        model, counts = _train_set(
            rows[name], named[name], kind, n_per_class, min_df, train_cfg
        )
        save_model(model, out_dir / f"{name}.{kind}.json")
        sets_summary[name] = {
            "classes": dict(sorted(counts.items())),
            "n_train": sum(counts.values()),
            "vocab_size": model.tfidf.vocab_size,
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
    predict = _predictor(model)
    with open(out, "w", encoding="utf-8") as fh:
        for page in sorted(corpus):
            fh.write(
                json.dumps({"id": page, "label": predict(corpus[page])}) + "\n"
            )
    print(json.dumps({"n": len(corpus), "out": str(out)}, sort_keys=True))
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    taxonomy = load_taxonomy(_require(args, cfg, "taxonomy"))
    kind = _get(args, cfg, "kind", "svm")
    models_dir = Path(_require(args, cfg, "models_dir"))
    out = _require(args, cfg, "out")
    valid = [lab.id for lab in taxonomy.labels]
    instances = load_eval(_require(args, cfg, "eval"), valid_labels=valid)
    instances = [
        EvalInstance(inst.text, inst.gold, inst.parent or COARSE_SET)
        for inst in instances
    ]
    models: dict[str, Callable[[str], str]] = {}
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
    _write_json(doc, out)
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
    graph = _load_graph_arg(_require(args, cfg, "graph"))
    taxonomy = load_taxonomy(_require(args, cfg, "taxonomy"))
    corpus = _load_corpus(_require(args, cfg, "corpus"))
    scheme_name = _get(args, cfg, "scheme", "coarse")
    seed = int(_get(args, cfg, "seed", 0))
    min_df = int(_get(args, cfg, "min_df", 3))
    n_per_class = int(_get(args, cfg, "n_per_class", 0) or 200)
    workers = _get_as(args, cfg, "workers", 0, int) or (os.cpu_count() or 1)
    out_dir = Path(_require(args, cfg, "out_dir"))
    out_dir.mkdir(parents=True, exist_ok=True)
    mapping_path = _get(args, cfg, "mapping", None)
    if mapping_path is not None:
        mapping = load_mapping(mapping_path, graph)
    else:
        mapping = map_taxonomy(taxonomy, graph)
    valid = [lab.id for lab in taxonomy.labels]
    instances = load_eval(_require(args, cfg, "eval"), valid_labels=valid)
    instances = [
        EvalInstance(inst.text, inst.gold, inst.parent or COARSE_SET)
        for inst in instances
    ]
    named = _named_scheme(taxonomy, scheme_name)
    train_cfg = TrainConfig(seed=seed)
    modes = _get(args, cfg, "modes", None) or list(MODES)
    base_cfg = _label_config(args, cfg)
    rows_out = []
    for mode in modes:
        lab_cfg = replace(base_cfg, mode=mode)
        records = []
        for name in sorted(named):
            records.extend(
                label_corpus(graph, mapping, [named[name]], lab_cfg, workers=workers)
            )
        write_labels(records, graph, out_dir / f"labels.{mode}.jsonl")
        row_map = _collect_training_rows(
            [
                {
                    "page": graph.external_id(rec.page),
                    "assignments": [{"label": a.label} for a in rec.assignments],
                }
                for rec in records
            ],
            corpus,
            named,
        )
        models: dict[str, Callable[[str], str]] = {}
        n_train = 0
        for name in sorted(named):
            if not row_map[name]:
                raise ConfigurationError(f"no labeled documents for set {name!r}")
            model, counts = _train_set(
                row_map[name], named[name], "svm", n_per_class, min_df, train_cfg
            )
            save_model(model, out_dir / f"{mode}.{name}.svm.json")
            models[name] = _predictor(model)
            n_train += sum(counts.values())
        _, pooled = evaluate_grouped(instances, models)
        row = {
            "mode": mode,
            "labeled_pages": sum(1 for r in records if r.assignments),
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
    _write_json(doc, out_dir / "ablation.json")
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

    def add(name: str, func, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file; flags override it")
        p.set_defaults(func=func)
        return p

    p = add("build-graph", _cmd_build_graph, "load TSV graph files, write a snapshot")
    p.add_argument("--categories")
    p.add_argument("--pages")
    p.add_argument("--edges")
    p.add_argument("--redirects")
    p.add_argument("--lenient", action="store_true", help="drop bad edges instead of failing")
    p.add_argument("--out", help="snapshot output path")
    p.add_argument("--stats-out", dest="stats_out")

    p = add("map", _cmd_map, "map taxonomy labels onto category nodes")
    p.add_argument("--graph", help="snapshot file or TSV directory")
    p.add_argument("--taxonomy")
    p.add_argument("--overrides", help="JSON {label id: [category names]}")
    p.add_argument("--threshold", type=float)
    p.add_argument("--out", help="mapping output path")
    p.add_argument("--summary-out", dest="summary_out")

    p = add("label", _cmd_label, "propagate labels to pages over the graph")
    p.add_argument("--graph")
    p.add_argument("--taxonomy")
    p.add_argument("--mapping")
    p.add_argument("--scheme", choices=SCHEMES)
    p.add_argument("--mode", choices=MODES)
    p.add_argument("--coverage-threshold", dest="coverage_threshold", type=float)
    p.add_argument("--assignment-threshold", dest="assignment_threshold", type=float)
    p.add_argument("--max-depth", dest="max_depth", type=int)
    p.add_argument("--path-mode", dest="path_mode", choices=PATH_MODES)
    p.add_argument("--exact-path-cap", dest="exact_path_cap", type=int)
    p.add_argument("--workers", type=int, help=WORKERS_HELP)
    p.add_argument("--out", help="labels JSONL output path")
    p.add_argument("--summary-out", dest="summary_out")

    p = add("sample", _cmd_sample, "balance labeled pages per class")
    p.add_argument("--labels")
    p.add_argument("--corpus")
    p.add_argument("--taxonomy")
    p.add_argument("--scheme", choices=SCHEMES)
    p.add_argument("--n-per-class", dest="n_per_class", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.add_argument("--summary-out", dest="summary_out")

    p = add("train", _cmd_train, "train one model per competition set")
    p.add_argument("--labels")
    p.add_argument("--corpus")
    p.add_argument("--taxonomy")
    p.add_argument("--scheme", choices=SCHEMES)
    p.add_argument("--kind", choices=KINDS)
    p.add_argument("--n-per-class", dest="n_per_class", type=int)
    p.add_argument("--min-df", dest="min_df", type=int)
    p.add_argument("--lam", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--eta0", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--out-dir", dest="out_dir")

    p = add("predict", _cmd_predict, "classify a corpus with a saved model")
    p.add_argument("--model")
    p.add_argument("--corpus")
    p.add_argument("--out")

    p = add("evaluate", _cmd_evaluate, "score saved models on gold instances")
    p.add_argument("--eval", dest="eval")
    p.add_argument("--models-dir", dest="models_dir")
    p.add_argument("--kind", choices=KINDS)
    p.add_argument("--taxonomy")
    p.add_argument("--out", help="report output path")

    p = add("ablate", _cmd_ablate, "compare labeling modes end to end")
    p.add_argument("--graph")
    p.add_argument("--taxonomy")
    p.add_argument("--mapping")
    p.add_argument("--corpus")
    p.add_argument("--eval", dest="eval")
    p.add_argument("--scheme", choices=SCHEMES)
    p.add_argument("--modes", nargs="+", choices=MODES)
    p.add_argument("--coverage-threshold", dest="coverage_threshold", type=float)
    p.add_argument("--assignment-threshold", dest="assignment_threshold", type=float)
    p.add_argument("--max-depth", dest="max_depth", type=int)
    p.add_argument("--path-mode", dest="path_mode", choices=PATH_MODES)
    p.add_argument("--exact-path-cap", dest="exact_path_cap", type=int)
    p.add_argument("--n-per-class", dest="n_per_class", type=int)
    p.add_argument("--min-df", dest="min_df", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--workers", type=int, help=WORKERS_HELP)
    p.add_argument("--out-dir", dest="out_dir")

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
    except WikicatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
