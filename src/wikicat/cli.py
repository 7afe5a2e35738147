"""Command line pipeline around the library modules.

Subcommands cover the whole flow: build-graph, map, label, sample, train,
predict, evaluate, and ablate.  Each setting is declared once, in
``SETTINGS``, and each subcommand names its settings in ``COMMANDS``; the
flags are built from them.  Every value can also come from a JSON config
file (--config), where it must have the setting's JSON type; explicit flags
win over the config, which wins over the built-in defaults.  Outputs embed
the resolved settings, never timestamps, so identical inputs and seeds
reproduce identical bytes.

Exit codes: 0 success, 2 input or validation problem, 3 internal error.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import traceback
from collections import Counter
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence

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
from .jsonio import (
    BOOLEAN, INTEGER, NUMBER, STRING, read_json, read_jsonl, write_json, write_jsonl,
)
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
    CategoryMapping,
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


# --------------------------------------------------------------- settings

_REQUIRED = object()  # the default of a setting that has none
_JSON_TYPES = {"str": STRING, "int": INTEGER, "float": NUMBER, "bool": BOOLEAN}


@dataclass(frozen=True)
class Setting:
    """One option of the subcommands: its config key (the flag is ``--``
    and the key with dashes), its JSON type, default and help.  The type is
    "str", "int", "float", "bool", "choice" (a string of ``choices``) or
    "choices" (a list of them).  A config value of null is taken only where
    the default is None."""

    key: str
    type: str
    default: Any = _REQUIRED
    help: str = ""
    choices: tuple[str, ...] = ()


SETTINGS = {s.key: s for s in (
    Setting("categories", "str", help="categories TSV: id, name"),
    Setting("pages", "str", help="pages TSV: id, name"),
    Setting("edges", "str", help="edges TSV: parent, child, subcat|member"),
    Setting("redirects", "str", None, "redirects TSV: alias, target"),
    Setting("lenient", "bool", False, "drop bad edges instead of failing"),
    Setting("graph", "str", help="snapshot file or TSV directory"),
    Setting("taxonomy", "str", help="taxonomy JSON"),
    Setting("overrides", "str", None, "JSON {label id: [category names]}"),
    Setting("threshold", "float", 0.9, "fuzzy match threshold"),
    Setting("mapping", "str", help="mapping JSON written by map"),
    Setting("scheme", "choice", "coarse", "competition sets", SCHEMES),
    Setting("mode", "choice", "full", "labeling mode", MODES),
    Setting("modes", "choices", MODES, "labeling modes to compare", MODES),
    Setting("coverage_threshold", "float", 0.3, "coverage pruning threshold"),
    Setting("assignment_threshold", "float", 0.3, "assignment threshold"),
    Setting("max_depth", "int", None, "deepest category level to walk"),
    Setting("path_mode", "choice", "dag", "path weighting", PATH_MODES),
    Setting("exact_path_cap", "int", 8, "depth cap of exact path mode"),
    Setting("workers", "int", 1, "must be >= 1; labeling runs in one thread"),
    Setting("labels", "str", help="labels JSONL written by label"),
    Setting("corpus", "str", help="corpus JSONL: id, text"),
    Setting("n_per_class", "int", None, "documents sampled per class"),
    Setting("seed", "int", 0, "random seed"),
    Setting("kind", "choice", "svm", "model kind", KINDS),
    Setting("min_df", "int", 3, "minimum document frequency of a term"),
    Setting("lam", "float", 1e-4, "SVM L2 penalty"),
    Setting("epochs", "int", 5, "SVM epochs"),
    Setting("eta0", "float", 0.1, "SVM initial learning rate"),
    Setting("model", "str", help="model JSON written by train"),
    Setting("eval", "str", help="gold instances JSONL"),
    Setting("models_dir", "str", help="directory of train's models"),
    Setting("out", "str", help="output file"),
    Setting("out_dir", "str", help="output directory"),
    Setting("stats_out", "str", None, "also write the summary here"),
    Setting("summary_out", "str", None, "also write the summary here"),
)}
# The labeling settings of label and ablate, each a LabelingConfig field.
_LABELING = (
    "coverage_threshold", "assignment_threshold", "max_depth", "path_mode",
    "exact_path_cap",
)


def _checked(s: Setting, val: Any) -> Any:
    """A config value of ``s``, or a ConfigurationError that names its key."""
    if val is None and s.default is None:
        return None
    if s.type == "choices":
        # Like the flag, which takes one or more, an empty list is refused.
        strings = type(val) is list and STRING.types.issuperset(map(type, val))
        if not strings or not val:
            raise ConfigurationError(
                f"{s.key}: expected a list of strings, got {val!r}"
            )
        items = val
    elif s.type == "choice":
        items = [val]
    else:
        jtype = _JSON_TYPES[s.type]
        if type(val) not in jtype.types:
            raise ConfigurationError(f"{s.key}: expected {jtype.name}, got {val!r}")
        if s.type != "float":
            return val
        try:
            return float(val)
        except OverflowError:
            raise ConfigurationError(f"{s.key}: number beyond float range") from None
    for item in items:
        if item not in s.choices:
            raise ConfigurationError(
                f"unknown {s.key} {item!r}; expected one of {', '.join(s.choices)}"
            )
    return val


def _load_config(path: str | None) -> dict:
    """The JSON object in a file (a config, or map's overrides); None gives {}."""
    if path is None:
        return {}
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise ConfigurationError(f"{path}: expected a JSON object")
    return doc


def _settings(args: argparse.Namespace) -> Callable[[str], Any]:
    """Load the command's config and return ``get``: ``get(key)`` is the
    flag's value if given, else the config's value checked against the
    key's setting, else the setting's default.  Keys of other commands are
    ignored, so one config file serves them all."""
    cfg = _load_config(args.config)

    def get(key: str) -> Any:
        val = getattr(args, key)
        if val is not None:
            return val
        s = args.settings[key]
        if key in cfg:
            return _checked(s, cfg[key])
        if s.default is _REQUIRED:
            raise ConfigurationError(
                f"missing required setting: {key.replace('_', '-')}"
            )
        return s.default

    return get


# ------------------------------------------------------------ shared bits


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


def _set_name(name: str, where: str) -> str:
    """A competition set's name, which names its model files
    ``<set>.<kind>.json``; one that is not a plain file name is refused."""
    if name in ("", ".", "..") or {os.sep, os.altsep} & set(name):
        raise ConfigurationError(
            f"{where} {name!r} names a competition set but is not a file name"
        )
    return name


def _named_scheme(
    get: Callable[[str], Any], taxonomy: Taxonomy
) -> dict[str, list[str]]:
    """The scheme's competition sets keyed by name, in name order: 'coarse',
    or one set per parent, named by the parent's id."""
    if get("scheme") == COARSE_SET:
        return {COARSE_SET: coarse_scheme(taxonomy)[0]}
    path = get("taxonomy")
    out = {taxonomy.by_id[group[0]].parent: group for group in fine_scheme(taxonomy)}
    if not out:
        raise ConfigurationError(f"{path}: scheme 'fine': taxonomy has no child labels")
    return {_set_name(name, f"{path}: label"): out[name] for name in sorted(out)}


def _mapped_scheme(
    get: Callable[[str], Any], graph, taxonomy: Taxonomy
) -> tuple[CategoryMapping, dict[str, list[str]]]:
    """The mapping (the ``mapping`` file, or else the taxonomy mapped at the
    default threshold) and the scheme's competition sets by name.  A label
    with no category, or a category mapped for two labels of one set, is
    refused naming the mapping's source, before any labeling."""
    source = get("mapping")
    if source is None:
        mapping, source = map_taxonomy(taxonomy, graph), get("taxonomy")
    else:
        mapping = load_mapping(source, graph, taxonomy)
    named = _named_scheme(get, taxonomy)
    for group in named.values():
        owner: dict[int, str] = {}
        for label in group:
            nodes = [mc.node for mc in mapping.entries.get(label, ())]
            if not nodes:
                raise TaxonomyError(
                    f"{source}: label {label!r} is not mapped to any category"
                )
            for node in nodes:
                if owner.setdefault(node, label) != label:
                    raise ConfigurationError(
                        f"{source}: category {graph.external_id(node)} is mapped "
                        f"for both {owner[node]!r} and {label!r}"
                    )
    return mapping, named


def _n_per_class(get: Callable[[str], Any]) -> int | None:
    """``n_per_class``, or None for the command's default."""
    n_per_class = get("n_per_class")
    if n_per_class is not None and n_per_class < 1:
        raise ConfigurationError("n_per_class must be >= 1")
    return n_per_class


def _collect_training_rows(
    tops: Iterable[tuple[int, str | None]],
    corpus: dict[int, str],
    named: dict[str, list[str]],
    labels_path: str | Path,
    corpus_path: str,
) -> dict[str, list[tuple[int, str, str]]]:
    """Group (page id, top label or None) pairs, read from ``labels_path``,
    into (page id, top label, text) rows per set, in ``named``'s order.
    Every set must have rows, and each warns once about its classes without
    any."""
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
        logger.info("skipped %d pages with no assignment", skipped)
    for name, set_rows in rows.items():
        if not set_rows:
            raise ConfigurationError(
                f"{labels_path}: no labeled documents for set {name!r}"
            )
        missing = sorted(set(named[name]).difference(top for _, top, _ in set_rows))
        if missing:
            logger.warning(
                "classes with no training documents: %s", ", ".join(missing)
            )
    return rows


def _labeled_rows(get: Callable[[str], Any]) -> tuple:
    """The scheme name, the labels file's (page id, top label, text) rows
    per competition set, and ``n_per_class``, which is checked before any
    file is read."""
    n_per_class = _n_per_class(get)
    taxonomy = load_taxonomy(get("taxonomy"))
    pages, tops = read_labels(get("labels"))
    corpus = _load_corpus(get("corpus"))
    named = _named_scheme(get, taxonomy)
    rows = _collect_training_rows(
        zip(pages, tops), corpus, named, get("labels"), get("corpus")
    )
    scheme_name = get("scheme")
    # Coarse sets span the whole corpus; fine sets are per parent.
    default = 20_000 if scheme_name == COARSE_SET else 1_000
    return scheme_name, rows, n_per_class or default


def _train_sets(
    rows: dict[str, list[tuple[int, str, str]]],
    kind: str,
    n_per_class: int,
    min_df: int,
    train_cfg: TrainConfig,
    out_dir: Path,
    prefix: str = "",
) -> Iterator[tuple[str, CentroidModel | LinearSvmModel, Counter]]:
    """Fit tf-idf and one model per competition set, in ``rows``' order,
    save each as ``out_dir/<prefix><set>.<kind>.json`` and yield it with its
    set name and class counts, so a caller keeps only the models it needs."""
    for name, set_rows in rows.items():
        if kind == "svm":
            set_rows = sample_balance(set_rows, n_per_class, train_cfg.seed)
        labels = [label for _, label, _ in set_rows]
        counts = Counter(labels)
        tfidf = fit_tfidf((text for _, _, text in set_rows), min_df=min_df)
        vectors = transform(tfidf, [text for _, _, text in set_rows])
        if kind == "centroid":
            model = train_centroid(vectors, labels, tfidf=tfidf)
        else:
            model = train_svm(
                vectors, labels, train_cfg, n_features=tfidf.vocab_size, tfidf=tfidf
            )
        save_model(model, out_dir / f"{prefix}{name}.{kind}.json")
        yield name, model, counts


def _load_eval_sets(path: str, taxonomy: Taxonomy) -> list[EvalInstance]:
    """Gold instances, each with its competition set (``parent`` or coarse)."""
    instances = load_eval(path, valid_labels=[lab.id for lab in taxonomy.labels])
    for inst in instances:
        if inst.parent is not None:
            _set_name(inst.parent, f"{path}: parent")
    return [
        EvalInstance(inst.text, inst.gold, inst.parent or COARSE_SET)
        for inst in instances
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
    get = _settings(args)
    config = {
        key: get(key)
        for key in ("lenient", "categories", "pages", "edges", "redirects", "out")
    }
    stats_out = get("stats_out")
    graph = load_graph(
        config["categories"], config["pages"], config["edges"], config["redirects"],
        strict=not config["lenient"],
    )
    save_snapshot(graph, config["out"])
    _emit({"config": config, "stats": graph.stats()}, stats_out)
    return 0


def _cmd_map(args: argparse.Namespace) -> int:
    get = _settings(args)
    config = {
        key: get(key) for key in ("graph", "taxonomy", "threshold", "overrides", "out")
    }
    summary_out = get("summary_out")
    graph = _load_graph_arg(config["graph"])
    taxonomy = load_taxonomy(config["taxonomy"])
    overrides_path = config["overrides"]
    raw = None if overrides_path is None else _load_config(overrides_path)
    try:
        overrides = None if raw is None else resolve_override_names(graph, raw)
        mapping = map_taxonomy(
            taxonomy, graph, overrides=overrides, threshold=config["threshold"]
        )
    except TaxonomyError as exc:  # only an override row can raise it here
        raise TaxonomyError(f"{overrides_path}: {exc}") from None
    save_mapping(mapping, graph, config["out"])
    summary = {
        "config": config,
        "mapped": sorted(mapping.entries),
        "unmapped": mapping.unmapped,
        "near_misses": {
            lid: len(rows) for lid, rows in mapping.near_misses.items()
        },
    }
    _emit(summary, summary_out)
    return 0


def _cmd_label(args: argparse.Namespace) -> int:
    get = _settings(args)
    scheme_name, workers = get("scheme"), get("workers")
    lab_cfg = LabelingConfig(mode=get("mode"), **{key: get(key) for key in _LABELING})
    out, summary_out = get("out"), get("summary_out")
    graph = _load_graph_arg(get("graph"))
    taxonomy = load_taxonomy(get("taxonomy"))
    mapping, named = _mapped_scheme(get, graph, taxonomy)
    scheme = list(named.values())
    labeled = label_corpus(graph, mapping, scheme, lab_cfg, workers=workers)
    write_labels(labeled, graph, out)
    summary = {
        "config": {**asdict(lab_cfg), "scheme": scheme_name, "workers": workers},
        "out": out,
        "pages_seen": len(labeled),
        "unassigned": labeled.unassigned(),
        "per_label": labeled.per_label(),
    }
    _emit(summary, summary_out)
    return 0


def _cmd_sample(args: argparse.Namespace) -> int:
    get = _settings(args)
    scheme_name, rows, n_per_class = _labeled_rows(get)
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
        "config": {
            "scheme": scheme_name,
            "n_per_class": n_per_class,
            "seed": seed,
        },
        "out": out,
        "rows": sum(map(len, balanced.values())),
    }
    _emit(summary, summary_out)
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    get = _settings(args)
    scheme_name, rows, n_per_class = _labeled_rows(get)
    kind, min_df = get("kind"), get("min_df")
    train_cfg = TrainConfig(
        lam=get("lam"), epochs=get("epochs"), eta0=get("eta0"), seed=get("seed")
    )
    out_dir = Path(get("out_dir"))
    out_dir.mkdir(parents=True, exist_ok=True)
    sets_summary = {
        name: {
            "classes": dict(sorted(counts.items())),
            "n_train": sum(counts.values()),
            "vocab_size": model.tfidf.vocab_size,
        }
        for name, model, counts in _train_sets(
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
    _emit(summary, out_dir / "train_summary.json")
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    get = _settings(args)
    out = get("out")
    model = load_model(get("model"))
    corpus = _load_corpus(get("corpus"))
    pages = sorted(corpus)
    labels = _predictor(model)([corpus[page] for page in pages])
    write_jsonl(
        ({"id": page, "label": label} for page, label in zip(pages, labels)), out
    )
    print(json.dumps({"n": len(corpus), "out": out}, sort_keys=True))
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    get = _settings(args)
    kind, out, models_dir = get("kind"), get("out"), Path(get("models_dir"))
    taxonomy = load_taxonomy(get("taxonomy"))
    eval_path = get("eval")
    instances = _load_eval_sets(eval_path, taxonomy)
    models = {}
    for parent in sorted({inst.parent for inst in instances}):
        path = models_dir / f"{parent}.{kind}.json"
        if not path.exists():
            raise ConfigurationError(f"missing model file: {path}")
        models[parent] = _predictor(load_model(path))
    reports, pooled = evaluate_grouped(instances, models)
    doc = {
        "config": {"eval": eval_path, "models_dir": str(models_dir), "kind": kind},
        "pooled": pooled.to_dict(),
        "per_parent": {name: rep.to_dict() for name, rep in reports.items()},
    }
    write_json(doc, out)
    scores = {"accuracy": pooled.accuracy, "macro_f1": pooled.macro_f1, "n": pooled.n}
    print(json.dumps({**scores, "out": out}, sort_keys=True))
    return 0


def _cmd_ablate(args: argparse.Namespace) -> int:
    get = _settings(args)
    n_per_class = _n_per_class(get) or 200
    scheme_name, seed, min_df = get("scheme"), get("seed"), get("min_df")
    workers, modes = get("workers"), list(get("modes"))
    base_cfg = LabelingConfig(**{key: get(key) for key in _LABELING})
    out_dir = Path(get("out_dir"))
    graph = _load_graph_arg(get("graph"))
    taxonomy = load_taxonomy(get("taxonomy"))
    corpus = _load_corpus(get("corpus"))
    out_dir.mkdir(parents=True, exist_ok=True)
    mapping, named = _mapped_scheme(get, graph, taxonomy)
    scheme = list(named.values())
    instances = _load_eval_sets(get("eval"), taxonomy)
    train_cfg = TrainConfig(seed=seed)
    rows_out = []
    for mode in modes:
        lab_cfg = replace(base_cfg, mode=mode)
        labeled = label_corpus(graph, mapping, scheme, lab_cfg, workers=workers)
        labels_path = out_dir / f"labels.{mode}.jsonl"
        write_labels(labeled, graph, labels_path)
        pages = graph.external_ids(labeled.page).tolist()
        rows = _collect_training_rows(
            zip(pages, labeled.tops()), corpus, named, labels_path, get("corpus")
        )
        models, n_train = {}, 0
        for name, model, counts in _train_sets(
            rows, "svm", n_per_class, min_df, train_cfg, out_dir, f"{mode}."
        ):
            models[name] = _predictor(model)
            n_train += sum(counts.values())
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
            "modes": modes,
            **{key: getattr(base_cfg, key) for key in _LABELING},
        },
        "rows": rows_out,
    }
    write_json(doc, out_dir / "ablation.json")
    print(json.dumps({"rows": rows_out}, sort_keys=True))
    return 0


# ----------------------------------------------------------------- parser


# Each subcommand: its function, its help, and the settings it takes.
_LABEL_FLAGS = ("scheme", *_LABELING, "workers")
COMMANDS = {
    "build-graph": (_cmd_build_graph, "load TSV graph files, write a snapshot", (
        "categories", "pages", "edges", "redirects", "stats_out", "lenient", "out")),
    "map": (_cmd_map, "map taxonomy labels onto category nodes", (
        "taxonomy", "summary_out", "graph", "overrides", "threshold", "out")),
    "label": (_cmd_label, "propagate labels to pages over the graph", (
        "graph", "taxonomy", "mapping", "summary_out", *_LABEL_FLAGS, "mode", "out")),
    "sample": (_cmd_sample, "balance labeled pages per class", (
        "labels", "corpus", "taxonomy", "out", "summary_out", "scheme",
        "n_per_class", "seed")),
    "train": (_cmd_train, "train one model per competition set", (
        "labels", "corpus", "taxonomy", "out_dir", "scheme", "kind", "n_per_class",
        "min_df", "lam", "epochs", "eta0", "seed")),
    "predict": (_cmd_predict, "classify a corpus with a saved model", (
        "model", "corpus", "out")),
    "evaluate": (_cmd_evaluate, "score saved models on gold instances", (
        "eval", "models_dir", "taxonomy", "kind", "out")),
    "ablate": (_cmd_ablate, "compare labeling modes end to end", (
        "graph", "taxonomy",
        replace(SETTINGS["mapping"], default=None, help="mapping JSON; without "
                "it the taxonomy is mapped at the default threshold"),
        "corpus", "eval", "out_dir", *_LABEL_FLAGS, "modes", "n_per_class",
        "min_df", "seed")),
}


def _add_flag(parser: argparse.ArgumentParser, s: Setting) -> None:
    flag = "--" + s.key.replace("_", "-")
    if s.type == "bool":
        parser.add_argument(flag, action="store_true", default=None, help=s.help)
        return
    help_text = s.help
    if s.default is not _REQUIRED and s.default is not None:
        default = " ".join(s.default) if s.type == "choices" else s.default
        help_text += f" (default: {default})"
    parser.add_argument(
        flag, type={"int": int, "float": float}.get(s.type), help=help_text,
        choices=s.choices or None, nargs="+" if s.type == "choices" else None,
    )


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
    for name, (func, help_text, keys) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file; flags override it")
        settings = [key if isinstance(key, Setting) else SETTINGS[key] for key in keys]
        for s in settings:
            _add_flag(p, s)
        p.set_defaults(func=func, settings={s.key: s for s in settings})
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
