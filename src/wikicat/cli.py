"""Command line pipeline around the library modules.

Subcommands cover the whole flow: build-graph, map, label, sample, train,
predict, evaluate, and ablate.  Each setting is declared once, in
``SETTINGS``, and each subcommand names its settings in ``COMMANDS``; the
flags are built from them.  Every value can also come from a JSON config
file (--config), where it must have the setting's JSON type; explicit flags
win over the config, which wins over the built-in defaults.  ``main``
resolves every setting before the command reads any input.  Outputs embed
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
from typing import TYPE_CHECKING, Any, Callable, Iterator, Sequence

import wikicat

from . import __version__
from .exceptions import ConfigurationError, TaxonomyError, WikicatError
from .jsonio import (
    BOOLEAN, INTEGER, NUMBER, STRING, json_text, read_json, write_json, write_jsonl,
    write_lines,
)

if TYPE_CHECKING:  # annotations only: numpy loads with the layers, not here
    import numpy as np

logger = logging.getLogger(__name__)

COARSE_SET = "coarse"
SCHEMES = ("coarse", "fine")
KINDS = ("centroid", "svm")
_RUN_DOCS = 2048  # documents that predict reads, transforms and scores at once
# text that train, sample and ablate read at once, before they drop the
# texts of the pages they do not keep
_RUN_CHARS = 1 << 18
# labeler's, restated so that the flags can be built without loading it
MODES = ("full", "child_only", "all_descendants", "min_dist", "no_pruning")
PATH_MODES = ("dag", "exact")


def _bind(modules: Sequence[str]) -> None:
    """Bind here the names that the package exports from ``modules``, so a
    step imports only the layers it runs.  A name that is already bound is
    kept: a caller may have wrapped it."""
    here = globals()
    for module in modules:
        for name in wikicat._EXPORTS[module]:
            here.setdefault(name, getattr(wikicat, name))


def __getattr__(name: str) -> Any:
    """A layer name that no command has bound yet, from the package (PEP 562)."""
    if name not in wikicat._MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(wikicat, name)


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
        if s.type == "str" and "\0" in val:  # every str setting is a path
            raise ConfigurationError(f"{s.key}: a path cannot hold a NUL, got {val!r}")
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


def _settings(args: argparse.Namespace) -> dict[str, Any]:
    """Each setting of the command, resolved in the order of its ``COMMANDS``
    entry: the flag's value if given, else the config's value checked
    against the setting, else the setting's default.  Keys of other
    commands are ignored, so one config file serves them all."""
    cfg = _load_config(args.config)
    resolved = {}
    for key, s in args.settings.items():
        val = getattr(args, key)
        if val is not None:
            resolved[key] = val
        elif key in cfg:
            resolved[key] = _checked(s, cfg[key])
        elif s.default is not _REQUIRED:
            resolved[key] = s.default
        else:
            raise ConfigurationError(
                f"missing required setting: {key.replace('_', '-')}"
            )
    return resolved


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


def _set_name(name: str, where: str) -> str:
    """A competition set's name, which names its model files
    ``<set>.<kind>.json``; one that is not a plain file name is refused."""
    if name in ("", ".", "..") or {os.sep, os.altsep, "\0"} & set(name):
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
    default threshold) and the scheme's competition sets by name.  The
    mapping is checked against the sets before any labeling, and a fault is
    refused naming the mapping's source."""
    source = get("mapping")
    if source is None:
        mapping, source = map_taxonomy(taxonomy, graph), get("taxonomy")
    else:
        mapping = load_mapping(source, graph, taxonomy)
    named = _named_scheme(get, taxonomy)
    try:
        build_competition_sets(graph, mapping, list(named.values()))
    except WikicatError as exc:
        raise type(exc)(f"{source}: {exc}") from None
    return mapping, named


def _at_least_1(get: Callable[[str], Any], key: str) -> int | None:
    """The integer setting ``key`` (``n_per_class``, ``min_df`` or
    ``workers``), or None for the command's default; below 1 it is refused."""
    value = get(key)
    if value is not None and value < 1:
        raise ConfigurationError(f"{key} must be >= 1")
    return value


def _check_rows(
    labels: TopLabels,
    corpus: Corpus,
    named: dict[str, list[str]],
    labels_path: str | Path,
    corpus_path: str,
) -> None:
    """Check each record read from ``labels_path`` that has a top label,
    in file order: the label must be in a set of ``named`` and the page in
    the corpus.  Every set must have labeled pages, and each warns once
    about its classes without any."""
    of_set = labels.sets(named)
    bad = of_set == -1
    bad |= (of_set >= 0) & ~corpus.has(labels.page)
    if bad.any():
        first = int(bad.argmax())
        if of_set[first] == -1:
            top = labels.names[labels.top[first]]
            raise ConfigurationError(
                f"{labels_path}: label {top!r} in labels file is not in the "
                "chosen scheme"
            )
        raise ConfigurationError(
            f"{corpus_path}: page {labels.page[first]} missing from corpus"
        )
    unassigned, counts = labels.counts()
    if unassigned:
        logger.info("skipped %d pages with no assignment", unassigned)
    for name, group in named.items():
        if not any(counts.get(label) for label in group):
            raise ConfigurationError(
                f"{labels_path}: no labeled documents for set {name!r}"
            )
        missing = sorted({label for label in group if not counts.get(label)})
        if missing:
            logger.warning(
                "classes with no training documents: %s", ", ".join(missing)
            )


def _set_rows(
    labels: TopLabels,
    named: dict[str, list[str]],
    n_per_class: int | None,
    seed: int | None,
) -> dict[str, np.ndarray]:
    """The positions in ``labels`` of each set's rows, in ``named``'s order,
    of the records whose top label is in a set: all of them, in file order,
    where ``seed`` is None, else balanced to ``n_per_class`` per class."""
    rows = {}
    for name, tops in zip(named, labels.set_tops(named)):
        if seed is None:
            rows[name] = (tops >= 0).nonzero()[0]
        else:
            rows[name] = sample_balance(
                labels.page, tops, labels.names, n_per_class, seed
            )
    return rows


def _with_texts(
    labels: TopLabels, rows: dict[str, np.ndarray], corpus: Corpus
) -> dict[str, tuple[np.ndarray, list[str], list[str]]]:
    """Each set's page ids, top labels and texts, from its positions in
    ``labels``."""
    out = {}
    for name, at in rows.items():
        pages = labels.page[at]
        tops = [labels.names[top] for top in labels.top[at].tolist()]
        out[name] = (pages, tops, corpus.texts_of(pages))
    return out


def _labeled_rows(
    get: Callable[[str], Any], seed: int | None
) -> tuple[dict[str, tuple[np.ndarray, list[str], list[str]]], int | None]:
    """The page ids, top labels and texts each competition set trains on,
    balanced with ``seed`` (None keeps every row), and the rows per class.
    Without ``n_per_class``, a sample balances to the largest labeled class
    of the scheme, but to no more than 20 000 rows a class for the coarse
    set, which spans the whole corpus, or 1 000 for a fine set, which holds
    one parent's children.  The rows are drawn before the corpus is read,
    so only their texts are kept, and a sample over ``sample_balance``'s
    row limit is refused before it."""
    n_per_class = _at_least_1(get, "n_per_class")
    taxonomy = load_taxonomy(get("taxonomy"))
    named = _named_scheme(get, taxonomy)
    labels = read_labels(get("labels"))
    if n_per_class is None and seed is not None:
        counts = labels.counts()[1]
        largest = max(counts.get(label, 0) for group in named.values() for label in group)
        cap = 20_000 if get("scheme") == COARSE_SET else 1_000
        n_per_class = min(max(largest, 1), cap)
    rows = _set_rows(labels, named, n_per_class, seed)
    corpus = read_corpus(
        get("corpus"), _RUN_DOCS, _RUN_CHARS, [labels.page[at] for at in rows.values()]
    )
    _check_rows(labels, corpus, named, get("labels"), get("corpus"))
    return _with_texts(labels, rows, corpus), n_per_class


def _train_sets(
    rows: dict[str, tuple[Any, list[str], list[str]]],
    kind: str,
    min_df: int,
    train_cfg: TrainConfig,
    out_dir: Path,
    prefix: str = "",
) -> Iterator[tuple[str, CentroidModel | LinearSvmModel, Counter]]:
    """Fit tf-idf and one model per competition set, in ``rows``' order,
    from each set's (page ids, labels, texts), save each as
    ``out_dir/<prefix><set>.<kind>.json`` and yield it with its set name and
    class counts, so a caller keeps only the models it needs."""
    for name, (_, labels, texts) in rows.items():
        counts = Counter(labels)
        tfidf = fit_tfidf(texts, min_df=min_df)
        if kind == "centroid":
            # a class's texts, in document order, are transformed as the
            # model asks for them, so the set's matrix is never held whole
            by_class: dict[str, list[str]] = {}
            for label, text in zip(labels, texts):
                by_class.setdefault(label, []).append(text)
            classes = sorted(by_class)
            model = train_centroid(
                classes,
                (transform(tfidf, by_class.pop(label)) for label in classes),
                tfidf=tfidf,
            )
        else:
            model = train_svm(
                transform(tfidf, texts), labels, train_cfg,
                n_features=tfidf.vocab_size, tfidf=tfidf,
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
    """Classify a batch of texts in one call, with the model's own tf-idf.
    The model keeps its scoring table, not its weight rows."""
    model.drop_weights()
    if isinstance(model, CentroidModel):
        return lambda texts: predict_centroid(model, transform(model.tfidf, texts))
    return lambda texts: predict_svm(model, transform(model.tfidf, texts))


def _emit(summary: dict, out: str | None) -> None:
    if out is not None:
        write_json(summary, out)
    print(json.dumps(summary, sort_keys=True))


# ------------------------------------------------------------ subcommands


def _cmd_build_graph(get: Callable[[str], Any]) -> int:
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


def _cmd_map(get: Callable[[str], Any]) -> int:
    config = {
        key: get(key) for key in ("graph", "taxonomy", "threshold", "overrides", "out")
    }
    summary_out = get("summary_out")
    threshold = config["threshold"]
    if not 0.0 <= threshold <= 1.0:  # map_taxonomy's check, before any input
        raise ConfigurationError(f"threshold must be in [0, 1], got {threshold}")
    graph = _load_graph_arg(config["graph"])
    taxonomy = load_taxonomy(config["taxonomy"])
    overrides_path = config["overrides"]
    raw = None if overrides_path is None else _load_config(overrides_path)
    try:
        overrides = None if raw is None else resolve_override_names(graph, raw)
        mapping = map_taxonomy(
            taxonomy, graph, overrides=overrides, threshold=threshold
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


def _cmd_label(get: Callable[[str], Any]) -> int:
    scheme_name = get("scheme")
    lab_cfg = LabelingConfig(mode=get("mode"), **{key: get(key) for key in _LABELING})
    workers = _at_least_1(get, "workers")
    out, summary_out = get("out"), get("summary_out")
    graph = _load_graph_arg(get("graph"))
    taxonomy = load_taxonomy(get("taxonomy"))
    mapping, named = _mapped_scheme(get, graph, taxonomy)
    scheme = list(named.values())
    labeled = label_corpus(graph, mapping, scheme, lab_cfg)
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


def _cmd_sample(get: Callable[[str], Any]) -> int:
    seed, out, summary_out = get("seed"), get("out"), get("summary_out")
    rows, n_per_class = _labeled_rows(get, seed)
    write_jsonl(
        (
            {"id": page, "label": label, "set": name, "text": text}
            for name, (pages, labels, texts) in rows.items()
            for page, label, text in zip(pages.tolist(), labels, texts)
        ),
        out,
    )
    summary = {
        "config": {
            "scheme": get("scheme"),
            "n_per_class": n_per_class,
            "seed": seed,
        },
        "out": out,
        "rows": sum(len(labels) for _, labels, _ in rows.values()),
    }
    _emit(summary, summary_out)
    return 0


def _cmd_train(get: Callable[[str], Any]) -> int:
    kind, min_df = get("kind"), _at_least_1(get, "min_df")
    train_cfg = TrainConfig(
        lam=get("lam"), epochs=get("epochs"), eta0=get("eta0"), seed=get("seed")
    )
    out_dir = Path(get("out_dir"))
    rows, n_per_class = _labeled_rows(get, train_cfg.seed if kind == "svm" else None)
    out_dir.mkdir(parents=True, exist_ok=True)
    sets_summary = {
        name: {
            "classes": dict(sorted(counts.items())),
            "n_train": sum(counts.values()),
            "vocab_size": model.tfidf.vocab_size,
        }
        for name, model, counts in _train_sets(rows, kind, min_df, train_cfg, out_dir)
    }
    summary = {
        "config": {
            "scheme": get("scheme"),
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


def _cmd_predict(get: Callable[[str], Any]) -> int:
    out = get("out")
    classify = _predictor(load_model(get("model")))
    ids: list[np.ndarray] = []
    labels: list[str | None] = []  # in file order
    for _, texts in corpus_runs(get("corpus"), _RUN_DOCS, sys.maxsize, ids):
        labels += classify(texts)
        del texts  # before the next run is read
    [pages] = ids
    order = pages.argsort()
    # write_jsonl's bytes, with each distinct label encoded once
    encoded = {label: json_text(label) for label in set(labels)}
    write_lines(
        (
            "".join(
                '{"id": %d, "label": %s}\n' % (page, encoded[labels[i]])
                for page, i in zip(pages[at].tolist(), at.tolist())
            )
            for at in (
                order[lo : lo + _RUN_DOCS] for lo in range(0, len(order), _RUN_DOCS)
            )
        ),
        out,
    )
    print(json.dumps({"n": len(labels), "out": out}, sort_keys=True))
    return 0


def _cmd_evaluate(get: Callable[[str], Any]) -> int:
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


def _cmd_ablate(get: Callable[[str], Any]) -> int:
    n_per_class = _at_least_1(get, "n_per_class") or 200
    scheme_name, seed, min_df = get("scheme"), get("seed"), _at_least_1(get, "min_df")
    modes = list(get("modes"))
    _at_least_1(get, "workers")  # checked only: labeling runs in one thread
    base_cfg = LabelingConfig(**{key: get(key) for key in _LABELING})
    out_dir = Path(get("out_dir"))
    graph = _load_graph_arg(get("graph"))
    taxonomy = load_taxonomy(get("taxonomy"))
    corpus = read_corpus(get("corpus"), _RUN_DOCS, _RUN_CHARS)
    out_dir.mkdir(parents=True, exist_ok=True)
    mapping, named = _mapped_scheme(get, graph, taxonomy)
    scheme = list(named.values())
    instances = _load_eval_sets(get("eval"), taxonomy)
    train_cfg = TrainConfig(seed=seed)
    rows_out = []
    for mode in modes:
        lab_cfg = replace(base_cfg, mode=mode)
        labeled = label_corpus(graph, mapping, scheme, lab_cfg)
        labels_path = out_dir / f"labels.{mode}.jsonl"
        write_labels(labeled, graph, labels_path)
        labels = TopLabels(
            graph.external_ids(labeled.page), labeled.tops(), labeled.labels
        )
        _check_rows(labels, corpus, named, labels_path, get("corpus"))
        rows = _with_texts(labels, _set_rows(labels, named, n_per_class, seed), corpus)
        models, n_train = {}, 0
        for name, model, counts in _train_sets(
            rows, "svm", min_df, train_cfg, out_dir, f"{mode}."
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


# Each subcommand: its function, its help, the modules of ``wikicat._EXPORTS``
# it runs, and the settings it takes, in the order they are resolved.
_LABEL_FLAGS = ("scheme", *_LABELING, "workers")
COMMANDS = {
    "build-graph": (
        _cmd_build_graph, "load TSV graph files, write a snapshot", ("graph_store",),
        ("categories", "pages", "edges", "redirects", "stats_out", "lenient", "out"),
    ),
    "map": (
        _cmd_map, "map taxonomy labels onto category nodes",
        ("graph_store", "taxonomy", "taxonomy_mapper"),
        ("taxonomy", "summary_out", "graph", "overrides", "threshold", "out"),
    ),
    "label": (
        _cmd_label, "propagate labels to pages over the graph",
        ("graph_store", "taxonomy", "taxonomy_mapper", "labeler"),
        ("graph", "taxonomy", "mapping", "summary_out", *_LABEL_FLAGS, "mode", "out"),
    ),
    "sample": (
        _cmd_sample, "balance labeled pages per class",
        ("taxonomy", "labeler", "classifiers", "textproc"),
        ("labels", "corpus", "taxonomy", "out", "summary_out", "scheme",
         "n_per_class", "seed"),
    ),
    "train": (
        _cmd_train, "train one model per competition set",
        ("taxonomy", "labeler", "classifiers", "textproc"),
        ("labels", "corpus", "taxonomy", "out_dir", "scheme", "kind", "n_per_class",
         "min_df", "lam", "epochs", "eta0", "seed"),
    ),
    "predict": (
        _cmd_predict, "classify a corpus with a saved model",
        ("classifiers", "textproc"), ("model", "corpus", "out"),
    ),
    "evaluate": (
        _cmd_evaluate, "score saved models on gold instances",
        ("taxonomy", "evaluation", "classifiers", "textproc"),
        ("eval", "models_dir", "taxonomy", "kind", "out"),
    ),
    "ablate": (
        _cmd_ablate, "compare labeling modes end to end",
        ("graph_store", "taxonomy", "taxonomy_mapper", "labeler", "classifiers",
         "textproc", "evaluation"),
        ("graph", "taxonomy",
         replace(SETTINGS["mapping"], default=None, help="mapping JSON; without "
                 "it the taxonomy is mapped at the default threshold"),
         "corpus", "eval", "out_dir", *_LABEL_FLAGS, "modes", "n_per_class",
         "min_df", "seed"),
    ),
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
    for name, (func, help_text, modules, keys) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file; flags override it")
        settings = [key if isinstance(key, Setting) else SETTINGS[key] for key in keys]
        for s in settings:
            _add_flag(p, s)
        p.set_defaults(
            func=func, modules=modules, settings={s.key: s for s in settings}
        )
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
        _bind(args.modules)
        return args.func(_settings(args).__getitem__)
    except (WikicatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
