"""Bootstrap text classifiers from a knowledge-base category graph.

The pipeline: load a category graph (graph_store), read a taxonomy
(taxonomy) and map its labels onto category nodes (taxonomy_mapper),
propagate labels to pages by graph traversal (labeler), vectorize page
text (textproc), train and apply classifiers (classifiers), and score them
(evaluation).  The cli module wires it all together behind subcommands.
"""

import importlib

__version__ = "0.1.0"

# What the package exports, by module: the one list of layer names, which
# ``cli`` also binds a command's names from.  A name is imported from its
# module when it is first read, so ``import wikicat`` loads no layer.
_EXPORTS = {
    "classifiers": (
        "CentroidModel", "LinearSvmModel", "TrainConfig", "load_model",
        "predict_centroid", "predict_svm", "sample_balance", "save_model",
        "train_centroid", "train_svm",
    ),
    "evaluation": (
        "EvalInstance", "EvalReport", "accuracy", "evaluate", "evaluate_grouped",
        "load_eval", "macro_f1", "write_eval",
    ),
    "exceptions": (
        "ConfigurationError", "GraphFormatError", "TaxonomyError", "WikicatError",
    ),
    "graph_store": ("CategoryGraph", "load_graph", "load_snapshot", "save_snapshot"),
    "labeler": (
        "CorpusLabels", "LabelingConfig", "PageLabels", "TopLabels",
        "build_competition_sets", "coarse_scheme", "fine_scheme", "label_corpus",
        "read_labels", "write_labels",
    ),
    "synth": ("make_ablation_wiki",),
    "taxonomy": ("CategoryMapping", "Taxonomy", "TaxonomyLabel", "load_taxonomy"),
    "taxonomy_mapper": (
        "jaro_winkler", "load_mapping", "map_taxonomy", "resolve_override_names",
        "save_mapping",
    ),
    "textproc": (
        "Corpus", "DocMatrix", "TfIdfModel", "corpus_runs", "fit_tfidf", "read_corpus",
        "transform",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_MODULE_OF, "__version__"])


def __getattr__(name: str):
    """An exported name, imported from its module on first use (PEP 562)."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
