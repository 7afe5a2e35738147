"""Bootstrap text classifiers from a knowledge-base category graph.

The pipeline: load a category graph (graph_store), map taxonomy labels
onto category nodes (taxonomy_mapper), propagate labels to pages by graph
traversal (labeler), vectorize page text (textproc), train and apply
classifiers (classifiers), and score them (evaluation).  The cli module
wires it all together behind subcommands.
"""

from .classifiers import (
    CentroidModel,
    LinearSvmModel,
    TrainConfig,
    keyword_vote,
    load_model,
    predict_centroid,
    predict_svm,
    sample_balance,
    save_model,
    train_centroid,
    train_svm,
)
from .evaluation import (
    EvalInstance,
    EvalReport,
    accuracy,
    evaluate,
    evaluate_grouped,
    load_eval,
    macro_f1,
    write_eval,
)
from .exceptions import (
    ConfigurationError,
    GraphFormatError,
    TaxonomyError,
    WikicatError,
)
from .graph_store import CategoryGraph, load_graph, load_snapshot, save_snapshot
from .labeler import (
    LabelingConfig,
    PageLabels,
    coarse_scheme,
    fine_scheme,
    label_corpus,
    read_labels,
    write_labels,
)
from .taxonomy_mapper import (
    CategoryMapping,
    Taxonomy,
    TaxonomyLabel,
    jaro_winkler,
    load_mapping,
    load_taxonomy,
    map_taxonomy,
    save_mapping,
)
from .textproc import DocMatrix, TfIdfModel, fit_tfidf, load_tfidf, save_tfidf, transform

__version__ = "0.1.0"

__all__ = [
    "CategoryGraph",
    "CategoryMapping",
    "CentroidModel",
    "ConfigurationError",
    "DocMatrix",
    "EvalInstance",
    "EvalReport",
    "GraphFormatError",
    "LabelingConfig",
    "LinearSvmModel",
    "PageLabels",
    "Taxonomy",
    "TaxonomyError",
    "TaxonomyLabel",
    "TfIdfModel",
    "TrainConfig",
    "WikicatError",
    "__version__",
    "accuracy",
    "coarse_scheme",
    "evaluate",
    "evaluate_grouped",
    "fine_scheme",
    "fit_tfidf",
    "jaro_winkler",
    "keyword_vote",
    "label_corpus",
    "load_eval",
    "load_graph",
    "load_mapping",
    "load_model",
    "load_snapshot",
    "load_taxonomy",
    "load_tfidf",
    "macro_f1",
    "map_taxonomy",
    "predict_centroid",
    "predict_svm",
    "read_labels",
    "sample_balance",
    "save_mapping",
    "save_model",
    "save_snapshot",
    "save_tfidf",
    "train_centroid",
    "train_svm",
    "transform",
    "write_eval",
    "write_labels",
]
