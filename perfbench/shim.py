"""Run one wikicat subcommand with spans around its layer calls.

Usage: python3 shim.py TRACE_OUT ARG...

Wraps the layer functions that ``wikicat.cli`` imports by name, runs
``wikicat.cli.main(ARG...)`` and, when the command ends, writes its spans
and counters as JSON to TRACE_OUT.  A span is ``[name, start, end,
parent]``: ``name`` is ``<module>.<function>``, times are
``time.perf_counter()`` seconds and ``parent`` is the index of the
enclosing span, or -1.  The whole ``main`` call is the span ``cli.main``.
Jaro-Winkler calls and mapping query parts are counted, not timed, since
there are about a hundred thousand of them on the largest graph.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import Counter
from typing import Callable

import wikicat.cli as cli
import wikicat.taxonomy_mapper as taxonomy_mapper

CountFn = Callable[[Counter, dict, object], None]


def _count_doc_classes(counts: Counter, args: dict, result) -> None:
    model = args["model"]
    counts["doc_classes"] += len(getattr(model, "classes", None) or model.centroids)


# Per layer: (function imported by wikicat.cli, counter hook or None).  A
# hook sees the bound arguments and the result.
LAYERS: dict[str, list[tuple[str, CountFn | None]]] = {
    "graph_store": [
        ("load_graph", lambda c, a, r: c.update(
            edges=r.stats()["n_subcat_edges"] + r.stats()["n_member_edges"]
        )),
        ("load_snapshot", None),
        ("save_snapshot", None),
    ],
    "taxonomy_mapper": [
        ("load_taxonomy", None),
        ("map_taxonomy", None),
        ("save_mapping", None),
        ("load_mapping", None),
    ],
    "labeler": [
        ("label_corpus", lambda c, a, r: c.update(
            traversals=sum(len(group) for group in a["scheme"]),
            records=len(r),
            assigned=sum(1 for rec in r if rec.assignments),
        )),
        ("write_labels", None),
        ("read_labels", None),
    ],
    "textproc": [
        ("fit_tfidf", lambda c, a, r: c.update(vocab=r.vocab_size)),
        ("transform", None),
    ],
    "classifiers": [
        ("sample_balance", None),
        ("train_svm", lambda c, a, r: c.update(
            sgd_pairs=len(set(a["labels"])) * len(a["vectors"]) * a["cfg"].epochs
        )),
        ("train_centroid", None),
        ("predict_svm", _count_doc_classes),
        ("predict_centroid", _count_doc_classes),
        ("save_model", None),
        ("load_model", None),
    ],
    "evaluation": [
        ("load_eval", lambda c, a, r: c.update(instances=len(r))),
        ("evaluate_grouped", None),
    ],
}


class Tracer:
    """In-memory spans with a parent stack, plus named counters."""

    def __init__(self) -> None:
        self.spans: list = []
        self.stack = [-1]
        self.counts: Counter = Counter()

    def wrap(self, name: str, func: Callable, count: CountFn | None = None) -> Callable:
        spans, stack, counts = self.spans, self.stack, self.counts
        sig = inspect.signature(func) if count is not None else None

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent)
            if sig is not None:
                count(counts, sig.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def counting(self, key: str, func: Callable, per_result: bool = False) -> Callable:
        counts = self.counts

        def counted(*args):
            result = func(*args)
            counts[key] += len(result) if per_result else 1
            return result

        return counted


def install(tracer: Tracer) -> None:
    for layer, funcs in LAYERS.items():
        for fname, count in funcs:
            wrapped = tracer.wrap(f"{layer}.{fname}", getattr(cli, fname), count)
            setattr(cli, fname, wrapped)
    taxonomy_mapper.jaro_winkler = tracer.counting(
        "jw_calls", taxonomy_mapper.jaro_winkler
    )
    taxonomy_mapper.split_conjunctions = tracer.counting(
        "query_parts", taxonomy_mapper.split_conjunctions, per_result=True
    )


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    out, args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    main_span = tracer.wrap("cli.main", cli.main)
    code = 3
    try:
        code = main_span(args)
    finally:
        with open(out, "w", encoding="utf-8") as fh:
            doc = {"spans": tracer.spans, "counts": tracer.counts, "exit": code}
            json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
