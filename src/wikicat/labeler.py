"""Weak labeling by competition-based graph traversal.

Each taxonomy label owns one or more root category nodes.  Labels in the
same competition set are traversed breadth-first from their roots with the
competitors' roots blocked, candidate pages failing the parent-coverage
threshold are pruned, surviving pages get a path weight (many short paths
beat few long ones), and per-page weights are normalized across the
competing labels so a label is assigned only when it clearly wins.

``build_competition_sets`` is the one check of a mapping against a scheme:
each label of a set appears once and has roots, each root is a category,
and no category is mapped for two labels of one set.  Its errors name
external ids; ``label_corpus`` runs it before any traversal, and the CLI
before it labels, adding the mapping's file.

Besides the ``full`` pipeline there are four reduced modes used for
comparison runs: ``child_only``, ``all_descendants``, ``min_dist``, and
``no_pruning``.

Each root takes one level-synchronous pass over the CSR arrays: the
children of a whole BFS level are gathered at once, and the pass sets
their depth and their ``dag`` path weight w(v) = sum of w(u)/2 over the
parents u one level up, with w = 1 at the mapped nodes.  That float equals
(number of depth-increasing paths) / 2**depth exactly while the path count
stays below 2**53 and the depth at most 1022.  Past that it is rounded: a
weight beyond the float range becomes ``inf``, and one below it 0.0.
Candidates stay sparse, one row per (page, root), and a page's raw weights
are summed in root order.  Its ``inf`` weights, or its weights if all are
0.0, split its share evenly.

In ``exact`` mode a page's raw weight is instead the sum of 2**-len over
its simple paths of length at most ``exact_path_cap``.  A root with
candidates takes one depth-first walk that counts its simple paths to each
(category, length); the walk, and so its cost, grows exponentially with
the cap.

The labels stay columns from the labeler to the trainer.  ``label_corpus``
returns a ``CorpusLabels``: per record a page and an offset into per-row
label, raw weight, normalized weight and depth columns.  ``write_labels``
formats each JSON line from those columns, and writes a bounded run of
records at a time, so it never holds the whole file's text.
``read_labels`` returns only what training uses, as ``TopLabels``
columns: each record's external page id and the position of its top label
among the label names read, or -1.

``label_corpus`` holds few arrays at once.  A root's pass keeps an int32
depth and a float weight per node.  A BFS level gathers its children, then
keeps an ``intp`` child and a half weight for its new edges only, for the
level's one ``bincount``.  The in-degrees that coverage divides by are
counted a chunk of edges at a time.  Each root leaves only its candidates;
a set joins them once, sorts them once, and drops each candidate column as
its kept rows are taken.  So at its peak ``label_corpus`` holds the graph,
the in-degrees and the roots' candidates, and on top of them either one
root's deepest BFS level or a set's candidate columns with their sort
order.  Traced on the 1M-edge ``scale-coarse`` benchmark graph, that is
about 9 MB, two thirds of it the returned columns and the in-degrees.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import reduce
from itertools import chain, islice, repeat
from operator import add
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, NamedTuple, Sequence

import numpy as np

from .exceptions import ConfigurationError, TaxonomyError
from .jsonio import (
    INTEGER, STRING, float_texts, int_column, json_text, read_jsonl, write_lines,
)
from .taxonomy import CategoryMapping, Taxonomy

if TYPE_CHECKING:  # annotations only, so that importing this does not load it
    from .graph_store import CategoryGraph

MODES = ("full", "child_only", "all_descendants", "min_dist", "no_pruning")
PATH_MODES = ("dag", "exact")
_RECORDS_PER_RUN = 1024  # labels.jsonl records per run, written or read


@dataclass(frozen=True)
class LabelingConfig:
    mode: str = "full"
    coverage_threshold: float = 0.3
    assignment_threshold: float = 0.3
    max_depth: int | None = None
    path_mode: str = "dag"
    exact_path_cap: int | None = 8

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ConfigurationError(f"unknown mode {self.mode!r}")
        if self.path_mode not in PATH_MODES:
            raise ConfigurationError(f"unknown path_mode {self.path_mode!r}")
        for name in ("coverage_threshold", "assignment_threshold"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1], got {value}")
        if self.max_depth is not None and self.max_depth < 0:
            raise ConfigurationError("max_depth must be >= 0")
        if self.path_mode == "exact" and (
            self.exact_path_cap is None or self.exact_path_cap < 1
        ):
            raise ConfigurationError("exact path mode requires a positive depth cap")


def _gather(
    indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The end of each of the CSR rows ``rows`` in their concatenation, and
    the concatenation."""
    starts = indptr[rows]
    lens = indptr[rows + 1] - starts
    ends = lens.cumsum()
    at = np.repeat(starts - ends + lens, lens)  # a run's start, less its offset
    at += np.arange(len(at))
    return ends, indices[at]


def _bfs(
    graph: CategoryGraph,
    nodes: tuple[int, ...],
    blocked: frozenset[int],
    max_depth: int | None,
) -> tuple[np.ndarray, np.ndarray]:
    """(depth, dag weight) of every node, -1 and 0 where unreached.

    One level per step: gather the frontier's children, keep the new ones.
    Only the new ones' edges get a weight.
    """
    n = graph.n_nodes
    fresh = np.ones(n, dtype=bool)  # neither reached nor blocked
    fresh[list(blocked)] = False
    depth = np.full(n, -1, dtype=np.int32)  # node ids are int32 too
    weight = np.zeros(n)
    frontier = np.unique(np.asarray(nodes, dtype=np.int64))
    depth[frontier] = 0
    weight[frontier] = 1.0
    fresh[frontier] = False
    level = 0
    while frontier.size and (max_depth is None or level < max_depth):
        # Each per-edge array is dropped before the next one is made.
        ends, kids = _gather(graph.indptr, graph.indices, frontier)
        new = fresh[kids].nonzero()[0]
        # The new edges before each row's end, then in each row.
        n_new = new.searchsorted(ends)
        n_new[1:] -= n_new[:-1]
        kids = kids[new]
        del new
        kids = kids.astype(np.intp)  # what bincount would copy it to
        # Every edge into a node first reached at this level comes from the
        # level above, so its weight is complete once the level is summed.
        half = np.repeat(weight[frontier] * 0.5, n_new)
        weight += np.bincount(kids, weights=half, minlength=n)
        del half
        level += 1
        depth[kids] = level
        fresh[kids] = False
        frontier = np.flatnonzero(depth[: graph.n_categories] == level)
    return depth, weight


def _coverage(graph: CategoryGraph, pages: np.ndarray, depth: np.ndarray) -> np.ndarray:
    """Share of each page's parent categories that ``depth`` marks reached.

    The forward rows of every reached category, those at the ``max_depth``
    level included, name each of their children once; a page's count among
    them is its reached parents, over its in-degree.  Every page passed
    here was reached over an edge, so it has a parent.
    """
    reached = np.flatnonzero(depth[: graph.n_categories] >= 0)
    hits = np.bincount(
        _gather(graph.indptr, graph.indices, reached)[1], minlength=graph.n_nodes
    )
    return hits[pages] / graph.in_degree[pages]


def _shares(group: np.ndarray, raw: np.ndarray) -> np.ndarray:
    """Each raw weight over its group's total; infinite raws split the group,
    and so do the raws of a group whose raws are all 0.0.

    Totals are summed in array order, so rows ordered by root give every
    page the same float as summing its raws root by root.
    """
    split = np.isinf(raw)  # path-count overflow dominates everything finite
    n_split = np.bincount(group, weights=split)[group]
    total = np.bincount(group, weights=np.where(split, 0.0, raw))[group]
    if not total.all():  # some group's raws all underflowed to 0.0
        split |= (total == 0.0) & (n_split == 0)
        n_split = np.bincount(group, weights=split)[group]
    return np.divide(
        raw, total, where=n_split == 0, out=split / np.maximum(n_split, 1.0)
    )


@dataclass(frozen=True)
class Assignment:
    label: str
    w_raw: float
    w_norm: float
    depth: int


@dataclass(frozen=True)
class PageLabels:
    page: int  # internal node id; serialization writes the external id
    assignments: tuple[Assignment, ...]
    mode: str


@dataclass(frozen=True, eq=False)
class CorpusLabels:
    """The labels of a corpus as columns, one record per (set, page).

    Record ``i`` is page ``page[i]`` (an internal node id) with the kept
    assignments in rows ``start[i]:start[i + 1]`` of the row columns, best
    first.  A record with no rows is a page whose assignments were all
    dropped.  ``label`` indexes ``labels``, which are sorted.

    ``len()`` counts records, and iterating yields each record as a
    ``PageLabels``, built only then.
    """

    mode: str
    labels: tuple[str, ...]
    page: np.ndarray  # per record
    start: np.ndarray  # per record, then the end of the last one
    label: np.ndarray  # per row
    w_raw: np.ndarray
    w_norm: np.ndarray
    depth: np.ndarray

    def __len__(self) -> int:
        return len(self.page)

    def __iter__(self) -> Iterator[PageLabels]:
        labels, bounds = self.labels, self.start.tolist()
        rows = list(
            zip(
                self.label.tolist(),
                self.w_raw.tolist(),
                self.w_norm.tolist(),
                self.depth.tolist(),
            )
        )
        for page, lo, hi in zip(self.page.tolist(), bounds, bounds[1:]):
            assignments = tuple(
                Assignment(labels[lab], w_raw, w_norm, depth)
                for lab, w_raw, w_norm, depth in rows[lo:hi]
            )
            yield PageLabels(page, assignments, self.mode)

    def tops(self) -> np.ndarray:
        """Each record's best label, as its int32 position in ``labels``, or
        -1 where it has no assignment."""
        lo = self.start[:-1]
        has = lo < self.start[1:]
        top = np.full(len(self), -1, np.int32)
        top[has] = self.label[lo[has]]
        return top

    def unassigned(self) -> int:
        """The number of records with no assignment."""
        return int(np.count_nonzero(np.diff(self.start) == 0))

    def per_label(self) -> dict[str, int]:
        """Assignments per label, for the labels that have any, sorted."""
        counts = np.bincount(self.label, minlength=len(self.labels)).tolist()
        return {name: n for name, n in zip(self.labels, counts) if n}


def build_competition_sets(
    graph: CategoryGraph, mapping: CategoryMapping, scheme: Sequence[Sequence[str]]
) -> list[dict[str, tuple[int, ...]]]:
    """Resolve a scheme of label-id groups against a mapping: per group, each
    label, in the group's order, to the category nodes it is mapped to.

    Within a group, label by label, a repeated label, a label with no
    category, a root that is not a category and a category already mapped
    for another label of the group are refused, naming external ids.
    """
    sets = []
    for group in scheme:
        roots: dict[str, tuple[int, ...]] = {}
        owner: dict[int, str] = {}
        for label in group:
            if label in roots:
                raise ConfigurationError(
                    f"duplicate labels in competition set: {label!r}"
                )
            nodes = tuple(mc.node for mc in mapping.entries.get(label, ()))
            if not nodes:
                raise TaxonomyError(f"label {label!r} is not mapped to any category")
            for node in nodes:
                if not 0 <= node < graph.n_categories:
                    raise ConfigurationError(
                        f"root page {graph.external_id(node)} of {label!r} "
                        "is not a category"
                    )
                if owner.setdefault(node, label) != label:
                    raise ConfigurationError(
                        f"category {graph.external_id(node)} is mapped for both "
                        f"{owner[node]!r} and {label!r}"
                    )
            roots[label] = nodes
        sets.append(roots)
    return sets


def coarse_scheme(taxonomy: Taxonomy) -> list[list[str]]:
    """One competition set holding every top-tier label."""
    return [[lab.id for lab in taxonomy.roots()]]


def fine_scheme(taxonomy: Taxonomy) -> list[list[str]]:
    """One competition set per parent: its children compete."""
    out = []
    for parent in taxonomy.roots():
        kids = taxonomy.children_of(parent.id)
        if kids:
            out.append([lab.id for lab in kids])
    return out


def label_corpus(
    graph: CategoryGraph,
    mapping: CategoryMapping,
    scheme: Sequence[Sequence[str]],
    cfg: LabelingConfig,
) -> CorpusLabels:
    """Label pages for every competition set in the scheme.

    Records are ordered by competition set, then external page id; a page
    may appear once per competition set.
    """
    sets = build_competition_sets(graph, mapping, scheme)
    labels = sorted({label for roots in sets for label in roots})
    parts = [
        _label_competition_set(graph, roots, cfg, labels) for roots in sets if roots
    ]
    # Column by column, each set's copy dropped once it is joined.
    page, n_rows, *rows = (
        np.concatenate([empty, *(part.pop(0) for part in parts)])
        for empty in _NO_RECORDS
    )
    start = np.zeros(len(page) + 1, dtype=np.int64)
    np.cumsum(n_rows, out=start[1:])
    return CorpusLabels(cfg.mode, tuple(labels), page, start, *rows)


def _collect_root(
    graph: CategoryGraph,
    nodes: tuple[int, ...],
    blocked: frozenset[int],
    cfg: LabelingConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(pages, raw weights, depths) of the candidates below one label's nodes."""
    # A child_only candidate is a member page of a mapped node: exactly the
    # pages a one-level traversal reaches, whatever max_depth says.
    depth, weight = _bfs(
        graph, nodes, blocked, 1 if cfg.mode == "child_only" else cfg.max_depth
    )
    split = graph.n_categories
    pages = np.flatnonzero(depth[split:] >= 0) + split
    if cfg.mode in ("full", "min_dist"):
        pages = pages[_coverage(graph, pages, depth) >= cfg.coverage_threshold]
    if cfg.mode not in ("full", "no_pruning"):
        raw = np.ones(len(pages))
    elif cfg.path_mode == "exact" and len(pages):
        raw = _exact_weights(graph, nodes, blocked, pages, cfg.exact_path_cap)
    else:
        raw = weight[pages]
    return pages, raw, depth[pages]


def _exact_weights(
    graph: CategoryGraph,
    nodes: tuple[int, ...],
    blocked: frozenset[int],
    pages: np.ndarray,
    cap: int,
) -> np.ndarray:
    """Sum of 2**-len over each page's simple paths of length <= cap.

    One depth-first walk from the root nodes counts the simple category
    paths that reach each (category, length < cap); a page's paths are
    those counts one member edge further.  Each page adds its terms one at
    a time, left to right in ascending length order: the float order of its
    sorted path lengths on every Python version, which ``sum`` is not.
    """
    split = graph.n_categories
    indptr, indices = graph.indptr, graph.indices
    subcats: dict[int, list[int]] = {}

    def kids(u: int) -> list[int]:
        if u not in subcats:
            row = indices[indptr[u] : indptr[u + 1]]
            subcats[u] = [v for v in row[row < split].tolist() if v not in blocked]
        return subcats[u]

    paths: Counter[tuple[int, int]] = Counter()  # (category, length) -> paths
    for start in sorted(set(nodes)):
        paths[start, 0] += 1
        # The path's last node has length len(path) - 1; a node is expanded
        # only when its children lie below the cap.
        path, on_path = [start], {start}
        stack = [iter(kids(start))] if cap > 1 else []
        while stack:
            v = next(stack[-1], None)
            if v is None:
                stack.pop()
                on_path.remove(path.pop())
            elif v not in on_path:
                paths[v, len(path)] += 1
                if len(path) + 1 < cap:
                    path.append(v)
                    on_path.add(v)
                    stack.append(iter(kids(v)))

    cats, lengths = (np.array(col, dtype=np.int64) for col in zip(*paths))
    counts = np.fromiter(paths.values(), dtype=np.int64, count=len(paths))
    ends, kid = _gather(indptr, indices, cats)
    at = np.repeat(np.arange(len(cats)), np.diff(ends, prepend=0))
    candidate = np.zeros(graph.n_nodes, dtype=bool)
    candidate[pages] = True
    at, page = at[candidate[kid]], kid[candidate[kid]]
    length, count = lengths[at] + 1, counts[at]
    order = np.lexsort((length, page))
    terms: dict[int, list[repeat]] = {}
    for p, n, c in zip(*(col[order].tolist() for col in (page, length, count))):
        terms.setdefault(p, []).append(repeat(2.0**-n, c))
    raw = np.empty(len(pages))
    for i, p in enumerate(pages.tolist()):
        if p not in terms:
            raise ConfigurationError(
                f"page {graph.external_id(p)} has no path within the cap {cap}"
            )
        raw[i] = reduce(add, chain.from_iterable(terms[p]), 0.0)
    return raw


# What _label_competition_set returns for a set without records, in the
# dtypes of CorpusLabels' columns.  Each column is joined to these, so a
# set's narrower label and depth columns come out as int64.
_NO_RECORDS = tuple(
    np.zeros(0, dtype)
    for dtype in (np.int64, np.int64, np.int64, np.float64, np.float64, np.int64)
)


def _label_competition_set(
    graph: CategoryGraph,
    roots: dict[str, tuple[int, ...]],
    cfg: LabelingConfig,
    labels: list[str],
) -> list[np.ndarray]:
    """One set's record pages and the number of kept rows of each record,
    then the kept rows' label (an index into ``labels``), raw weight,
    normalized weight and depth, in record order."""
    # A label is blocked at the set's other roots (no root has two labels).
    every = frozenset(() if cfg.mode == "no_pruning" else chain(*roots.values()))
    per_root = [
        _collect_root(graph, nodes, every.difference(nodes), cfg)
        for nodes in roots.values()
    ]
    # One row per (page, root) candidate, rows grouped by root in set order;
    # ``label`` is as narrow as the number of labels allows.
    label = np.repeat(
        np.array(
            [labels.index(label) for label in roots],
            np.min_scalar_type(len(labels)),
        ),
        [len(p) for p, _, _ in per_root],
    )
    page, raw, depth = (np.concatenate(cols) for cols in zip(*per_root))
    del per_root

    if cfg.mode in ("full", "no_pruning"):
        w_norm = _shares(page, raw)
        keep = w_norm > cfg.assignment_threshold
    else:
        if cfg.mode == "min_dist":
            best = np.full(graph.n_nodes, np.iinfo(np.int64).max)
            np.minimum.at(best, page, depth)
            keep = depth == best[page]
            del best
        else:  # child_only, all_descendants
            keep = np.ones(len(page), dtype=bool)
        w_norm = 1.0 / np.bincount(page, weights=keep)[page]

    # Rows by external page id, then best first; a page's rows are one run.
    order = np.lexsort((label, -w_norm, graph.external[page]))
    page = page[order]
    kept = np.flatnonzero(keep[order])  # positions in that order
    first = np.ones(len(page), dtype=bool)
    first[1:] = page[1:] != page[:-1]
    # A record's kept rows lie between the kept rows before it and before
    # the next record.
    n_kept = np.diff(np.searchsorted(kept, np.flatnonzero(first)), append=len(kept))
    out = [page[first], n_kept]
    del keep, page, first
    kept = order[kept]
    del order
    columns = [label, raw, w_norm, depth]
    del label, raw, w_norm, depth
    while columns:  # each candidate column dropped as its kept rows are taken
        out.append(columns.pop(0)[kept])
    return out


def _float_texts(column: np.ndarray) -> list[str]:
    """The JSON text of each float in a column, formatted once per distinct
    bit pattern (a column holds few: ``w_norm`` is mostly 1.0)."""
    bits = np.ascontiguousarray(column, dtype=np.float64).view(np.int64)
    distinct, at = np.unique(bits, return_inverse=True)
    texts = float_texts(distinct.view(np.float64).tolist())
    return list(map(texts.__getitem__, at.tolist()))


def write_labels(labeled: CorpusLabels, graph: CategoryGraph, path: str | Path) -> None:
    """One JSON line per record, formatted from the columns: the bytes that
    ``write_jsonl`` gives each record as a dict with external page ids.
    Records are formatted and written ``_RECORDS_PER_RUN`` at a time."""
    label_texts = [json_text(name) for name in labeled.labels]
    tail = f'], "mode": {json_text(labeled.mode)}, "page": '

    def runs() -> Iterator[str]:
        for lo in range(0, len(labeled), _RECORDS_PER_RUN):
            pages = graph.external_ids(labeled.page[lo : lo + _RECORDS_PER_RUN])
            start = labeled.start[lo : lo + _RECORDS_PER_RUN + 1]
            first, last = int(start[0]), int(start[-1])
            rows = [
                f'{{"depth": {depth}, "label": {label_texts[lab]}, '
                f'"w_norm": {w_norm}, "w_raw": {w_raw}}}'
                for depth, lab, w_norm, w_raw in zip(
                    labeled.depth[first:last].tolist(),
                    labeled.label[first:last].tolist(),
                    _float_texts(labeled.w_norm[first:last]),
                    _float_texts(labeled.w_raw[first:last]),
                )
            ]
            bounds = (start - first).tolist()
            yield "".join(
                f'{{"assignments": [{", ".join(rows[i:j])}{tail}{page}}}\n'
                for page, i, j in zip(pages.tolist(), bounds, bounds[1:])
            )

    write_lines(runs(), path)


def _is_labels_row(rec) -> bool:
    assignments = rec.get("assignments") if isinstance(rec, dict) else None
    if not (
        isinstance(assignments, list) and type(rec.get("page")) in INTEGER.types
    ):
        return False
    for a in assignments:  # a loop, not all(): this runs once per page
        if not (isinstance(a, dict) and type(a.get("label")) in STRING.types):
            return False
    return True


class TopLabels(NamedTuple):
    """Each labels record's external page id and top label, as columns.

    ``top[i]`` is the position in ``names`` of record ``i``'s best label,
    or -1 where the record has no assignment.  ``page`` is int64, or an
    object column where an id is beyond int64; ``top`` is int32.
    """

    page: np.ndarray
    top: np.ndarray
    names: Sequence[str]

    def sets(self, named: dict[str, Sequence[str]]) -> np.ndarray:
        """Per record, the position in ``named`` of the competition set of
        its top label: -1 where no set has that label, -2 where the record
        has no assignment."""
        set_of = {label: i for i, group in enumerate(named.values()) for label in group}
        of_top = [set_of.get(name, -1) for name in self.names]
        return np.array([*of_top, -2], np.int32)[self.top]  # top -1 picks -2

    def set_tops(self, named: dict[str, Sequence[str]]) -> Iterator[np.ndarray]:
        """For each competition set of ``named``, in order, the ``top``
        column with -1 where a record's top label is not in that set."""
        of_set = self.sets(named)
        for i in range(len(named)):
            yield np.where(of_set == i, self.top, -1)

    def counts(self) -> tuple[int, dict[str, int]]:
        """The number of records without an assignment, and the number of
        records with each label name on top."""
        counts = np.bincount(self.top + 1, minlength=len(self.names) + 1).tolist()
        return counts[0], dict(zip(self.names, counts[1:]))


def read_labels(path: str | Path) -> TopLabels:
    """Each record's external page id and top label, in file order, read in
    full.  The names are the top labels in the order they were first read.

    Every line is checked to hold an int ``page`` and ``assignments`` with a
    str ``label`` each.  The columns are built ``_RECORDS_PER_RUN`` lines at
    a time, so no Python object is kept per record.
    """
    code_of: dict[str | None, int] = {None: -1}  # each top label's position
    pages: list[np.ndarray] = [int_column([])]
    tops: list[np.ndarray] = [np.zeros(0, np.int32)]
    records = read_jsonl(path)
    while True:
        run_pages: list[int] = []
        run_tops: list[str | None] = []
        for where, rec in islice(records, _RECORDS_PER_RUN):
            if not _is_labels_row(rec):
                raise ConfigurationError(
                    f"{where}: expected an object with int 'page' and a list of "
                    "'assignments', each with a str 'label'"
                )
            assignments = rec["assignments"]
            run_pages.append(rec["page"])
            run_tops.append(assignments[0]["label"] if assignments else None)
        if not run_pages:
            break
        for top in dict.fromkeys(run_tops):  # new labels in the order read
            code_of.setdefault(top, len(code_of) - 1)
        pages.append(int_column(run_pages))
        tops.append(np.fromiter(map(code_of.__getitem__, run_tops), np.int32))
    return TopLabels(np.concatenate(pages), np.concatenate(tops), list(code_of)[1:])
