"""Weak labeling by competition-based graph traversal.

Each taxonomy label owns one or more root category nodes.  Labels in the
same competition set are traversed breadth-first from their roots with the
competitors' roots blocked, candidate pages failing the parent-coverage
threshold are pruned, surviving pages get a path weight (many short paths
beat few long ones), and per-page weights are normalized across the
competing labels so a label is assigned only when it clearly wins.

Besides the ``full`` pipeline there are four reduced modes used for
comparison runs: ``child_only``, ``all_descendants``, ``min_dist``, and
``no_pruning``.

Each root takes one level-synchronous pass over the CSR arrays: the
children of a whole BFS level are gathered at once, and the pass sets
their depth and their ``dag`` path weight w(v) = sum of w(u)/2 over the
parents u one level up, with w = 1 at the mapped nodes.  That float equals
(number of depth-increasing paths) / 2**depth exactly while the path count
stays below 2**53 and the depth at most 1022.  Past that it is rounded,
and a weight beyond the float range becomes ``inf``.  Candidates stay
sparse, one row per (page, root), and a page's raw weights are summed in
root order.

In ``exact`` mode a page's raw weight is instead the sum of 2**-len over
its simple paths of length at most ``exact_path_cap``.  A root with
candidates takes one depth-first walk that counts its simple paths to each
(category, length); the walk, and so its cost, grows exponentially with
the cap.

The labels stay columns from the labeler to the trainer.  ``label_corpus``
returns a ``CorpusLabels``: per record a page and an offset into per-row
label, raw weight, normalized weight and depth columns.  ``write_labels``
formats each JSON line from those columns, and ``read_labels`` returns only
what training uses, each record's (external page id, top label or None).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, repeat
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .exceptions import ConfigurationError, TaxonomyError
from .graph_store import CategoryGraph
from .jsonio import INTEGER, STRING, float_texts, json_text, read_jsonl, write_lines
from .taxonomy_mapper import CategoryMapping, Taxonomy

MODES = ("full", "child_only", "all_descendants", "min_dist", "no_pruning")
PATH_MODES = ("dag", "exact")


@dataclass(frozen=True)
class RootSpec:
    """A label with the category nodes it is mapped to."""

    label: str
    nodes: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.nodes:
            raise ConfigurationError(f"label {self.label!r} has no root nodes")


@dataclass(frozen=True)
class CompetitionSet:
    """The labels that compete for pages in one classification task."""

    roots: tuple[RootSpec, ...]

    def __post_init__(self) -> None:
        labels = [r.label for r in self.roots]
        if len(set(labels)) != len(labels):
            raise ConfigurationError("duplicate labels in competition set")
        owner: dict[int, str] = {}
        for spec in self.roots:
            for node in spec.nodes:
                if node in owner:
                    raise ConfigurationError(
                        f"category node {node} is mapped for both "
                        f"{owner[node]!r} and {spec.label!r}"
                    )
                owner[node] = spec.label

    def blocked_for(self, label: str) -> frozenset[int]:
        """The root nodes of every other label in the set."""
        return frozenset(
            node
            for spec in self.roots
            if spec.label != label
            for node in spec.nodes
        )


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
    """The CSR rows ``rows`` concatenated, and each entry's position in ``rows``."""
    starts = indptr[rows]
    lens = indptr[rows + 1] - starts
    offsets = np.cumsum(lens) - lens
    at = np.repeat(starts - offsets, lens) + np.arange(int(lens.sum()))
    return np.repeat(np.arange(len(rows)), lens), indices[at]


def _bfs(
    graph: CategoryGraph,
    root: RootSpec,
    blocked: frozenset[int],
    max_depth: int | None,
) -> tuple[np.ndarray, np.ndarray]:
    """(depth, dag weight) of every node, -1 and 0 where unreached.

    One level per step: gather the frontier's children, keep the new ones.
    """
    n = graph.n_nodes
    for node in root.nodes:
        if not 0 <= node < graph.n_categories:
            raise ConfigurationError(
                f"root page {graph.external_id(node)} of {root.label!r} "
                "is not a category"
            )
    allowed = np.ones(n, dtype=bool)
    allowed[[v for v in blocked if 0 <= v < n]] = False
    depth = np.full(n, -1, dtype=np.int64)
    weight = np.zeros(n)
    frontier = np.unique(np.asarray(root.nodes, dtype=np.int64))
    depth[frontier] = 0
    weight[frontier] = 1.0
    level = 0
    while frontier.size and (max_depth is None or level < max_depth):
        src, kids = _gather(graph.indptr, graph.indices, frontier)
        new = (depth[kids] == -1) & allowed[kids]
        src, kids = frontier[src[new]], kids[new]
        # Every edge into a node first reached at this level comes from the
        # level above, so its weight is complete once the level is summed.
        weight += np.bincount(kids, weights=weight[src] * 0.5, minlength=n)
        level += 1
        depth[kids] = level
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
    _, kids = _gather(graph.indptr, graph.indices, reached)
    hits = np.bincount(kids, minlength=graph.n_nodes)[pages]
    return hits / graph.in_degree[pages]


def _shares(group: np.ndarray, raw: np.ndarray) -> np.ndarray:
    """Each raw weight over its group's total; infinite raws split the group.

    Totals are summed in array order, so rows ordered by root give every
    page the same float as summing its raws root by root.
    """
    if (raw <= 0).any():
        raise ConfigurationError("raw weights must be positive")
    infinite = np.isinf(raw)
    n_inf = np.bincount(group, weights=infinite)[group]
    total = np.bincount(group, weights=np.where(infinite, 0.0, raw))[group]
    # Infinite raws (path-count overflow) dominate everything finite.
    return np.divide(
        raw, total, where=n_inf == 0, out=infinite / np.maximum(n_inf, 1.0)
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

    def tops(self) -> list[str | None]:
        """Each record's best label, or None where it has no assignment."""
        labels, label, bounds = self.labels, self.label.tolist(), self.start.tolist()
        return [
            labels[label[lo]] if lo < hi else None
            for lo, hi in zip(bounds, bounds[1:])
        ]

    def unassigned(self) -> int:
        """The number of records with no assignment."""
        return int(np.count_nonzero(np.diff(self.start) == 0))

    def per_label(self) -> dict[str, int]:
        """Assignments per label, for the labels that have any, sorted."""
        counts = np.bincount(self.label, minlength=len(self.labels)).tolist()
        return {name: n for name, n in zip(self.labels, counts) if n}


def build_competition_sets(
    mapping: CategoryMapping, scheme: Sequence[Sequence[str]]
) -> list[CompetitionSet]:
    """Resolve a scheme of label-id groups against a mapping."""
    sets = []
    for group in scheme:
        roots = []
        for label in group:
            cats = mapping.entries.get(label)
            if not cats:
                raise TaxonomyError(f"label {label!r} is not mapped to any category")
            roots.append(RootSpec(label, tuple(mc.node for mc in cats)))
        sets.append(CompetitionSet(tuple(roots)))
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
    workers: int = 1,
) -> CorpusLabels:
    """Label pages for every competition set in the scheme.

    Records are ordered by competition set, then external page id; a page
    may appear once per competition set.  Labeling runs in the calling
    thread; ``workers`` is validated but never changes the work or the
    output.
    """
    if workers < 1:
        raise ConfigurationError("workers must be >= 1")
    sets = build_competition_sets(mapping, scheme)
    labels = sorted({spec.label for cs in sets for spec in cs.roots})
    parts = [_NO_RECORDS] + [
        _label_competition_set(graph, cs, cfg, labels) for cs in sets if cs.roots
    ]
    page, n_rows, *rows = (np.concatenate(cols) for cols in zip(*parts))
    start = np.zeros(len(page) + 1, dtype=np.int64)
    np.cumsum(n_rows, out=start[1:])
    return CorpusLabels(cfg.mode, tuple(labels), page, start, *rows)


def _collect_root(
    graph: CategoryGraph,
    spec: RootSpec,
    blocked: frozenset[int],
    cfg: LabelingConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(pages, raw weights, depths) of one root's candidates."""
    # A child_only candidate is a member page of a mapped node: exactly the
    # pages a one-level traversal reaches, whatever max_depth says.
    depth, weight = _bfs(
        graph, spec, blocked, 1 if cfg.mode == "child_only" else cfg.max_depth
    )
    split = graph.n_categories
    pages = np.flatnonzero(depth[split:] >= 0) + split
    if cfg.mode in ("full", "min_dist"):
        pages = pages[_coverage(graph, pages, depth) >= cfg.coverage_threshold]
    if cfg.mode not in ("full", "no_pruning"):
        raw = np.ones(len(pages))
    elif cfg.path_mode == "exact" and len(pages):
        raw = _exact_weights(graph, spec, blocked, pages, cfg.exact_path_cap)
    else:
        raw = weight[pages]
    return pages, raw, depth[pages]


def _exact_weights(
    graph: CategoryGraph,
    spec: RootSpec,
    blocked: frozenset[int],
    pages: np.ndarray,
    cap: int,
) -> np.ndarray:
    """Sum of 2**-len over each page's simple paths of length <= cap.

    One depth-first walk from the root's nodes counts the simple category
    paths that reach each (category, length < cap); a page's paths are
    those counts one member edge further.  Each page adds its terms one at
    a time in ascending length order, the float order of its sorted path
    lengths.
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
    for start in sorted(set(spec.nodes)):
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
    at, kid = _gather(indptr, indices, cats)
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
        raw[i] = sum(chain.from_iterable(terms[p]))
    return raw


# What _label_competition_set returns for a set without records.
_NO_RECORDS = tuple(
    np.zeros(0, dtype)
    for dtype in (np.int64, np.int64, np.int64, np.float64, np.float64, np.int64)
)


def _label_competition_set(
    graph: CategoryGraph, cs: CompetitionSet, cfg: LabelingConfig, labels: list[str]
) -> tuple[np.ndarray, ...]:
    """One set's record pages and the number of kept rows of each record,
    then the kept rows' label (an index into ``labels``), raw weight,
    normalized weight and depth, in record order."""
    per_root = [
        _collect_root(
            graph,
            spec,
            frozenset() if cfg.mode == "no_pruning" else cs.blocked_for(spec.label),
            cfg,
        )
        for spec in cs.roots
    ]
    # One row per (page, root) candidate, rows grouped by root in set order.
    page, raw, depth = (np.concatenate(cols) for cols in zip(*per_root))
    label = np.repeat(
        [labels.index(spec.label) for spec in cs.roots],
        [len(p) for p, _, _ in per_root],
    )

    if cfg.mode in ("full", "no_pruning"):
        w_norm = _shares(page, raw)
        keep = w_norm > cfg.assignment_threshold
    else:
        if cfg.mode == "min_dist":
            best = np.full(graph.n_nodes, np.iinfo(np.int64).max)
            np.minimum.at(best, page, depth)
            keep = depth == best[page]
        else:  # child_only, all_descendants
            keep = np.ones(len(page), dtype=bool)
        w_norm = 1.0 / np.bincount(page, weights=keep)[page]

    # Rows by external page id, then best first; a page's rows are one run.
    external = graph.external[page]
    order = np.lexsort((label, -w_norm, external))
    page, keep = page[order], keep[order]
    first = np.ones(len(page), dtype=bool)
    first[1:] = page[1:] != page[:-1]
    record = np.cumsum(first) - 1
    n_kept = np.bincount(record[keep], minlength=int(first.sum()))
    kept = order[keep]
    return page[first], n_kept, label[kept], raw[kept], w_norm[kept], depth[kept]


def _float_texts(column: np.ndarray) -> list[str]:
    """The JSON text of each float in a column, formatted once per distinct
    bit pattern (a column holds few: ``w_norm`` is mostly 1.0)."""
    bits = np.ascontiguousarray(column, dtype=np.float64).view(np.int64)
    distinct, at = np.unique(bits, return_inverse=True)
    texts = float_texts(distinct.view(np.float64).tolist())
    return list(map(texts.__getitem__, at.tolist()))


def write_labels(labeled: CorpusLabels, graph: CategoryGraph, path: str | Path) -> None:
    """One JSON line per record, formatted from the columns: the bytes that
    ``write_jsonl`` gives each record as a dict with external page ids."""
    label_texts = [json_text(name) for name in labeled.labels]
    rows = [
        f'{{"depth": {depth}, "label": {label_texts[lab]}, '
        f'"w_norm": {w_norm}, "w_raw": {w_raw}}}'
        for depth, lab, w_norm, w_raw in zip(
            labeled.depth.tolist(),
            labeled.label.tolist(),
            _float_texts(labeled.w_norm),
            _float_texts(labeled.w_raw),
        )
    ]
    tail = f'], "mode": {json_text(labeled.mode)}, "page": '
    bounds = labeled.start.tolist()
    pages = graph.external_ids(labeled.page).tolist()
    write_lines(
        (
            f'{{"assignments": [{", ".join(rows[lo:hi])}{tail}{page}}}\n'
            for page, lo, hi in zip(pages, bounds, bounds[1:])
        ),
        path,
    )


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


def read_labels(path: str | Path) -> tuple[list[int], list[str | None]]:
    """Each record's external page id and top label (None where it has no
    assignment), in file order, read in full.

    Every line is checked to hold an int ``page`` and ``assignments`` with a
    str ``label`` each.
    """
    pages: list[int] = []
    tops: list[str | None] = []
    for where, rec in read_jsonl(path):
        if not _is_labels_row(rec):
            raise ConfigurationError(
                f"{where}: expected an object with int 'page' and a list of "
                "'assignments', each with a str 'label'"
            )
        assignments = rec["assignments"]
        pages.append(rec["page"])
        tops.append(assignments[0]["label"] if assignments else None)
    return pages, tops
