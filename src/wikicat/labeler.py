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
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .exceptions import ConfigurationError, TaxonomyError
from .graph_store import CategoryGraph
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

    def get(self, label: str) -> RootSpec:
        for spec in self.roots:
            if spec.label == label:
                return spec
        raise ConfigurationError(f"label {label!r} not in competition set")

    def blocked_for(self, label: str) -> frozenset[int]:
        self.get(label)
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


class ReachableSet:
    """BFS result for one root: depths, candidate pages, and path weights.

    ``depth`` holds the shortest distance from the root's mapped nodes for
    every node (-1 when unreached); blocked competitor nodes stay at -1.
    ``weight`` holds the dag path weight: the sum of 2**-len over the
    depth-increasing paths from the mapped nodes (0 when unreached).
    """

    def __init__(
        self,
        graph: CategoryGraph,
        root: RootSpec,
        depth: np.ndarray,
        weight: np.ndarray,
        blocked: frozenset[int],
    ) -> None:
        self.graph = graph
        self.root = root
        self.depth = depth
        self.weight = weight
        self.blocked = blocked
        split = graph.n_categories
        self.pages = np.flatnonzero(depth[split:] >= 0) + split

    @property
    def reachable_categories(self) -> set[int]:
        return set(np.flatnonzero(self.depth[: self.graph.n_categories] >= 0).tolist())

    @property
    def candidate_pages(self) -> dict[int, int]:
        return dict(zip(self.pages.tolist(), self.depth[self.pages].tolist()))


def traverse(
    graph: CategoryGraph,
    root: RootSpec,
    competitors: CompetitionSet,
    cfg: LabelingConfig,
) -> ReachableSet:
    """Multi-source BFS from the root's nodes, competitors' nodes blocked."""
    blocked = competitors.blocked_for(root.label)
    return _bfs(graph, root, blocked, cfg.max_depth)


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
) -> ReachableSet:
    """One level per step: gather the frontier's children, keep the new ones."""
    n = graph.n_nodes
    for node in root.nodes:
        if not 0 <= node < graph.n_categories:
            raise ConfigurationError(
                f"root node {node} of {root.label!r} is not a category"
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
        reached = np.unique(kids)
        frontier = reached[reached < graph.n_categories]
    return ReachableSet(graph, root, depth, weight, blocked)


def _coverage(graph: CategoryGraph, pages: np.ndarray, depth: np.ndarray) -> np.ndarray:
    """Share of each page's parent categories that ``depth`` marks reached.

    Every page passed here was reached over an edge, so it has a parent.
    """
    at, parents = _gather(graph.rindptr, graph.rindices, pages)
    reached = np.bincount(at, weights=depth[parents] >= 0, minlength=len(pages))
    return reached / (graph.rindptr[pages + 1] - graph.rindptr[pages])


def parent_coverage(graph: CategoryGraph, page: int, reach: ReachableSet) -> float:
    """Share of the page's parent categories reached by this root."""
    if not graph.is_page(page) or reach.depth[page] < 0:
        raise ConfigurationError(f"node {page} is not a candidate page")
    return float(_coverage(reach.graph, np.array([page]), reach.depth)[0])


def enumerate_paths(
    graph: CategoryGraph,
    root: RootSpec,
    page: int,
    cap: int,
    blocked: frozenset[int] = frozenset(),
) -> list[int]:
    """Lengths of every simple root-to-page path of length <= cap.

    Exhaustive depth-first search; intermediate nodes are categories only
    and competitor nodes are excluded.  Exponential in the worst case, so
    only suitable for small graphs and as a reference for the dag mode.
    """
    if cap is None or cap < 1:
        raise ConfigurationError("path enumeration needs a positive cap")
    lengths: list[int] = []
    children = graph.children
    split = graph.n_categories

    def walk(u: int, dist: int, on_path: set[int]) -> None:
        if dist >= cap:
            return
        for v in children(u).tolist():
            if v == page:
                lengths.append(dist + 1)
            elif v < split and v not in blocked and v not in on_path:
                on_path.add(v)
                walk(v, dist + 1, on_path)
                on_path.remove(v)

    for start in sorted(set(root.nodes)):
        if start in blocked:
            continue
        walk(start, 0, {start})
    return sorted(lengths)


def page_weight(reach: ReachableSet, page: int, cfg: LabelingConfig) -> float:
    """Path weight of a candidate page: many short paths score high."""
    d = int(reach.depth[page])
    if not reach.graph.is_page(page) or d < 0:
        raise ConfigurationError(f"node {page} is not a reachable page")
    if cfg.path_mode == "dag":
        return float(reach.weight[page])
    lengths = enumerate_paths(
        reach.graph, reach.root, page, cfg.exact_path_cap, reach.blocked
    )
    if not lengths:
        raise ConfigurationError(
            f"page {page} has no path within the cap {cfg.exact_path_cap}"
        )
    return float(sum(2.0 ** -n for n in lengths))


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


def normalize_and_assign(
    candidates: Sequence[tuple[str, float]], threshold: float = 0.3
) -> list[tuple[str, float]]:
    """Normalize raw weights to sum 1, keep labels strictly above threshold.

    Returns (label, normalized weight) sorted by descending weight, then
    label id.  May be empty when no label dominates.
    """
    if not candidates:
        raise ConfigurationError("no candidate labels to normalize")
    labels = [label for label, _ in candidates]
    if len(set(labels)) != len(labels):
        raise ConfigurationError("duplicate labels among candidates")
    raw = np.array([raw for _, raw in candidates], dtype=np.float64)
    shares = _shares(np.zeros(len(raw), dtype=np.int64), raw).tolist()
    assigned = [(label, w) for label, w in zip(labels, shares) if w > threshold]
    assigned.sort(key=lambda item: (-item[1], item[0]))
    return assigned


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
) -> list[PageLabels]:
    """Label pages for every competition set in the scheme.

    Records are ordered by competition set, then external page id; a page
    may appear once per competition set.  Labeling runs in the calling
    thread; ``workers`` is validated but never changes the work or the
    output.
    """
    if workers < 1:
        raise ConfigurationError("workers must be >= 1")
    records: list[PageLabels] = []
    for cs in build_competition_sets(mapping, scheme):
        records.extend(_label_competition_set(graph, cs, cfg))
    return records


def _collect_root(
    graph: CategoryGraph,
    spec: RootSpec,
    blocked: frozenset[int],
    cfg: LabelingConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(pages, raw weights, depths) of one root's candidates."""
    # A child_only candidate is a member page of a mapped node: exactly the
    # pages a one-level traversal reaches, whatever max_depth says.
    reach = _bfs(graph, spec, blocked, 1 if cfg.mode == "child_only" else cfg.max_depth)
    pages = reach.pages
    if cfg.mode in ("full", "min_dist"):
        pages = pages[_coverage(graph, pages, reach.depth) >= cfg.coverage_threshold]
    if cfg.mode not in ("full", "no_pruning"):
        raw = np.ones(len(pages))
    elif cfg.path_mode == "dag":
        raw = reach.weight[pages]
    else:
        raw = np.array(
            [page_weight(reach, page, cfg) for page in pages.tolist()], dtype=np.float64
        )
    return pages, raw, reach.depth[pages]


def _label_competition_set(
    graph: CategoryGraph, cs: CompetitionSet, cfg: LabelingConfig
) -> list[PageLabels]:
    if not cs.roots:
        return []
    per_root = [
        _collect_root(
            graph,
            spec,
            frozenset() if cfg.mode == "no_pruning" else cs.blocked_for(spec.label),
            cfg,
        )
        for spec in cs.roots
    ]
    # One row per (page, root) candidate, rows grouped by root in set order;
    # ``label`` indexes the sorted label ids.
    labels = sorted(spec.label for spec in cs.roots)
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

    external = graph.page_external[page - graph.n_categories]
    order = np.lexsort((label, -w_norm, external))

    by_page: dict[int, list[Assignment]] = {}
    columns = (page, label, raw, w_norm, depth, keep)
    for p, lab, w_raw, w, d, k in zip(*(col[order].tolist() for col in columns)):
        kept = by_page.setdefault(p, [])
        if k:
            kept.append(Assignment(labels[lab], w_raw, w, d))
    return [PageLabels(p, tuple(a), cfg.mode) for p, a in by_page.items()]


def write_labels(
    records: Iterable[PageLabels], graph: CategoryGraph, path: str | Path
) -> None:
    records = list(records)
    pages = graph.external_ids([rec.page for rec in records]).tolist()
    encode = json.JSONEncoder(sort_keys=True).encode
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(
            encode(
                {
                    "page": page,
                    "assignments": [
                        {
                            "label": a.label,
                            "w_raw": a.w_raw,
                            "w_norm": a.w_norm,
                            "depth": a.depth,
                        }
                        for a in rec.assignments
                    ],
                    "mode": rec.mode,
                }
            )
            + "\n"
            for page, rec in zip(pages, records)
        )


def read_labels(path: str | Path) -> list[dict]:
    """Parse a labels file back into plain dicts (external page ids)."""
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                out.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ConfigurationError(f"{path}:{lineno}: bad JSON: {exc}") from None
    return out
