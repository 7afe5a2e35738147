"""Loop references for ``wikicat.labeler.label_corpus`` and ``write_labels``.

One node and one page at a time: a ``deque`` BFS, path counts as Python
ints (which never overflow), parent coverage page by page, one path
enumeration per page in ``exact`` mode, and a per-page normalization.  Slow, but each step reads like the method's description,
so the array labeler is tested against it.  The writer turns each record
into a dict and lets ``write_jsonl`` encode it, which the columnar writer
must match byte for byte.
"""

from __future__ import annotations

import math
from collections import deque
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from wikicat.exceptions import ConfigurationError
from wikicat.graph_store import CategoryGraph
from wikicat.jsonio import write_jsonl
from wikicat.labeler import (
    Assignment,
    CompetitionSet,
    LabelingConfig,
    PageLabels,
    RootSpec,
    build_competition_sets,
)
from wikicat.taxonomy_mapper import CategoryMapping


def bfs(
    graph: CategoryGraph,
    root: RootSpec,
    blocked: frozenset[int],
    max_depth: int | None,
) -> np.ndarray:
    """Shortest distance from the root's nodes, -1 when unreached."""
    depth = np.full(graph.n_nodes, -1, dtype=np.int64)
    for node in root.nodes:
        if not 0 <= node < graph.n_categories:
            raise ConfigurationError(
                f"root page {graph.external_id(node)} of {root.label!r} "
                "is not a category"
            )
        depth[node] = 0
    queue = deque(sorted(set(root.nodes)))
    while queue:
        u = queue.popleft()
        d = int(depth[u])
        if max_depth is not None and d + 1 > max_depth:
            continue
        for v in graph.children(u).tolist():
            if depth[v] == -1 and v not in blocked:
                depth[v] = d + 1
                if v < graph.n_categories:
                    queue.append(v)
    return depth


def path_counts(
    graph: CategoryGraph, root: RootSpec, depth: np.ndarray
) -> dict[int, int]:
    """Distinct depth-increasing paths from the root's nodes to each node."""
    cats = np.nonzero(depth[: graph.n_categories] >= 0)[0]
    order = cats[np.argsort(depth[cats], kind="stable")]
    counts: dict[int, int] = {int(n): 1 for n in root.nodes}
    for u in order.tolist():
        cu = counts.get(u)
        if not cu:
            continue
        du = int(depth[u])
        for v in graph.children(u).tolist():
            if depth[v] == du + 1:
                counts[v] = counts.get(v, 0) + cu
    return counts


def enumerate_paths(
    graph: CategoryGraph,
    root: RootSpec,
    page: int,
    cap: int,
    blocked: frozenset[int] = frozenset(),
) -> list[int]:
    """Lengths of every simple root-to-page path of length <= cap.

    Exhaustive depth-first search; intermediate nodes are categories only
    and competitor nodes are excluded.
    """
    lengths: list[int] = []
    split = graph.n_categories

    def walk(u: int, dist: int, on_path: set[int]) -> None:
        if dist >= cap:
            return
        for v in graph.children(u).tolist():
            if v == page:
                lengths.append(dist + 1)
            elif v < split and v not in blocked and v not in on_path:
                on_path.add(v)
                walk(v, dist + 1, on_path)
                on_path.remove(v)

    for start in sorted(set(root.nodes)):
        if start not in blocked:
            walk(start, 0, {start})
    return sorted(lengths)


def coverage(graph: CategoryGraph, page: int, depth: np.ndarray) -> float:
    """Reached share of the page's parents, found by scanning every row."""
    parents = [u for u in range(graph.n_categories) if page in graph.children(u)]
    if len(parents) == 0:
        return 0.0
    return int((depth[parents] >= 0).sum()) / len(parents)


def weight(
    graph: CategoryGraph,
    root: RootSpec,
    blocked: frozenset[int],
    page: int,
    depth: np.ndarray,
    counts: dict[int, int],
    cfg: LabelingConfig,
) -> float:
    d = int(depth[page])
    if cfg.path_mode == "dag":
        try:
            return counts.get(page, 0) / (1 << d)
        except OverflowError:
            return math.inf
    lengths = enumerate_paths(graph, root, page, cfg.exact_path_cap, blocked)
    if not lengths:
        raise ConfigurationError(
            f"page {graph.external_id(page)} has no path within the cap "
            f"{cfg.exact_path_cap}"
        )
    return float(sum(2.0 ** -n for n in lengths))


def normalize_and_assign(
    candidates: Sequence[tuple[str, float]], threshold: float
) -> list[tuple[str, float]]:
    if any(raw <= 0 for _, raw in candidates):
        raise ConfigurationError("raw weights must be positive")
    infinite = [label for label, raw in candidates if math.isinf(raw)]
    if infinite:
        share = 1.0 / len(infinite)
        normalized = [
            (label, share if math.isinf(raw) else 0.0) for label, raw in candidates
        ]
    else:
        total = sum(raw for _, raw in candidates)
        normalized = [(label, raw / total) for label, raw in candidates]
    assigned = [(label, w) for label, w in normalized if w > threshold]
    assigned.sort(key=lambda item: (-item[1], item[0]))
    return assigned


def collect_root(
    graph: CategoryGraph,
    spec: RootSpec,
    blocked: frozenset[int],
    cfg: LabelingConfig,
) -> list[tuple[int, str, float, int]]:
    """(page, label, raw weight, depth) candidates for one root."""
    depth = bfs(graph, spec, blocked, cfg.max_depth)
    out = []
    if cfg.mode == "child_only":
        for node in sorted(set(spec.nodes)):
            for v in graph.children(node).tolist():
                if v >= graph.n_categories:
                    out.append((v, spec.label, 1.0, 1))
        return sorted(set(out))
    split = graph.n_categories
    pages = [(p, int(depth[p])) for p in range(split, graph.n_nodes) if depth[p] >= 0]
    if cfg.mode == "all_descendants":
        return [(page, spec.label, 1.0, d) for page, d in pages]
    if cfg.mode in ("full", "min_dist"):
        pages = [
            (page, d)
            for page, d in pages
            if coverage(graph, page, depth) >= cfg.coverage_threshold
        ]
    if cfg.mode == "min_dist":
        return [(page, spec.label, 1.0, d) for page, d in pages]
    counts = path_counts(graph, spec, depth) if cfg.path_mode == "dag" else {}
    return [
        (page, spec.label, weight(graph, spec, blocked, page, depth, counts, cfg), d)
        for page, d in pages
    ]


def label_competition_set(
    graph: CategoryGraph, cs: CompetitionSet, cfg: LabelingConfig
) -> list[PageLabels]:
    by_page: dict[int, list[tuple[str, float, int]]] = {}
    for spec in cs.roots:
        blocked = (
            frozenset() if cfg.mode == "no_pruning" else cs.blocked_for(spec.label)
        )
        for page, label, raw, d in collect_root(graph, spec, blocked, cfg):
            by_page.setdefault(page, []).append((label, raw, d))

    records = []
    for page in sorted(by_page, key=graph.external_id):
        cands = by_page[page]
        if cfg.mode in ("full", "no_pruning"):
            assigned = normalize_and_assign(
                [(label, raw) for label, raw, _ in cands], cfg.assignment_threshold
            )
            raw_by_label = {label: (raw, d) for label, raw, d in cands}
            assignments = tuple(
                Assignment(label, raw_by_label[label][0], w, raw_by_label[label][1])
                for label, w in assigned
            )
        elif cfg.mode == "min_dist":
            best = min(d for _, _, d in cands)
            winners = sorted((label, raw, d) for label, raw, d in cands if d == best)
            share = 1.0 / len(winners)
            assignments = tuple(
                Assignment(label, raw, share, d) for label, raw, d in winners
            )
        else:  # child_only, all_descendants
            share = 1.0 / len(cands)
            assignments = tuple(
                Assignment(label, raw, share, d) for label, raw, d in sorted(cands)
            )
        records.append(PageLabels(page, assignments, cfg.mode))
    return records


def label_corpus(
    graph: CategoryGraph,
    mapping: CategoryMapping,
    scheme: Sequence[Sequence[str]],
    cfg: LabelingConfig,
) -> list[PageLabels]:
    records: list[PageLabels] = []
    for cs in build_competition_sets(mapping, scheme):
        records.extend(label_competition_set(graph, cs, cfg))
    return records


def write_labels(
    records: Iterable[PageLabels], graph: CategoryGraph, path: str | Path
) -> None:
    records = list(records)
    pages = graph.external_ids([rec.page for rec in records]).tolist()
    write_jsonl(
        (
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
            for page, rec in zip(pages, records)
        ),
        path,
    )
