"""Synthetic fixtures that only tests use: a separable labeled corpus, its
hold-out split and a large layered category graph.  They share the
vocabularies and file writers of ``wikicat.synth``, which ships only the
ablation wiki.
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import Sequence

from wikicat.synth import (
    _CLASS_POOL, _core_vocab, _doc, _write_taxonomy, _write_tsvs,
)


def class_ids(n_classes: int) -> list[str]:
    """The first ``n_classes`` class ids: the pool's, then ``topic<i>``."""
    if n_classes <= len(_CLASS_POOL):
        return list(_CLASS_POOL[:n_classes])
    return list(_CLASS_POOL) + [
        f"topic{i}" for i in range(n_classes - len(_CLASS_POOL))
    ]


def make_separable_corpus(
    n_classes: int = 5, docs_per_class: int = 200, seed: int = 0
) -> tuple[list[tuple[int, str, str]], dict[str, str]]:
    """Rows (doc id, label, text) plus display names per label.

    Label name tokens leak into documents only rarely (10 percent own
    class, 5 percent a wrong class), so keyword matching stays weak while
    the disjoint cores keep the classes linearly separable.
    """
    rng = random.Random(seed)
    labels = class_ids(n_classes)
    cores = {lab: _core_vocab(lab) for lab in labels}
    rows: list[tuple[int, str, str]] = []
    doc_id = 0
    for lab in labels:
        others = [x for x in labels if x != lab]
        for _ in range(docs_per_class):
            text = _doc(rng, cores[lab])
            if rng.random() < 0.10:
                text += " " + lab
            if rng.random() < 0.05:
                text += " " + rng.choice(others)
            rows.append((doc_id, lab, text))
            doc_id += 1
    names = {lab: lab.capitalize() for lab in labels}
    return rows, names


def split_corpus(
    rows: Sequence[tuple[int, str, str]], fold: int = 5
) -> tuple[list[tuple[int, str, str]], list[tuple[int, str, str]]]:
    """Hold out every fold-th row of each class, preserving order."""
    seen: dict[str, int] = {}
    train, test = [], []
    for row in rows:
        k = seen.get(row[1], 0)
        seen[row[1]] = k + 1
        (test if k % fold == fold - 1 else train).append(row)
    return train, test


def make_scale_graph(
    outdir: str | Path,
    n_roots: int = 5,
    n_categories: int = 20_000,
    n_pages: int = 100_000,
    n_edges: int = 1_000_000,
    seed: int = 0,
) -> dict:
    """Large layered category graph for throughput and memory checks.

    Five disjoint four-level trees (roots, then layers of 200 / 2000 /
    remaining categories); pages attach to leaf-layer categories of one
    tree, and membership fan-in is sized so the total edge count lands
    exactly on n_edges.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    l1_total, l2_total = 200, 2000
    if n_categories < n_roots + l1_total + l2_total + n_roots:
        raise ValueError("n_categories too small for the fixed layer sizes")

    labels = [f"branch{r}" for r in range(n_roots)]
    names = {lab: f"Branch {r} topics" for r, lab in enumerate(labels)}

    categories: list[tuple[int, str]] = []
    edges: list[tuple[int, int, str]] = []
    next_id = 1
    root_ids = []
    for lab in labels:
        categories.append((next_id, names[lab]))
        root_ids.append(next_id)
        next_id += 1

    l1 = [[] for _ in range(n_roots)]
    for k in range(l1_total):
        tree = k % n_roots
        categories.append((next_id, f"Branch {tree} area {k}"))
        edges.append((root_ids[tree], next_id, "subcat"))
        l1[tree].append(next_id)
        next_id += 1
    l2 = [[] for _ in range(n_roots)]
    for k in range(l2_total):
        tree = k % n_roots
        categories.append((next_id, f"Branch {tree} group {k}"))
        for parent in rng.sample(l1[tree], rng.randint(1, 3)):
            edges.append((parent, next_id, "subcat"))
        l2[tree].append(next_id)
        next_id += 1
    l3 = [[] for _ in range(n_roots)]
    l3_total = n_categories - n_roots - l1_total - l2_total
    for k in range(l3_total):
        tree = k % n_roots
        categories.append((next_id, f"Branch {tree} topic {k}"))
        for parent in rng.sample(l2[tree], rng.randint(1, 3)):
            edges.append((parent, next_id, "subcat"))
        l3[tree].append(next_id)
        next_id += 1

    member_budget = n_edges - len(edges)
    if member_budget < n_pages:
        raise ValueError("n_edges too small: need at least one edge per page")
    base, extra = divmod(member_budget, n_pages)

    pages: list[tuple[int, str]] = []
    page_id = next_id
    for k in range(n_pages):
        tree = k % n_roots
        pages.append((page_id, f"Branch {tree} page {k}"))
        fan = base + (1 if k < extra else 0)
        fan = min(fan, len(l3[tree]))
        for parent in rng.sample(l3[tree], fan):
            edges.append((parent, page_id, "member"))
        page_id += 1

    _write_tsvs(outdir, categories, pages, edges)
    _write_taxonomy(outdir, names)
    return {
        "categories": len(categories),
        "pages": len(pages),
        "edges": len(edges),
        "labels": labels,
    }
