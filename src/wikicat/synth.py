"""Synthetic fixture generators: corpora and category graphs.

Everything here is seeded and writes deterministic artifacts, so tests and
benchmarks can regenerate identical inputs instead of shipping large files.
Class vocabularies are disjoint token cores plus a shared noise pool; the
ablation wiki plants distractor pages whose text comes from the next
class's core, attached to the tree through a single weak membership edge.
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import Iterable, Sequence

from .evaluation import EvalInstance, write_eval
from .jsonio import write_json, write_jsonl

_CLASS_POOL = ("alpha", "bravo", "charlie", "delta", "echo", "foxtrot")


def class_ids(n_classes: int) -> list[str]:
    if n_classes <= len(_CLASS_POOL):
        return list(_CLASS_POOL[:n_classes])
    return list(_CLASS_POOL) + [
        f"topic{i}" for i in range(n_classes - len(_CLASS_POOL))
    ]


def _core_vocab(label: str, size: int = 30) -> list[str]:
    return [f"{label}term{i:02d}" for i in range(size)]


_NOISE = [f"filler{i:02d}" for i in range(40)]


def _doc(
    rng: random.Random,
    core: Sequence[str],
    n_lo: int = 30,
    n_hi: int = 50,
    core_p: float = 0.7,
) -> str:
    n = rng.randint(n_lo, n_hi)
    return " ".join(
        rng.choice(core) if rng.random() < core_p else rng.choice(_NOISE)
        for _ in range(n)
    )


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


def write_corpus(rows: Iterable[tuple[int, str]], path: str | Path) -> None:
    """Write (page id, text) rows as JSONL."""
    write_jsonl(({"id": page_id, "text": text} for page_id, text in rows), path)


def _write_tsvs(
    outdir: Path,
    categories: list[tuple[int, str]],
    pages: list[tuple[int, str]],
    edges: list[tuple[int, int, str]],
) -> None:
    (outdir / "categories.tsv").write_text(
        "".join(f"{i}\t{name}\n" for i, name in categories), encoding="utf-8"
    )
    (outdir / "pages.tsv").write_text(
        "".join(f"{i}\t{title}\n" for i, title in pages), encoding="utf-8"
    )
    (outdir / "edges.tsv").write_text(
        "".join(f"{p}\t{c}\t{kind}\n" for p, c, kind in edges), encoding="utf-8"
    )


def _write_taxonomy(outdir: Path, names: dict[str, str]) -> None:
    doc = {
        "labels": [
            {"id": lab, "name": names[lab], "parent": None}
            for lab in sorted(names)
        ]
    }
    write_json(doc, outdir / "taxonomy.json")


def make_ablation_wiki(outdir: str | Path, seed: int = 0) -> dict:
    """Three-root category wiki with weakly attached distractor pages.

    Each root owns four subcategories.  Per root: 3 pages sit directly on
    the root, 50 clean pages are members of two subcategories, and 15
    distractor pages written in the NEXT class's vocabulary hang off one
    subcategory while their other three parents are standalone archive
    categories no root can reach (parent coverage 1/4).
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    labels = class_ids(3)
    names = {lab: lab.capitalize() for lab in labels}
    cores = {lab: _core_vocab(lab) for lab in labels}

    categories: list[tuple[int, str]] = []
    pages: list[tuple[int, str]] = []
    edges: list[tuple[int, int, str]] = []
    corpus: list[tuple[int, str]] = []

    next_cat = 1
    roots: dict[str, int] = {}
    children: dict[str, list[int]] = {}
    for lab in labels:
        roots[lab] = next_cat
        categories.append((next_cat, names[lab]))
        next_cat += 1
    for lab in labels:
        kids = []
        for k in range(4):
            categories.append((next_cat, f"{names[lab]} section {k}"))
            edges.append((roots[lab], next_cat, "subcat"))
            kids.append(next_cat)
            next_cat += 1
        children[lab] = kids
    junk = []
    for k in range(10):
        categories.append((next_cat, f"Standalone archive {k}"))
        junk.append(next_cat)
        next_cat += 1

    next_page = 1000
    for r, lab in enumerate(labels):
        for n in range(3):
            pages.append((next_page, f"{names[lab]} front page {n}"))
            edges.append((roots[lab], next_page, "member"))
            corpus.append((next_page, _doc(rng, cores[lab])))
            next_page += 1
        for n in range(50):
            pages.append((next_page, f"{names[lab]} article {n}"))
            for cat in rng.sample(children[lab], 2):
                edges.append((cat, next_page, "member"))
            corpus.append((next_page, _doc(rng, cores[lab])))
            next_page += 1
        stray_core = cores[labels[(r + 1) % 3]]
        for n in range(15):
            pages.append((next_page, f"{names[lab]} stray {n}"))
            edges.append((rng.choice(children[lab]), next_page, "member"))
            for cat in rng.sample(junk, 3):
                edges.append((cat, next_page, "member"))
            corpus.append((next_page, _doc(rng, stray_core)))
            next_page += 1

    _write_tsvs(outdir, categories, pages, edges)
    _write_taxonomy(outdir, names)
    write_corpus(corpus, outdir / "corpus.jsonl")

    gold = [
        EvalInstance(_doc(rng, cores[lab]), (lab,)) for lab in labels for _ in range(30)
    ]
    write_eval(gold, outdir / "eval.jsonl")

    return {
        "categories": len(categories),
        "pages": len(pages),
        "edges": len(edges),
        "labels": labels,
        "eval_instances": 30 * len(labels),
    }


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
