"""The synthetic ablation wiki: a small category graph with a taxonomy, a
corpus and gold instances, to try the whole pipeline without real data.

It is seeded and writes deterministic artifacts, so tests can regenerate
identical inputs instead of shipping files.  Class vocabularies are
disjoint token cores plus a shared noise pool; the wiki plants distractor
pages whose text comes from the next class's core, attached to the tree
through a single weak membership edge.
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import Iterable, Sequence

from .evaluation import EvalInstance, write_eval
from .jsonio import write_json, write_jsonl

_CLASS_POOL = ("alpha", "bravo", "charlie", "delta", "echo", "foxtrot")


def _core_vocab(label: str) -> list[str]:
    return [f"{label}term{i:02d}" for i in range(30)]


_NOISE = [f"filler{i:02d}" for i in range(40)]


def _doc(rng: random.Random, core: Sequence[str]) -> str:
    """30 to 50 words, each from ``core`` with probability 0.7, else noise."""
    n = rng.randint(30, 50)
    return " ".join(
        rng.choice(core) if rng.random() < 0.7 else rng.choice(_NOISE)
        for _ in range(n)
    )


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


def make_ablation_wiki(outdir: str | Path, seed: int) -> dict:
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
    labels = list(_CLASS_POOL[:3])
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
