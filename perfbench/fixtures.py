"""Seeded fixture generators for the pipeline benchmark.

Each generator writes the files the wikicat CLI reads: categories.tsv,
pages.tsv, edges.tsv, taxonomy.json, corpus.jsonl, eval.jsonl and
predict.jsonl.  It returns a manifest with the sizes, the label planted on
every page and on every predict document, and the record count the label
step must produce.  The same seed gives byte-identical files.

Two graph shapes:

* ``scale``: the layered shape of ``make_scale_graph`` (roots, then layers
  of 200 / 2000 / remaining categories, pages on the leaf layer of one
  tree, member fan-in sized so the edge total is exact).  Category names
  ("Branch 3 topic 117") all share the token "branch", so every mapping
  query scores every category form.
* ``two_tier``: parents with children (the taxonomy), each child owning a
  few archive subcategories that hold its pages.  Label names are
  pseudo-words with distinct four-letter prefixes, and subcategory names
  add a suffix at least as long as the label name, so no label can
  fuzzy-match another label's category (Jaro-Winkler stays below 0.9).

Documents mix tokens from their own class, one competing class and a noise
pool, with per-document shares, so a share of them read more like the
competitor and classifiers score clearly below 1.0.  A few pages are
misfiled: their memberships sit under a competitor's categories, so the
weak labels carry noise too.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

_CONSONANTS = "bdfgklmnprtvz"
_VOWELS = "aeiou"
_SUFFIX = "archive section"
_NOISE = [f"filler{i}" for i in range(120)]
_CORE_SIZE = 30


def _pseudo_words(rng: np.random.Generator, n: int) -> list[str]:
    """n six-letter CVCVCV words whose four-letter prefixes all differ."""
    syll = [c + v for c in _CONSONANTS for v in _VOWELS]
    pairs = [a + b for a in syll for b in syll]
    if n > len(pairs):
        raise ValueError(f"at most {len(pairs)} distinct names, asked for {n}")
    heads = rng.permutation(len(pairs))[:n]
    tails = rng.integers(0, len(syll), size=n)
    return [pairs[h] + syll[t] for h, t in zip(heads.tolist(), tails.tolist())]


def _sample_distinct(
    rng: np.random.Generator, pool_size: int, counts: np.ndarray
) -> list[np.ndarray]:
    """Per row, counts[i] distinct indices below pool_size (sorted draw)."""
    width = int(counts.max())
    draws = np.sort(rng.integers(0, pool_size - width + 1, (len(counts), width)), 1)
    draws += np.arange(width)
    return [row[:k] for row, k in zip(draws, counts.tolist())]


def _write_lines(path: Path, lines: list[str]) -> None:
    path.write_text("".join(lines), encoding="utf-8")


def _write_graph(
    outdir: Path,
    cat_lines: list[str],
    page_lines: list[str],
    edge_lines: list[str],
    taxonomy: list[tuple[str, str, str | None]],
) -> None:
    _write_lines(outdir / "categories.tsv", cat_lines)
    _write_lines(outdir / "pages.tsv", page_lines)
    _write_lines(outdir / "edges.tsv", edge_lines)
    doc = {
        "labels": [
            {"id": lid, "name": name, "parent": parent}
            for lid, name, parent in taxonomy
        ]
    }
    (outdir / "taxonomy.json").write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


class _TextMaker:
    """Documents drawn from class token cores, a rival class and noise.

    Per document the own-class share is uniform in [0.2, 0.5) and the
    rival share in [0.05, 0.35); an optional second own class (a parent)
    takes a fixed 0.1; noise fills the rest.
    """

    def __init__(self, rng: np.random.Generator, class_words: list[str]) -> None:
        self.rng = rng
        self.vocab = [f"{w}{j}" for w in class_words for j in range(_CORE_SIZE)]
        self.noise_base = len(self.vocab)
        self.vocab.extend(_NOISE)

    def texts(
        self,
        own: np.ndarray,
        rival: np.ndarray,
        parent: np.ndarray | None = None,
    ) -> list[str]:
        rng = self.rng
        n = len(own)
        lengths = rng.integers(20, 41, size=n)
        bounds = np.concatenate(([0], np.cumsum(lengths)))
        doc = np.repeat(np.arange(n), lengths)
        total = len(doc)
        u = rng.random(total)
        pick = rng.integers(0, _CORE_SIZE, size=total)
        noise = self.noise_base + rng.integers(0, len(_NOISE), size=total)
        own_end = rng.uniform(0.2, 0.5, size=n)[doc]
        rival_end = own_end + rng.uniform(0.05, 0.35, size=n)[doc]
        conds = [u < own_end, u < rival_end]
        choices = [own[doc] * _CORE_SIZE + pick, rival[doc] * _CORE_SIZE + pick]
        if parent is not None:
            conds.append(u < rival_end + 0.1)
            choices.append(parent[doc] * _CORE_SIZE + pick)
        tok = np.select(conds, choices, noise).tolist()
        vocab = self.vocab
        cut = bounds.tolist()
        return [
            " ".join([vocab[t] for t in tok[cut[i] : cut[i + 1]]]) for i in range(n)
        ]


def _write_docs(path: Path, ids: list[int], texts: list[str]) -> None:
    _write_lines(
        path,
        [json.dumps({"id": i, "text": t}) + "\n" for i, t in zip(ids, texts)],
    )


def _write_eval(
    path: Path, texts: list[str], golds: list[str], parents: list[str | None]
) -> None:
    _write_lines(
        path,
        [
            json.dumps({"labels": [g], "parent": p, "text": t}, sort_keys=True) + "\n"
            for t, g, p in zip(texts, golds, parents)
        ],
    )


def _rivals(rng: np.random.Generator, own: np.ndarray, group_size: int) -> np.ndarray:
    """A different class in the same group of group_size consecutive ids."""
    shift = rng.integers(1, group_size, size=len(own))
    base = own - own % group_size
    return base + (own % group_size + shift) % group_size


def make_scale(
    outdir: Path,
    seed: int,
    n_roots: int = 5,
    n_categories: int = 20_000,
    n_pages: int = 100_000,
    n_edges: int = 1_000_000,
    n_eval: int = 2_000,
    n_predict: int = 5_000,
) -> dict:
    """The make_scale_graph shape plus a corpus, eval set and predict file."""
    outdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    l1_total, l2_total = 200, 2000
    l3_total = n_categories - n_roots - l1_total - l2_total
    if l3_total < n_roots:
        raise ValueError("n_categories too small for the fixed layer sizes")

    labels = [f"branch{r}" for r in range(n_roots)]
    cat_lines = [f"{r + 1}\tBranch {r} topics\n" for r in range(n_roots)]
    edge_lines: list[str] = []
    prev = np.arange(1, n_roots + 1)  # layer above, by tree via k % n_roots
    next_id = n_roots + 1
    layers = (("area", l1_total, 1), ("group", l2_total, 3), ("topic", l3_total, 3))
    for word, size, fan_hi in layers:
        ids = np.arange(next_id, next_id + size)
        tree = np.arange(size) % n_roots
        per_tree = [prev[t::n_roots] for t in range(n_roots)]
        counts = rng.integers(1, fan_hi + 1, size=size)
        pool = min(len(p) for p in per_tree)
        for k, (node, t, picks) in enumerate(
            zip(ids.tolist(), tree.tolist(), _sample_distinct(rng, pool, counts))
        ):
            cat_lines.append(f"{node}\tBranch {t} {word} {k}\n")
            edge_lines.extend(
                f"{parent}\t{node}\tsubcat\n"
                for parent in per_tree[t][picks].tolist()
            )
        prev = ids
        next_id += size

    member_budget = n_edges - len(edge_lines)
    if member_budget < n_pages:
        raise ValueError("n_edges too small: need at least one edge per page")
    base, extra = divmod(member_budget, n_pages)
    leaf = [prev[t::n_roots] for t in range(n_roots)]
    pool = min(len(p) for p in leaf)
    fans = np.minimum(base + (np.arange(n_pages) < extra), pool)
    page_ids = np.arange(next_id, next_id + n_pages)
    page_tree = np.arange(n_pages) % n_roots
    page_lines = []
    for k, (page, t, picks) in enumerate(
        zip(page_ids.tolist(), page_tree.tolist(), _sample_distinct(rng, pool, fans))
    ):
        page_lines.append(f"{page}\tBranch {t} page {k}\n")
        edge_lines.extend(
            f"{parent}\t{page}\tmember\n" for parent in leaf[t][picks].tolist()
        )

    taxonomy = [(lab, f"Branch {r} topics", None) for r, lab in enumerate(labels)]
    _write_graph(outdir, cat_lines, page_lines, edge_lines, taxonomy)

    maker = _TextMaker(rng, labels)
    _write_docs(
        outdir / "corpus.jsonl",
        page_ids.tolist(),
        maker.texts(page_tree, _rivals(rng, page_tree, n_roots)),
    )
    eval_own = np.arange(n_eval) % n_roots
    _write_eval(
        outdir / "eval.jsonl",
        maker.texts(eval_own, _rivals(rng, eval_own, n_roots)),
        [labels[c] for c in eval_own.tolist()],
        [None] * n_eval,
    )
    pred_own = rng.integers(0, n_roots, size=n_predict)
    pred_ids = list(range(1, n_predict + 1))
    _write_docs(
        outdir / "predict.jsonl",
        pred_ids,
        maker.texts(pred_own, _rivals(rng, pred_own, n_roots)),
    )
    return {
        "sizes": {
            "categories": n_categories,
            "pages": n_pages,
            "edges": n_edges,
            "labels": n_roots,
            "eval": n_eval,
            "predict": n_predict,
        },
        "planted": dict(zip(page_ids.tolist(), map(labels.__getitem__, page_tree))),
        "predict_gold": dict(zip(pred_ids, map(labels.__getitem__, pred_own))),
        "expected_records": n_pages,
        "predict_model": "coarse",
        "predict_input": "predict.jsonl",
    }


def make_two_tier(
    outdir: Path,
    seed: int,
    n_parents: int,
    n_children: int,
    scheme: str,
    subcats: int = 5,
    pages_per_child: int = 100,
    n_eval: int = 2_000,
    n_predict: int = 2_000,
    cross_p: float = 0.15,
    misfiled_p: float = 0.04,
) -> dict:
    """Parents x children taxonomy over archive subcategories and pages.

    Each page is a member of two subcategories of its own child.  With
    probability ``cross_p`` it also joins one subcategory of its rival,
    and with probability ``misfiled_p`` it sits under two of the rival's
    subcategories instead of its own.  The rival competes with the page's
    own label under ``scheme``: a sibling child for "fine", a child of
    another parent for "coarse".  Planted labels are the children for the
    fine scheme and the parents for the coarse one.

    The predict file holds fresh documents for the first parent's model
    under the fine scheme; under the coarse scheme the coarse model
    predicts the whole corpus.
    """
    if scheme not in ("coarse", "fine"):
        raise ValueError(f"unknown scheme {scheme!r}")
    outdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    n_kids = n_parents * n_children
    words = _pseudo_words(rng, n_parents + n_kids)
    parents, kids = words[:n_parents], words[n_parents:]
    kid_parent = np.arange(n_kids) // n_children

    cat_lines, edge_lines = [], []
    for p, word in enumerate(parents):
        cat_lines.append(f"{p + 1}\t{word.capitalize()}\n")
    kid_id = n_parents + 1
    sub_base = kid_id + n_kids
    for c, word in enumerate(kids):
        node = kid_id + c
        cat_lines.append(f"{node}\t{word.capitalize()}\n")
        edge_lines.append(f"{kid_parent[c] + 1}\t{node}\tsubcat\n")
        for s in range(subcats):
            sub = sub_base + c * subcats + s
            cat_lines.append(f"{sub}\t{word.capitalize()} {_SUFFIX} {s}\n")
            edge_lines.append(f"{node}\t{sub}\tsubcat\n")

    fine = scheme == "fine"

    def rivals(cls: np.ndarray) -> np.ndarray:
        """A child competing with each class under the scheme."""
        if fine:
            return _rivals(rng, cls, n_children)
        shift = n_children * rng.integers(1, n_parents, size=len(cls))
        return (cls + shift) % n_kids

    n_pages = n_kids * pages_per_child
    own = np.arange(n_pages) // pages_per_child
    rival = rivals(own)
    first_page = sub_base + n_kids * subcats
    page_ids = np.arange(first_page, first_page + n_pages)
    u = rng.random(n_pages)
    home = np.where(u < misfiled_p, rival, own)
    picks = _sample_distinct(rng, subcats, np.full(n_pages, 2))
    cross = rng.integers(0, subcats, size=n_pages)
    page_lines = []
    for k, (page, h, r, pair, x, uk) in enumerate(
        zip(page_ids.tolist(), home.tolist(), rival.tolist(), picks,
            cross.tolist(), u.tolist())
    ):
        page_lines.append(f"{page}\t{kids[own[k]].capitalize()} page {k}\n")
        for s in pair.tolist():
            edge_lines.append(f"{sub_base + h * subcats + s}\t{page}\tmember\n")
        if misfiled_p <= uk < misfiled_p + cross_p:
            edge_lines.append(f"{sub_base + r * subcats + x}\t{page}\tmember\n")
    taxonomy = [(w, w.capitalize(), None) for w in parents] + [
        (w, w.capitalize(), parents[kid_parent[c]]) for c, w in enumerate(kids)
    ]
    _write_graph(outdir, cat_lines, page_lines, edge_lines, taxonomy)

    # Class ids for the text maker: children first, then parents.
    maker = _TextMaker(rng, kids + parents)

    def texts(cls: np.ndarray) -> list[str]:
        return maker.texts(cls, rivals(cls), n_kids + kid_parent[cls])

    _write_docs(outdir / "corpus.jsonl", page_ids.tolist(), texts(own))
    gold_of = (lambda c: kids[c]) if fine else (lambda c: parents[kid_parent[c]])
    eval_own = np.arange(n_eval) % n_kids
    _write_eval(
        outdir / "eval.jsonl",
        texts(eval_own),
        [gold_of(c) for c in eval_own.tolist()],
        [parents[kid_parent[c]] if fine else None for c in eval_own.tolist()],
    )
    if fine:
        first = min(range(n_parents), key=lambda p: parents[p])
        pred_own = first * n_children + rng.integers(0, n_children, size=n_predict)
        pred_ids = list(range(1, n_predict + 1))
        _write_docs(outdir / "predict.jsonl", pred_ids, texts(pred_own))
        predict_model, predict_input = parents[first], "predict.jsonl"
    else:
        pred_own, pred_ids = own, page_ids.tolist()
        predict_model, predict_input = "coarse", "corpus.jsonl"
    return {
        "sizes": {
            "categories": len(cat_lines),
            "pages": n_pages,
            "edges": len(edge_lines),
            "labels": n_parents + n_kids,
            "eval": n_eval,
            "predict": len(pred_ids),
        },
        "planted": dict(zip(page_ids.tolist(), map(gold_of, own.tolist()))),
        "predict_gold": dict(zip(pred_ids, map(gold_of, pred_own.tolist()))),
        "expected_records": n_pages,
        "predict_model": predict_model,
        "predict_input": predict_input,
    }
