"""Map taxonomy labels onto category nodes.

Matching per label: manual overrides win outright; otherwise the label name
and its conjunction parts are normalized and looked up in an inverted token
index over normalized category names and redirect aliases.  All exact
normalized matches are accepted, and each query part may additionally accept
its best fuzzy candidate when its similarity clears the threshold.  The
candidates of every label are scored in one batched Jaro-Winkler kernel.
For labels that stay unmapped, the best below-threshold candidates are
reported so they can be curated into overrides.
"""

from __future__ import annotations

import itertools
import re
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .exceptions import ConfigurationError, TaxonomyError
from .graph_store import CategoryGraph
from .jsonio import INTEGER, NUMBER, STRING, read_json, write_json

DEFAULT_THRESHOLD = 0.9

_NON_WORD = re.compile(r"[\W_]+")
_CONJUNCTION = re.compile(r"&|/|,|\band\b", re.IGNORECASE)
# minimum shared prefix for a token to widen candidate retrieval, and the
# cap on the Winkler prefix boost
_PREFIX_LEN = 4
_BLOCK_PAIRS = 1 << 12  # (query, form) pairs per padded numpy pass of the scorer
# pads above every code point, and unequal, so a pad never matches anything
_PAD_QUERY, _PAD_FORM = 0xFFFFFFFF, 0xFFFFFFFE


def strip_plural(token: str) -> str:
    """Rule-based singularization of one lowercase token."""
    if token.endswith("ies"):
        return token[:-3] + "y"
    if token.endswith(("ses", "xes", "zes", "ches", "shes")):
        return token[:-2]
    if token.endswith("s"):
        return token[:-1]
    return token


def normalize_name(name: str) -> str:
    """Lowercase, turn punctuation runs into spaces, singularize tokens."""
    tokens = _NON_WORD.sub(" ", name.lower()).split()
    return " ".join(t for t in (strip_plural(tok) for tok in tokens) if t)


def jaro_winkler(a: str, b: str) -> float:
    """String similarity in [0, 1]: Jaro plus the common-prefix boost."""
    one = np.zeros(1, np.int64)
    pair = _score_pairs(_Strings.encode([a]), one, _Strings.encode([b]), one)
    return float(pair[0])


@dataclass(frozen=True, eq=False)  # arrays have no single truth value
class _Strings:
    """Strings as CSR rows of UTF-32 code points: string r is
    ``codes[indptr[r]:indptr[r + 1]]`` (uint32)."""

    indptr: np.ndarray
    codes: np.ndarray

    @classmethod
    def encode(cls, strings: list[str]) -> _Strings:
        lengths = np.fromiter(map(len, strings), np.int64, len(strings))
        blob = "".join(strings).encode("utf-32-le", "surrogatepass")
        return cls(
            np.concatenate([[0], np.cumsum(lengths)]),
            np.frombuffer(blob, np.uint32),
        )

    def padded(self, rows: np.ndarray, fill: int) -> tuple[np.ndarray, np.ndarray]:
        """The strings ``rows`` as a matrix padded with ``fill``, and their
        lengths.  The matrix has at least one column, so a row always has a
        position for ``argmax`` to return."""
        starts = self.indptr[rows]
        lengths = self.indptr[rows + 1] - starts
        cols = np.arange(max(lengths.max(initial=0), 1))
        inside = cols < lengths[:, None]
        out = np.full(inside.shape, fill, np.uint32)
        out[inside] = self.codes[(starts[:, None] + cols)[inside]]
        return out, lengths


def _score_pairs(
    queries: _Strings, qrows: np.ndarray, forms: _Strings, frows: np.ndarray
) -> np.ndarray:
    """``jaro_winkler(queries[qrows[k]], forms[frows[k]])`` for every k.

    The pairs are scored in padded blocks of ``_BLOCK_PAIRS`` rows, so the
    temporary matrices stay small however many pairs there are.
    """
    out = np.empty(len(qrows))
    for lo in range(0, len(qrows), _BLOCK_PAIRS):
        rows = slice(lo, lo + _BLOCK_PAIRS)
        out[rows] = _score_block(
            *queries.padded(qrows[rows], _PAD_QUERY),
            *forms.padded(frows[rows], _PAD_FORM),
        )
    return out


def _score_block(
    a: np.ndarray, len_a: np.ndarray, b: np.ndarray, len_b: np.ndarray
) -> np.ndarray:
    """Jaro-Winkler of each row pair of two padded code-point matrices.

    The loop runs over query positions only.  Query character i takes the
    first free form position within the match window that holds it, as a
    scan from the left does, so the match count, transpositions and prefix
    are the scalar definition's integers.  The float expression keeps the
    scalar order of operations, which makes the scores equal bit for bit.
    """
    rows, cols = np.arange(len(a)), np.arange(b.shape[1])
    window = np.maximum(np.maximum(len_a, len_b) // 2 - 1, 0)[:, None]
    free = np.ones(b.shape, bool)  # form positions not matched yet
    hit = np.zeros(a.shape, bool)  # query positions that matched
    for i in range(a.shape[1]):
        # the pads of a and b differ, so no pad position ever matches
        match = (b == a[:, i, None]) & free & (np.abs(cols - i) <= window)
        j = match.argmax(axis=1)
        found = match[rows, j]
        free[rows[found], j[found]] = False
        hit[:, i] = found
    m = hit.sum(axis=1)
    # the k-th matched query character against the k-th matched form one
    swapped = a[hit] != b[~free]
    t = np.bincount(np.nonzero(hit)[0][swapped], minlength=len(a)) // 2
    k = min(_PREFIX_LEN, a.shape[1], b.shape[1])
    prefix = np.logical_and.accumulate(a[:, :k] == b[:, :k], axis=1).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        jaro = (m / len_a + m / len_b + (m - t) / m) / 3.0
        score = jaro + prefix * 0.1 * (1.0 - jaro)
    score[m == 0] = 0.0
    score[(len_a == 0) & (len_b == 0)] = 1.0
    return score


def split_conjunctions(name: str) -> list[str]:
    """The original name first, then any conjunction parts."""
    parts = [name]
    for part in _CONJUNCTION.split(name):
        part = part.strip()
        if part and part not in parts:
            parts.append(part)
    return parts


@dataclass(frozen=True)
class TaxonomyLabel:
    id: str
    name: str
    parent: str | None = None


class Taxonomy:
    """A forest of labels, typically two tiers (coarse roots, fine children)."""

    def __init__(self, labels: list[TaxonomyLabel]) -> None:
        self.labels = list(labels)
        self.by_id: dict[str, TaxonomyLabel] = {}
        names: set[str] = set()
        for lab in self.labels:
            if lab.id in self.by_id:
                raise TaxonomyError(f"duplicate label id {lab.id!r}")
            self.by_id[lab.id] = lab
            if lab.name in names:
                raise TaxonomyError(f"duplicate label name {lab.name!r}")
            names.add(lab.name)
        for lab in self.labels:
            if lab.parent is not None and lab.parent not in self.by_id:
                raise TaxonomyError(
                    f"label {lab.id!r} has unknown parent {lab.parent!r}"
                )
        for lab in self.labels:
            seen = {lab.id}
            cur = lab.parent
            while cur is not None:
                if cur in seen:
                    raise TaxonomyError(
                        f"parent chain of label {lab.id!r} contains a cycle"
                    )
                seen.add(cur)
                cur = self.by_id[cur].parent

    def roots(self) -> list[TaxonomyLabel]:
        return [lab for lab in self.labels if lab.parent is None]

    def children_of(self, label_id: str) -> list[TaxonomyLabel]:
        if label_id not in self.by_id:
            raise TaxonomyError(f"unknown label id {label_id!r}")
        return [lab for lab in self.labels if lab.parent == label_id]


def load_taxonomy(path: str | Path) -> Taxonomy:
    doc = read_json(path)
    if not isinstance(doc, dict) or not isinstance(doc.get("labels"), list):
        raise TaxonomyError(f"{path}: expected an object with a 'labels' list")
    labels = []
    for i, row in enumerate(doc["labels"]):
        if not isinstance(row, dict):
            raise TaxonomyError(f"{path}: labels[{i}] is not an object")
        lid, name, parent = row.get("id"), row.get("name"), row.get("parent")
        if not isinstance(lid, str) or not isinstance(name, str):
            raise TaxonomyError(f"{path}: labels[{i}] needs string id and name")
        if parent is not None and not isinstance(parent, str):
            raise TaxonomyError(f"{path}: labels[{i}] parent must be string or null")
        labels.append(TaxonomyLabel(lid, name, parent))
    try:
        return Taxonomy(labels)
    except TaxonomyError as exc:
        raise TaxonomyError(f"{path}: {exc}") from None


MAPPED_KINDS = ("exact", "fuzzy", "override")


@dataclass(frozen=True)
class MappedCategory:
    node: int
    kind: str  # one of MAPPED_KINDS
    score: float


@dataclass(frozen=True)
class NearMiss:
    part: str
    node: int
    score: float


@dataclass
class CategoryMapping:
    entries: dict[str, list[MappedCategory]]
    unmapped: list[str]
    near_misses: dict[str, list[NearMiss]]
    threshold: float


class _NameIndex:
    """Inverted index over normalized category names and aliases.

    Each form is posted under the first four characters of each of its
    tokens (a shorter token is its own key).  A query token retrieves the
    posting of its own key: every form sharing the token, widened by forms
    whose tokens share its first four characters, so that close inflections
    (singular against -ism, -ing, ... variants) stay reachable.  A distinct
    normalized text is stored once; form ``f`` is text ``form_text[f]``
    naming node ``form_node[f]``.
    """

    def __init__(self, graph: CategoryGraph) -> None:
        self.exact: dict[str, set[int]] = {}
        self.keys: dict[str, int] = {}
        texts: dict[str, int] = {}
        form_text, form_node = array("q"), array("q")
        post_key, post_form = array("q"), array("q")
        categories = graph.names[: graph.n_categories]
        sources = itertools.chain(
            ((name, node) for node, name in enumerate(categories)),
            graph.aliases.items(),
        )
        for raw, node in sources:
            norm = normalize_name(raw)
            if not norm:
                continue
            fid = len(form_node)
            form_text.append(texts.setdefault(norm, len(texts)))
            form_node.append(node)
            self.exact.setdefault(norm, set()).add(node)
            for key in {tok[:_PREFIX_LEN] for tok in norm.split()}:
                post_key.append(self.keys.setdefault(key, len(self.keys)))
                post_form.append(fid)
        self.texts = _Strings.encode(list(texts))
        self.form_text = np.array(form_text, np.int64)
        self.form_node = np.array(form_node, np.int64)
        keys = np.array(post_key, np.int64)
        order = np.argsort(keys, kind="stable")  # keeps each posting ascending
        self.postings = np.array(post_form, np.int64)[order]
        self.indptr = np.concatenate(
            [[0], np.cumsum(np.bincount(keys, minlength=len(self.keys)))]
        )

    def exact_nodes(self, query: str) -> list[int]:
        return sorted(self.exact.get(query, ()))

    def best_fuzzy(self, queries: list[str]) -> tuple[list[int], list[float]]:
        """Per query, its best candidate node and that node's score.

        A node's score is the highest Jaro-Winkler similarity of its forms;
        the best node has the highest score, the lowest node id among equal
        ones.  Nodes that match the query exactly are not candidates.  A
        query without candidates gets node -1 and score 0.0.  Every
        candidate pair of every query is scored in one kernel call.
        """
        # the posting of each key of each query, and the query it serves;
        # the empty first chunk keeps concatenate defined when none match
        chunks: list[np.ndarray] = [np.empty(0, np.int64)]
        owners: list[int] = [0]
        exact_keys: list[int] = []
        n_forms = len(self.form_node)
        n_nodes = int(self.form_node.max(initial=-1)) + 1
        for qid, query in enumerate(queries):
            for key in {tok[:_PREFIX_LEN] for tok in query.split()}:
                row = self.keys.get(key)
                if row is not None:
                    start, end = self.indptr[row], self.indptr[row + 1]
                    chunks.append(self.postings[start:end])
                    owners.append(qid)
            exact_keys += [qid * n_nodes + n for n in self.exact.get(query, ())]
        pairs = np.repeat(owners, [len(c) for c in chunks]) * n_forms
        pairs = np.sort(pairs + np.concatenate(chunks))
        qid, fid = np.divmod(pairs[_run_starts(pairs)], n_forms)
        node = self.form_node[fid]
        # a form equal to the query names one of its exact nodes, so this
        # also drops the pairs that would score 1.0
        keep = ~np.isin(qid * n_nodes + node, exact_keys)
        qid, fid, node = qid[keep], fid[keep], node[keep]
        score = _score_pairs(
            _Strings.encode(queries), qid, self.texts, self.form_text[fid]
        )
        order = np.lexsort((node, -score, qid))
        best = order[_run_starts(qid[order])]
        best_node = np.full(len(queries), -1)
        best_score = np.zeros(len(queries))
        best_node[qid[best]] = node[best]
        best_score[qid[best]] = score[best]
        return best_node.tolist(), best_score.tolist()


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """Mask of the first element of each run of equal values in ``keys``."""
    return np.concatenate([[True], keys[1:] != keys[:-1]])[: len(keys)]


def map_taxonomy(
    taxonomy: Taxonomy,
    graph: CategoryGraph,
    overrides: dict[str, list[int]] | None = None,
    threshold: float = DEFAULT_THRESHOLD,
) -> CategoryMapping:
    """Resolve every taxonomy label to category nodes.

    ``overrides`` maps label ids to category nodes and replaces automatic
    matching for those labels.  Exact matches are accepted with score 1.0;
    each query part may add its best fuzzy candidate scoring at least
    ``threshold``, which must be in [0, 1].  Ties go to the lowest node id,
    so results do not depend on iteration order.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ConfigurationError(f"threshold must be in [0, 1], got {threshold}")
    overrides = overrides or {}
    for label_id, nodes in overrides.items():
        if label_id not in taxonomy.by_id:
            raise TaxonomyError(f"override for unknown label {label_id!r}")
        for node in nodes:
            if not 0 <= node < graph.n_categories:
                raise TaxonomyError(
                    f"override for {label_id!r} maps to non-category node {node}"
                )

    # every label's query parts first, so one kernel call scores them all
    queries: list[tuple[str, str]] = []  # (part, normalized part)
    label_queries: dict[str, range] = {}
    for lab in taxonomy.labels:
        if lab.id in overrides:
            continue
        start = len(queries)
        for part in split_conjunctions(lab.name):
            norm = normalize_name(part)
            if norm and norm not in (q for _, q in queries[start:]):
                queries.append((part, norm))
        label_queries[lab.id] = range(start, len(queries))
    index = _NameIndex(graph)
    best_node, best_score = index.best_fuzzy([q for _, q in queries])

    entries: dict[str, list[MappedCategory]] = {}
    unmapped: list[str] = []
    near_misses: dict[str, list[NearMiss]] = {}
    for lab in taxonomy.labels:
        if lab.id in overrides:
            nodes = sorted(set(overrides[lab.id]))
            if nodes:
                entries[lab.id] = [MappedCategory(n, "override", 1.0) for n in nodes]
            else:
                unmapped.append(lab.id)
            continue

        accepted: dict[int, MappedCategory] = {}
        label_near: list[NearMiss] = []
        for k in label_queries[lab.id]:
            part, query = queries[k]
            for node in index.exact_nodes(query):
                accepted[node] = MappedCategory(node, "exact", 1.0)
            node, score = best_node[k], best_score[k]
            if node < 0:
                continue
            if score >= threshold:
                prev = accepted.get(node)
                if prev is None or (prev.kind == "fuzzy" and score > prev.score):
                    accepted[node] = MappedCategory(node, "fuzzy", score)
            else:
                label_near.append(NearMiss(part, node, score))

        if accepted:
            entries[lab.id] = [accepted[n] for n in sorted(accepted)]
        else:
            unmapped.append(lab.id)
            if label_near:
                near_misses[lab.id] = label_near

    return CategoryMapping(entries, unmapped, near_misses, threshold)


def resolve_override_names(
    graph: CategoryGraph, raw: dict[str, list[str]]
) -> dict[str, list[int]]:
    """Turn override category names (or aliases) into category nodes."""
    categories = graph.names[: graph.n_categories]
    by_name = {name: node for node, name in enumerate(categories)}
    out: dict[str, list[int]] = {}
    for label_id, names in raw.items():
        if not isinstance(names, list) or not all(
            isinstance(n, str) for n in names
        ):
            raise TaxonomyError(
                f"override for {label_id!r} must be a list of category names"
            )
        nodes = []
        for name in names:
            node = by_name.get(name)
            if node is None:
                node = graph.aliases.get(name)
            if node is None:
                raise TaxonomyError(
                    f"override category name not in graph: {name!r}"
                )
            nodes.append(node)
        out[label_id] = nodes
    return out


def save_mapping(
    mapping: CategoryMapping, graph: CategoryGraph, path: str | Path
) -> None:
    doc = {
        "threshold": mapping.threshold,
        "labels": {
            lid: [
                {
                    "category_id": graph.external_id(mc.node),
                    "name": graph.node_name(mc.node),
                    "kind": mc.kind,
                    "score": mc.score,
                }
                for mc in cats
            ]
            for lid, cats in mapping.entries.items()
        },
        "unmapped": mapping.unmapped,
        "near_misses": {
            lid: [
                {
                    "part": nm.part,
                    "category_id": graph.external_id(nm.node),
                    "name": graph.node_name(nm.node),
                    "score": nm.score,
                }
                for nm in misses
            ]
            for lid, misses in mapping.near_misses.items()
        },
    }
    write_json(doc, path)


def load_mapping(
    path: str | Path, graph: CategoryGraph, taxonomy: Taxonomy
) -> CategoryMapping:
    """Read a mapping written by :func:`save_mapping`; every label it names
    must be one of ``taxonomy``'s."""
    doc = read_json(path)
    if not isinstance(doc, dict) or not isinstance(doc.get("labels"), dict):
        raise TaxonomyError(f"{path}: expected an object with a 'labels' table")
    try:
        entries: dict[str, list[MappedCategory]] = {}
        for lid, rows in doc["labels"].items():
            ids, kinds, scores = _columns(rows, "category_id", "kind", "score")
            INTEGER.check(ids, "category_id")
            NUMBER.check(scores, "score")
            for kind in kinds:
                if kind not in MAPPED_KINDS:
                    raise ValueError(
                        f"kind {kind!r} is not one of {', '.join(MAPPED_KINDS)}"
                    )
            cats = [
                MappedCategory(graph.category_node(cid), kind, float(score))
                for cid, kind, score in zip(ids, kinds, scores)
            ]
            entries[lid] = sorted(cats, key=lambda mc: mc.node)
        near: dict[str, list[NearMiss]] = {}
        for lid, rows in doc.get("near_misses", {}).items():
            parts, ids, scores = _columns(rows, "part", "category_id", "score")
            STRING.check(parts, "part")
            INTEGER.check(ids, "category_id")
            NUMBER.check(scores, "score")
            near[lid] = [
                NearMiss(part, graph.category_node(cid), float(score))
                for part, cid, score in zip(parts, ids, scores)
            ]
        unmapped = doc.get("unmapped", [])
        if type(unmapped) is not list:
            raise ValueError(f"unmapped {unmapped!r} is not a list")
        STRING.check(unmapped, "unmapped label")
        threshold = doc.get("threshold", DEFAULT_THRESHOLD)
        NUMBER.check([threshold], "threshold")
        for lid in itertools.chain(entries, near, unmapped):
            if lid not in taxonomy.by_id:
                raise ConfigurationError(f"label {lid!r} is not in the taxonomy")
        return CategoryMapping(entries, unmapped, near, float(threshold))
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: {exc}") from None
    except (
        AttributeError, KeyError, IndexError, OverflowError, TypeError, ValueError
    ) as exc:
        raise ConfigurationError(f"{path}: malformed mapping file: {exc}") from None


def _columns(rows: list, *keys: str) -> list[list]:
    """Each key's values over a list of JSON objects."""
    return [[row[key] for row in rows] for key in keys]
