"""Map taxonomy labels onto category nodes.

Matching per label: manual overrides win outright; otherwise the label name
and its conjunction parts are normalized, and one pass over the category
names normalizes them a run at a time, each run with its categories'
redirect aliases, and joins each form to those parts by token key.  All
exact normalized matches are accepted, and each query part may additionally
accept its best fuzzy candidate when its similarity clears the threshold.
A run's pairs are scored within the run, by a batched Jaro-Winkler kernel,
only where their score bound reaches the part's best, and only each part's
best so far carries over to the next run.
For labels that stay unmapped, the best below-threshold candidates are
reported so they can be curated into overrides.
"""

from __future__ import annotations

import itertools
import operator
import re
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

import numpy as np

from .exceptions import ConfigurationError, TaxonomyError
from .jsonio import INTEGER, NUMBER, STRING, read_json, write_json
from .taxonomy import MAPPED_KINDS, CategoryMapping, MappedCategory, NearMiss, Taxonomy

if TYPE_CHECKING:  # annotations only, so that importing this does not load it
    from .graph_store import CategoryGraph

DEFAULT_THRESHOLD = 0.9

_CONJUNCTION = re.compile(r"&|/|,|\band\b", re.IGNORECASE)
# minimum shared prefix for a token to widen candidate retrieval, and the
# cap on the Winkler prefix boost
_PREFIX_LEN = 4
_BLOCK_PAIRS = 1 << 12  # (query, form) pairs per padded numpy pass of the scorer
# pads above every code point, and unequal, so a pad never matches anything
_PAD_QUERY, _PAD_FORM = 0xFFFFFFFF, 0xFFFFFFFE
_RUN_NAMES = 1 << 12  # names per lowercase, substitution and split
# _normalize_run joins a run of names with _SEP.  It is neither cased nor
# case-ignorable, so lowercasing the run lowercases each name as on its own
# (a final sigma stays final); inside a name it is punctuation, a space.
# _RUN_PUNCT leaves it, whitespace and word characters but "_" in place.
_SEP, _SEP_KEY = "\x00", -2
_RUN_PUNCT = re.compile(r"[^\w\s\x00]+")
# added to each score bound: above any rounding error of a score in [0, 1]
_BOUND_SLACK = 1e-9
_HEAD = operator.itemgetter(slice(_PREFIX_LEN))  # a token's key


def strip_plural(token: str) -> str:
    """Rule-based singularization of one lowercase token."""
    if not token.endswith("s"):
        return token
    if token.endswith("ies"):
        return token[:-3] + "y"
    if token.endswith(("ses", "xes", "zes", "ches", "shes")):
        return token[:-2]
    return token[:-1]


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

    def padded(
        self, rows: np.ndarray, fill: int, width: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """The strings ``rows`` as a matrix padded with ``fill``, cut to ``width``
        columns if given, and their lengths.  The matrix has at least one column,
        so a row always has a position for ``argmax`` to return."""
        starts = self.indptr[rows]
        lengths = self.indptr[rows + 1] - starts
        cols = np.arange(max(lengths.max(initial=0), 1) if width is None else width)
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


def _bounds(
    queries: _Strings, qrows: np.ndarray, forms: _Strings, frows: np.ndarray
) -> np.ndarray:
    """An upper bound on ``_score_pairs`` of the same nonempty strings.

    Jaro is highest when every character of the shorter string matches and
    none is transposed, so only the two lengths and the common prefix are
    read.  The bound is raised by ``_BOUND_SLACK``, so that float rounding
    never puts it below the score.
    """
    n_a, n_b = len(queries.indptr) - 1, len(forms.indptr) - 1
    head_a, len_a = queries.padded(np.arange(n_a), _PAD_QUERY, _PREFIX_LEN)
    head_b, len_b = forms.padded(np.arange(n_b), _PAD_FORM, _PREFIX_LEN)
    same = head_a[qrows] == head_b[frows]
    len_a, len_b = len_a[qrows], len_b[frows]
    prefix = np.logical_and.accumulate(same, axis=1).sum(axis=1)
    m = np.minimum(len_a, len_b)
    jaro = (m / len_a + m / len_b + 1.0) / 3.0
    return jaro + prefix * 0.1 * (1.0 - jaro) + _BOUND_SLACK


def split_conjunctions(name: str) -> list[str]:
    """The original name first, then any conjunction parts."""
    parts = [name]
    for part in _CONJUNCTION.split(name):
        part = part.strip()
        if part and part not in parts:
            parts.append(part)
    return parts


def _match(
    graph: CategoryGraph, queries: list[str]
) -> tuple[list[list[int]], list[int], list[float]]:
    """Per query, its exact nodes, its best fuzzy node and that node's score.

    The category names are normalized a run of names at a time, each run
    with the aliases of its categories.  A form equal to a query names one
    of its exact nodes.  A form is a fuzzy candidate of every query that
    shares a key with it, a key being the first four characters of a token
    (a shorter token is its own key), so that close inflections (singular
    against -ism, -ing, ... variants) stay reachable.  A node's score is
    the highest Jaro-Winkler similarity of its forms; the best node has the
    highest score, the lowest node id among equal ones.  A query's exact
    nodes are not its candidates, and a query without candidates gets node
    -1 and score 0.0.

    Every form of a node is in the node's run, so a run settles its own
    pairs, and only each query's best so far carries over to the next run.
    Each pair has a bound on its score (``_bounds``), and each query a
    floor: its best so far, raised to the score of the run's highest-bound
    pair.  Only the pairs whose bound reaches the floor are scored.
    """
    texts = list(dict.fromkeys(queries))  # each distinct query once
    query_of = {text: q for q, text in enumerate(texts)}
    by_key: dict[str, list[int]] = {}
    for q, text in enumerate(texts):
        for key in {tok[:_PREFIX_LEN] for tok in text.split()}:
            by_key.setdefault(key, []).append(q)
    # the queries of each key, as CSR rows
    sizes = np.fromiter(map(len, by_key.values()), np.int64, len(by_key))
    key_ptr = np.concatenate([[0], np.cumsum(sizes)])
    key_queries = np.fromiter(itertools.chain(*by_key.values()), np.int64, sizes.sum())
    key_rows = {key: row for row, key in enumerate(by_key)}
    key_rows[_SEP] = _SEP_KEY  # no query has it
    query_strings = _Strings.encode(texts)

    n_nodes = graph.n_nodes
    exact: list[set[int]] = [set() for _ in texts]
    best_node = np.full(len(texts), -1)
    best_score = np.full(len(texts), -np.inf)
    for names, nodes in _name_runs(graph):
        forms, tokens = _normalize_run(names)
        del names  # free the run's names before the next is decoded
        found = np.fromiter(
            map(query_of.get, forms, itertools.repeat(-1)), np.int64, len(nodes)
        )
        hit = found >= 0
        for q, v in zip(found[hit].tolist(), nodes[hit].tolist()):
            exact[q].add(v)
        token_key = np.fromiter(
            map(key_rows.get, map(_HEAD, tokens), itertools.repeat(-1)),
            np.int64,
            len(tokens),
        )
        query, row = _candidates(token_key, key_ptr, key_queries, len(nodes))
        node = nodes[row]
        # no later run holds a form of these nodes, so they stay exact
        candidate = ~np.isin(query * n_nodes + node, found[hit] * n_nodes + nodes[hit])
        query, row, node = query[candidate], row[candidate], node[candidate]
        strings = _Strings.encode(forms)
        bound = _bounds(query_strings, query, strings, row)
        order = np.lexsort((-bound, query))
        top = order[_run_starts(query[order])]  # each query's highest bound
        floor = best_score.copy()
        top_scores = _score_pairs(query_strings, query[top], strings, row[top])
        floor[query[top]] = np.maximum(floor[query[top]], top_scores)
        chosen = np.flatnonzero(bound >= floor[query])
        query, node = query[chosen], node[chosen]
        scores = _score_pairs(query_strings, query, strings, row[chosen])
        order = np.lexsort((node, -scores, query))
        best = order[_run_starts(query[order])]
        # an earlier run's best has a lower node, so it wins a tie
        best = best[scores[best] > best_score[query[best]]]
        best_node[query[best]] = node[best]
        best_score[query[best]] = scores[best]
    best_score[best_node < 0] = 0.0
    of_query = [query_of[text] for text in queries]
    return (
        [sorted(exact[q]) for q in of_query],
        best_node[of_query].tolist(),
        best_score[of_query].tolist(),
    )


def _candidates(
    token_key: np.ndarray, key_ptr: np.ndarray, key_queries: np.ndarray, n_forms: int
) -> tuple[np.ndarray, np.ndarray]:
    """(query, form) of each candidate pair of a run, sorted, from the key
    row of each token of the run's forms (``_SEP_KEY`` between forms, -1 for
    a key of no query)."""
    form = np.cumsum(token_key == _SEP_KEY)
    hit = token_key >= 0
    key, form = token_key[hit], form[hit]
    lens = key_ptr[key + 1] - key_ptr[key]
    at = np.repeat(key_ptr[key] - np.cumsum(lens) + lens, lens)
    at += np.arange(len(at))
    pair = np.sort(key_queries[at] * n_forms + np.repeat(form, lens))
    return np.divmod(pair[_run_starts(pair)], n_forms)


def _name_runs(graph: CategoryGraph) -> Iterator[tuple[list[str], np.ndarray]]:
    """The category names in runs, each run followed by the aliases of its
    categories in file order, with the node of each name.  A run holds as
    many categories as keep it within ``_RUN_NAMES`` names, aliases
    included, and at least one: a category with more aliases than that
    makes a run of its own."""
    aliases = list(graph.aliases)
    targets = np.fromiter(graph.aliases.values(), np.int64, len(aliases))
    order = np.argsort(targets, kind="stable")
    targets = targets[order]
    n = graph.n_categories
    # the names up to and with each category, aliases included
    ends = np.cumsum(1 + np.bincount(targets, minlength=n)[:n])
    lo = 0
    while lo < n:
        start = int(ends[lo - 1]) if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, start + _RUN_NAMES, "right")))
        a, b = np.searchsorted(targets, [lo, hi])
        yield (
            [*graph.names[lo:hi], *map(aliases.__getitem__, order[a:b].tolist())],
            np.concatenate([np.arange(lo, hi), targets[a:b]]),
        )
        lo = hi


def _normalize_run(names: list[str]) -> tuple[list[str], list[str]]:
    """The form of each name, its lowercase words between characters that
    are not alphanumeric, singularized and joined by single spaces; and the
    tokens of those forms with ``_SEP`` after each but the last.

    The run is joined, lowercased, cleared of punctuation and split once,
    and each distinct word of the run is singularized once.  The table of
    those words is the run's own, so the memory it takes is bounded by the
    run, not by every word of the graph.
    """
    if not names:
        return [], []
    text = _SEP.join(names)
    if text.count(_SEP) >= len(names):  # a name holds the separator
        text = _SEP.join(name.replace(_SEP, " ") for name in names)
    text = _RUN_PUNCT.sub(" ", text.lower().replace("_", " "))
    words = text.replace(_SEP, f" {_SEP} ").split()
    singular = {word: strip_plural(word) for word in set(words)}
    tokens = list(filter(None, map(singular.__getitem__, words)))
    return list(map(str.strip, " ".join(tokens).split(_SEP))), tokens


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

    # every label's query parts first, normalized in one run and scored in one call
    parts = {
        lab.id: split_conjunctions(lab.name)
        for lab in taxonomy.labels
        if lab.id not in overrides
    }
    norms = iter(_normalize_run(list(itertools.chain(*parts.values())))[0])
    queries: list[tuple[str, str]] = []  # (part, normalized part)
    label_queries: dict[str, range] = {}
    for label_id, label_parts in parts.items():
        start = len(queries)
        for part, norm in zip(label_parts, norms):
            if norm and norm not in (q for _, q in queries[start:]):
                queries.append((part, norm))
        label_queries[label_id] = range(start, len(queries))
    exact, best_node, best_score = _match(graph, [q for _, q in queries])

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
            for node in exact[k]:
                accepted[node] = MappedCategory(node, "exact", 1.0)
            node, score = best_node[k], best_score[k]
            if node < 0:
                continue
            if score >= threshold:
                prev = accepted.get(node)
                if prev is None or (prev.kind == "fuzzy" and score > prev.score):
                    accepted[node] = MappedCategory(node, "fuzzy", score)
            else:
                label_near.append(NearMiss(queries[k][0], node, score))

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
            for a, b in zip(entries[lid], entries[lid][1:]):
                if a.node == b.node:
                    raise ConfigurationError(
                        f"label {lid!r} lists category {graph.external_id(a.node)} "
                        "twice"
                    )
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
