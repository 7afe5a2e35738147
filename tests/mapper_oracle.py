"""Loop reference for ``wikicat.taxonomy_mapper.map_taxonomy``.

Set-valued token and prefix postings, and for each query part a scalar
Jaro–Winkler call per candidate form, with no pair left out: the best
score per node kept in a dict and the best node found by a scan in node
order.  Each name is normalized alone, by one regex (``normalize_name``),
where the mapper normalizes names a run at a time.  The batched mapper,
which scores only the pairs that can still win, is tested against it.
"""

from __future__ import annotations

import itertools
import re

from jw_oracle import jaro_winkler
from wikicat.exceptions import TaxonomyError
from wikicat.graph_store import CategoryGraph
from wikicat.taxonomy import CategoryMapping, MappedCategory, NearMiss, Taxonomy
from wikicat.taxonomy_mapper import (
    DEFAULT_THRESHOLD,
    split_conjunctions,
    strip_plural,
)

_PREFIX_LEN = 4
_NON_WORD = re.compile(r"[\W_]+")


def normalize_name(name: str) -> str:
    """Lowercase, turn punctuation runs into spaces, singularize tokens."""
    tokens = _NON_WORD.sub(" ", name.lower()).split()
    return " ".join(t for t in (strip_plural(tok) for tok in tokens) if t)


class NameIndex:
    """Inverted token index over normalized category names and aliases.

    A query token retrieves every form sharing that token, widened by forms
    whose tokens share its first four characters.
    """

    def __init__(self, graph: CategoryGraph) -> None:
        self.forms: list[tuple[str, int]] = []
        self.exact: dict[str, set[int]] = {}
        self.by_token: dict[str, set[int]] = {}
        self.by_prefix: dict[str, set[int]] = {}
        categories = graph.names[: graph.n_categories]
        sources = itertools.chain(
            ((name, node) for node, name in enumerate(categories)),
            graph.aliases.items(),
        )
        for raw, node in sources:
            norm = normalize_name(raw)
            if not norm:
                continue
            fid = len(self.forms)
            self.forms.append((norm, node))
            self.exact.setdefault(norm, set()).add(node)
            for tok in set(norm.split()):
                self.by_token.setdefault(tok, set()).add(fid)
                if len(tok) >= _PREFIX_LEN:
                    self.by_prefix.setdefault(tok[:_PREFIX_LEN], set()).add(fid)

    def exact_nodes(self, query: str) -> list[int]:
        return sorted(self.exact.get(query, ()))

    def candidate_forms(self, query: str) -> set[int]:
        out: set[int] = set()
        for tok in set(query.split()):
            out |= self.by_token.get(tok, set())
            if len(tok) >= _PREFIX_LEN:
                out |= self.by_prefix.get(tok[:_PREFIX_LEN], set())
        return out


def best_candidate(index: NameIndex, query: str) -> tuple[list[int], int | None, float]:
    """A query's exact nodes, and its best fuzzy node (None without
    candidates) and that node's score, from every candidate form scored."""
    exact = index.exact_nodes(query)
    exact_set = set(exact)
    node_best: dict[int, float] = {}
    for fid in index.candidate_forms(query):
        form, node = index.forms[fid]
        if form == query or node in exact_set:
            continue
        score = jaro_winkler(query, form)
        if score > node_best.get(node, -1.0):
            node_best[node] = score
    best_node, best_score = None, 0.0
    for node in sorted(node_best):
        if best_node is None or node_best[node] > best_score:
            best_node, best_score = node, node_best[node]
    return exact, best_node, best_score


def map_taxonomy(
    taxonomy: Taxonomy,
    graph: CategoryGraph,
    overrides: dict[str, list[int]] | None = None,
    threshold: float = DEFAULT_THRESHOLD,
) -> CategoryMapping:
    overrides = overrides or {}
    for label_id, nodes in overrides.items():
        if label_id not in taxonomy.by_id:
            raise TaxonomyError(f"override for unknown label {label_id!r}")
        for node in nodes:
            if not 0 <= node < graph.n_categories:
                raise TaxonomyError(
                    f"override for {label_id!r} maps to non-category node {node}"
                )

    index = NameIndex(graph)
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

        queries: list[tuple[str, str]] = []
        for part in split_conjunctions(lab.name):
            norm = normalize_name(part)
            if norm and norm not in (q for _, q in queries):
                queries.append((part, norm))

        accepted: dict[int, MappedCategory] = {}
        label_near: list[NearMiss] = []
        for part, query in queries:
            exact, best_node, best_score = best_candidate(index, query)
            for node in exact:
                accepted[node] = MappedCategory(node, "exact", 1.0)
            if best_node is None:
                continue
            if best_score >= threshold:
                prev = accepted.get(best_node)
                if prev is None or (prev.kind == "fuzzy" and best_score > prev.score):
                    accepted[best_node] = MappedCategory(best_node, "fuzzy", best_score)
            else:
                label_near.append(NearMiss(part, best_node, best_score))

        if accepted:
            entries[lab.id] = [accepted[n] for n in sorted(accepted)]
        else:
            unmapped.append(lab.id)
            if label_near:
                near_misses[lab.id] = label_near

    return CategoryMapping(entries, unmapped, near_misses, threshold)
