"""Map taxonomy labels onto category nodes.

Matching per label: manual overrides win outright; otherwise the label name
and its conjunction parts are normalized and looked up in an inverted token
index over normalized category names and redirect aliases.  All exact
normalized matches are accepted, and each query part may additionally accept
its best fuzzy candidate when its similarity clears the threshold.  For
labels that stay unmapped, the best below-threshold candidates are reported
so they can be curated into overrides.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from pathlib import Path

from .exceptions import ConfigurationError, TaxonomyError
from .graph_store import CategoryGraph
from .jsonio import read_json, write_json

DEFAULT_THRESHOLD = 0.9

_NON_WORD = re.compile(r"[\W_]+")
_CONJUNCTION = re.compile(r"&|/|,|\band\b", re.IGNORECASE)
# minimum shared prefix for a token to widen candidate retrieval
_PREFIX_LEN = 4


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
    if a == b:
        return 1.0
    if not a or not b:
        return 0.0
    window = max(len(a), len(b)) // 2 - 1
    if window < 0:
        window = 0
    taken = [False] * len(b)
    a_hits: list[str] = []
    b_hit_pos: list[int] = []
    for i, ch in enumerate(a):
        lo = max(0, i - window)
        hi = min(len(b), i + window + 1)
        for j in range(lo, hi):
            if not taken[j] and b[j] == ch:
                taken[j] = True
                a_hits.append(ch)
                b_hit_pos.append(j)
                break
    m = len(a_hits)
    if m == 0:
        return 0.0
    b_hits = [b[j] for j in sorted(b_hit_pos)]
    t = sum(x != y for x, y in zip(a_hits, b_hits)) // 2
    jaro = (m / len(a) + m / len(b) + (m - t) / m) / 3.0
    prefix = 0
    for x, y in zip(a, b):
        if x != y or prefix == _PREFIX_LEN:
            break
        prefix += 1
    return jaro + prefix * 0.1 * (1.0 - jaro)


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
    return Taxonomy(labels)


@dataclass(frozen=True)
class MappedCategory:
    node: int
    kind: str  # "exact", "fuzzy", or "override"
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
    """Inverted token index over normalized category names and aliases.

    A query token retrieves every form sharing that token, widened by forms
    whose tokens share its first four characters so that close inflections
    (singular against -ism, -ing, ... variants) stay reachable.
    """

    def __init__(self, graph: CategoryGraph) -> None:
        self.forms: list[tuple[str, int]] = []
        self.exact: dict[str, set[int]] = {}
        self.by_token: dict[str, set[int]] = {}
        self.by_prefix: dict[str, set[int]] = {}
        sources = itertools.chain(
            ((name, node) for node, name in enumerate(graph.cat_names)),
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
    ``threshold``.  Ties go to the lowest node id, so results do not depend
    on iteration order.
    """
    overrides = overrides or {}
    for label_id, nodes in overrides.items():
        if label_id not in taxonomy.by_id:
            raise TaxonomyError(f"override for unknown label {label_id!r}")
        for node in nodes:
            if not 0 <= node < graph.n_categories:
                raise TaxonomyError(
                    f"override for {label_id!r} maps to non-category node {node}"
                )

    index = _NameIndex(graph)
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
            exact = index.exact_nodes(query)
            for node in exact:
                accepted[node] = MappedCategory(node, "exact", 1.0)
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


def resolve_override_names(
    graph: CategoryGraph, raw: dict[str, list[str]]
) -> dict[str, list[int]]:
    """Turn override category names (or aliases) into category nodes."""
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
            node = graph.cat_by_name.get(name)
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


def load_mapping(path: str | Path, graph: CategoryGraph) -> CategoryMapping:
    doc = read_json(path)
    if not isinstance(doc, dict) or not isinstance(doc.get("labels"), dict):
        raise TaxonomyError(f"{path}: expected an object with a 'labels' table")
    try:
        entries: dict[str, list[MappedCategory]] = {}
        for lid, rows in doc["labels"].items():
            cats = []
            for row in rows:
                node = graph.category_node(int(row["category_id"]))
                cats.append(MappedCategory(node, str(row["kind"]), float(row["score"])))
            entries[lid] = sorted(cats, key=lambda mc: mc.node)
        near: dict[str, list[NearMiss]] = {}
        for lid, rows in doc.get("near_misses", {}).items():
            near[lid] = [
                NearMiss(
                    str(row["part"]),
                    graph.category_node(int(row["category_id"])),
                    float(row["score"]),
                )
                for row in rows
            ]
        return CategoryMapping(
            entries,
            list(doc.get("unmapped", [])),
            near,
            float(doc.get("threshold", DEFAULT_THRESHOLD)),
        )
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: {exc}") from None
    except (AttributeError, KeyError, IndexError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"{path}: malformed mapping file: {exc}") from None
