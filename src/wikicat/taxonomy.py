"""Taxonomies and the category mappings of their labels.

A taxonomy is a forest of labels, read from a JSON file; a mapping gives
each label the category nodes it was matched to.  The steps that only read
a taxonomy or hold a mapping import these types from here, without the
matcher of ``taxonomy_mapper``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .exceptions import TaxonomyError
from .jsonio import read_json


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
