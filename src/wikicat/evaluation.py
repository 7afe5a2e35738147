"""Accuracy and macro-F1 metrics over possibly multi-label gold sets.

A prediction counts as correct when it lands anywhere in the instance's
gold set.  ``evaluate`` scores in one pass: each gold set resolves to the
prediction when the prediction is in it, otherwise to its first gold label,
and macro-F1 averages per-class F1 over the classes of those resolved golds,
so a prediction in no gold set (None included) adds no class.  ``accuracy``
and ``macro_f1`` read its report.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass
from functools import reduce
from operator import add
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

from .exceptions import ConfigurationError
from .jsonio import read_jsonl, write_jsonl


@dataclass(frozen=True)
class EvalInstance:
    text: str
    gold: tuple[str, ...]
    parent: str | None = None

    def __post_init__(self) -> None:
        if not self.gold:
            raise ConfigurationError("instance needs at least one gold label")


@dataclass(frozen=True)
class EvalReport:
    accuracy: float
    macro_f1: float
    per_class: dict[str, dict[str, float]]
    n: int
    group: str | None = None

    to_dict = asdict


def accuracy(preds: Sequence[str], golds: Sequence[Iterable[str]]) -> float:
    """Fraction of instances whose prediction is in the gold set."""
    return evaluate(preds, golds).accuracy


def resolve_golds(
    preds: Sequence[str], golds: Sequence[Sequence[str]]
) -> list[str]:
    """Collapse each gold set to one label for confusion counting."""
    out = []
    for pred, gold in zip(preds, golds):
        out.append(pred if pred in set(gold) else list(gold)[0])
    return out


def macro_f1(preds: Sequence[str], golds: Sequence[Sequence[str]]) -> float:
    """Mean per-class F1 over classes present in the resolved golds."""
    return evaluate(preds, golds).macro_f1


def evaluate(
    preds: Sequence[str],
    golds: Sequence[Sequence[str]],
    group: str | None = None,
) -> EvalReport:
    if len(preds) != len(golds):
        raise ConfigurationError("preds and golds differ in length")
    if not preds:
        raise ConfigurationError("nothing to evaluate")
    if not all(golds):
        raise ConfigurationError("empty gold set")
    resolved = resolve_golds(preds, golds)
    support, predicted = Counter(resolved), Counter(preds)
    hits = Counter(pred for pred, gold in zip(preds, resolved) if pred == gold)
    per_class: dict[str, dict[str, float]] = {}
    for cls in sorted(support):
        t = hits[cls]
        prec = t / predicted[cls] if predicted[cls] else 0.0
        rec = t / support[cls]
        f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        per_class[cls] = {
            "precision": prec,
            "recall": rec,
            "f1": f1,
            "support": float(support[cls]),
        }
    # Added left to right: ``sum`` rounds floats differently from Python 3.12.
    f1_sum = reduce(add, (row["f1"] for row in per_class.values()), 0.0)
    return EvalReport(
        accuracy=sum(hits.values()) / len(preds),
        macro_f1=f1_sum / len(per_class),
        per_class=per_class,
        n=len(preds),
        group=group,
    )


def evaluate_grouped(
    instances: Sequence[EvalInstance],
    models: Mapping[str, Callable[[Sequence[str]], Sequence[str]]],
) -> tuple[dict[str, EvalReport], EvalReport]:
    """Classify every instance with its parent's model, one batch call per
    parent.

    Returns one report per parent plus a pooled report over all instances
    together, in their own order.
    """
    if not instances:
        raise ConfigurationError("nothing to evaluate")
    grouped: dict[str, list[int]] = {}
    for i, inst in enumerate(instances):
        if inst.parent not in models:
            raise ConfigurationError(f"no model for parent {inst.parent!r}")
        grouped.setdefault(inst.parent, []).append(i)
    all_preds: list = [None] * len(instances)
    reports = {}
    for parent, members in sorted(grouped.items()):
        preds = list(models[parent]([instances[i].text for i in members]))
        golds = [instances[i].gold for i in members]
        reports[parent] = evaluate(preds, golds, group=parent)  # checks lengths
        for i, pred in zip(members, preds):
            all_preds[i] = pred
    pooled = evaluate(all_preds, [inst.gold for inst in instances], group="pooled")
    return reports, pooled


def load_eval(
    path: str | Path, valid_labels: Iterable[str] | None = None
) -> list[EvalInstance]:
    """Read instances from JSONL rows {"text", "labels", "parent"}."""
    known = set(valid_labels) if valid_labels is not None else None
    out: list[EvalInstance] = []
    for where, row in read_jsonl(path):
        if not isinstance(row, dict):
            raise ConfigurationError(f"{where}: expected an object")
        text = row.get("text")
        labels = row.get("labels")
        parent = row.get("parent")
        if not isinstance(text, str):
            raise ConfigurationError(f"{where}: 'text' must be a string")
        if (
            not isinstance(labels, list)
            or not labels
            or not all(isinstance(x, str) for x in labels)
        ):
            raise ConfigurationError(
                f"{where}: 'labels' must be a non-empty list of strings"
            )
        if parent is not None and not isinstance(parent, str):
            raise ConfigurationError(f"{where}: 'parent' must be a string")
        if known is not None:
            unknown = sorted(set(labels) - known)
            if unknown:
                raise ConfigurationError(
                    f"{where}: unknown gold labels: {', '.join(unknown)}"
                )
        out.append(EvalInstance(text, tuple(labels), parent))
    if not out:
        raise ConfigurationError(f"{path}: no instances")
    return out


def write_eval(instances: Sequence[EvalInstance], path: str | Path) -> None:
    rows = (
        {"labels": list(i.gold), "parent": i.parent, "text": i.text} for i in instances
    )
    write_jsonl(rows, path)
