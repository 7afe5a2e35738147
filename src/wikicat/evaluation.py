"""Accuracy and macro-F1 metrics over possibly multi-label gold sets.

A prediction counts as correct when it lands anywhere in the instance's
gold set.  For confusion counting, a multi-label gold resolves to the
predicted label when the prediction is in the set, otherwise to its first
gold label, and macro-F1 averages per-class F1 over the classes that
appear in those resolved golds.
"""

from __future__ import annotations

from dataclasses import dataclass
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

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "macro_f1": self.macro_f1,
            "per_class": self.per_class,
            "n": self.n,
            "group": self.group,
        }


def _check_lengths(preds: Sequence[str], golds: Sequence) -> None:
    if len(preds) != len(golds):
        raise ConfigurationError("preds and golds differ in length")
    if not preds:
        raise ConfigurationError("nothing to evaluate")
    for gold in golds:
        if not gold:
            raise ConfigurationError("empty gold set")


def accuracy(preds: Sequence[str], golds: Sequence[Iterable[str]]) -> float:
    """Fraction of instances whose prediction is in the gold set."""
    _check_lengths(preds, golds)
    hits = sum(1 for pred, gold in zip(preds, golds) if pred in set(gold))
    return hits / len(preds)


def resolve_golds(
    preds: Sequence[str], golds: Sequence[Sequence[str]]
) -> list[str]:
    """Collapse each gold set to one label for confusion counting."""
    out = []
    for pred, gold in zip(preds, golds):
        out.append(pred if pred in set(gold) else list(gold)[0])
    return out


def per_class_scores(
    preds: Sequence[str], resolved: Sequence[str]
) -> dict[str, dict[str, float]]:
    tp: dict[str, int] = {}
    fp: dict[str, int] = {}
    fn: dict[str, int] = {}
    support: dict[str, int] = {}
    for pred, gold in zip(preds, resolved):
        support[gold] = support.get(gold, 0) + 1
        if pred == gold:
            tp[pred] = tp.get(pred, 0) + 1
        else:
            fp[pred] = fp.get(pred, 0) + 1
            fn[gold] = fn.get(gold, 0) + 1
    out: dict[str, dict[str, float]] = {}
    for cls in sorted(support):
        t, p, n = tp.get(cls, 0), fp.get(cls, 0), fn.get(cls, 0)
        prec = t / (t + p) if t + p else 0.0
        rec = t / (t + n) if t + n else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        out[cls] = {
            "precision": prec,
            "recall": rec,
            "f1": f1,
            "support": float(support[cls]),
        }
    return out


def macro_f1(preds: Sequence[str], golds: Sequence[Sequence[str]]) -> float:
    """Mean per-class F1 over classes present in the resolved golds."""
    _check_lengths(preds, golds)
    scores = per_class_scores(preds, resolve_golds(preds, golds))
    return sum(row["f1"] for row in scores.values()) / len(scores)


def evaluate(
    preds: Sequence[str],
    golds: Sequence[Sequence[str]],
    group: str | None = None,
) -> EvalReport:
    _check_lengths(preds, golds)
    scores = per_class_scores(preds, resolve_golds(preds, golds))
    return EvalReport(
        accuracy=accuracy(preds, golds),
        macro_f1=sum(row["f1"] for row in scores.values()) / len(scores),
        per_class=scores,
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
