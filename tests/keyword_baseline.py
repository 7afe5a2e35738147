"""The paper's keyword baseline, which the trained classifiers must beat.

A document votes for the label whose name tokens occur in it most often.
Tokens are plural-stripped, so "suv" in a document matches the label name
"SUVs".  No subcommand runs it: the acceptance test compares the
classifiers against it.
"""

from __future__ import annotations

import hashlib
import random

from textproc_oracle import tokenize_runs
from wikicat.exceptions import ConfigurationError
from wikicat.taxonomy_mapper import strip_plural


def _match_tokens(text: str) -> list[str]:
    return [strip_plural(tok) for tok in tokenize_runs(text)]


def keyword_vote(text: str, label_names: dict[str, str], seed: int) -> str:
    """Label whose name tokens occur most often; random fallback on zeros."""
    if not label_names:
        raise ConfigurationError("keyword voting needs at least one label")
    counts: dict[str, int] = {}
    for tok in _match_tokens(text):
        counts[tok] = counts.get(tok, 0) + 1
    scores = {
        label: sum(counts.get(tok, 0) for tok in _match_tokens(name))
        for label, name in label_names.items()
    }
    best = max(scores.values())
    digest = hashlib.md5(text.encode("utf-8")).hexdigest()
    rng = random.Random(f"{seed}:{digest}")
    if best == 0:
        return rng.choice(sorted(scores))
    tied = sorted(label for label, score in scores.items() if score == best)
    if len(tied) == 1:
        return tied[0]
    return rng.choice(tied)
