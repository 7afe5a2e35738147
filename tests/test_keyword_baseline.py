"""The keyword baseline that ``test_c6_classifiers_beat_keyword_baseline``
compares the classifiers against."""

import pytest

from keyword_baseline import keyword_vote
from wikicat.exceptions import ConfigurationError


def test_keyword_vote_counts_plural_matches():
    names = {"trucks": "Trucks", "suvs": "SUVs"}
    # tokens truck, truck, suv: 2 votes beat 1
    assert keyword_vote("trucks trucks suv", names, seed=0) == "trucks"


def test_keyword_vote_shared_tokens_can_mislead():
    names = {"kr": "South Korea", "sa": "South America"}
    text = "south america news and more south america"
    assert keyword_vote(text, names, seed=0) == "sa"
    # "south" alone votes for both; "korea" never appears, so a doc of
    # repeated "south" ties and resolves by seeded choice, not evidence.
    tied = keyword_vote("south south south", names, seed=0)
    assert tied in {"kr", "sa"}


def test_keyword_vote_zero_match_falls_back_to_seeded_random():
    names = {"a": "alpha", "b": "beta", "c": "gamma"}
    picks = {keyword_vote("zzz qqq", names, seed=4) for _ in range(5)}
    assert len(picks) == 1 and picks <= set(names)
    spread = {
        keyword_vote(f"nonsense {i} blob", names, seed=4) for i in range(50)
    }
    assert len(spread) > 1


def test_keyword_vote_tie_restricted_to_tied_labels():
    names = {"x": "red", "y": "blue", "w": "green"}
    winners = {keyword_vote("red blue", names, seed=s) for s in range(30)}
    assert winners <= {"x", "y"}
    assert len(winners) == 2


def test_keyword_vote_rejects_empty_labels():
    with pytest.raises(ConfigurationError):
        keyword_vote("text", {}, seed=0)
