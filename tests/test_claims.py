"""The claims ledger: every verdict `om-vote characterize` licenses, held against exhaustive search.

Each case runs the CLI in process and classifies all m! truths by brute force under the identity priority; every
rule is neutral, so the identity decides for every order.  A licensed NOM needs every truth NOM, OM some truth
manipulable, BOM some truth best-case manipulable and not-BOM none; no-claim licenses nothing.
"""

import json
from collections import Counter

import pytest

from omvote import classify, enumerate_rankings, parse_rule
from omvote.cli import main

RULES = {  # label: the one m its explicit vector fixes, or None for a family defined at every m
    "borda": None,
    "dowdall": None,
    "paperfamily": None,
    "plurality": None,
    "antiplurality": None,
    "kapproval:k=2": None,
    "vetofamily:omega=30,eps=1": None,
    "scoring:w=0,-1,-2,-6": 4,  # paperfamily translated
    "scoring:w=4,3,2,1": 4,
    "scoring:w=1,1/2,1/3": 3,  # Dowdall at m=3 as written
}
BOM_CLASSES = {"BOM-only", "BOM-and-WOM"}
LICENSED = {
    "NOM": lambda found: set(found) == {"NOM"},
    "OM": lambda found: set(found) != {"NOM"},
    "BOM": lambda found: bool(found.keys() & BOM_CLASSES),
    "not-BOM": lambda found: not found.keys() & BOM_CLASSES,
}


def _cases(ms, ns, marks=()):
    return [pytest.param(label, m, n, id=f"{label}-m{m}-n{n}", marks=marks)
            for label, fixed in RULES.items() for m in ms if fixed in (None, m) for n in ns]


def _search(label, n, m):
    """How many of the m! truths fall in each class, by brute force under the identity priority."""
    rule, identity = parse_rule(label), tuple(range(m))
    return Counter(classify(t, rule, n, identity, mode="bruteforce").classification for t in enumerate_rankings(m))


@pytest.mark.parametrize("label, m, n",
                         _cases((3, 4), (2, 3, 4)) + _cases((5,), (3,), pytest.mark.slow))
def test_every_licensed_verdict_matches_search(label, m, n, capsys):
    assert main(["characterize", "--rule", label, "--n", str(n), "--m", str(m), "--format", "json"]) == 0
    verdicts = json.loads(capsys.readouterr().out)["verdicts"]
    found = _search(label, n, m)
    for verdict in verdicts:
        implied = verdict["implied_classification"]
        assert implied == "no-claim" or LICENSED[implied](found), (verdict["predicate"], implied, dict(found))


def test_translated_paperfamily_is_not_nom():
    # the counterexample scoring_nom_sufficient's docstring names: read raw, (0, -1, -2, -6) passed at n=3
    assert _search("scoring:w=0,-1,-2,-6", 3, 4) == _search("paperfamily", 3, 4) == {"NOM": 18, "WOM-only": 6}
