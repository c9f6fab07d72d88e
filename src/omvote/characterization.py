"""Closed-form manipulability predicates and structural rule properties.

The arithmetic predicates classify rule instances instantly; the structural
detectors (veto power, almost-unanimity) decide the same questions by
exhaustive search at small scale, so each side can validate the other.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import rules
from .ccum import _almost_unanimous, _reachable
from .core import check_budget, check_enumerable, check_int, enumerate_rankings, identity_tiebreak, make_tiebreak

OM = "OM"
NOM = "NOM"
BOM = "BOM"
NOT_BOM = "not-BOM"
NO_CLAIM = "no-claim"


@dataclass(frozen=True)
class TheoremVerdict:
    """Outcome of one predicate, with the classification it licenses.

    Biconditional predicates imply a definite classification either way;
    sufficient-only predicates imply 'no-claim' when their test fails.
    """

    predicate: str
    holds: bool
    implied_classification: str
    parameters: dict = field(default_factory=dict)


def kapproval_om(n: int, m: int, k: int) -> TheoremVerdict:
    """k-approval is obviously manipulable iff n <= (m-2)/(m-k); its bound n >= 3 is probe-derived, from search."""
    check_int(n, "n", 3)  # the characterization assumes n >= 3 and m >= 3
    check_int(m, "m", 3)
    check_int(k, "k", 1, m - 1)
    holds = n * (m - k) <= m - 2
    return TheoremVerdict(
        "kapproval_om",
        holds,
        OM if holds else NOM,
        {"n": n, "m": m, "k": k},
    )


def scoring_nom_sufficient(n: int, weights) -> TheoremVerdict:
    """A scoring rule is NOM once n > s1/(s1-s2) + 1 (sufficient only), read on its canonical vector (last weight 0).

    Read raw, paperfamily translated to (0, -1, -2, -6) would pass at n=3, yet search finds 6 of 24 truths WOM-only.
    """
    check_int(n, "n", 1)
    rule = rules.scoring(weights)
    s1, s2 = rules._resolve(rule, len(rule.weights)).weights[:2]
    holds = (n - 1) * (s1 - s2) > s1  # the canonical s1 is positive, so equal top weights never pass
    return TheoremVerdict(
        "scoring_nom_sufficient",
        holds,
        NOM if holds else NO_CLAIM,
        {"n": n, "weights": rule.weights},
    )


def bom_iff(n: int, weights) -> TheoremVerdict:
    """Best-case manipulability of a scoring rule, decided by its equal prefix.

    Holds iff the first k weights are equal for some k > 1 with
    n <= (m-2)/(m-k); the longest equal prefix decides the existential,
    since larger k only loosens the inequality.
    """
    check_int(n, "n", 1)
    rule = rules.scoring(weights)
    ws = rules._resolve(rule, len(rule.weights)).weights
    prefix = ws.count(ws[0])  # the weights do not increase, so every copy of the first is in the prefix
    holds = prefix > 1 and n * (len(ws) - prefix) <= len(ws) - 2
    return TheoremVerdict(
        "bom_iff",
        holds,
        BOM if holds else NOT_BOM,
        {"n": n, "weights": rule.weights, "equal_prefix": prefix},
    )


def weakly_diminishing(n: int, weights) -> TheoremVerdict:
    """Strictly decreasing weights with non-increasing gaps imply NOM for n >= 3.

    The bound n >= 3 is probe-derived, as kapproval_om's is.  At n=2 the
    claim is false: (3, 1, 0) is weakly diminishing, yet truth (2, 0, 1)
    gains in the worst case by reporting (0, 2, 1).
    """
    check_int(n, "n", 1)
    rule = rules.scoring(weights)
    ws = rules._resolve(rule, len(rule.weights)).weights
    gaps = [a - b for a, b in zip(ws, ws[1:])]
    holds = n >= 3 and all(g1 >= g2 for g1, g2 in zip(gaps, gaps[1:])) and gaps[-1] > 0  # the last gap is least
    return TheoremVerdict(
        "weakly_diminishing",
        holds,
        NOM if holds else NO_CLAIM,
        {"n": n, "weights": rule.weights},
    )


def has_veto_power(rule: rules.RuleSpec, n: int, m: int, tiebreak=None, budget=None) -> bool:
    """True iff some single report makes some otherwise-possible outcome unreachable.

    Every rule is neutral, so relabeling by priority position gives every tie-break the identity's verdict: a given
    *tiebreak* is checked, and the search runs under the identity.  Its first, all-free query weighs the most, one
    row per distinct one-ballot tally: max(n-1, d) * C(d+n-2, n-1) summed tallies for d of them.
    """
    check_enumerable(m)  # before anything of size m is built
    if tiebreak is not None:
        make_tiebreak(tiebreak, m)
    check_budget(0, budget)  # a counting route never weighs it, so it is checked here
    rule, identity = rules._resolve(rules.check_rule(rule), m, check_int(n, "n", 1)), identity_tiebreak(m)
    possible = _reachable(rule, n, None, identity, budget)
    return any(possible - _reachable(rule, n, report, identity, budget) for report in enumerate_rankings(m))


def is_almost_unanimous(rule: rules.RuleSpec, n: int, m: int, tiebreak=None, budget=None) -> bool:
    """True iff an outcome ranked first by at least n-1 voters always wins.

    Every rule is neutral, so relabeling each outcome by its priority position maps the profiles where
    n-1 voters rank t first, and their winners, onto those under the identity, which decides for every
    order.  Every rule is also anonymous: the verdict holds iff the ccum row of every dissenting ballot,
    its n-1 free backers ranking t first, is {t}.  Raises TooLargeError beyond *budget* (default 10^8)
    summed tallies; the search weighs m * max(n-1, d) * C(d_t+n-2, n-1), d the distinct one-ballot tallies
    and d_t those of the ballots ranking t first, and stops at the first winner other than t.
    """
    check_enumerable(m)  # before anything of size m is built
    check_int(n, "almost-unanimity's n", 2)
    if tiebreak is not None:
        make_tiebreak(tiebreak, m)
    return _almost_unanimous(rules._resolve(rules.check_rule(rule), m, n), m, n, budget)
