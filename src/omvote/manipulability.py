"""Zero-information manipulation analysis.

A voter who knows nothing about the other ballots sees only the set of
outcomes her report can lead to.  A misreport that strictly improves the
best reachable outcome is a best-case manipulation; one that strictly
improves the worst reachable outcome is a worst-case manipulation.  A rule
instance admitting neither, for any misreport, is classified NOM.

Two independent routes are provided: a reduction onto the coalition
manipulation solver (polynomial, k-approval rules only) and plain
exhaustive search (any rule, small elections).  They are cross-checked
against each other in the test suite; any run-time disagreement surfaces
as a VerificationError rather than being silently trusted.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from . import rules
from .ccum import CcumInstance, ccum_bruteforce, ccum_greedy_kapproval, possible_outcomes, solve_ccum
from .core import (
    DEFAULT_BUDGET,
    enumerate_rankings,
    make_ranking,
    make_tiebreak,
    ranking_positions,
)
from .errors import InvalidParametersError, TooLargeError, UnsupportedRuleError, VerificationError

NOM = "NOM"
BOM_ONLY = "BOM-only"
WOM_ONLY = "WOM-only"
BOM_AND_WOM = "BOM-and-WOM"


@dataclass(frozen=True)
class CaseOutcomes:
    """Best and worst reachable outcomes, judged by the truthful ranking."""

    best: int
    worst: int
    feasible: frozenset


class BomWitness(NamedTuple):
    misreport: tuple
    others: tuple  # ballots of the remaining voters that realize the improvement


@dataclass(frozen=True)
class ManipulationReport:
    classification: str
    bom_witness: BomWitness | None
    wom_witness: tuple | None
    truthful_cases: CaseOutcomes


def case_outcomes(truth, report, rule: rules.RuleSpec, n: int, tiebreak, budget=None) -> CaseOutcomes:
    """Reachable-outcome extremes when a voter with preference *truth* files *report*."""
    m = len(truth)
    truth = make_ranking(truth)
    report = make_ranking(report, m)
    tiebreak = make_tiebreak(tiebreak, m)
    if n < 2:
        raise InvalidParametersError("case analysis needs at least two voters")
    return _extremes(possible_outcomes(rule, n, report, tiebreak, budget), ranking_positions(truth))


def _extremes(feasible: frozenset, pos) -> CaseOutcomes:
    return CaseOutcomes(min(feasible, key=pos.__getitem__), max(feasible, key=pos.__getitem__), feasible)


def find_bom(truth, rule: rules.RuleSpec, n: int, tiebreak, budget=None) -> BomWitness | None:
    """Misreport strictly improving the best case, if one exists.

    The best reachable outcome over *all* reports is computed by letting
    every voter manipulate; if it beats the truthful best, the coalition
    certificate's first ballot is the witness misreport.
    """
    m = len(truth)
    truth = make_ranking(truth)
    tiebreak = make_tiebreak(tiebreak, m)
    pos = ranking_positions(truth)
    truthful = case_outcomes(truth, truth, rule, n, tiebreak, budget)
    reachable_any = possible_outcomes(rule, n, None, tiebreak, budget)
    o_star = min(reachable_any, key=lambda o: pos[o])
    if pos[o_star] >= pos[truthful.best]:
        return None
    cert = solve_ccum(CcumInstance(rule, (), n, o_star, tiebreak), budget=budget)
    if not cert.achievable:
        raise VerificationError(f"outcome {o_star} reachable but no certificate found")
    witness = BomWitness(cert.manipulator_ballots[0], cert.manipulator_ballots[1:])
    improved = case_outcomes(truth, witness.misreport, rule, n, tiebreak, budget)
    if pos[improved.best] >= pos[truthful.best]:
        raise VerificationError("best-case witness does not improve the best case")
    return witness


def find_wom(truth, rule: rules.RuleSpec, n: int, tiebreak, mode: str = "auto", budget=None):
    """Misreport strictly improving the worst case, or None.

    mode='reduction' builds one candidate misreport (outcomes better than
    the truthful worst first, in priority order; the rest behind, reversed)
    and accepts it iff the greedy coalition solver shows no bad outcome
    stays reachable.  mode='bruteforce' scans all m! misreports and returns
    the lexicographically first improving one.
    """
    m = len(truth)
    truth = make_ranking(truth)
    tiebreak = make_tiebreak(tiebreak, m)
    if mode == "auto":
        mode = "reduction" if rules.kapproval_k(rule, m) is not None else "bruteforce"
    pos = ranking_positions(truth)
    truthful = case_outcomes(truth, truth, rule, n, tiebreak, budget)
    o_w = truthful.worst
    if pos[o_w] == 0:
        return None  # worst case is already the top choice
    if mode == "reduction":
        witness = _wom_reduction(truth, rule, n, tiebreak, pos, o_w)
    elif mode == "bruteforce":
        witness = _wom_bruteforce(truth, rule, n, tiebreak, pos, o_w, budget)
    else:
        raise InvalidParametersError(f"unknown mode {mode!r}")
    if witness is not None:
        improved = case_outcomes(truth, witness, rule, n, tiebreak, budget)
        if pos[improved.worst] >= pos[o_w]:
            raise VerificationError("worst-case witness does not improve the worst case")
    return witness


def _wom_reduction(truth, rule, n, tiebreak, pos, o_w):
    m = len(truth)
    if rules.kapproval_k(rule, m) is None:
        raise UnsupportedRuleError("reduction mode needs a k-approval style rule")
    prank = ranking_positions(tiebreak)
    cut = pos[o_w]
    good = sorted((o for o in range(m) if pos[o] < cut), key=lambda o: prank[o])
    bad = sorted((o for o in range(m) if pos[o] >= cut), key=lambda o: -prank[o])
    misreport = tuple(good + bad)
    for target in bad:
        inst = CcumInstance(rule, (misreport,), n - 1, target, tiebreak)
        if ccum_greedy_kapproval(inst).achievable:
            return None
    return misreport


def _wom_bruteforce(truth, rule, n, tiebreak, pos, o_w, budget):
    table = _bruteforce_feasible_map(rule, n, tiebreak, budget)
    for report in enumerate_rankings(len(truth)):
        if report == truth:
            continue
        worst = max(table[report], key=lambda o: pos[o])
        if pos[worst] < pos[o_w]:
            return report
    return None


def classify(truth, rule: rules.RuleSpec, n: int, tiebreak, mode: str = "auto", budget=None) -> ManipulationReport:
    """Full zero-information classification of one truthful ranking."""
    m = len(truth)
    truth = make_ranking(truth)
    tiebreak = make_tiebreak(tiebreak, m)
    truthful = case_outcomes(truth, truth, rule, n, tiebreak, budget)
    bom = find_bom(truth, rule, n, tiebreak, budget)
    wom = find_wom(truth, rule, n, tiebreak, mode, budget)
    return ManipulationReport(_label(bom is not None, wom is not None), bom, wom, truthful)


def _label(has_bom: bool, has_wom: bool) -> str:
    if has_bom and has_wom:
        return BOM_AND_WOM
    if has_bom:
        return BOM_ONLY
    if has_wom:
        return WOM_ONLY
    return NOM


# ---------------------------------------------------------------------------
# Exhaustive feasible sets (the oracle side).
#
# For k-approval style rules only the approved sets matter, so the search
# quotients rankings down to approval sets and the other voters down to
# multisets of approval sets; this is exact, not an approximation.  Other
# rules take each report's row from possible_outcomes, which enumerates the
# full ballot tuples of the other voters and caches the rows it computes.


@lru_cache(maxsize=64)
def _bruteforce_feasible_map(rule: rules.RuleSpec, n: int, tiebreak, budget=None) -> dict:
    m = len(tiebreak)
    if n < 2:
        raise InvalidParametersError("feasible sets need at least two voters")
    limit = DEFAULT_BUDGET if budget is None else budget
    k = rules.kapproval_k(rule, m)
    if k is not None:
        prank = ranking_positions(tiebreak)
        sets = [frozenset(c) for c in itertools.combinations(range(m), k)]
        combos = math.comb(len(sets) + n - 2, n - 1)
        if combos * len(sets) > limit:
            raise TooLargeError("approval-set enumeration exceeds the budget")
        base = []
        for multi in itertools.combinations_with_replacement(sets, n - 1):
            counts = [0] * m
            for s in multi:
                for o in s:
                    counts[o] += 1
            base.append(counts)
        by_set = {}
        for s in sets:
            found = set()
            for counts in base:
                found.add(max(range(m), key=lambda o: (counts[o] + (o in s), -prank[o])))
            by_set[s] = frozenset(found)
        return {r: by_set[frozenset(r[:k])] for r in enumerate_rankings(m)}
    if math.factorial(m) ** n > limit:
        raise TooLargeError("full profile enumeration exceeds the budget")
    return {r: possible_outcomes(rule, n, r, tiebreak, budget) for r in enumerate_rankings(m)}


def bruteforce_feasible(rule: rules.RuleSpec, n: int, report, tiebreak, budget=None) -> frozenset:
    """Exhaustively computed reachable outcomes for one fixed report."""
    report = make_ranking(report)
    tiebreak = make_tiebreak(tiebreak, len(report))
    return _bruteforce_feasible_map(rule, n, tiebreak, budget)[report]


# ---------------------------------------------------------------------------
# Randomized tie-break semantics: every top-scoring outcome can win, so the
# reachable set of a report is the union of the co-winner sets over all
# ballots of the other voters.  o is a co-winner iff it wins under the priority
# order that puts o first, so rows and witnesses come from the fixed-priority
# solvers under that order; a witness is the first completion in lex order.


def _priority_first(o: int, m: int) -> tuple:
    return (o, *(p for p in range(m) if p != o))


@lru_cache(maxsize=64)
def _cowinner_feasible_map(rule: rules.RuleSpec, n: int, m: int, budget=None) -> dict:
    if math.factorial(m) ** n > (DEFAULT_BUDGET if budget is None else budget):
        raise TooLargeError("co-winner enumeration exceeds the budget")
    return {
        report: frozenset(o for o in range(m)
                          if o in possible_outcomes(rule, n, report, _priority_first(o, m), budget))
        for report in enumerate_rankings(m)
    }


def classify_randomized_tiebreak(truth, weights, n: int, budget=None) -> ManipulationReport:
    """Classification when score ties are broken by lot instead of priority."""
    m = len(truth)
    truth = make_ranking(truth)
    rule = rules.scoring(weights)
    rules.score_vector(rule, m)  # one weight per outcome
    if n < 2:
        raise InvalidParametersError("need at least two voters")
    table = _cowinner_feasible_map(rule, n, m, budget)
    pos = ranking_positions(truth)
    truthful = _extremes(table[truth], pos)
    bom = wom = None
    for report in enumerate_rankings(m):
        if report == truth:
            continue
        cases = _extremes(table[report], pos)
        if bom is None and pos[cases.best] < pos[truthful.best]:
            inst = CcumInstance(rule, (report,), n - 1, cases.best, _priority_first(cases.best, m))
            cert = ccum_bruteforce(inst, budget)
            if not cert.achievable:
                raise VerificationError(f"no completion realizes co-winner {cases.best}")
            bom = BomWitness(report, cert.manipulator_ballots)
        if wom is None and pos[cases.worst] < pos[truthful.worst]:
            wom = report
        if bom is not None and wom is not None:
            break
    return ManipulationReport(_label(bom is not None, wom is not None), bom, wom, truthful)
