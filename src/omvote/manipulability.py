"""Zero-information manipulation analysis.

A voter who knows nothing about the other ballots sees only the set of
outcomes her report can lead to.  A misreport that strictly improves the
best reachable outcome is a best-case manipulation; one that strictly
improves the worst reachable outcome is a worst-case manipulation.  A rule
instance admitting neither, for any misreport, is classified NOM.

Two independent routes are provided: a reduction onto coalition
manipulation (polynomial, k-approval rules only: a closed form in the
report's approved set decides reachability, uncached, and the greedy solver
builds certificates, their ballots under the identity priority in a bounded
cache, relabeled by the tie-break and elected afresh on every call) and
plain exhaustive search (any rule, small elections).  They are
cross-checked against each other in the test suite.  The reduction decides
each witness once, through those reachable sets, as brute force does
through its cached ones, comparing outcomes by their places in the truth,
which it reads in C from the truth and the tie-break as bytes, made once.
A brute-force witness and every BOM witness are checked again against
those sets, and a disagreement surfaces as a VerificationError rather than
being silently trusted.  Brute force reads one identity table per rule
whatever the tie-break: it relabels the truth once by places in the
tie-break and maps each outcome it finds back through it.  So a truth's
verdict depends only on the truth relabeled, and is derived once per
identity table, in bounded memos keyed by no tie-break: its row's extremes
and the all-free best, then the reports whose rows lie inside its first
outcomes; each call maps them back, builds the BOM certificate afresh and
reads its WOM witness's row again.  A co-winner table keeps each truth's
report with it.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from . import rules
from .ccum import (_as_bytes, _bruteforce_feasible_map, _certificate, _counted_reachable, _identity_reachable,
                   _reachable, _relabel)
from .core import MAX_M, check_budget, check_int, make_ranking, make_tiebreak, ranking_positions
from .errors import InvalidParametersError, UnsupportedRuleError, VerificationError

NOM = "NOM"
BOM_ONLY = "BOM-only"
WOM_ONLY = "WOM-only"
BOM_AND_WOM = "BOM-and-WOM"

_PLACES = bytes(range(MAX_M))  # place p as byte p: a truth's places table is bytes.maketrans(truth, _PLACES[:m])


class CaseOutcomes(NamedTuple):
    """Best and worst reachable outcomes, judged by the truthful ranking."""

    best: int
    worst: int
    feasible: frozenset


class BomWitness(NamedTuple):
    misreport: tuple
    others: tuple  # ballots of the remaining voters that realize the improvement


class ManipulationReport(NamedTuple):
    classification: str
    bom_witness: BomWitness | None
    wom_witness: tuple | None
    truthful_cases: CaseOutcomes


def case_outcomes(truth, report, rule: rules.RuleSpec, n: int, tiebreak, budget=None) -> CaseOutcomes:
    """Reachable-outcome extremes when a voter with preference *truth* files *report*."""
    truth, tiebreak, rule = _checked(truth, rule, n, tiebreak, budget)
    feasible = _reachable(rule, n, make_ranking(report, len(truth)), tiebreak, budget)
    return _extremes(feasible, truth, ranking_positions(truth))


def _checked(truth, rule, n, tiebreak, budget) -> tuple:
    # the one check of a query at a public entry point: (truth, tiebreak, rule), the rule resolved once
    truth = make_ranking(truth)
    tiebreak = make_tiebreak(tiebreak, len(truth))
    check_int(n, "n", 2)
    check_budget(0, budget)  # a counting route never weighs it, so it is checked here
    return truth, tiebreak, rules._resolve(rules.check_rule(rule), len(truth), n)


def _extremes(feasible: frozenset, truth, pos) -> CaseOutcomes:
    # pos[o] is outcome o's place in the truth, and place p holds the truth's outcome truth[p]
    return CaseOutcomes(truth[min(map(pos.__getitem__, feasible))], truth[max(map(pos.__getitem__, feasible))],
                        feasible)


def _find_bom(rule, n, tiebreak, truth, pos, best, free, budget):
    # If the truth's place of the best outcome every voter free can reach, *free*, beats its truthful best place,
    # the first ballot of that outcome's coalition certificate, built past an instance's checks, is the witness.
    # pos[o] is outcome o's place in the truth: a list, or the reduction's places table.
    if free >= best:
        return None
    o_star = truth[free]
    cert = _certificate(rule, (), n, o_star, tiebreak, budget)
    if not cert.achievable:
        raise VerificationError(f"outcome {o_star} reachable but no certificate found")
    witness = BomWitness(cert.manipulator_ballots[0], cert.manipulator_ballots[1:])
    if min(map(pos.__getitem__, _reachable(rule, n, witness.misreport, tiebreak, budget))) >= best:
        raise VerificationError("best-case witness does not improve the best case")
    return witness


def _reduction(rule, mode: str) -> bool:
    # whether the reduction answers a resolved rule; False when brute force does
    if mode not in ("auto", "reduction", "bruteforce"):
        raise InvalidParametersError(f"unknown mode {mode!r}")
    if mode == "reduction" and rule.k is None:
        raise UnsupportedRuleError("reduction mode needs a k-approval style rule")
    return mode != "bruteforce" and rule.k is not None


def _reduced_wom(rule, n, tiebreak: bytes, truth: bytes, places: bytes, cut):
    # the reduction's one candidate, decided by its own reachable set, all in bytes; cut is the truth's place of its
    # truthful worst, and places the truth's places table
    if cut == 0:
        return None  # worst case is already the top choice
    better = tiebreak.translate(None, truth[cut:])  # the outcomes the truth ranks above its worst, in priority order
    candidate = better + tiebreak.translate(None, better)[::-1]
    return tuple(candidate) if max(_counted_reachable(rule, n, candidate, tiebreak).translate(places)) < cut else None


@lru_cache(maxsize=5040)
def _verdict(rule, n: int, relabeled: tuple, budget) -> tuple:
    # A truth's brute-force extremes in identity labels, derived once for every tie-break: its row, the places best
    # and cut of the row's best and worst outcomes in the relabeled truth, free, the best place the all-free voters
    # reach, and the truth's first cut outcomes as a bit mask.  It asks the row query, then the all-free query, and
    # reads no table.  The 5040 most recent are kept, every truth of one table at m <= 7, each about 1 KiB (5 MiB in
    # all): its key, the tuple and, unless ccum's caches share it, its row; a mask at m <= 8 is a cached small int.
    m, at = len(relabeled), ranking_positions(relabeled)
    row = _identity_reachable(rule, n, relabeled, m, budget)
    places = sorted(map(at.__getitem__, row))
    free = min(map(at.__getitem__, _identity_reachable(rule, n, None, m, budget)))
    return row, places[0], places[-1], free, sum(1 << o for o in relabeled[:places[-1]])


@lru_cache(maxsize=256)
def _matches(rule, n: int, m: int, better: int, budget) -> tuple:
    # The identity reports, in the table's (lexicographic) order, whose every reachable outcome is in the mask
    # better; read off the table, which is built here, never before a query's BOM certificate.  Keyed by the mask,
    # which truths of the same first outcomes share, so one table needs fewer than 2^m of them: the 256 most recent
    # are kept, every mask of one table at m <= 8, each a tuple of at most m! reports shared with the table's keys
    # (8 bytes a report: 0.3 MiB at m=8, 5.6 KiB at m=6).
    inside = frozenset(o for o in range(m) if better >> o & 1)
    return tuple(r for r, feasible in _bruteforce_feasible_map(rule, n, m, budget).items() if feasible <= inside)


def _least_wom(rule, n, tiebreak, better, budget):
    # The lexicographically first report under the tie-break whose every reachable outcome is in the mask better:
    # report r reads the identity table's row of r relabeled, so it is the least tie-break image of the matches,
    # which need not keep their order.  Its row is read again on every call.
    m = len(tiebreak)
    matches = _matches(rule, n, m, better, budget)
    if not matches:
        return None
    witness, r = min((tuple(map(tiebreak.__getitem__, r)), r) for r in matches)
    if not all(better >> o & 1 for o in _identity_reachable(rule, n, r, m, budget)):
        raise VerificationError("worst-case witness does not improve the worst case")
    return witness


def _first_wom(table: dict, pos, o_w):
    # the first report in lexicographic order (the table's key order) whose
    # every reachable outcome the truth ranks above o_w (never the truth itself)
    cut = pos[o_w]
    better = frozenset(o for o, p in enumerate(pos) if p < cut)
    return next((r for r, feasible in table.items() if feasible <= better), None)


def classify(truth, rule: rules.RuleSpec, n: int, tiebreak, mode: str = "auto", budget=None) -> ManipulationReport:
    """Full zero-information classification of one truthful ranking.

    The BOM witness comes from the coalition certificate of the best
    outcome any report can reach.  The WOM witness depends on *mode*:
    'reduction' builds one candidate misreport (outcomes better than the
    truthful worst first, in priority order; the rest behind, reversed)
    and returns it iff its worst reachable outcome beats the truthful
    worst; 'bruteforce' scans all m! misreports and returns the
    lexicographically first improving one; 'auto' means the reduction for
    k-approval rules and brute force otherwise.  The reduction reads every
    reachable set on the truth and the tie-break as bytes, made once, and
    refuses m > 256 with InvalidParametersError.  Brute force reads its
    reachable sets under the identity priority, the truth relabeled once by
    places in the tie-break, and maps the outcomes it finds back.  It
    derives each relabeled truth's verdict once per identity table, so the
    m! tie-breaks of a query share it: the truth's row is asked first, then
    the all-free set, then the certificate, when a BOM exists, then the
    table, when the truthful worst is not the top choice, which is where
    each refuses a budget too small for it.
    """
    truth, tiebreak, rule = _checked(truth, rule, n, tiebreak, budget)
    if _reduction(rule, mode):  # the truth and the tie-break as bytes, once: every place is read in C
        order, ranked = _as_bytes(tiebreak), bytes(truth)
        places = bytes.maketrans(ranked, _PLACES[:len(ranked)])
        reach = _counted_reachable(rule, n, ranked, order)
        at = reach.translate(places)
        best, cut = min(at), max(at)
        truthful = CaseOutcomes(truth[best], truth[cut], frozenset(reach))
        free = min(_counted_reachable(rule, n, None, order).translate(places))
        bom = _find_bom(rule, n, tiebreak, truth, places, best, free, budget)
        wom = _reduced_wom(rule, n, order, ranked, places, cut)
    else:  # outcome o reads as its place in the tie-break, so the truth reads place∘truth, with the truth's places
        row, best, cut, free, better = _verdict(rule, n, tuple(map(_relabel(tiebreak), truth)), budget)
        truthful = CaseOutcomes(truth[best], truth[cut], frozenset(map(tiebreak.__getitem__, row)))
        bom = _find_bom(rule, n, tiebreak, truth, ranking_positions(truth), best, free, budget)
        wom = _least_wom(rule, n, tiebreak, better, budget) if cut else None  # cut 0: the worst is the top choice
    return ManipulationReport(_label(bom is not None, wom is not None), bom, wom, truthful)


def _label(has_bom: bool, has_wom: bool) -> str:
    if has_bom and has_wom:
        return BOM_AND_WOM
    if has_bom:
        return BOM_ONLY
    if has_wom:
        return WOM_ONLY
    return NOM


def bruteforce_feasible(rule: rules.RuleSpec, n: int, report, tiebreak, budget=None) -> frozenset:
    """Exhaustively computed reachable outcomes for one fixed report."""
    report, tiebreak, rule = _checked(report, rule, n, tiebreak, budget)
    row = _bruteforce_feasible_map(rule, n, len(report), budget)[tuple(map(_relabel(tiebreak), report))]
    return frozenset(map(tiebreak.__getitem__, row))


# ---------------------------------------------------------------------------
# Randomized tie-break semantics: every top-scoring outcome can win, so the
# reachable set of a report is the union of the co-winner sets over all
# ballots of the other voters.  o is a co-winner iff it wins under the priority
# order (o, then the rest ascending).  Relabeling each outcome by its place in
# that order, x -> 0 if x == o else x + (x < o), makes it the identity and o
# outcome 0, so o is in report r's row iff 0 is in the row of r relabeled in
# the identity brute-force table of the resolved rule, which classify fills.
# Keyed by the caller's weights as a tuple, vectors equal term by term share
# one entry; only a miss resolves the rule, checking the vector against m, so
# an invalid vector never gets an entry.  Each table keeps the report of every
# truth classified against it, derived on its first call: at most m! reports,
# each a few small tuples over the table's own rows and keys, that go with
# the table when the cache drops or clears it.


class _CowinnerTable(dict):
    # report -> co-winner row, in enumerate_rankings order; reports holds the truths classified so far
    __slots__ = ("reports",)


@lru_cache(maxsize=64, typed=True)  # typed, so a float budget never hits an int budget's entry
def _cowinner_feasible_map(weights: tuple, n: int, m: int, budget=None) -> dict:
    table = _bruteforce_feasible_map(rules._resolve(rules.scoring(weights), m, n), n, m, budget)
    cowinners = _CowinnerTable(
        (report, frozenset(o for o in range(m) if 0 in table[tuple(0 if x == o else x + (x < o) for x in report)]))
        for report in table)
    cowinners.reports = {}
    return cowinners


def classify_randomized_tiebreak(truth, weights, n: int, budget=None) -> ManipulationReport:
    """Classification when score ties are broken by lot instead of priority.

    No report is a best-case manipulation, so there is never a BOM witness:
    the other voters can all rank the truthful top first, which gives it the
    highest total any outcome can reach, so it is a co-winner of the
    truthful report and nothing reachable beats it.  The first misreport in
    lexicographic order that improves the worst case is the WOM witness.
    """
    truth = make_ranking(truth)
    m = len(truth)
    n = check_int(n, "n", 2)
    check_budget(0, budget)  # before the cache lookup, which needs it hashable
    try:
        table = _cowinner_feasible_map(tuple(weights), n, m, budget)
    except TypeError:
        rules.scoring(weights)  # weights that tuple() or hash() rejects: the rule check names the fault
        raise
    if truth[0] not in table[truth]:
        raise VerificationError(f"truthful top {truth[0]} is not a co-winner of the truthful report")
    report = table.reports.get(truth)
    if report is None:
        pos = ranking_positions(truth)
        truthful = _extremes(table[truth], truth, pos)
        wom = _first_wom(table, pos, truthful.worst)
        report = table.reports[truth] = ManipulationReport(_label(False, wom is not None), None, wom, truthful)
    return report
