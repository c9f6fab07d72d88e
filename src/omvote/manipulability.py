"""Zero-information manipulation analysis.

A voter who knows nothing about the other ballots sees only the set of
outcomes her report can lead to.  A misreport that strictly improves the
best reachable outcome is a best-case manipulation; one that strictly
improves the worst reachable outcome is a worst-case manipulation.  A rule
instance admitting neither, for any misreport, is classified NOM.

Two independent routes are provided: a reduction onto coalition
manipulation (polynomial, k-approval rules only: a closed form in the
report's approved set decides reachability, uncached, and the greedy
solver builds certificates, their ballots under the identity priority in a
bounded cache, relabeled by the tie-break and elected afresh on every
call) and plain exhaustive search (any rule, small elections).  They are
cross-checked against each other in the test suite.  Both routes read the
truth and the tie-break as the bytes that checked them (a test in C, made
once per query), every reachable set as bytes, ccum's one form, and every
place in C, by translate tables.  The reduction
decides each witness once, through those reachable sets, as brute force
does through its cached ones, comparing outcomes by their places in the
truth.  A brute-force witness and every BOM witness are checked again
against those sets, and a disagreement surfaces as a VerificationError
rather than being silently trusted.  Brute force reads one identity table
per rule whatever the tie-break: it relabels the truth by places in the
tie-break, one translate, and maps each outcome it finds back through the
tie-break's bytes.  So a truth's verdict depends only on the truth
relabeled, and is derived once per identity table, in bounded memos keyed
by no tie-break: its row's extremes, the all-free best and its first
outcomes as sorted bytes, then the reports whose rows lie inside those
outcomes, a row inside when one translate deleting them leaves nothing;
each call maps them back, builds the BOM certificate afresh and reads its
WOM witness's row again.  A co-winner table, bytes as the brute-force
table is, keeps each truth's report with it.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from . import rules
from .ccum import _bruteforce_feasible_map, _certificate, _reachable
from .core import _RANGE, MAX_M, _back, _places, _ranking_bytes, check_budget, check_int
from .errors import InvalidParametersError, UnsupportedRuleError, VerificationError

NOM = "NOM"
BOM_ONLY = "BOM-only"
WOM_ONLY = "WOM-only"
BOM_AND_WOM = "BOM-and-WOM"


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
    return _extremes(_reachable(rule, n, _ranking_bytes(report, len(truth)), tiebreak, budget), truth)


def _checked(truth, rule, n, tiebreak, budget) -> tuple:
    # The one check of a query at a public entry point: (truth, tiebreak, rule), the truth and the tie-break as
    # checked bytes and the rule resolved once.  Past MAX_M outcomes bytes hold neither, and both stay tuples,
    # which the first reachable set or table a route asks refuses by their length alone.
    truth = _ranking_bytes(truth)
    tiebreak = _ranking_bytes(tiebreak, len(truth))
    check_int(n, "n", 2)
    check_budget(0, budget)  # a counting route never weighs it, so it is checked here
    return truth, tiebreak, rules._resolve(rules.check_rule(rule), len(truth), n)


def _extremes(feasible: bytes, truth: bytes) -> CaseOutcomes:
    # the truth's places table reads each outcome's place, and place p holds the truth's outcome truth[p]
    at = feasible.translate(_places(truth))
    return CaseOutcomes(truth[min(at)], truth[max(at)], frozenset(feasible))


def _find_bom(rule, n, tiebreak: bytes, truth: bytes, best, free, budget):
    # If the truth's place of the best outcome every voter free can reach, *free*, beats its truthful best place,
    # the first ballot of that outcome's coalition certificate, built past an instance's checks, is the witness:
    # the one tuple of the tie-break a query builds, and the one use of the truth's places by brute force.
    if free >= best:
        return None
    o_star = truth[free]
    cert = _certificate(rule, (), n, o_star, tuple(tiebreak), budget)
    if not cert.achievable:
        raise VerificationError(f"outcome {o_star} reachable but no certificate found")
    witness = BomWitness(cert.manipulator_ballots[0], cert.manipulator_ballots[1:])
    if min(_reachable(rule, n, bytes(witness.misreport), tiebreak, budget).translate(_places(truth))) >= best:
        raise VerificationError("best-case witness does not improve the best case")
    return witness


def _reduction(rule, mode: str) -> bool:
    # whether the reduction answers a resolved rule; False when brute force does
    if mode not in ("auto", "reduction", "bruteforce"):
        raise InvalidParametersError(f"unknown mode {mode!r}")
    if mode == "reduction" and rule.k is None:
        raise UnsupportedRuleError("reduction mode needs a k-approval style rule")
    return mode != "bruteforce" and rule.k is not None


def _reduced_wom(rule, n, tiebreak: bytes, truth: bytes, places: bytes, cut, budget):
    # the reduction's one candidate, decided by its own reachable set, all in bytes; cut is the truth's place of its
    # truthful worst, and places the truth's places table
    if cut == 0:
        return None  # worst case is already the top choice
    better = tiebreak.translate(None, truth[cut:])  # the outcomes the truth ranks above its worst, in priority order
    candidate = better + tiebreak.translate(None, better)[::-1]
    return tuple(candidate) if max(_reachable(rule, n, candidate, tiebreak, budget).translate(places)) < cut else None


@lru_cache(maxsize=5040)
def _verdict(rule, n: int, relabeled: bytes, budget) -> tuple:
    # A truth's brute-force extremes in identity labels, derived once for every tie-break: its row, the places best
    # and cut of the row's best and worst outcomes in the relabeled truth, free, the best place the all-free voters
    # reach, and better, the truth's first cut outcomes as sorted bytes.  Keyed by the relabeled truth, it asks the
    # row query, then the all-free query, and reads no table.  The 5040 most recent are kept, every truth of one
    # table at m <= 7: its key, the tuple and its two bytes, every bytes object at most 41 bytes at m <= 8, with
    # its row query's entry in ccum about 0.25 KiB (1.2 MiB in all; tracemalloc, borda at m=5, n=3).
    identity, at = _RANGE[len(relabeled)], _places(relabeled)
    row = _reachable(rule, n, relabeled, identity, budget)
    places = row.translate(at)
    free = min(_reachable(rule, n, None, identity, budget).translate(at))
    best, cut = min(places), max(places)
    return row, best, cut, free, identity.translate(None, relabeled[cut:])


@lru_cache(maxsize=256)
def _matches(rule, n: int, m: int, better: bytes, budget) -> bytes:
    # The identity reports, in the table's (lexicographic) order, whose every reachable outcome is in better, sorted
    # bytes of outcomes, as one bytes string of m bytes a report: a row is inside when one translate deleting better
    # leaves nothing.  Read off the table, which is built here, never before a query's BOM certificate.  Keyed by
    # better, which truths of the same first outcomes share, so one table needs fewer than 2^m keys: the 256 most
    # recent are kept, every key of one table at m <= 8, each at most m! * m bytes (315 KiB at m=8, 4.2 KiB at m=6),
    # no more than a tuple of m! pointers to the table's keys at m <= 8.
    table = _bruteforce_feasible_map(rule, n, m, budget)
    return b"".join(r for r, row in table.items() if not row.translate(None, better))


def _least_wom(rule, n, tiebreak: bytes, better: bytes, budget):
    # The lexicographically first report under the tie-break whose every reachable outcome is in better: report r
    # reads the identity table's row of r relabeled, so it is the least m-byte slice of the matches' tie-break image,
    # one translate.  Its row is read again on every call.
    m = len(tiebreak)
    matches = _matches(rule, n, m, better, budget)
    if not matches:
        return None
    image = matches.translate(_back(tiebreak))
    at = _least_slice(image, m) * m
    if _reachable(rule, n, matches[at: at + m], _RANGE[m], budget).translate(None, better):
        raise VerificationError("worst-case witness does not improve the worst case")
    return tuple(image[at: at + m])


def _least_slice(image: bytes, m: int) -> int:
    # The index of the least m-byte slice of *image*, the image under a relabel of distinct rankings in lexicographic
    # order.  The rankings that share a prefix are one run, and so are their images: so the run of the least prefix
    # is narrowed column by column, each a slice, a min and two index searches in C, until one ranking is left.
    lo, hi, d = 0, len(image) // m, 0
    while hi - lo > 1:
        column = image[lo * m + d: hi * m: m]
        least = min(column)
        lo, hi, d = lo + column.index(least), lo + column.rindex(least) + 1, d + 1
    return lo


def _first_wom(table: dict, better: bytes):
    # the first report in lexicographic order (the table's key order) whose every reachable outcome is in better,
    # the truth's outcomes above its worst (never the truth itself), as a tuple
    return next((tuple(r) for r, row in table.items() if not row.translate(None, better)), None)


def classify(truth, rule: rules.RuleSpec, n: int, tiebreak, mode: str = "auto", budget=None) -> ManipulationReport:
    """Full zero-information classification of one truthful ranking.

    The BOM witness comes from the coalition certificate of the best
    outcome any report can reach.  The WOM witness depends on *mode*:
    'reduction' builds one candidate misreport (outcomes better than the
    truthful worst first, in priority order; the rest behind, reversed)
    and returns it iff its worst reachable outcome beats the truthful
    worst; 'bruteforce' scans all m! misreports and returns the
    lexicographically first improving one; 'auto' means the reduction for
    k-approval rules and brute force otherwise.  Both read the truth, the
    tie-break and every reachable set as bytes, so m > 256 is refused at the
    truth's row, as its route refuses it: InvalidParametersError for
    k-approval, TooLargeError otherwise.  Brute force reads its reachable
    sets under the identity priority, the truth relabeled once by places in
    the tie-break, and maps the outcomes it finds back.  It derives each relabeled truth's
    verdict once per identity table, so the m! tie-breaks of a query share
    it: the truth's row is asked first, then the all-free set, then the
    certificate, when a BOM exists, then the table, when the truthful worst
    is not the top choice, which is where each refuses a budget too small
    for it.
    """
    truth, tiebreak, rule = _checked(truth, rule, n, tiebreak, budget)
    reduced = _reduction(rule, mode)
    if len(truth) > MAX_M:  # no route holds it in bytes: _reachable refuses the truth's row as each route does
        _reachable(rule, n, truth, tiebreak, budget)
    if reduced:  # every place is read in C, on the checked bytes
        places = _places(truth)
        reach = _reachable(rule, n, truth, tiebreak, budget)
        at = reach.translate(places)
        best, cut = min(at), max(at)
        truthful = CaseOutcomes(truth[best], truth[cut], frozenset(reach))
        free = min(_reachable(rule, n, None, tiebreak, budget).translate(places))
        bom = _find_bom(rule, n, tiebreak, truth, best, free, budget)
        wom = _reduced_wom(rule, n, tiebreak, truth, places, cut, budget)
    else:  # outcome o reads as its place in the tie-break, so the truth reads place∘truth, with the truth's places
        row, best, cut, free, better = _verdict(rule, n, truth.translate(_places(tiebreak)), budget)
        truthful = CaseOutcomes(truth[best], truth[cut], frozenset(row.translate(_back(tiebreak))))
        bom = _find_bom(rule, n, tiebreak, truth, best, free, budget)
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
    table = _bruteforce_feasible_map(rule, n, len(report), budget)  # refuses m > 8 before the report is relabeled
    return frozenset(table[report.translate(_places(tiebreak))].translate(_back(tiebreak)))


# ---------------------------------------------------------------------------
# Randomized tie-break semantics: every top-scoring outcome can win, so the
# reachable set of a report is the union of the co-winner sets over all
# ballots of the other voters.  o is a co-winner iff it wins under the priority
# order (o, then the rest ascending).  Relabeling each outcome by its place in
# that order, x -> 0 if x == o else x + (x < o), one translate, makes it the
# identity and o outcome 0, so o is in report r's row iff 0 is in the row of r
# relabeled in the identity brute-force table of the resolved rule, which
# classify fills.  Reports and rows are bytes, as in that table.
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
    identity = _RANGE[m]
    firsts = [_places(identity[o: o + 1] + identity[:o] + identity[o + 1:]) for o in range(m)]  # o first, then the rest
    cowinners = _CowinnerTable(
        (report, bytes(o for o, first in enumerate(firsts) if 0 in table[report.translate(first)])) for report in table)
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
    truth = _ranking_bytes(truth)
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
        truthful = _extremes(table[truth], truth)
        wom = _first_wom(table, _RANGE[m].translate(None, truth[truth.index(truthful.worst):]))
        report = table.reports[truth] = ManipulationReport(_label(False, wom is not None), None, wom, truthful)
    return report
