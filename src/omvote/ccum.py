"""Constructive coalitional manipulation: can free voters make a target win?

A reachable set has one form here: a query's fixed ballot (or None) and
tie-break are checked bytes, and its answer is bytes, the reachable
outcomes in priority order.  Bytes hold outcomes up to 255, so a query past
MAX_M (256) outcomes is refused, in _reachable alone, before anything is
counted or built.  For k-approval style rules, with at most one fixed
ballot, a closed form private to this module decides which targets the
free voters can elect from that ballot's approved set and the tie-break,
with no ballots built and nothing cached; its deleting, slicing and
counting run in C.  The greedy solver builds the ballots of a certificate
in polynomial time.  It reads the tie-break only as an order, so it builds
them under the identity priority and relabels them, and a bounded cache
keeps the identity's ballots; the election that decides achievable runs on
every call and is never cached.  The brute-force solver enumerates
manipulator ballot tuples for any rule and doubles as the correctness
oracle for both.  Each solver decides
achievable by electing the profile it returns, so a certificate needs no
second check.  Every other exhaustive reachable set sums ballot tallies,
here alone: this module weighs and holds them, the brute-force tables and
the almost-unanimity search included.  Every supported rule is neutral, so
those sets and tables are held under the identity priority only, one table
per rule, voter count and budget, its reports and rows bytes too; a query
under another tie-break is relabeled by places in it and its answer mapped
back, each one translate, uncached.
"""

from __future__ import annotations

import math
from functools import lru_cache
from operator import itemgetter
from typing import NamedTuple

from . import rules
from .core import (_RANGE, MAX_M, Profile, _back, _ballots, _places, _ranking_bytes, check_budget, check_enumerable,
                   check_int, enumerate_profiles, enumerate_rankings, make_ranking, make_tiebreak, ranking_positions)
from .errors import InvalidParametersError


class _CcumFields(NamedTuple):
    rule: rules.RuleSpec
    fixed_ballots: tuple
    num_manipulators: int
    target: int
    tiebreak: tuple


class CcumInstance(_CcumFields):
    """Fixed ballots, a count of free manipulators, and a target to elect; checked as it is built."""

    __slots__ = ()

    def __new__(cls, rule, fixed_ballots, num_manipulators, target, tiebreak):
        rules.check_rule(rule)
        tiebreak = make_tiebreak(tiebreak)  # m is its length
        fixed_ballots = tuple(make_ranking(b, len(tiebreak)) for b in _ballots(fixed_ballots))
        if not (check_int(num_manipulators, "num_manipulators", 0) or fixed_ballots):
            raise InvalidParametersError("instance has no voters at all")
        check_int(target, "target", 0, len(tiebreak) - 1)
        return tuple.__new__(cls, (rule, fixed_ballots, num_manipulators, target, tiebreak))

    @classmethod
    def _make(cls, iterable):  # so that _replace checks its fields as construction does
        return cls(*iterable)

    @property
    def m(self) -> int:
        return len(self.tiebreak)


class CcumCertificate(NamedTuple):
    achievable: bool
    manipulator_ballots: tuple | None


def ccum_greedy_kapproval(inst: CcumInstance) -> CcumCertificate:
    """Greedy manipulator ballots for a k-approval rule.

    Every manipulator ranks the target first and spends the remaining k-1
    approvals on the outcomes with the currently lowest scores, preferring
    the lowest tie-break priority among score ties.  Disapproved outcomes
    are appended lowest priority first (their order cannot affect scores).
    The greedy reads the tie-break only as an order, so the ballots are
    built under the identity, with the fixed ballots and the target
    relabeled by their places in the tie-break (as _possible_outcomes
    relabels), and mapped back; the identity's ballots are kept for the 512
    most recently used (k, relabeled fixed ballots, manipulators, target's
    place, m), and cache_info and cache_clear read and empty that cache.
    The completed profile is then elected afresh, on every call, through
    rules._elect, the kernel rules.winner calls, under the instance's own
    tie-break, which decides achievable; the ballots are returned even when
    the target still loses.
    """
    rule, *fields = _query(inst)
    if rule.k is None:
        raise InvalidParametersError(f"greedy solver needs a k-approval rule, got {inst.rule.name}")
    return _certificate(rule, *fields)


def _query(inst: CcumInstance) -> tuple:  # a checked instance's fields in order, its rule resolved for its voters
    if not isinstance(inst, CcumInstance):
        raise InvalidParametersError(f"inst must be a CcumInstance, got {inst!r}")
    n = len(inst.fixed_ballots) + inst.num_manipulators
    return rules._resolve(inst.rule, inst.m, n), inst.fixed_ballots, inst.num_manipulators, inst.target, inst.tiebreak


def _certificate(rule, fixed, manipulators, target, tiebreak, budget=None) -> CcumCertificate:
    # solve_ccum on checked fields and a resolved rule, past an instance's checks: the greedy for k-approval
    if rule.k is None:
        return _bruteforce(rule, fixed, manipulators, target, tiebreak, budget)
    m = len(tiebreak)
    if tiebreak == tuple(range(m)):
        ballots = _greedy_ballots(rule.k, fixed, manipulators, target, m)
    else:
        place = _relabel(tiebreak)
        relabeled = tuple(tuple(map(place, b)) for b in fixed)
        ballots = tuple(itemgetter(*b)(tiebreak)  # a tuple, as a tie-break other than the identity has m >= 2
                        for b in _greedy_ballots(rule.k, relabeled, manipulators, place(target), m))
    return CcumCertificate(rules._elect(rule, Profile(fixed + ballots, m), tiebreak) == target, ballots)


@lru_cache(maxsize=512)
def _greedy_ballots(k: int, fixed: tuple, manipulators: int, target: int, m: int) -> tuple:
    # the greedy's ballots under the identity priority, for fixed ballots and a target already relabeled
    others = [o for o in range(m - 1, -1, -1) if o != target]  # lowest priority first
    scores = rules._totals((1,) * k, m, fixed)
    ballots = []
    for _ in range(manipulators):
        scores[target] += 1
        approved = sorted(others, key=scores.__getitem__)[: k - 1]  # stable: score ties go to the lowest priority
        for o in approved:
            scores[o] += 1
        skipped = set(approved)
        ballots.append((target, *approved, *(o for o in others if o not in skipped)))
    return tuple(ballots)


def _relabel(tiebreak: tuple):
    # each outcome to its place in the tie-break, the relabel that makes the tie-break the identity: the one use
    # of a tie-break's positions, as every rule and the greedy read it only as an order
    return ranking_positions(tiebreak).__getitem__


def _kapproval_reachable(k: int, n: int, fixed, tiebreak: bytes) -> bytes:
    # The targets that n voters, all free or all but one holding *fixed*, can
    # elect under k-approval, by counting alone, as bytes in priority order.
    # The ballot (or None) and the tie-break are bytes (so m <= MAX_M), and
    # deleting, slicing and counting run in C; nothing is cached.  Free
    # ballots electing t still do with t swapped into every approved set that
    # lacks it, so every free voter approves t, and t then wins iff each
    # rival o ends with at most cap_o = top - f_o - [o has priority over t]
    # approvals (f the fixed approvals, top = f_t + free) while the free
    # voters hand out free*(k-1) rival approvals, at most one each to a rival.
    # Any counts x_o <= min(cap_o, free) summing to free*(k-1) can be dealt
    # (rival by rival, the j-th approval to voter j mod free), so t is
    # reachable iff no cap_o is negative and the min(cap_o, free) sum to at
    # least free*(k-1).
    #
    # Every f_o is 0 or 1.  With room = free*(m-k), idx the outcomes ahead of
    # t and a the approved ones among them, the sum reads a <= room for an
    # approved t, whose caps it keeps non-negative, and idx <= room - k for
    # an unapproved one, whose caps stay non-negative iff free >= 2, or
    # free = 1 and a = 0.  With no fixed ballot every f_o is 0 and the sum
    # reads idx <= room.
    #
    # So the head of the tie-break up to idx = room - k is reachable, cut
    # before its first approved outcome when free = 1, and so are the
    # approved outcomes past it, up to the (room+1)-th approved one.
    m = len(tiebreak)
    if fixed is None:
        return tiebreak[: n * (m - k) + 1]
    free = n - 1
    room = free * (m - k)
    disapproved = fixed[k:]
    approved = tiebreak.translate(None, disapproved)  # in priority order: the approved t with a <= room lead it
    head = tiebreak[: max(room - k + 1, 0)]  # idx <= room - k, which every approved t there meets too
    if free == 1:
        head = head[: tiebreak.index(approved[0])]  # and a = 0
    return head + approved[len(head.translate(None, disapproved)): room + 1]


def ccum_bruteforce(inst: CcumInstance, budget: int | None = None) -> CcumCertificate:
    """Exhaustive search over manipulator ballot tuples, lexicographic order.

    Returns the first tuple electing the target, or achievable=False after
    scanning all (m!)^num_manipulators of them.
    """
    return _bruteforce(*_query(inst), budget)


def _bruteforce(rule, fixed, manipulators, target, tiebreak, budget) -> CcumCertificate:
    # ccum_bruteforce on _query's fields
    for profile in enumerate_profiles(len(tiebreak), manipulators, budget, fixed):
        if rules._elect(rule, profile, tiebreak) == target:
            return CcumCertificate(True, profile.ballots[len(fixed):])
    return CcumCertificate(False, None)


def solve_ccum(inst: CcumInstance, budget: int | None = None) -> CcumCertificate:
    """The greedy solver for a k-approval rule, brute force otherwise.

    The rule picks the solver; to run one regardless, call it directly.
    Each solver elects the very profile it returns through rules._elect, so
    an achievable certificate elects the target and is not elected again.
    """
    check_budget(0, budget)
    return _certificate(*_query(inst), budget)


def possible_outcomes(rule: rules.RuleSpec, n: int, fixed, tiebreak, budget: int | None = None) -> frozenset:
    """Outcomes some ballots of the free voters can elect.

    With *fixed* set to one voter's ranking the other n-1 voters are free;
    with fixed=None all n are.  The query is checked once, into bytes, and
    answered by _reachable as bytes.  k-approval rules are decided in closed
    form from the fixed ballot's approved set (_kapproval_reachable), with no
    ballots built and no cache; a k-approval query of more than MAX_M (256)
    outcomes is refused with InvalidParametersError before anything is
    counted.  Everything else sums ballot tallies (_row, _weigh), and past
    MAX_M is refused as its weight or its enumeration would refuse it.

    Every supported rule is neutral: scoring, STV, runoff and Copeland read
    the tie-break only as an order to walk, so relabeling each outcome by
    its place in that order makes it the identity, and winner(pi(P),
    identity) = pi(winner(P, tiebreak)).  A query of a summed rule
    under another tie-break is answered under the identity, with the fixed
    ballot relabeled, and mapped back, on every call; the closed form reads
    the query's own tie-break and is never relabeled.

    Summed queries are cached under the identity alone, keyed by the fixed
    ballot's bytes and holding the answer's (each at most 41 bytes at
    m <= 8), the 2048 most recent (room for the 64 tables kept at m=4),
    under the resolved rule (rules._resolve) that every name of one score
    vector shares; the m! tie-breaks of a rule share each identity entry,
    so one rule's queries at one n and budget hold at most m!+1 of them,
    filled by its brute-force table, m! rows (a co-winner table reads the
    same table), and by the all-free query and has_veto_power.  A query is checked and resolved
    here, so the cache holds checked ones only.
    """
    rules.check_rule(rule)
    tiebreak = _ranking_bytes(tiebreak)
    if fixed is not None:
        fixed = _ranking_bytes(fixed, len(tiebreak))
    check_budget(0, budget)
    rule = rules._resolve(rule, len(tiebreak), check_int(n, "n", 1))
    return frozenset(_reachable(rule, n, fixed, tiebreak, budget))


def _reachable(rule, n: int, fixed, tiebreak, budget) -> bytes:
    # possible_outcomes on a checked query (the fixed ballot or None and the tie-break as bytes, int n >= 1) and its
    # resolved rule, as bytes in priority order: a k-approval one counted in closed form, a summed one read under the
    # identity, the fixed ballot relabeled by places in the tie-break and the answer mapped back.  Bytes hold no
    # query past MAX_M outcomes, so one is refused here by its length, as its route always refused it
    m = len(tiebreak)
    if m > MAX_M:
        if rule.k is not None:
            raise InvalidParametersError(f"k-approval reachability holds outcomes in bytes, so m must be at most "
                                         f"{MAX_M}, got {m}")
        _weigh(rule, m, n, budget, table=fixed is None)
        check_enumerable(m)
    if rule.k is not None:
        return _kapproval_reachable(rule.k, n, fixed, tiebreak)
    relabeled = None if fixed is None else fixed.translate(_places(tiebreak))
    return _possible_outcomes(rule, n, relabeled, m, budget).translate(_back(tiebreak))


@lru_cache(maxsize=2048, typed=True)  # typed: a float budget is its own key, so it meets check_budget
def _possible_outcomes(rule, n: int, fixed, m: int, budget) -> bytes:
    # the summed query under the identity priority, as bytes in that order
    _weigh(rule, m, n, budget, table=fixed is None)
    if fixed is None:  # the first ballot is free too: the rows of all its tallies
        return bytes(sorted(set().union(*(_row(rule, m, n, u) for u in _units(rule, m, n)))))
    return _row(rule, m, n, rules._tally(rule, m, n, (fixed,)))


@lru_cache(maxsize=512)
def _units(rule, m: int, n: int, top=None) -> tuple:
    # the distinct one-ballot tallies, for n voters, of the m! rankings as bytes, or of those ranking *top* first
    rankings = map(bytes, enumerate_rankings(m))
    return tuple(dict.fromkeys(rules._tally(rule, m, n, (r,)) for r in rankings if top in (None, r[0])))


def _distinct(rule, m: int, n: int, top=None) -> int:
    # len(_units(rule, m, n, top)), none built: a scoring rule's one-ballot tally is where its canonical weights
    # land, m!/prod(c!) ways for the counts c of equal weights (top takes a first); any other's gives the ranking
    ws = list(rule.weights or range(m))[top is not None:]
    return math.factorial(len(ws)) // math.prod(math.factorial(ws.count(w)) for w in set(ws))


def _weigh(rule, m: int, n: int, budget, table: bool = False, backed: bool = False) -> None:
    # A summed search forms f*C(d+f-1, f) tallies to build the distinct sums of f = n-1 free ballots' d one-ballot
    # tallies (f steps, each adding every one-ballot tally to every sum of one ballot fewer), then one per sum and
    # row: one row for a query, d for a table or the all-free query, m tables of backers ranking each top first
    # when backed.  Weighed before any is built as its larger phase, max(f, rows)*C(d+f-1, f) summed tallies
    f, rows = n - 1, _distinct(rule, m, n) if table else 1
    weight = max(f, rows) * math.comb(_distinct(rule, m, n, 0 if backed else None) + f - 1, f)
    check_budget(m * weight if backed else weight, budget, "summed tallies")


@lru_cache(maxsize=1)
def _sums(rule, m: int, n: int, top=None) -> frozenset:
    # the distinct tallies of n-1 free ballots (of _units(top)), one set kept, as every row of a table reads it:
    # from the empty tally, add each one-ballot tally n-1 times, dropping duplicates at each step
    units, sums = _units(rule, m, n, top), frozenset((rules._tally(rule, m, n, ()),))
    for _ in range(n - 1):
        sums = frozenset(s + u for s in sums for u in units)
    return sums


@lru_cache(maxsize=2048)
def _row(rule, m: int, n: int, tally) -> bytes:
    # the winners under the identity of one ballot's tally plus each sum, cut short once all m are found, sorted
    decide, identity, found = rules._decider(rule, m, n), _RANGE[m], set()
    for s in _sums(rule, m, n):
        found.add(decide(tally + s, identity))
        if len(found) == m:
            break
    return bytes(sorted(found))


# Each report's row of a brute-force table is the summed search, k-approval included (its one-ballot tallies are
# its approval sets), so the table never reads the closed form.  A table of d distinct one-ballot tallies weighs
# max(n-1, d) * C(d+n-2, n-1) summed tallies, for k-approval with d >= n-1 the approval-set count.


@lru_cache(maxsize=64, typed=True)  # typed, as _possible_outcomes
def _bruteforce_feasible_map(rule: rules.RuleSpec, n: int, m: int, budget=None) -> dict:
    # the identity's table, keyed by all m! rankings as bytes in enumerate_rankings order, which the WOM scans rely
    # on, each row as bytes in that order
    check_enumerable(m)
    _weigh(rule, m, n, budget, table=True)
    return {r: _possible_outcomes(rule, n, r, m, budget) for r in map(bytes, enumerate_rankings(m))}


def _almost_unanimous(rule, m: int, n: int, budget) -> bool:
    # whether, under the identity, each dissenting ballot's tally plus each sum of n-1 backers ranking t first
    # elects t, for every t; weighed as m tables over the backers' tallies, stopping at the first other winner
    _weigh(rule, m, n, budget, table=True, backed=True)
    decide, identity = rules._decider(rule, m, n), _RANGE[m]
    return all(decide(u + s, identity) == top
               for top in range(m) for u in _units(rule, m, n) for s in _sums(rule, m, n, top))


possible_outcomes.cache_info = _possible_outcomes.cache_info
possible_outcomes.cache_clear = _possible_outcomes.cache_clear
ccum_greedy_kapproval.cache_info = _greedy_ballots.cache_info
ccum_greedy_kapproval.cache_clear = _greedy_ballots.cache_clear
