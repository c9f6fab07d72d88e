"""Winner determination for positional scoring rules, STV, runoff and Copeland.

All score arithmetic is exact (ints and fractions.Fraction), so score ties are
detected exactly; ties between outcomes are resolved by a fixed tie-break
priority order.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import lshift
from typing import NamedTuple, Sequence

from .core import Profile, check_int, check_profile, make_tiebreak
from .errors import DimensionMismatchError, InvalidParametersError, UnsupportedRuleError

SCORING_RULE_NAMES = frozenset(
    {"scoring", "kapproval", "plurality", "antiplurality", "borda", "dowdall", "vetofamily", "paperfamily"}
)
RULE_NAMES = SCORING_RULE_NAMES | {"stv", "runoff", "copeland"}


def make_score_vector(weights: Sequence) -> tuple:
    """Validate positional weights: non-increasing with at least one strict drop."""
    ws = _fractions(weights, "weights")
    if len(ws) < 2:
        raise InvalidParametersError("a score vector needs at least two weights")
    for a, b in zip(ws, ws[1:]):
        if a < b:
            raise InvalidParametersError(f"weights must be non-increasing, got {a} < {b}")
    if ws[0] == ws[-1]:
        raise InvalidParametersError("weights must decrease somewhere (constant vectors select nothing)")
    return ws


def _fractions(values, what: str) -> tuple:
    try:
        return tuple(Fraction(v) for v in values)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise InvalidParametersError(f"{what} must be numbers, got {values!r}") from exc


class RuleSpec(NamedTuple):
    """A voting rule plus its parameters; materializes to weights per m."""

    name: str
    k: int | None = None
    weights: tuple | None = None
    omega: Fraction | None = None
    eps: Fraction | None = None

    @property
    def is_scoring(self) -> bool:
        return self.name in SCORING_RULE_NAMES


def check_rule(rule) -> RuleSpec:
    """*rule* if it is a RuleSpec; else InvalidParametersError, so no AttributeError escapes for one."""
    if isinstance(rule, RuleSpec):
        return rule
    raise InvalidParametersError(f"rule must be a RuleSpec, got {rule!r}")


def borda() -> RuleSpec:
    return RuleSpec("borda")


def plurality() -> RuleSpec:
    return RuleSpec("plurality")


def antiplurality() -> RuleSpec:
    return RuleSpec("antiplurality")


def dowdall() -> RuleSpec:
    return RuleSpec("dowdall")


def paperfamily() -> RuleSpec:
    """The strict scoring family (m+2, m+1, ..., 4, 0) with a large tail gap."""
    return RuleSpec("paperfamily")


def kapproval(k: int) -> RuleSpec:
    return RuleSpec("kapproval", k=check_int(k, "k", 1))


def scoring(weights: Sequence) -> RuleSpec:
    return RuleSpec("scoring", weights=make_score_vector(weights))


def vetofamily(omega, eps) -> RuleSpec:
    """Strict scoring family (w+m*e, ..., w+2*e, 0); needs w > m*e*(n-1)."""
    omega, eps = _fractions((omega, eps), "omega and eps")
    if omega <= 0 or eps <= 0:
        raise InvalidParametersError("vetofamily needs omega > 0 and eps > 0")
    return RuleSpec("vetofamily", omega=omega, eps=eps)


def stv() -> RuleSpec:
    return RuleSpec("stv")


def runoff() -> RuleSpec:
    return RuleSpec("runoff")


def copeland() -> RuleSpec:
    return RuleSpec("copeland")


def score_vector(rule: RuleSpec, m: int, n: int | None = None) -> tuple:
    """Materialize the exact score vector of a scoring rule for m outcomes.

    For the vetofamily the constraint omega > m*eps*(n-1) is checked whenever
    the voter count n is supplied.
    """
    check_rule(rule)
    check_int(m, "a scoring rule's m", 2)
    if rule.name == "borda":
        return tuple(Fraction(m - 1 - i) for i in range(m))
    if rule.name == "plurality":
        return (Fraction(1),) + (Fraction(0),) * (m - 1)
    if rule.name == "antiplurality":
        return (Fraction(1),) * (m - 1) + (Fraction(0),)
    if rule.name == "dowdall":
        return tuple(Fraction(1, i + 1) for i in range(m))
    if rule.name == "paperfamily":
        return tuple(Fraction(m + 2 - i) for i in range(m - 1)) + (Fraction(0),)
    if rule.name == "kapproval":
        check_int(rule.k, f"k-approval's k at m={m}", 1, m - 1)
        return (Fraction(1),) * rule.k + (Fraction(0),) * (m - rule.k)
    if rule.name == "vetofamily":
        if n is not None and rule.omega <= m * rule.eps * (check_int(n, "n") - 1):
            raise InvalidParametersError(
                f"vetofamily needs omega > m*eps*(n-1): {rule.omega} <= {m * rule.eps * (n - 1)}"
            )
        head = tuple(rule.omega + (m - i) * rule.eps for i in range(m - 1))
        return head + (Fraction(0),)
    if rule.name == "scoring":
        if len(rule.weights) != m:
            raise InvalidParametersError(f"score vector has {len(rule.weights)} weights, m={m}")
        return rule.weights
    raise InvalidParametersError(f"{rule.name} is not a positional scoring rule")


def _canonical_weights(rule: RuleSpec, m: int, n: int | None = None) -> tuple:
    """The one integer score vector of a scoring rule for m outcomes.

    Each ballot gives every outcome one weight, so a positive affine map of the
    weights keeps every score order: the vector less its last weight, with
    denominators cleared and divided by the gcd, stands for all of them.
    """
    ws = score_vector(rule, m, n)
    scale = math.lcm(*(w.denominator for w in ws))
    ints = [int((w - ws[-1]) * scale) for w in ws]
    gcd = math.gcd(*ints)
    return tuple(w // gcd for w in ints)


@lru_cache(maxsize=512)
def _resolve(rule: RuleSpec, m: int, n: int | None = None) -> RuleSpec:
    # the rule that every search, cache and kernel reads for a checked RuleSpec, m outcomes and n voters (None skips
    # vetofamily's bound): a scoring rule becomes the "scoring" spec of its _canonical_weights, k their sum if 0/1,
    # so every name of one vector is one key; STV, runoff and Copeland keep their name.  An unknown name is named here
    if rule.name not in RULE_NAMES:
        raise UnsupportedRuleError(f"unknown rule {rule.name!r}")
    if not rule.is_scoring:
        return RuleSpec(rule.name)
    ws = _canonical_weights(rule, m, n)
    return RuleSpec("scoring", sum(ws) if set(ws) == {0, 1} else None, ws)


def kapproval_k(rule: RuleSpec, m: int) -> int | None:
    """The k of a k-approval rule, or None: a scoring rule whose canonical vector is 0/1 approves its sum."""
    return _resolve(check_rule(rule), check_int(m, "m")).k  # checked before the cache, so 4.0 never hits 4's entry


def scoring_scores(weights: Sequence, profile: Profile) -> dict:
    """Total positional score of every outcome under the given weights.

    Exact: each weight is read as a Fraction, and integral ones are summed as ints.
    """
    m = check_profile(profile).m
    ws = [int(f) if f.denominator == 1 else f for f in _fractions(weights, "weights")]
    if len(ws) != m:
        raise DimensionMismatchError(f"{len(ws)} weights for {m} outcomes")
    return dict(enumerate(_totals(ws, m, profile.ballots)))


def _totals(ws, m: int, ballots) -> list:
    # score sums for weights already exact (ints or Fractions), one per position
    totals = [0] * m
    for ballot in ballots:
        for w, o in zip(ws, ballot):
            totals[o] += w
    return totals


def _check_tiebreak(tiebreak, m: int) -> tuple:
    if hasattr(tiebreak, "__len__") and len(tiebreak) != m:  # one without a length is make_tiebreak's to name
        raise DimensionMismatchError(f"tie-break over {len(tiebreak)} outcomes, profile has {m}")
    return make_tiebreak(tiebreak, m)


def scoring_winner(weights: Sequence, profile: Profile, tiebreak) -> int:
    """Highest-scoring outcome; exact score ties go to the higher priority."""
    order = _check_tiebreak(tiebreak, check_profile(profile).m)
    return max(order, key=scoring_scores(weights, profile).__getitem__)


def scoring_cowinners(weights: Sequence, profile: Profile) -> frozenset:
    """All outcomes attaining the maximum score (no tie-break applied)."""
    scores = scoring_scores(weights, profile)
    top = max(scores.values())
    return frozenset(o for o, s in scores.items() if s == top)


def pairwise_tally(profile: Profile) -> list:
    """tally[a][b] = number of ballots ranking a above b."""
    m = check_profile(profile).m
    tally = [[0] * m for _ in range(m)]
    for ballot in profile.ballots:
        for i, a in enumerate(ballot):
            row = tally[a]
            for b in ballot[i + 1 :]:
                row[b] += 1
    return tally


def condorcet_winner(profile: Profile):
    """The outcome beating every other by strict pairwise majority, or None."""
    tally = pairwise_tally(profile)  # checks the profile
    n = profile.n
    for a in range(profile.m):
        if all(2 * tally[a][b] > n for b in range(profile.m) if b != a):
            return a
    return None


def _stv(ballots, order) -> int:
    """Drop the outcome with fewest first places among survivors, the lowest priority among ties; the last wins."""
    remaining = list(reversed(order))  # lowest priority first, so min drops it among ties
    while len(remaining) > 1:
        firsts = dict.fromkeys(remaining, 0)
        for ballot in ballots:
            for o in ballot:
                if o in firsts:
                    firsts[o] += 1
                    break
        remaining.remove(min(remaining, key=firsts.__getitem__))
    return remaining[0]


class _Ballots(tuple):  # STV's tally: its ballots, sorted, so that the sum of two tallies is their multiset union
    def __add__(self, other):
        return _Ballots(sorted(tuple.__add__(self, other)))


@lru_cache(maxsize=512)
def _layout(rule: RuleSpec, m: int, n: int) -> tuple:
    # (weights, shifts, mask) of a resolved rule: a tally is one int whose field i sits at bit shifts[i], mask wide,
    # room for n ballots.  Field o totals outcome o's non-zero place weights, first places for runoff and Copeland,
    # which add field m + a*m + b: the ballots ranking a above b
    ws = tuple(w for w in rule.weights if w) if rule.is_scoring else (1,)
    bits = (n * ws[0]).bit_length()
    return ws, range(0, (m if rule.is_scoring else m + m * m) * bits, bits), (1 << bits) - 1


def _fields(rule: RuleSpec, m: int, n: int, ballots) -> list:
    # what *rule* reads of at most n ballots over m outcomes, field by field as _layout numbers them: scoring totals,
    # Copeland's pairwise tally, runoff's first places and pairwise tally.  STV reads its ballots
    if rule.name == "stv":
        return ballots
    ws, shifts, _ = _layout(rule, m, n)
    fields = _totals(ws, m, ballots)
    if len(shifts) > m:
        fields += [c for row in pairwise_tally(Profile(tuple(ballots), m)) for c in row]
    return fields


def _tally(rule: RuleSpec, m: int, n: int, ballots) -> int | _Ballots:
    # _fields packed for a summed search, additive: the tally of two sets of ballots is the sum.  One int by
    # _layout's shifts; STV: _Ballots
    if rule.name == "stv":
        return _Ballots(sorted(ballots))
    return sum(map(lshift, _fields(rule, m, n, ballots), _layout(rule, m, n)[1]))


@lru_cache(maxsize=512)
def _chooser(rule: RuleSpec, m: int):
    # choose(fields, order), the winner of a rule's _fields under a priority order: each walks the order, and max,
    # min and the stable sorted keep the first best outcome they meet, so ties go to priority
    if rule.name == "stv":
        return _stv
    kind = rule.name
    if kind == "runoff":
        check_int(m, "runoff's m", 2)
    cells = [[(m + a * m + b, m + b * m + a) for b in range(m)] for a in range(m)] if kind == "copeland" else None

    def choose(f, order):
        if kind == "copeland":  # pairwise wins less losses, which orders as 2 per win and 1 per tie
            return max(order, key=lambda a: sum((f[ab] > f[ba]) - (f[ab] < f[ba]) for ab, ba in cells[a]))
        if kind != "runoff":
            return max(order, key=f.__getitem__)
        a, b = sorted(order, key=lambda o: -f[o])[:2]  # the top two by first places meet in a pairwise majority
        ab, ba = f[m + a * m + b], f[m + b * m + a]
        return a if ab > ba else b if ab < ba else min(a, b, key=order.index)  # a tie to the higher priority
    return choose


@lru_cache(maxsize=512)
def _decider(rule: RuleSpec, m: int, n: int):
    # decide(tally, order), the winner of a _tally of at most n ballots: _chooser on its unpacked fields
    if rule.name == "stv":
        return _stv
    _, shifts, mask = _layout(rule, m, n)
    choose = _chooser(rule, m)
    return lambda tally, order: choose([tally >> s & mask for s in shifts], order)


def _elect(rule: RuleSpec, profile: Profile, order) -> int:
    # winner of a resolved rule under a tie-break checked once per search: _chooser on its fields, never packed
    return _chooser(rule, profile.m)(_fields(rule, profile.m, profile.n, profile.ballots), order)


def winner(rule: RuleSpec, profile: Profile, tiebreak) -> int:
    """Evaluate any supported rule on a profile with a fixed tie-break; an unknown rule is named before it is read."""
    check_profile(profile)
    return _elect(_resolve(check_rule(rule), profile.m, profile.n), profile, _check_tiebreak(tiebreak, profile.m))


# ---------------------------------------------------------------------------
# Rule syntax used on the command line, e.g. "borda", "kapproval:k=2",
# "scoring:w=6,5,4,0", "vetofamily:omega=9,eps=1".


def parse_rule(text: str) -> RuleSpec:
    if not isinstance(text, str):
        raise InvalidParametersError(f"rule text must be a string, got {text!r}")
    name, _, params = text.strip().partition(":")
    name = name.lower()
    if name not in RULE_NAMES:
        raise InvalidParametersError(f"unknown rule {name!r}")
    try:
        if name == "kapproval":
            return kapproval(int(_single_param(params, "k")))
        if name == "scoring":
            return scoring([Fraction(tok) for tok in _single_param(params, "w").split(",")])
        if name == "vetofamily":
            pairs = [item.split("=", 1) for item in params.split(",")]
            if sorted(key for key, _ in pairs) != ["eps", "omega"]:
                raise ValueError("vetofamily takes omega and eps, once each")
            values = dict(pairs)
            return vetofamily(Fraction(values["omega"]), Fraction(values["eps"]))
    except (ValueError, KeyError, ZeroDivisionError) as exc:
        raise InvalidParametersError(f"bad parameters for {name}: {params!r}") from exc
    if params:
        raise InvalidParametersError(f"rule {name} takes no parameters, got {params!r}")
    return RuleSpec(name)


def _single_param(params: str, key: str) -> str:
    prefix = key + "="
    if not params.startswith(prefix):
        raise ValueError(f"expected {prefix}...")
    return params[len(prefix) :]


def rule_label(rule: RuleSpec) -> str:
    """Round-trippable text form of a RuleSpec."""
    if check_rule(rule).name == "kapproval":
        return f"kapproval:k={rule.k}"
    if rule.name == "scoring":
        return "scoring:w=" + ",".join(str(w) for w in rule.weights)
    if rule.name == "vetofamily":
        return f"vetofamily:omega={rule.omega},eps={rule.eps}"
    return rule.name
