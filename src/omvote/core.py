"""Core election types: rankings, profiles, tie-breaks, enumeration and sampling.

Outcomes are dense integer indices 0..m-1.  A ranking is a tuple holding a
permutation of those indices, most preferred first.  A tie-break order is the
same kind of tuple, highest priority first.  Everything here is immutable and
safe to share between threads.
"""

from __future__ import annotations

import itertools
import operator
import struct
from typing import Iterator, Sequence

from .errors import (
    DuplicateOutcomeError,
    InvalidParametersError,
    OutOfRangeIndexError,
    ProfileFormatError,
    TooLargeError,
    WrongLengthError,
)

Ranking = tuple  # permutation of range(m), most preferred first
TieBreak = tuple  # permutation of range(m), highest priority first

#: Hard cap on enumerate_rankings (8! = 40320 rankings).
MAX_ENUMERATED_OUTCOMES = 8

#: Default cap on the size of an exhaustive search: ballot tuples, or summed tallies.
DEFAULT_BUDGET = 10**8

#: Most outcomes of a query that holds outcomes or places in bytes: the experiment grid and k-approval reachability.
MAX_M = 256

_PLACES = bytes(range(MAX_M))  # place p as byte p
_RANGE = tuple(_PLACES[:m] for m in range(MAX_M + 1))  # _RANGE[m]: places 0..m-1 as bytes, made once


def check_int(value, what: str, least: int | None = None, most: int | None = None) -> int:
    """*value* if it is an int in [least, most], a None bound being open; else InvalidParametersError.

    The one check of a count or index taken from a caller (voters, outcomes,
    approvals, manipulators, targets, samples, seeds, budgets), so the
    package has one idea of a valid count and no TypeError escapes for one.
    A bool is not a count: True would pass as 1 and be reported as True.
    """
    if (isinstance(value, int) and not isinstance(value, bool)
            and (least is None or value >= least) and (most is None or value <= most)):
        return value
    low, high = ("" if least is None else f" >= {least}"), ("" if most is None else f" <= {most}")
    raise InvalidParametersError(f"{what} must be an integer{low}{low and high and ' and'}{high}, got {value!r}")


def make_ranking(order: Sequence[int], m: int | None = None) -> Ranking:
    """Validate *order* as a permutation of range(m) and return it as a tuple of ints.

    If *m* is omitted it is inferred from the length of *order*.  A tuple or
    list of at most MAX_M entries takes one test in C (_ranking_bytes); any
    other input, and any input that test does not accept, takes the loop
    that names the fault.
    """
    checked = _ranking_bytes(order, m)
    return checked if checked.__class__ is tuple else tuple(checked)


def _ranking_bytes(order, m=None):
    # *order* checked as make_ranking checks it: as bytes up to MAX_M outcomes, past that as a tuple.  A tuple or
    # list of at most MAX_M entries, m of them if m is given, is tested in C: bytes() reads each entry through
    # __index__ (an exact tuple or list is never read as a buffer or by __bytes__), no byte may survive deleting
    # those below the length, and the places table of a repeated byte maps its first place to its last.  The test
    # only accepts: anything else takes the loop, which names the first fault.
    size = len(order) if order.__class__ is tuple or order.__class__ is list else MAX_M + 1
    if size <= MAX_M and (m is None or size == m):  # 3.0 == 3, as in the loop
        try:
            checked = bytes(order)
        except (TypeError, ValueError):  # an entry without __index__, or outside range(256)
            pass
        else:
            places = _RANGE[size]
            if not checked.translate(None, places) and checked.translate(_places(checked)) == places:
                return checked
    try:
        order = tuple(map(operator.index, order))
    except TypeError:
        raise OutOfRangeIndexError(f"outcomes must be integers, got {order!r}") from None
    if m is not None and len(order) != m:  # m is checked off the hot path; 3.0 == 3 passes
        raise WrongLengthError(f"expected {check_int(m, 'm')} entries, got {len(order)}")
    m = len(order)  # equal to a given m, and an int even where that m is 3.0
    seen = [False] * m
    for o in order:
        if o < 0 or o >= m:
            raise OutOfRangeIndexError(f"outcome {o} not in [0, {m})")
        if seen[o]:
            raise DuplicateOutcomeError(f"outcome {o} listed twice")
        seen[o] = True
    return bytes(order) if m <= MAX_M else order


def make_tiebreak(priority: Sequence[int], m: int | None = None) -> TieBreak:
    """Validate a tie-break priority order (same shape as a ranking)."""
    return make_ranking(priority, m)


def identity_tiebreak(m: int) -> TieBreak:
    """Priority order 0 > 1 > ... > m-1, for m >= 1."""
    return tuple(range(check_int(m, "m", 1)))


def ranking_positions(ranking: Ranking) -> list:
    """Inverse permutation: positions[o] = rank of outcome o (0 = best)."""
    positions = [0] * len(ranking)
    for rank, o in enumerate(ranking):
        positions[o] = rank
    return positions


def _places(ranking: bytes) -> bytes:
    # ranking_positions of a checked byte ranking, as a translate table: byte o holds outcome o's place, and the
    # bytes past m map to themselves.  The one places table of bytes
    return bytes.maketrans(ranking, _RANGE[len(ranking)])


def _back(tiebreak: bytes) -> bytes:
    # the translate table that maps an identity label o back to the caller's, tiebreak[o]: the tie-break's own bytes
    return tiebreak + _PLACES[len(tiebreak):]


_set = object.__setattr__


class Profile:
    """An ordered list of ballots over a common set of m outcomes; immutable, equal and hashed by its fields."""

    __slots__ = __match_args__ = ("ballots", "m")

    def __init__(self, ballots: tuple, m: int):
        _set(self, "ballots", ballots)
        _set(self, "m", m)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.ballots, self.m) == (other.ballots, other.m)

    def __hash__(self):
        return hash((self.ballots, self.m))

    def __repr__(self):
        return f"Profile(ballots={self.ballots!r}, m={self.m!r})"

    def __reduce__(self):  # pickle and copy rebuild it through __init__, past __setattr__
        return Profile, (self.ballots, self.m)

    @property
    def n(self) -> int:
        return len(self.ballots)

    def __iter__(self):
        return iter(self.ballots)


def check_profile(profile) -> Profile:
    """*profile* if it is a Profile; else InvalidParametersError, so no AttributeError escapes for one."""
    if isinstance(profile, Profile):
        return profile
    raise InvalidParametersError(f"profile must be a Profile, got {profile!r}")


def make_profile(ballots: Sequence[Sequence[int]], m: int | None = None) -> Profile:
    """Validate every ballot and assemble a Profile (n >= 1, m >= 1)."""
    ballots = _ballots(ballots)
    if not ballots:
        raise InvalidParametersError("a profile needs at least one ballot")
    if m is None:
        m = len(make_ranking(ballots[0]))
    ballots = tuple(make_ranking(b, m) for b in ballots)
    return Profile(ballots, check_int(len(ballots[0]), "m", 1))  # an int even where m is 3.0


def _ballots(ballots) -> tuple:
    try:
        return tuple(ballots)
    except TypeError:
        raise InvalidParametersError(f"ballots must be a sequence of rankings, got {ballots!r}") from None


def check_enumerable(m: int) -> int:
    """*m* if its m! rankings may be enumerated; TooLargeError beyond MAX_ENUMERATED_OUTCOMES.

    A search over rankings checks this before it builds anything of size m.
    """
    if check_int(m, "m", 1) > MAX_ENUMERATED_OUTCOMES:
        raise TooLargeError(f"refusing to enumerate {m}! rankings (m > {MAX_ENUMERATED_OUTCOMES})")
    return m


def enumerate_rankings(m: int) -> Iterator:
    """Yield all m! rankings in lexicographic order."""
    return itertools.permutations(range(check_enumerable(m)))


def check_budget(count: int, budget: int | None, what: str = "ballot tuples") -> None:
    """Raise TooLargeError when a search over *count* *what* exceeds *budget* (default 10^8).

    The one budget gate: every exhaustive search is weighed here once, up front, in ballot tuples or summed
    tallies, and an entry point that may weigh nothing checks its budget, an int >= 0 or None, by weighing 0.
    The budget bounds work, not memory: a summed search of f free ballots over d one-ballot tallies holds up to
    C(d+f-1, f) tallies at once (ccum._sums): 12.7 million, an estimated 1.3 GiB, for a query with one fixed
    ballot at m=7, n=3, which the default budget admits.
    """
    if count > (DEFAULT_BUDGET if budget is None else check_int(budget, "budget", 0)):
        raise TooLargeError(f"{count} {what} exceed the enumeration budget")


def enumerate_profiles(m: int, voters: int, budget: int | None = None, fixed=()) -> Iterator[Profile]:
    """Profile(fixed + tup) for each of the (m!)^voters tuples of free ballots.

    The tuples come in lexicographic order after the *fixed* ballots, which
    every profile starts with.  voters=0 is allowed when *fixed* is non-empty
    and yields the fixed profile alone.  ccum_bruteforce searches through
    here (reachable sets sum tallies instead), so this is where it is weighed
    against *budget* (default 10^8 tuples); raises TooLargeError beyond it.
    """
    fixed = tuple(make_ranking(b, m) for b in _ballots(fixed))
    if not (check_int(voters, "voters", 0) or fixed):
        raise InvalidParametersError("need at least one voter")
    rankings = tuple(enumerate_rankings(m))
    check_budget(len(rankings) ** voters, budget)
    return (Profile(fixed + tup, m) for tup in itertools.product(rankings, repeat=voters))


# ---------------------------------------------------------------------------
# Deterministic sampling
#
# Each (seed, index) pair keys its own SplitMix64 stream, so sample i is the
# same no matter how many samples were drawn before it or on which worker.
# A stream is stepped alone by _fisher_yates, its definition, or together
# with the streams of the next indices, as lanes of one integer, by
# _fisher_yates_many; both give the same rankings.

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z: int, mask: int = _MASK64) -> int:
    # SplitMix64's mixer in every 128-bit slot of z whose low 64 bits mask covers (one slot by default); each
    # multiplicand is masked to those bits, so that its product stays in its slot, and bits above them are garbage
    z = ((z ^ (z >> 30)) & mask) * 0xBF58476D1CE4E5B9 & mask
    z = ((z ^ (z >> 27)) & mask) * 0x94D049BB133111EB & mask
    return z ^ (z >> 31)


def sample_ranking(m: int, seed: int, index: int) -> Ranking:
    """Uniformly random ranking, fully determined by (m, seed, index).

    Fisher-Yates driven by the SplitMix64 stream of (seed, index); bounded
    draws use rejection sampling so every permutation is exactly equally
    likely.  The checks are made here; the shuffle is _fisher_yates, which
    steps the one stream alone.  The experiment grids step the streams of
    consecutive indices in lanes, through _fisher_yates_many with the seed's
    key and the steps made once, so their truth i of m outcomes is still
    sample_ranking(m, seed, i).
    """
    key = _seed_key(check_int(seed, "seed"))
    return _fisher_yates(m, key, check_int(index, "index"), _fisher_yates_steps(check_int(m, "m", 1)))


def _seed_key(seed: int) -> int:
    return _mix64((seed & _MASK64) ^ _GOLDEN)


def _fisher_yates_steps(m: int) -> tuple:
    # (j, j+1, limit) of each step: a draw r is kept iff r < limit, the largest multiple of j+1 up to 2^64
    return tuple((j, j + 1, (1 << 64) - (1 << 64) % (j + 1)) for j in range(m - 1, 0, -1))


def _fisher_yates(m: int, key: int, index: int, steps: tuple) -> Ranking:
    # shuffle range(m) by the stream of (key, index), taking the steps of _fisher_yates_steps(m)
    mask, golden, mix = _MASK64, _GOLDEN, _mix64  # locals: about 10% of a draw goes to global lookups
    state = mix(key ^ (index & mask))
    arr = list(range(m))
    for j, bound, limit in steps:
        while True:
            state = (state + golden) & mask
            r = mix(state)
            if r < limit:
                break
        i = r % bound
        arr[j], arr[i] = arr[i], arr[j]
    return tuple(arr)


def _fisher_yates_many(m: int, key: int, start: int, count: int, steps: tuple) -> list:
    """[_fisher_yates(m, key, start + c, steps) for c in range(count)], the count streams stepped together.

    Stream c's 64-bit state sits in the 128-bit slot c of one integer, so a
    step is a few whole-integer operations for all lanes: the golden
    increment, then the mixer, which masks every slot to its low 64 bits
    before each multiply so that a lane's product stays in its slot.  The
    lanes are read out, byte order explicit, for each one's bounded index
    and swap.  A lane whose draw is rejected (probability below 2^-59 per
    step) has run ahead of its stream; it is drawn again alone by
    _fisher_yates.  The integer holds 16 bytes per lane, so callers bound
    count.
    """
    slots = struct.Struct("<" + "Q8x" * count)  # slot c: lane c in its low 8 bytes, then 8 zero bytes
    one = int.from_bytes(slots.pack(*[1] * count), "little")
    mask, golden = _MASK64 * one, _GOLDEN * one
    seeds = slots.pack(*[key ^ ((start + c) & _MASK64) for c in range(count)])
    state = _mix64(int.from_bytes(seeds, "little"), mask) & mask
    arrs = [list(range(m)) for _ in range(count)]
    redraw = set()
    for j, bound, limit in steps:
        state = (state + golden) & mask
        lanes = slots.unpack(_mix64(state, mask).to_bytes(slots.size, "little"))
        if max(lanes) >= limit:  # a lane's draw is rejected
            redraw.update(c for c, r in enumerate(lanes) if r >= limit)
        for arr, r in zip(arrs, lanes):
            i = r % bound
            arr[j], arr[i] = arr[i], arr[j]
    draws = [tuple(arr) for arr in arrs]
    for c in redraw:
        draws[c] = _fisher_yates(m, key, start + c, steps)
    return draws


# ---------------------------------------------------------------------------
# Profile text format
#
#   line 1:        n m
#   lines 2..n+1:  comma-separated outcome indices, most preferred first
#   optional:      tiebreak: i1,i2,...,im
#
# '#' starts a comment line; blank lines are ignored; UTF-8 with \n endings.


def parse_profile(text: str) -> tuple:
    """Parse the profile text format; returns (Profile, TieBreak or None)."""
    if not isinstance(text, str):
        raise ProfileFormatError(f"profile text must be a string, got {text!r}")
    lines = [ln.strip() for ln in text.split("\n")]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ProfileFormatError("empty profile text")
    head = lines[0].split()
    if len(head) != 2:
        raise ProfileFormatError(f"first line must be 'n m', got {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise ProfileFormatError(f"first line must be 'n m', got {lines[0]!r}") from None
    body = lines[1:]
    tiebreak = None
    if body and body[-1].lower().startswith("tiebreak:"):
        raw = body[-1].split(":", 1)[1]
        tiebreak = make_tiebreak(_parse_index_list(raw), m)
        body = body[:-1]
    if len(body) != n:
        raise ProfileFormatError(f"expected {n} ballot lines, found {len(body)}")
    ballots = [make_ranking(_parse_index_list(ln), m) for ln in body]
    return make_profile(ballots, m), tiebreak


def _parse_index_list(raw: str) -> list:
    try:
        return [int(tok) for tok in raw.split(",")]
    except ValueError:
        raise ProfileFormatError(f"malformed index list {raw!r}") from None


def format_profile(profile: Profile, tiebreak: TieBreak | None = None) -> str:
    """Render a profile (and optional tie-break) in the text format."""
    lines = [f"{check_profile(profile).n} {profile.m}"]
    lines.extend(",".join(str(o) for o in ballot) for ballot in profile.ballots)
    if tiebreak is not None:  # checked, so the text parses back
        lines.append("tiebreak: " + ",".join(str(o) for o in make_tiebreak(tiebreak, profile.m)))
    return "\n".join(lines) + "\n"


def read_profile_file(path) -> tuple:
    with open(path, encoding="utf-8") as fh:
        return parse_profile(fh.read())


def write_profile_file(path, profile: Profile, tiebreak: TieBreak | None = None) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_profile(profile, tiebreak))
