"""Rankings, enumeration, sampling, and the profile text format."""

import array
import ast
import math
import operator
import re
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import omvote
from omvote import (
    DuplicateOutcomeError,
    InvalidParametersError,
    OutOfRangeIndexError,
    ProfileFormatError,
    TooLargeError,
    VotingError,
    WrongLengthError,
    enumerate_profiles,
    enumerate_rankings,
    format_profile,
    make_profile,
    make_ranking,
    make_tiebreak,
    parse_profile,
    sample_ranking,
)
from omvote import ccum, core, manipulability, rules
from omvote.experiments import run_experiment


class TestMakeRanking:
    def test_valid_permutation(self):
        assert make_ranking([2, 0, 1]) == (2, 0, 1)

    def test_duplicate(self):
        with pytest.raises(DuplicateOutcomeError):
            make_ranking([0, 0, 1])

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeIndexError):
            make_ranking([0, 1, 3], m=3)

    def test_wrong_length(self):
        with pytest.raises(WrongLengthError):
            make_ranking([0, 1], m=3)

    def test_tiebreak_same_validation(self):
        assert make_tiebreak([1, 0]) == (1, 0)
        with pytest.raises(DuplicateOutcomeError):
            make_tiebreak([1, 1])

    @pytest.mark.parametrize("order", [(0, 1.5, 2), (0, 1.0, 2), ("a", "b"), (None, 1), "012"])
    def test_non_integer_entries(self, order):
        # entries are not truncated or parsed: a ballot with them is another ballot
        with pytest.raises(OutOfRangeIndexError):
            make_ranking(order)

    def test_length_stands_for_an_equal_m(self):
        # m=3.0 equals the length, so the ranking is valid; its count is the int length
        assert make_ranking((2, 0, 1), 3.0) == (2, 0, 1)


def _reference_make_ranking(order, m=None):
    # make_ranking before its test in C, kept verbatim as the reference: the loop alone
    try:
        order = tuple(map(operator.index, order))
    except TypeError:
        raise OutOfRangeIndexError(f"outcomes must be integers, got {order!r}") from None
    if m is not None and len(order) != m:
        raise WrongLengthError(f"expected {core.check_int(m, 'm')} entries, got {len(order)}")
    m = len(order)
    seen = [False] * m
    for o in order:
        if o < 0 or o >= m:
            raise OutOfRangeIndexError(f"outcome {o} not in [0, {m})")
        if seen[o]:
            raise DuplicateOutcomeError(f"outcome {o} listed twice")
        seen[o] = True
    return order


class _Index:
    # an outcome that is an integer only through __index__
    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value

    def __repr__(self):
        return f"_Index({self.value})"


class _ClaimsBytes(tuple):
    # a tuple subclass whose __bytes__ claims a permutation whatever it holds
    def __bytes__(self):
        return bytes(range(len(self)))


def _outcome(call):
    # what a call returns, or the class and message it raises (a generator's address masked)
    try:
        return "returned", call()
    except Exception as exc:  # compared whole, so a TypeError escaping either side is a difference too
        return type(exc), re.sub(r"0x[0-9a-f]+", "0x", str(exc))


class TestPermutationTestInC:
    """make_ranking's test in C accepts exactly what the loop accepts, with the loop's answer and refusals."""

    CONTAINERS = ["list", "tuple", "generator", "bytes", "bytearray", "memoryview", "array", "tuple-subclass"]

    @staticmethod
    def _container(kind, entries):
        # a factory of *entries* in one kind of container, or None where that kind cannot hold them
        if kind in ("bytes", "bytearray", "memoryview"):
            if not all(isinstance(e, int) and 0 <= e < 256 for e in entries):
                return None
            make = {"bytes": bytes, "bytearray": bytearray, "memoryview": lambda es: memoryview(bytes(es))}[kind]
            return lambda: make(entries)
        if kind == "array":
            if not all(isinstance(e, int) and not isinstance(e, bool) and 0 <= e < 2**16 for e in entries):
                return None
            return lambda: array.array("H", entries)
        return {"list": lambda: list(entries), "tuple": lambda: tuple(entries),
                "generator": lambda: (e for e in entries), "tuple-subclass": lambda: _ClaimsBytes(entries)}[kind]

    def _check(self, make, m):
        want = _outcome(lambda: _reference_make_ranking(make(), m))
        for entry in (make_ranking, make_tiebreak):
            got = _outcome(lambda: entry(make(), m))
            assert got == want
            if want[0] == "returned":
                assert all(type(o) is int for o in got[1])
        if want[0] == "returned":  # the checked bytes the queries read, or the tuple past MAX_M
            checked = core._ranking_bytes(make(), m)
            assert checked == (bytes(want[1]) if len(want[1]) <= core.MAX_M else want[1])

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_agrees_with_the_loop(self, data):
        size = data.draw(st.integers(0, 8), label="size")
        entries = list(data.draw(st.permutations(range(size)), label="permutation"))
        odd = st.one_of(st.integers(-3, size + 3), st.integers(2**64 - 1, 2**64 + 1), st.sampled_from([1.0, 2.5]),
                        st.booleans(), st.integers(0, size).map(_Index))
        for i in data.draw(st.lists(st.integers(0, max(size - 1, 0)), max_size=3), label="replaced") if size else ():
            entries[i] = data.draw(odd, label=f"entry {i}")
        if data.draw(st.booleans(), label="as bools or indexes") and size:
            entries = [bool(e) if e in (0, 1) and type(e) is int else _Index(e) if type(e) is int else e
                       for e in entries]
        m = data.draw(st.sampled_from([None, size, size + 1, size - 1, float(size), 257]), label="m")
        make = self._container(data.draw(st.sampled_from(self.CONTAINERS), label="container"), entries)
        if make is not None:
            self._check(make, m)

    @pytest.mark.parametrize("make, m", [
        (lambda: array.array("H", [256, 770]), None),  # its raw buffer reads 0, 1, 2, 3: a permutation of range(4)
        (lambda: list(range(257))[::-1], None),  # past MAX_M: the loop accepts it
        (lambda: list(range(257)), 257),
        (lambda: [0, 1, 2], 257),
        (lambda: (2, 0, 1), 3.0),
        (lambda: (2, 0), 3.0),
        (lambda: [True, False], None),
        (lambda: (1, 1, 0), None),
        (lambda: [0, 2**64, 1], None),
        (lambda: bytes([1, 0]), None),
        (lambda: memoryview(bytes([0, 0])), None),
        (lambda: _ClaimsBytes((5, 5)), None),
    ])
    def test_named_inputs(self, make, m):
        self._check(make, m)
        if isinstance(make(), array.array):
            with pytest.raises(OutOfRangeIndexError, match=r"^outcome 256 not in \[0, 2\)$"):
                make_ranking(make())


class TestEnumeration:
    def test_two_outcomes(self):
        assert list(enumerate_rankings(2)) == [(0, 1), (1, 0)]

    def test_three_outcomes(self):
        rankings = list(enumerate_rankings(3))
        assert len(rankings) == 6
        assert rankings[0] == (0, 1, 2)
        assert rankings == sorted(rankings)  # lexicographic

    def test_too_many_outcomes(self):
        with pytest.raises(TooLargeError):
            enumerate_rankings(9)

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("voters", [1, 2, 3])
    def test_profile_counts_exhaustive(self, m, voters):
        profiles = list(enumerate_profiles(m, voters))
        assert len(profiles) == math.factorial(m) ** voters
        assert len({p.ballots for p in profiles}) == len(profiles)

    def test_profile_budget(self):
        with pytest.raises(TooLargeError):
            next(enumerate_profiles(5, 4))  # 120^4 > 10^8
        # explicit budget overrides the default guard
        assert next(enumerate_profiles(5, 4, budget=10**9)) is not None

    def test_every_ballot_is_a_permutation(self):
        for profile in enumerate_profiles(3, 2):
            for ballot in profile:
                assert sorted(ballot) == [0, 1, 2]


class TestSampling:
    def test_deterministic(self):
        assert sample_ranking(3, 7, 7) == sample_ranking(3, 7, 7)
        assert sample_ranking(15, 42, 123) == sample_ranking(15, 42, 123)

    def test_single_outcome(self):
        assert sample_ranking(1, 99, 5) == (0,)

    def test_pinned_stream(self):
        # frozen regression values: the (seed, index) keyed stream must never drift
        assert [sample_ranking(5, 42, i) for i in range(4)] == [
            (2, 1, 4, 3, 0),
            (2, 3, 4, 1, 0),
            (4, 3, 1, 0, 2),
            (4, 0, 3, 1, 2),
        ]

    def test_uniformity_band(self):
        # 60k draws of 6 rankings: each expected 10000, allow +-500 (about 5.5 sigma)
        counts = Counter(sample_ranking(3, 0, i) for i in range(60_000))
        assert len(counts) == 6
        for count in counts.values():
            assert 9_500 <= count <= 10_500

    @given(st.integers(1, 8), st.integers(0, 2**64 - 1), st.integers(0, 10**6))
    def test_always_a_permutation(self, m, seed, index):
        assert sorted(sample_ranking(m, seed, index)) == list(range(m))

    @pytest.mark.parametrize("m, seed, index, expected", [
        (15, 0, 0, (10, 14, 8, 2, 4, 6, 7, 3, 0, 9, 12, 13, 5, 1, 11)),
        (15, 42, 99_999, (6, 8, 0, 12, 14, 5, 4, 9, 3, 7, 2, 11, 10, 13, 1)),
        (15, -1, 7, (0, 11, 8, 6, 9, 2, 12, 14, 4, 7, 5, 10, 13, 3, 1)),
        (15, 3, 2**64 + 5, (0, 3, 1, 6, 2, 5, 13, 9, 12, 8, 14, 10, 7, 4, 11)),
        (21, 0, 0, (1, 8, 9, 20, 16, 17, 0, 12, 14, 4, 13, 3, 19, 11, 6, 5, 18, 7, 10, 15, 2)),
        (21, 42, 99_999, (1, 6, 0, 19, 20, 14, 16, 18, 13, 12, 7, 15, 4, 3, 9, 11, 8, 17, 2, 5, 10)),
        (21, -1, 7, (10, 6, 13, 11, 8, 0, 3, 9, 15, 12, 17, 2, 18, 14, 19, 7, 5, 4, 20, 1, 16)),
        (21, 3, 2**64 + 5, (6, 14, 19, 5, 18, 16, 4, 3, 7, 2, 12, 11, 1, 9, 17, 8, 15, 10, 13, 0, 20)),
        (30, 0, 0, (11, 2, 28, 17, 25, 27, 13, 22, 23, 6, 8, 21, 20, 0, 5, 1, 3, 15, 4, 14, 12, 19, 9, 18, 24,
                    29, 16, 7, 10, 26)),
        (30, 42, 99_999, (22, 17, 20, 23, 0, 18, 6, 14, 13, 19, 27, 9, 16, 12, 29, 25, 2, 3, 15, 11, 5, 8, 4, 28,
                          7, 24, 26, 10, 21, 1)),
        (30, -1, 7, (6, 15, 18, 29, 17, 28, 20, 23, 13, 12, 2, 21, 3, 9, 0, 8, 5, 16, 25, 27, 22, 26, 14, 24, 7,
                     10, 4, 11, 19, 1)),
        (30, 3, 2**64 + 5, (25, 5, 17, 12, 6, 10, 18, 22, 4, 29, 8, 15, 11, 14, 16, 24, 21, 28, 0, 7, 20, 9, 13,
                            19, 27, 2, 1, 3, 23, 26)),
    ])
    def test_pinned_stream_at_paper_scale(self, m, seed, index, expected):
        # frozen at the experiments' m = 15 and 21..30, with a negative seed and an index past 2^64
        assert sample_ranking(m, seed, index) == expected

    @given(st.integers(1, 40), st.integers(-2**70, 2**70), st.integers(0, 2**66))
    def test_kernel_with_precomputed_steps(self, m, seed, index):
        # the grids' route: the seed's key and the steps made once, one kernel call per draw
        steps = core._fisher_yates_steps(m)
        assert core._fisher_yates(m, core._seed_key(seed), index, steps) == sample_ranking(m, seed, index)

    @settings(deadline=None)
    @given(st.integers(1, 30), st.integers(-2**70, 2**70), st.integers(1, 600),
           st.one_of(st.integers(0, 2**20), st.integers(2**64 - 600, 2**64 + 600)), st.booleans())
    def test_lanes_equal_the_scalar_kernel(self, m, seed, count, start, forced):
        # a start near 2^64 wraps index & mask inside one pack; limits of 2^63 reject about half the lanes per step
        key, steps = core._seed_key(seed), core._fisher_yates_steps(m)
        if forced:
            steps = tuple((j, bound, 1 << 63) for j, bound, _ in steps)
        expected = [core._fisher_yates(m, key, start + c, steps) for c in range(count)]
        assert core._fisher_yates_many(m, key, start, count, steps) == expected

    @given(st.integers(1, 30), st.integers(-2**70, 2**70), st.integers(0, 2**66), st.integers(1, 40))
    def test_lane_c_is_sample_ranking(self, m, seed, start, count):
        lanes = core._fisher_yates_many(m, core._seed_key(seed), start, count, core._fisher_yates_steps(m))
        assert lanes == [sample_ranking(m, seed, start + c) for c in range(count)]

    def test_rejected_lanes_are_redrawn_alone(self, monkeypatch):
        redrawn = []
        scalar = core._fisher_yates

        def counting(m, key, index, steps):
            redrawn.append(index)
            return scalar(m, key, index, steps)

        (j, bound, _), *rest = core._fisher_yates_steps(15)  # only the first step rejects, about half the lanes
        key, steps = core._seed_key(5), ((j, bound, 1 << 63), *rest)
        expected = [scalar(15, key, i, steps) for i in range(100, 300)]
        monkeypatch.setattr(core, "_fisher_yates", counting)
        assert core._fisher_yates_many(15, key, 100, 200, steps) == expected
        assert 50 < len(redrawn) < 150 and len(set(redrawn)) == len(redrawn)
        assert set(redrawn) <= set(range(100, 300))


PROFILE_TEXT = """\
# committee ballots
3 4
0,1,3,2
2,0,3,1
2,1,3,0
tiebreak: 0,1,2,3
"""


class TestProfileFormat:
    def test_parse(self):
        profile, tiebreak = parse_profile(PROFILE_TEXT)
        assert profile.n == 3 and profile.m == 4
        assert profile.ballots[0] == (0, 1, 3, 2)
        assert tiebreak == (0, 1, 2, 3)

    def test_round_trip(self):
        profile, tiebreak = parse_profile(PROFILE_TEXT)
        again, tb2 = parse_profile(format_profile(profile, tiebreak))
        assert again == profile and tb2 == tiebreak

    @pytest.mark.parametrize("m", [None, 3, 3.0])
    def test_made_profile_round_trips(self, m):
        # a float m used to be stored, so the header read "1 3.0" and did not parse back
        profile = make_profile([(0, 1, 2)], m)
        assert type(profile.m) is int
        assert format_profile(profile).startswith("1 3\n")
        assert parse_profile(format_profile(profile)) == (profile, None)

    def test_tiebreak_optional(self):
        profile, tiebreak = parse_profile("1 2\n1,0\n")
        assert tiebreak is None and profile.ballots == ((1, 0),)

    def test_bad_header(self):
        with pytest.raises(ProfileFormatError):
            parse_profile("3\n0,1\n")

    @pytest.mark.parametrize("text", ["", "a b\n0,1\n", "1 2\n0,x\n"],
                             ids=["empty", "non-integer-header", "malformed-index-list"])
    def test_malformed_text(self, text):
        with pytest.raises(ProfileFormatError):
            parse_profile(text)

    def test_ballot_count_mismatch(self):
        with pytest.raises(ProfileFormatError):
            parse_profile("2 2\n0,1\n")

    def test_invalid_ballot(self):
        with pytest.raises(DuplicateOutcomeError):
            parse_profile("1 2\n0,0\n")

    def test_file_round_trip(self, tmp_path):
        from omvote import read_profile_file, write_profile_file

        profile, tiebreak = parse_profile(PROFILE_TEXT)
        path = tmp_path / "p.txt"
        write_profile_file(path, profile, tiebreak)
        assert read_profile_file(path) == (profile, tiebreak)

    def test_empty_profile_rejected(self):
        with pytest.raises(InvalidParametersError):
            make_profile([])


class TestOneBudgetGate:
    """Every search is weighed against its budget by core alone, so the rule cannot fork."""

    SOURCES = sorted(Path(omvote.__file__).parent.glob("*.py"))

    @pytest.mark.parametrize("text", ["DEFAULT_BUDGET if budget is None", "raise TooLargeError"])
    def test_only_core_owns_it(self, text):
        assert [p.name for p in self.SOURCES if text in p.read_text(encoding="utf-8")] == ["core.py"]


class TestOneImmunityPredicate:
    """The immunity inequality n(m-k) <= m-2 is written in characterization alone, so no module can fork it."""

    SOURCES = sorted(Path(omvote.__file__).parent.glob("*.py"))

    def test_only_characterization_owns_it(self):
        assert [p.name for p in self.SOURCES if "m - 2" in p.read_text(encoding="utf-8")] == ["characterization.py"]


class TestOneIntegerCheck:
    """Counts and indices are checked by core.check_int alone, so no entry point lets a TypeError escape."""

    SOURCES = sorted(Path(omvote.__file__).parent.glob("*.py"))

    def test_only_core_checks_for_int(self):
        pattern = re.compile(r"isinstance\([^)]*\bint\b")
        assert [p.name for p in self.SOURCES if pattern.search(p.read_text(encoding="utf-8"))] == ["core.py"]

    @pytest.mark.parametrize("call", [
        lambda: omvote.CcumInstance(omvote.borda(), ((0, 1, 2),), 1.5, 0, (0, 1, 2)),
        lambda: omvote.CcumInstance(omvote.borda(), ((0, 1, 2),), 1, 1.0, (0, 1, 2)),
        lambda: omvote.CcumInstance(omvote.borda(), ((0, 1, 2),), 1, "0", (0, 1, 2)),
        lambda: omvote.has_veto_power(omvote.borda(), 3, 2.5),
        lambda: omvote.has_veto_power(omvote.borda(), 2, 3.0, (0, 1, 2)),
        lambda: omvote.is_almost_unanimous(omvote.borda(), 3, 2.5),
        lambda: omvote.enumerate_profiles(3, 1.5),
        lambda: omvote.enumerate_profiles(3, 0),
        lambda: omvote.enumerate_rankings(2.5),
        lambda: omvote.sample_ranking(2.5, 0, 0),
        lambda: omvote.sample_ranking(3, "a", 0),
        lambda: omvote.score_vector(omvote.borda(), 2.5),
        lambda: omvote.sweep_n(15, "14", range(3, 5), 10, 0),
        lambda: omvote.heatmap(3, [21], 10, 0, mk_values=["1"]),
        lambda: run_experiment((3,), (15,), (1,), samples="10"),
        lambda: run_experiment(("14",), (15,), (1,), 10, 0),  # the audited cell's n
        lambda: omvote.bom_iff("3", (1, 1, 0)),
        lambda: omvote.bom_iff(0, (1, 1, 0)),
        lambda: omvote.scoring_nom_sufficient(1.5, (2, 1, 0)),
        lambda: omvote.classify((0, 1, 2), omvote.borda(), 3, (0, 1, 2), budget="x"),
        lambda: omvote.kapproval_k(omvote.kapproval(2), 4.0),
        lambda: make_ranking((0, 1, 2), "3"),
        lambda: run_experiment(5, (15,), (1,)),
        lambda: omvote.sweep_n(15, 14, None, 10, 0),
        lambda: omvote.heatmap(3, None, 10, 0),
        lambda: run_experiment((3,), (15,), (1,), samples=True),
        lambda: run_experiment((3,), (15,), (1,), 10, seed=False),
        lambda: omvote.sample_ranking(True, 0, 0),
    ], ids=["manipulators", "float-target", "str-target", "veto-m", "veto-m-tiebreak", "unanimous-m",
            "profiles-voters", "profiles-no-voters", "rankings-m", "sample-m", "sample-seed", "score-vector-m", "sweep-k", "heatmap-mk",
            "config-samples", "audit-n", "bom-str-n", "bom-zero-n", "nom-float-n", "budget", "kapproval-k-m",
            "ranking-str-m", "config-int-n", "sweep-none-n", "heatmap-none-m", "bool-samples", "bool-seed",
            "bool-sample-m"])
    def test_escape_is_rejected(self, call):
        with pytest.raises(InvalidParametersError):
            call()

    @pytest.mark.parametrize("call", [
        lambda budget: omvote.possible_outcomes(omvote.borda(), 3, None, (0, 1, 2), budget),
        lambda budget: omvote.bruteforce_feasible(omvote.borda(), 3, (0, 1, 2), (0, 1, 2), budget),
        lambda budget: omvote.classify_randomized_tiebreak((0, 1, 2), (2, 1, 0), 3, budget),
    ], ids=["possible_outcomes", "bruteforce_feasible", "randomized"])
    def test_float_budget_rejected_whatever_the_cache_holds(self, call):
        call(10**9)
        with pytest.raises(InvalidParametersError):
            call(1e9)

    @pytest.mark.parametrize("call", [
        lambda budget: omvote.possible_outcomes(omvote.borda(), 3, None, (0, 1, 2), budget),
        lambda budget: omvote.bruteforce_feasible(omvote.borda(), 3, (0, 1, 2), (0, 1, 2), budget),
        lambda budget: omvote.classify_randomized_tiebreak((0, 1, 2), (2, 1, 0), 3, budget),
    ], ids=["possible_outcomes", "bruteforce_feasible", "randomized"])
    def test_unhashable_budget_rejected_before_the_cache(self, call):
        with pytest.raises(InvalidParametersError, match="budget must be an integer >= 0"):
            call([1])

    @pytest.mark.parametrize("call", [
        lambda budget: omvote.classify((0, 1, 2, 3), omvote.kapproval(2), 3, (0, 1, 2, 3), budget=budget),
        lambda budget: omvote.possible_outcomes(omvote.kapproval(2), 3, None, (0, 1, 2, 3), budget),
        lambda budget: omvote.solve_ccum(omvote.CcumInstance(omvote.kapproval(2), (), 3, 1, (0, 1, 2, 3)),
                                         budget=budget),
        lambda budget: omvote.has_veto_power(omvote.kapproval(2), 3, 4, None, budget),
    ], ids=["classify", "possible_outcomes", "solve_ccum", "veto"])
    def test_counting_routes_check_the_budget(self, call):
        # they never weigh it, so they check it as core.check_budget does: an integer >= 0
        call(0)
        for budget in (-1, "x", 1e9):
            with pytest.raises(InvalidParametersError):
                call(budget)

    @pytest.mark.parametrize("call", [
        lambda budget: omvote.classify((0, 1, 2), omvote.borda(), 3, (0, 1, 2), budget=budget),
        lambda budget: omvote.possible_outcomes(omvote.borda(), 3, None, (0, 1, 2), budget),
        lambda budget: omvote.solve_ccum(omvote.CcumInstance(omvote.borda(), (), 2, 1, (0, 1, 2)), budget=budget),
        lambda budget: omvote.has_veto_power(omvote.borda(), 3, 3, None, budget),
        lambda budget: omvote.is_almost_unanimous(omvote.borda(), 3, 3, None, budget),
        lambda budget: omvote.classify_randomized_tiebreak((0, 1, 2), (2, 1, 0), 3, budget),
        lambda budget: list(omvote.enumerate_profiles(3, 1, budget)),
    ], ids=["classify", "possible_outcomes", "solve_ccum", "veto", "unanimous", "randomized", "profiles"])
    def test_searches_reject_a_negative_budget(self, call):
        # a budget of 0 is weighed and exceeded; -1 is no budget at all, not one more that is exceeded
        with pytest.raises(TooLargeError):
            call(0)
        with pytest.raises(InvalidParametersError, match="budget must be an integer >= 0"):
            call(-1)

    def test_kapproval_k_checks_before_its_cache(self):
        rule = omvote.kapproval(2)
        with pytest.raises(InvalidParametersError):
            omvote.kapproval_k(rule, 4.0)
        assert omvote.kapproval_k(rule, 4) == 2
        with pytest.raises(InvalidParametersError):
            omvote.kapproval_k(rule, 4.0)  # equal to 4 and hashing like it, but not a count


class TestShapeBeforeLength:
    """An input of the wrong shape is named by the check that reads it, not by a TypeError from len() or iteration."""

    @pytest.mark.parametrize("call", [
        lambda: omvote.winner(omvote.borda(), make_profile([(0, 1, 2)]), None),
        lambda: omvote.winner(omvote.borda(), make_profile([(0, 1, 2)]), 5),
        lambda: omvote.CcumInstance(omvote.borda(), (), 1, 0, None),
        lambda: omvote.CcumInstance(omvote.borda(), None, 1, 0, (0, 1, 2)),
        lambda: omvote.CcumInstance(omvote.borda(), 5, 1, 0, (0, 1, 2)),
        lambda: omvote.classify_randomized_tiebreak(None, (2, 1, 0), 3),
        lambda: omvote.scoring_scores(None, make_profile([(0, 1, 2)])),
        lambda: omvote.scoring_cowinners(5, make_profile([(0, 1, 2)])),
        lambda: omvote.scoring_winner(None, make_profile([(0, 1, 2)]), (0, 1, 2)),
        lambda: make_profile([None]),
        lambda: make_profile(None),
        lambda: enumerate_profiles(3, 1, None, None),
        lambda: format_profile(make_profile([(0, 1, 2)]), 5),
        lambda: format_profile(make_profile([(0, 1, 2)]), (0, 1)),  # text that parse_profile would reject
        lambda: omvote.classify((0, 1, 2), None, 3, (0, 1, 2)),
        lambda: omvote.classify((0, 1, 2), "borda", 3, (0, 1, 2)),
        lambda: omvote.possible_outcomes(None, 3, None, (0, 1, 2)),
        lambda: omvote.bruteforce_feasible(None, 3, (0, 1, 2), (0, 1, 2)),
        lambda: omvote.has_veto_power(None, 3, 3),
        lambda: omvote.is_almost_unanimous(None, 3, 3),
        lambda: omvote.solve_ccum(omvote.CcumInstance(None, (), 2, 0, (0, 1, 2))),
        lambda: omvote.classify((0, 1, 2), ["borda"], 3, (0, 1, 2)),
        lambda: omvote.possible_outcomes(["borda"], 3, (0, 1, 2), (0, 1, 2)),
        lambda: omvote.kapproval_k(None, 3),
        lambda: omvote.winner(omvote.borda(), (0, 1, 2), (0, 1, 2)),
        lambda: omvote.parse_rule(None),
        lambda: omvote.rule_label(None),
        lambda: omvote.scoring_scores((2, 1, 0), None),
        lambda: omvote.scoring_winner((2, 1, 0), None, (0, 1, 2)),
        lambda: omvote.scoring_cowinners((2, 1, 0), (0, 1, 2)),
        lambda: parse_profile(None),
        lambda: omvote.rows_to_csv(None),
        lambda: omvote.rows_to_csv([None]),
        lambda: make_profile([()]),  # zero outcomes: no rule could elect one, and its text would not parse back
        lambda: make_profile([()], 0),
        lambda: core.identity_tiebreak(0),
        lambda: core.identity_tiebreak(-2),
    ], ids=["winner-none", "winner-int", "ccum-instance", "ccum-none-ballots", "ccum-int-ballots",
            "randomized-truth", "scores-none", "cowinners-int", "scoring-winner-none", "profile-none-ballot",
            "profile-none", "fixed-none", "format-int-tiebreak", "format-short-tiebreak",
            "classify-none-rule", "classify-str-rule", "possible-none-rule", "feasible-none-rule", "veto-none-rule",
            "unanimous-none-rule", "ccum-none-rule", "classify-list-rule", "possible-list-rule",
            "kapproval-k-none-rule", "winner-tuple-profile", "parse-rule-none", "rule-label-none",
            "scores-none-profile", "scoring-winner-none-profile", "cowinners-tuple-profile", "parse-profile-none",
            "csv-none", "csv-none-row", "profile-no-outcomes", "profile-m-zero", "identity-zero",
            "identity-negative"])
    def test_rejected(self, call):
        with pytest.raises(VotingError):
            call()

    @pytest.mark.parametrize("call, error, named", [
        (lambda: omvote.parse_rule(None), InvalidParametersError, "rule text must be a string"),
        (lambda: omvote.rule_label(None), InvalidParametersError, "rule must be a RuleSpec"),
        (lambda: omvote.scoring_scores((2, 1, 0), None), InvalidParametersError, "profile must be a Profile"),
        (lambda: parse_profile(None), ProfileFormatError, "profile text must be a string"),
        (lambda: omvote.rows_to_csv(None), InvalidParametersError, "rows must be a sequence of ProportionRow"),
        (lambda: omvote.solve_ccum(None), InvalidParametersError, "inst must be a CcumInstance"),
        (lambda: omvote.ccum_greedy_kapproval(None), InvalidParametersError, "inst must be a CcumInstance"),
        (lambda: omvote.ccum_bruteforce(None), InvalidParametersError, "inst must be a CcumInstance"),
        (lambda: omvote.solve_ccum(((0, 1, 2),)), InvalidParametersError, "inst must be a CcumInstance"),
        (lambda: omvote.condorcet_winner(None), InvalidParametersError, "profile must be a Profile"),
        (lambda: omvote.rules.pairwise_tally(None), InvalidParametersError, "profile must be a Profile"),
        (lambda: format_profile(None), InvalidParametersError, "profile must be a Profile"),
    ], ids=["parse-rule", "rule-label", "scoring-scores", "parse-profile", "rows-to-csv", "solve-ccum",
            "greedy-kapproval", "ccum-bruteforce", "solve-ccum-tuple", "condorcet-winner", "pairwise-tally",
            "format-profile"])
    def test_wrong_type_names_the_argument(self, call, error, named):
        # each of these once let an AttributeError or TypeError escape
        with pytest.raises(error, match=named):
            call()


class TestOneTiebreakCheckPerSearch:
    """Searches that elect many profiles check their tie-break once and elect by walking it."""

    SOURCES = sorted(Path(omvote.__file__).parent.glob("*.py"))

    def _sites(self, match) -> set:
        # (module, innermost function or None) of every node *match* accepts
        sites = set()

        def visit(node, stem, fn):
            if match(node):
                sites.add((stem, fn))
            for child in ast.iter_child_nodes(node):
                visit(child, stem, child.name if isinstance(child, ast.FunctionDef) else fn)

        for path in self.SOURCES:
            visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, None)
        return sites

    def test_tiebreak_positions_only_to_relabel(self):
        # kernels walk the tie-break itself: positions of a tuple are taken of a tie-break only by the greedy's one
        # relabel; reachable sets, the grid, both routes of classify and the co-winner classifier take places of
        # bytes, and every places table of bytes is built by the one helper, core._places
        calls = self._sites(lambda node: isinstance(node, ast.Call) and ast.unparse(node.func) == "ranking_positions")
        assert calls == {("ccum", "_relabel")}
        tables = self._sites(lambda node: isinstance(node, ast.Call) and ast.unparse(node.func).endswith("maketrans"))
        assert tables == {("core", "_places")}
        named = self._sites(lambda node: "prank" in {getattr(node, a, None) for a in ("id", "arg", "attr", "name")})
        assert named <= {("ccum", "_relabel")}

    def test_only_single_profiles_call_winner(self):
        callers = []
        for path in self.SOURCES:
            for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(fn, ast.FunctionDef):
                    callers += [(path.stem, fn.name) for node in ast.walk(fn)
                                if isinstance(node, ast.Call) and ast.unparse(node.func) == "rules.winner"]
        assert sorted(callers) == [("cli", "_cmd_winner")]

    def test_only_ccum_counts_approvals_for_reachability(self):
        # the counting pass is ccum's decision: every other module asks through _reachable or possible_outcomes
        namers = set()
        for path in self.SOURCES:
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                names = {getattr(node, attr, None) for attr in ("id", "attr", "name")}
                if "_kapproval_reachable" in names:
                    namers.add(path.stem)
        assert namers == {"ccum"}

    @pytest.mark.parametrize("name", ["_weigh", "_sums", "_units", "_possible_outcomes", "rules._tally",
                                      "rules._decider"])
    def test_only_ccum_drives_summed_searches(self, name):
        # ccum sums, weighs and holds every exhaustive reachable set: no other module names its internals,
        # nor the packed tallies and their decider that rules defines for it
        module, _, attr = name.rpartition(".")
        namers = set()
        for path in self.SOURCES:
            if path.stem == module:
                continue  # where it is defined
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if attr in {getattr(node, a, None) for a in ("id", "attr", "name", "arg")}:
                    namers.add(path.stem)
        assert namers == {"ccum"}

    def test_one_rule_identity(self):
        # rules resolves a RuleSpec to its canonical rule: no other module computes canonical weights, and none
        # that searches asks whether a rule is a scoring rule or looks its k up apart from the resolved rule
        namers = {"_canonical_weights": set(), "is_scoring": set(), "_kapproval_k": set()}
        for path in self.SOURCES:
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                for name in {getattr(node, a, None) for a in ("id", "attr", "name", "arg")} & namers.keys():
                    namers[name].add(path.stem)
        assert namers["_canonical_weights"] == {"rules"}
        for name in ("is_scoring", "_kapproval_k"):
            assert not namers[name] & {"ccum", "manipulability", "characterization"}, name

    def test_every_memo_is_bounded(self):
        # every lru_cache names a finite int maxsize, so no memo grows with the queries a long run asks, and no
        # functools.cache stands in for one; the CLI's parser alone is unbounded, built once per process
        def finite(call):
            if ast.unparse(call.func).rpartition(".")[2] != "lru_cache":
                return False
            size = call.args[0] if call.args else next((k.value for k in call.keywords if k.arg == "maxsize"), None)
            return isinstance(size, ast.Constant) and type(size.value) is int and size.value > 0

        sized = set()  # the lru_cache names of finite calls, met before their names as the walk is pre-order

        def unbounded(node):
            if isinstance(node, ast.Call) and finite(node):
                sized.add(id(node.func))
            name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
            return name in ("lru_cache", "cache") and id(node) not in sized

        assert self._sites(unbounded) == {("cli", "build_parser")}
        memos = self._sites(lambda node: isinstance(node, ast.Call) and finite(node))
        assert {("ccum", "_possible_outcomes"), ("manipulability", "_verdict"), ("rules", "_layout")} <= memos

    @pytest.fixture
    def checks(self, monkeypatch):
        seen, check = [], rules._check_tiebreak

        def counting(tiebreak, m):
            seen.append(m)
            return check(tiebreak, m)

        monkeypatch.setattr(rules, "_check_tiebreak", counting)
        manipulability._bruteforce_feasible_map.cache_clear()
        ccum.possible_outcomes.cache_clear()
        return seen

    @pytest.mark.parametrize("rule", [omvote.borda(), omvote.stv(), omvote.copeland()], ids=lambda r: r.name)
    def test_cold_feasible_table(self, checks, rule):
        omvote.bruteforce_feasible(rule, 3, (0, 1, 2, 3), (0, 1, 2, 3))
        assert checks == []

    def test_ccum_bruteforce(self, checks):
        inst = omvote.CcumInstance(omvote.borda(), ((3, 2, 1, 0),), 2, 3, (0, 1, 2, 3))
        assert omvote.ccum_bruteforce(inst).achievable
        assert checks == []

    def test_almost_unanimous(self, checks):
        omvote.is_almost_unanimous(omvote.borda(), 3, 4)
        assert checks == []

    def test_winner_checks_once(self, checks):
        omvote.winner(omvote.stv(), make_profile([(0, 1, 2)]), (0, 1, 2))
        assert checks == [3]
