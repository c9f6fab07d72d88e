"""Coalition manipulation solvers: greedy k-approval vs exhaustive search."""

import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from omvote import (
    CcumCertificate,
    CcumInstance,
    DuplicateOutcomeError,
    InvalidParametersError,
    OutOfRangeIndexError,
    Profile,
    TooLargeError,
    WrongLengthError,
    borda,
    bruteforce_feasible,
    classify,
    ccum_bruteforce,
    ccum_greedy_kapproval,
    copeland,
    enumerate_profiles,
    enumerate_rankings,
    has_veto_power,
    is_almost_unanimous,
    kapproval,
    make_profile,
    parse_rule,
    plurality,
    possible_outcomes,
    runoff,
    scoring_scores,
    solve_ccum,
    stv,
    winner,
)
from omvote import ccum, manipulability, rules


class TestGreedy:
    def test_single_manipulator_forces_tie_win(self):
        inst = CcumInstance(plurality(), ((0, 1, 2),), 1, target=1, tiebreak=(1, 0, 2))
        cert = ccum_greedy_kapproval(inst)
        assert cert.achievable
        assert cert.manipulator_ballots[0][0] == 1

    def test_zero_manipulators_degenerate(self):
        fixed = ((0, 1, 2), (0, 2, 1))
        for target in range(3):
            cert = ccum_greedy_kapproval(
                CcumInstance(plurality(), fixed, 0, target, (0, 1, 2))
            )
            assert cert.achievable == (target == 0)
            assert cert.manipulator_ballots == ()

    def test_two_manipulators_hand_trace(self):
        # k=2, m=4, two fixed (0,1,2,3) ballots, target 3: both manipulators
        # approve {3, 2}, every outcome ends on 2 approvals, 0 wins the tie
        inst = CcumInstance(kapproval(2), ((0, 1, 2, 3), (0, 1, 2, 3)), 2, 3, (0, 1, 2, 3))
        cert = ccum_greedy_kapproval(inst)
        assert not cert.achievable
        completed = Profile(inst.fixed_ballots + cert.manipulator_ballots, 4)
        assert scoring_scores((1, 1, 0, 0), completed) == {0: 2, 1: 2, 2: 2, 3: 2}
        assert all(b[:2] == (3, 2) for b in cert.manipulator_ballots)

    def test_ballots_returned_even_on_failure(self):
        inst = CcumInstance(kapproval(2), ((0, 1, 2, 3),) * 3, 1, 3, (0, 1, 2, 3))
        cert = ccum_greedy_kapproval(inst)
        assert cert.manipulator_ballots is not None
        assert len(cert.manipulator_ballots) == 1

    def test_ballots_are_full_rankings(self):
        inst = CcumInstance(kapproval(3), ((4, 3, 2, 1, 0),), 2, 0, (0, 1, 2, 3, 4))
        cert = ccum_greedy_kapproval(inst)
        for ballot in cert.manipulator_ballots:
            assert sorted(ballot) == list(range(5))
            assert ballot[0] == 0

    def test_needs_kapproval_rule(self):
        with pytest.raises(InvalidParametersError):
            ccum_greedy_kapproval(CcumInstance(borda(), ((0, 1, 2),), 1, 0, (0, 1, 2)))


class TestBruteforce:
    def test_borda_two_manipulators(self):
        inst = CcumInstance(borda(), ((0, 1, 2),), 2, target=2, tiebreak=(0, 1, 2))
        cert = ccum_bruteforce(inst)
        assert cert.achievable
        completed = Profile(inst.fixed_ballots + cert.manipulator_ballots, 3)
        assert winner(borda(), completed, (0, 1, 2)) == 2

    def test_zero_manipulators_unachievable(self):
        inst = CcumInstance(borda(), ((0, 1, 2), (0, 2, 1)), 0, target=1, tiebreak=(0, 1, 2))
        cert = ccum_bruteforce(inst)
        assert not cert.achievable and cert.manipulator_ballots is None

    def test_first_certificate_in_lex_order(self):
        inst = CcumInstance(plurality(), (), 1, target=2, tiebreak=(0, 1, 2))
        cert = ccum_bruteforce(inst)
        assert cert.manipulator_ballots == ((2, 0, 1),)  # lex-first ballot electing 2


class TestSolveDispatch:
    def test_auto_routes(self):
        greedy = solve_ccum(CcumInstance(kapproval(2), ((0, 1, 2),), 1, 0, (0, 1, 2)))
        brute = solve_ccum(CcumInstance(borda(), ((0, 1, 2),), 1, 0, (0, 1, 2)))
        assert greedy.achievable and brute.achievable


class TestInstanceChecks:
    @pytest.mark.parametrize("fixed, free, target", [
        (((0, 1, 2),), -1, 0),  # negative manipulators
        ((), 0, 0),  # no voters at all
        (((0, 1, 2),), 1, 3),  # target beyond the outcomes
        (((0, 1, 2),), 1, -1),
    ])
    def test_rejected(self, fixed, free, target):
        with pytest.raises(InvalidParametersError):
            CcumInstance(borda(), fixed, free, target, (0, 1, 2))


class TestGreedyAgainstBruteforce:
    def test_exhaustive_m3_all_tiebreaks(self):
        # every instance with m=3: n <= 3, all k, targets, fixed multisets
        rankings = list(enumerate_rankings(3))
        checked = 0
        for tiebreak in rankings:
            for k in (1, 2):
                rule = kapproval(k)
                for n in (1, 2, 3):
                    for ns in range(n + 1):
                        for fixed in itertools.combinations_with_replacement(rankings, ns):
                            if ns == 0 and n == 0:
                                continue
                            for target in range(3):
                                inst = CcumInstance(rule, fixed, n - ns, target, tiebreak)
                                greedy = ccum_greedy_kapproval(inst)
                                brute = ccum_bruteforce(inst)
                                assert greedy.achievable == brute.achievable, (
                                    tiebreak, k, fixed, n - ns, target)
                                checked += 1
        assert checked == 6 * 2 * sum(
            3 * len(list(itertools.combinations_with_replacement(rankings, s)))
            for n in (1, 2, 3) for s in range(n + 1)
        )


def reference_greedy(k, fixed, free, target, tiebreak):
    # the greedy as a plain loop under the caller's own tie-break: every free ballot approves the target, then
    # k-1 times the rival of lowest score, a tie going to the lowest priority, and lists the rest lowest priority
    # first; the target wins iff no outcome outscores it and none of its score has higher priority
    rivals = [o for o in reversed(tiebreak) if o != target]
    scores = dict.fromkeys(tiebreak, 0)
    for ballot in fixed:
        for o in ballot[:k]:
            scores[o] += 1
    ballots = []
    for _ in range(free):
        scores[target] += 1
        approved = []
        for _ in range(k - 1):
            pick = min((o for o in rivals if o not in approved), key=scores.get)  # the first minimum in the walk
            scores[pick] += 1
            approved.append(pick)
        ballots.append((target, *approved, *(o for o in rivals if o not in approved)))
    return max(tiebreak, key=scores.get) == target, tuple(ballots)


class TestGreedyCache:
    """The greedy's ballots are built under the identity and cached; the election runs on every call."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_cached_certificate_equals_the_plain_loop(self, data):
        m = data.draw(st.integers(2, 10), label="m")
        k = data.draw(st.integers(1, m - 1), label="k")
        fixed = data.draw(st.lists(st.permutations(range(m)).map(tuple), max_size=2), label="fixed")
        free = data.draw(st.integers(0 if fixed else 1, 6), label="free")
        target = data.draw(st.integers(0, m - 1), label="target")
        tiebreak = tuple(data.draw(st.permutations(range(m)), label="tiebreak"))
        inst = CcumInstance(kapproval(k), tuple(fixed), free, target, tiebreak)
        expected = CcumCertificate(*reference_greedy(k, fixed, free, target, tiebreak))
        assert ccum_greedy_kapproval(inst) == expected
        hits = ccum_greedy_kapproval.cache_info().hits
        assert ccum_greedy_kapproval(inst) == expected
        assert ccum_greedy_kapproval.cache_info().hits == hits + 1

    def test_election_is_never_cached(self, monkeypatch):
        inst = CcumInstance(kapproval(2), ((0, 1, 2, 3),), 2, 3, (2, 0, 3, 1))
        first = ccum_greedy_kapproval(inst)
        assert first.achievable
        monkeypatch.setattr(rules, "_elect", lambda rule, profile, order: (inst.target + 1) % 4)
        hits = ccum_greedy_kapproval.cache_info().hits
        cert = ccum_greedy_kapproval(inst)
        assert ccum_greedy_kapproval.cache_info().hits == hits + 1
        assert cert == CcumCertificate(False, first.manipulator_ballots)

    def test_bom_targets_sharing_a_priority_place_share_an_entry(self):
        # 4-approval, m=5, n=3: each BOM target is the outcome in place 3 of its tie-break (3, then 1), so the
        # second certificate relabels the first one's cached ballots
        queries = [((3, 0, 1, 2, 4), (0, 1, 2, 3, 4)), ((1, 4, 3, 2, 0), (4, 3, 2, 1, 0))]
        ccum_greedy_kapproval.cache_clear()
        witnesses = [classify(truth, kapproval(4), 3, tiebreak).bom_witness for truth, tiebreak in queries]
        info = ccum_greedy_kapproval.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
        assert [w.misreport[0] for w in witnesses] == [3, 1]
        for (truth, tiebreak), witness in zip(queries, witnesses):
            ccum_greedy_kapproval.cache_clear()
            assert classify(truth, kapproval(4), 3, tiebreak).bom_witness == witness


@st.composite
def kapproval_instances(draw, max_m, max_free):
    """(k, n, the one fixed ballot or None, tie-break) with at least one voter."""
    m = draw(st.integers(3, max_m), label="m")
    k = draw(st.integers(1, m - 1), label="k")
    fixed = draw(st.none() | st.permutations(range(m)).map(tuple), label="fixed")
    free = draw(st.integers(0 if fixed else 1, max_free), label="free")
    return k, free + (fixed is not None), fixed, tuple(draw(st.permutations(range(m)), label="tiebreak"))


@st.composite
def paper_scale_instances(draw):
    """(k, n, the one fixed ballot or None, tie-break) at m = 13..64, m-k often small, under the identity
    tie-break or a seeded one."""
    m = draw(st.integers(13, 64), label="m")
    k = m - draw(st.integers(1, 4) | st.integers(1, m - 1), label="m-k")
    fixed = draw(st.none() | st.permutations(range(m)).map(tuple), label="fixed")
    n = draw(st.integers(1, 6), label="n")
    seed = draw(st.none() | st.integers(0, 2**32), label="tie-break seed")
    return k, n, fixed, tuple(range(m)) if seed is None else tuple(random.Random(seed).sample(range(m), m))


def _counted(k, n, fixed, tiebreak):
    # the kernel reads bytes and returns the reachable outcomes as bytes, in priority order
    reachable = ccum._kapproval_reachable(k, n, None if fixed is None else bytes(fixed), bytes(tiebreak))
    assert list(reachable) == [t for t in tiebreak if t in reachable]
    return set(reachable)


def _solved(solver, k, n, fixed, tiebreak):
    # the targets *solver* elects, asked one CcumInstance at a time
    fixed_ballots = () if fixed is None else (fixed,)
    return {t for t in range(len(tiebreak))
            if solver(CcumInstance(kapproval(k), fixed_ballots, n - len(fixed_ballots), t, tiebreak)).achievable}


class TestCountingAgainstSolvers:
    """The closed form decides reachability; the greedy and brute force stay as its oracles."""

    @settings(max_examples=300, deadline=None)
    @given(kapproval_instances(max_m=12, max_free=6))
    def test_matches_greedy(self, instance):
        assert _counted(*instance) == _solved(ccum_greedy_kapproval, *instance)

    @settings(max_examples=60, deadline=None)
    @given(paper_scale_instances())
    @example((40, 2, tuple(range(63, -1, -1)), tuple(range(64))))  # one free voter, the identity tie-break
    @example((20, 2, (5, *range(30, 49), *range(5), *range(6, 30), *range(49, 64)), tuple(range(64))))  # cut at 5
    @example((60, 2, tuple(range(1, 64)) + (0,), tuple(random.Random(7).sample(range(64), 64))))
    def test_matches_greedy_at_paper_scale(self, instance):
        # m = 13..64, where no table reaches: the greedy's certificates are polynomial
        assert _counted(*instance) == _solved(ccum_greedy_kapproval, *instance)

    @settings(max_examples=150, deadline=None)
    @given(kapproval_instances(max_m=4, max_free=2))
    def test_matches_bruteforce(self, instance):
        assert _counted(*instance) == _solved(ccum_bruteforce, *instance)

    def test_plurality(self):
        # k=1: the fixed ballot approves 0, the top priority, so one free voter elects nothing else, two elect anything
        for n, expected in ((2, {0}), (3, {0, 1, 2})):
            assert _counted(1, n, (0, 1, 2), (0, 1, 2)) == expected
            assert _solved(ccum_greedy_kapproval, 1, n, (0, 1, 2), (0, 1, 2)) == expected

    def test_antiplurality(self):
        # k=m-1: the fixed ballot vetoes 0, and each free voter vetoes one rival of the target;
        # 3 loses every tie, so it needs both higher-priority rivals vetoed, which takes two voters
        for n, expected in ((2, {1, 2}), (3, {1, 2, 3}), (4, {0, 1, 2, 3})):
            assert _counted(3, n, (3, 2, 1, 0), (0, 1, 2, 3)) == expected
            assert _solved(ccum_bruteforce, 3, n, (3, 2, 1, 0), (0, 1, 2, 3)) == expected

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_no_free_voter_leaves_the_fixed_winner(self, k):
        # free = 0 (n = 1): only the fixed ballot's own winner, its approved outcome of highest priority
        fixed, tiebreak = (2, 0, 3, 1), (1, 3, 0, 2)
        expected = {winner(kapproval(k), Profile((fixed,), 4), tiebreak)}
        assert _counted(k, 1, fixed, tiebreak) == expected
        assert _solved(ccum_bruteforce, k, 1, fixed, tiebreak) == expected

    def test_one_free_voter_behind_an_approved_rival(self):
        # free = 1, k = 2: the fixed ballot approves 1 and 4.  The lone free voter lifts the
        # disapproved 0, ahead of both, into a tie it wins, but not 2, behind 1 (a = 0 fails);
        # two free voters lift every outcome
        fixed, tiebreak = (1, 4, 0, 2, 3, 5), (0, 1, 2, 3, 4, 5)
        for n, expected in ((2, {0, 1, 4}), (3, {0, 1, 2, 3, 4, 5})):
            assert _counted(2, n, fixed, tiebreak) == expected
            assert _solved(ccum_bruteforce, 2, n, fixed, tiebreak) == expected

    def test_all_voters_free(self):
        # fixed=None: the first n(m-k)+1 outcomes of the tie-break, so two free voters
        # cannot lift the last in priority over three rivals at k=3
        assert _counted(3, 2, None, (0, 1, 2, 3)) == {0, 1, 2}
        assert _solved(ccum_bruteforce, 3, 2, None, (0, 1, 2, 3)) == {0, 1, 2}
        assert possible_outcomes(kapproval(3), 2, None, (0, 1, 2, 3)) == {0, 1, 2}
        assert possible_outcomes(kapproval(3), 3, None, (3, 1, 0, 2)) == {0, 1, 2, 3}

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_matches_the_approval_set_quotient(self, m):
        # manipulability's brute-force table takes the max over multisets of approved sets,
        # an enumeration independent of both solvers: every report, n <= 4, two tie-breaks
        for tiebreak in (tuple(range(m)), (*range(1, m, 2), *range(0, m, 2))):
            for k in range(1, m):
                for n in (2, 3, 4):
                    for report in enumerate_rankings(m):
                        feasible = bruteforce_feasible(kapproval(k), n, report, tiebreak)
                        assert _counted(k, n, report, tiebreak) == feasible, (k, n, report, tiebreak)


class TestPossibleOutcomes:
    def test_plurality_everything_reachable(self):
        for tiebreak in enumerate_rankings(3):
            got = possible_outcomes(plurality(), 3, (0, 1, 2), tiebreak)
            assert got == {0, 1, 2}

    def test_large_kapproval_worst_outcome(self):
        # m=15, k=14, n=3: with the priority order putting outcome 13 on top,
        # the truthful report leaves {13, 0, 1} reachable
        m, k = 15, 14
        fixed = tuple(range(m))
        tiebreak = (13,) + tuple(range(13)) + (14,)
        feasible = possible_outcomes(kapproval(k), 3, fixed, tiebreak)
        assert feasible == {13, 0, 1}
        assert max(feasible, key=fixed.index) == 13  # worst by the voter's own order

    def test_fixed_subset_of_free(self):
        for rule in (plurality(), kapproval(2), borda()):
            free = possible_outcomes(rule, 3, None, (0, 1, 2))
            for report in enumerate_rankings(3):
                assert possible_outcomes(rule, 3, report, (0, 1, 2)) <= free

    def test_agrees_with_enumeration(self):
        # greedy-backed feasible sets match plain winner enumeration (m=3, n=3)
        rankings = list(enumerate_rankings(3))
        for rule in (plurality(), kapproval(2)):
            for report in rankings:
                expected = set()
                for others in itertools.product(rankings, repeat=2):
                    expected.add(winner(rule, Profile((report,) + others, 3), (0, 1, 2)))
                assert possible_outcomes(rule, 3, report, (0, 1, 2)) == expected

    def test_list_inputs_normalize(self):
        # lists are not hashable; the cached query must still accept them
        expected = possible_outcomes(borda(), 3, (0, 1, 2), (0, 1, 2))
        assert possible_outcomes(borda(), 3, [0, 1, 2], (0, 1, 2)) == expected
        assert possible_outcomes(borda(), 3, [0, 1, 2], [0, 1, 2]) == expected
        free = possible_outcomes(borda(), 3, None, (0, 1, 2))
        assert possible_outcomes(borda(), 3, None, [0, 1, 2]) == free

    def test_malformed_fixed_ballot_rejected(self):
        for rule in (borda(), plurality()):
            with pytest.raises(DuplicateOutcomeError):
                possible_outcomes(rule, 3, (0, 0, 1), (0, 1, 2))

    def test_malformed_tiebreak_rejected(self):
        for rule in (borda(), plurality()):
            with pytest.raises(DuplicateOutcomeError):
                possible_outcomes(rule, 3, (0, 1, 2), (0, 0, 1))
            with pytest.raises(DuplicateOutcomeError):
                possible_outcomes(rule, 3, None, (0, 0, 1))

    def test_non_integer_fixed_ballot_rejected(self):
        # it used to be truncated to (0, 1, 2) and answered for that ballot
        with pytest.raises(OutOfRangeIndexError):
            possible_outcomes(borda(), 3, (0, 1.7, 2), (0, 1, 2))

    def test_float_entry_rejected_whatever_the_cache_holds(self):
        # (0, 1.0, 2) hashes like (0, 1, 2), so the check has to come before the cache lookup
        possible_outcomes(borda(), 3, (0, 1, 2), (0, 1, 2))
        with pytest.raises(OutOfRangeIndexError):
            possible_outcomes(borda(), 3, (0, 1.0, 2), (0, 1, 2))
        ccum.possible_outcomes.cache_clear()
        with pytest.raises(OutOfRangeIndexError):
            possible_outcomes(borda(), 3, (0, 1.0, 2), (0, 1, 2))

    @pytest.mark.parametrize("n", [2.5, "3"])
    @pytest.mark.parametrize("fixed", [None, (0, 1, 2)])
    def test_non_integer_n_rejected(self, n, fixed):
        with pytest.raises(InvalidParametersError):
            possible_outcomes(borda(), n, fixed, (0, 1, 2))

    def test_one_voter_with_a_fixed_ballot(self):
        # n = 1 leaves no free voter: the fixed ballot's own winner is the only outcome
        assert possible_outcomes(borda(), 1, (2, 0, 1), (0, 1, 2)) == {2}
        assert possible_outcomes(kapproval(2), 1, (2, 0, 1), (1, 0, 2)) == {0}

    def test_cache_info_reachable_from_module(self):
        before = ccum.possible_outcomes.cache_info()
        possible_outcomes(borda(), 3, (2, 1, 0), (0, 1, 2))
        possible_outcomes(borda(), 3, (2, 1, 0), (0, 1, 2))
        after = ccum.possible_outcomes.cache_info()
        assert after.hits + after.misses == before.hits + before.misses + 2
        assert after.hits >= before.hits + 1

    def test_kapproval_keyed_by_approved_set(self):
        # k-approval reads only the approved set of the fixed ballot, in closed form and past the cache
        tiebreak = (3, 0, 4, 1, 2)
        before = ccum.possible_outcomes.cache_info()
        first = possible_outcomes(kapproval(2), 3, (4, 1, 0, 3, 2), tiebreak)
        assert possible_outcomes(kapproval(2), 3, (1, 4, 2, 0, 3), tiebreak) == first
        assert ccum.possible_outcomes.cache_info() == before

    @pytest.mark.parametrize("fixed, tiebreak, error", [
        ((0, 1, 2, 3), (0, 1, 2, 3, 4), WrongLengthError),
        ((1, 1, 0, 2, 3), (0, 1, 2, 3, 4), DuplicateOutcomeError),
        ((0, 1, 2, 3, 7), (0, 1, 2, 3, 4), OutOfRangeIndexError),
        ((4, 1, 0, 3, 2), (0, 0, 1, 2, 3), DuplicateOutcomeError),
    ])
    def test_malformed_kapproval_query_rejected(self, fixed, tiebreak, error):
        # a malformed query reaches the validator unchanged, not in its approval-set form
        with pytest.raises(error):
            possible_outcomes(kapproval(2), 3, fixed, tiebreak)

    def test_cache_is_bounded(self):
        # table rows live here, so an unbounded cache would outlive every table
        info = ccum.possible_outcomes.cache_info()
        assert info.maxsize is not None and info.maxsize <= 4096


RULE_NAMES = ("borda", "plurality", "antiplurality", "dowdall", "paperfamily", "kapproval",
              "scoring", "vetofamily:omega=9,eps=1", "stv", "runoff", "copeland")


class TestNeutrality:
    """possible_outcomes answers a non-identity tie-break under the identity and relabels."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_search_under_the_tiebreak_itself(self, data):
        m = data.draw(st.sampled_from((3, 4)), label="m")
        n = data.draw(st.sampled_from((2, 3)), label="n")
        name = data.draw(st.sampled_from(RULE_NAMES), label="rule")
        if name == "kapproval":
            name = f"kapproval:k={data.draw(st.integers(1, m - 1), label='k')}"
        elif name == "scoring":
            ws = sorted(data.draw(st.lists(st.integers(0, 4), min_size=m, max_size=m)), reverse=True)
            if ws[0] == ws[-1]:
                ws[0] += 1  # a constant vector is not a scoring rule
            name = "scoring:w=" + ",".join(map(str, ws))
        rule = parse_rule(name)
        tiebreak = tuple(data.draw(st.permutations(range(m)), label="tiebreak"))
        fixed = data.draw(st.none() | st.permutations(range(m)), label="fixed")
        fixed_ballots = () if fixed is None else (tuple(fixed),)
        free = n - len(fixed_ballots)
        # ccum_bruteforce enumerates under the tie-break itself, with no relabeling
        expected = {
            t for t in range(m)
            if ccum_bruteforce(CcumInstance(rule, fixed_ballots, free, t, tiebreak)).achievable
        }
        assert possible_outcomes(rule, n, fixed, tiebreak) == expected

    def test_relabeled_query_shares_the_identity_entry(self, monkeypatch):
        identity, tiebreak = (0, 1, 2, 3), (2, 0, 3, 1)
        report = (1, 3, 0, 2)
        ccum.possible_outcomes.cache_clear()
        found = possible_outcomes(borda(), 3, report, identity)
        calls = []

        def counting(*args):
            calls.append(args)
            return winner(*args)

        monkeypatch.setattr(ccum.rules, "winner", counting)
        # the ballot that relabels onto *report*: outcome tiebreak[o] becomes o
        relabeled = tuple(tiebreak[o] for o in report)
        before = ccum.possible_outcomes.cache_info()
        assert possible_outcomes(borda(), 3, relabeled, tiebreak) == {tiebreak[o] for o in found}
        after = ccum.possible_outcomes.cache_info()
        assert calls == []
        assert (after.misses - before.misses, after.hits - before.hits) == (0, 1)  # no entry of its own

    @pytest.mark.parametrize("rule", [borda(), kapproval(2)])
    @pytest.mark.parametrize("n, fixed, tiebreak, error", [
        (3, (0, 1, 2), (3, 1, 0, 2), WrongLengthError),
        (3, (1, 1, 0, 2), (3, 1, 0, 2), DuplicateOutcomeError),
        (3, (0, 1, 2, 7), (3, 1, 0, 2), OutOfRangeIndexError),
        (3, (0, 1, 2, 3), (3, 1, 1, 2), DuplicateOutcomeError),
        (3, None, (3, 1, 4, 2), OutOfRangeIndexError),
        (0, (0, 1, 2, 3), (3, 1, 0, 2), InvalidParametersError),
    ])
    def test_bad_query_rejected_before_relabeling(self, rule, n, fixed, tiebreak, error):
        with pytest.raises(error):
            possible_outcomes(rule, n, fixed, tiebreak)


# vetofamily(30, 1) keeps omega > m*eps*(n-1) for every m <= 5 and n <= 6 drawn below
SUMMED_RULES = ("borda", "plurality", "antiplurality", "dowdall", "paperfamily", "kapproval", "scoring",
                "vetofamily:omega=30,eps=1", "stv", "runoff", "copeland")


def _draw_rule(data, m):
    name = data.draw(st.sampled_from(SUMMED_RULES), label="rule")
    if name == "kapproval":
        return kapproval(data.draw(st.integers(1, m - 1), label="k"))
    if name == "scoring":  # small weights, or huge ones whose tallies need fields wider than 8 bytes
        entry = st.one_of(st.integers(0, 6), st.integers(0, 2**70), st.fractions(0, 3, max_denominator=4))
        ws = sorted(data.draw(st.lists(entry, min_size=m, max_size=m), label="weights"), reverse=True)
        return rules.scoring([ws[0] + 1, *ws[1:]] if ws[0] == ws[-1] else ws)
    return parse_rule(name)


def _summed(rule, n, fixed, tiebreak):
    # the summed route itself, k-approval too: the identity's cached set of the fixed ballot relabeled by places
    # in the tie-break, mapped back through it
    m, place = len(tiebreak), {o: i for i, o in enumerate(tiebreak)}
    relabeled = None if fixed is None else tuple(place[o] for o in fixed)
    return frozenset(tiebreak[o] for o in ccum._possible_outcomes(rules._resolve(rule, m, n), n, relabeled, m, None))


def _enumerated(rule, n, fixed, tiebreak):
    # the winners of every completion by ballot tuples, stopping once every outcome is found
    m, fixed_ballots, found = len(tiebreak), () if fixed is None else (fixed,), set()
    for profile in enumerate_profiles(m, n - len(fixed_ballots), fixed=fixed_ballots):
        found.add(winner(rule, profile, tiebreak))
        if len(found) == m:
            break
    return found


class TestSummedTallies:
    """Reachable sets summed from ballot tallies equal the winners over enumerated ballot tuples."""

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_matches_enumeration(self, data):
        m = data.draw(st.integers(2, 4), label="m")
        n = data.draw(st.integers(1, 3), label="n")
        rule = _draw_rule(data, m)
        tiebreak = tuple(data.draw(st.permutations(range(m)), label="tiebreak"))
        fixed = data.draw(st.none() | st.permutations(range(m)).map(tuple), label="fixed")
        expected = _enumerated(rule, n, fixed, tiebreak)
        assert possible_outcomes(rule, n, fixed, tiebreak) == expected
        assert _summed(rule, n, fixed, tiebreak) == expected  # k-approval too

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_tally_is_additive(self, data):
        m = data.draw(st.integers(2, 5), label="m")
        rule = _draw_rule(data, m)
        ballots = data.draw(st.lists(st.permutations(range(m)).map(tuple), max_size=4), label="ballots")
        cut = data.draw(st.integers(0, len(ballots)), label="cut")
        n = max(len(ballots), 1) + data.draw(st.integers(0, 2), label="spare voters")
        resolved = rules._resolve(rule, m, n)

        def tally(bs):
            return rules._tally(resolved, m, n, bs)

        whole = tally(ballots)
        assert whole == tally(ballots[:cut]) + tally(ballots[cut:]) == tally(ballots[cut:]) + tally(ballots[:cut])
        assert tally(()) + whole == whole
        if ballots:  # decided at room for n ballots, it is the winner of the profile itself
            order = tuple(data.draw(st.permutations(range(m)), label="order"))
            assert rules._decider(resolved, m, n)(tally(ballots), order) == winner(rule, make_profile(ballots), order)

    def test_fields_wider_than_eight_bytes(self):
        # 3 * 2^70 needs 72-bit fields, wider than a machine word
        rule, identity = rules.scoring((2**70, 2**70 - 1, 0)), (0, 1, 2)
        resolved = rules._resolve(rule, 3, 3)
        assert rules._layout(resolved, 3, 3)[1].step == 72
        for fixed in (None, (2, 1, 0), (1, 0, 2)):
            assert ccum._possible_outcomes(resolved, 3, fixed, 3, None) == _enumerated(rule, 3, fixed, identity)

    @pytest.mark.parametrize("label", ["borda", "dowdall", "paperfamily", "kapproval:k=2",
                                       "vetofamily:omega=30,eps=1", "stv", "runoff", "copeland"])
    def test_sampled_rows_at_m5(self, label):
        rng = random.Random(label)
        rule = parse_rule(label)
        for _ in range(2):
            fixed, tiebreak = tuple(rng.sample(range(5), 5)), tuple(rng.sample(range(5), 5))
            assert _summed(rule, 3, fixed, tiebreak) == _enumerated(rule, 3, fixed, tiebreak)

    @pytest.mark.parametrize("label, unanimous", [("borda", False), ("dowdall", True), ("runoff", True)])
    def test_m5_n4_searches_run_under_the_default_budget(self, label, unanimous):
        # as ballot tuples the table and the all-free query would weigh (5!)^4 = 2.07 * 10^8, over the budget
        rule, identity = parse_rule(label), tuple(range(5))
        rows = {r: bruteforce_feasible(rule, 4, r, identity) for r in enumerate_rankings(5)}
        possible = possible_outcomes(rule, 4, None, identity)
        assert possible == frozenset().union(*rows.values())
        assert has_veto_power(rule, 4, 5) == any(row != possible for row in rows.values())
        # three of four backers of t: Borda gives 12 to t and 3*3 + 4 = 13 to an outcome the backers rank
        # second and the dissenter first; Dowdall's canonical (48, 18, 8, 3, 0) gives t 144 and any other at
        # most 3*18 + 48 = 102; runoff sees t in the final with a majority of first places and of every contest
        assert is_almost_unanimous(rule, 4, 5) == unanimous

    @pytest.mark.parametrize("label", [*(r for r in SUMMED_RULES if r not in ("kapproval", "scoring")),
                                       "scoring:w=3,3,1,0", "scoring:w=5,2,2,2", "kapproval:k=2"])
    def test_distinct_tallies_counted_without_building_them(self, label):
        rule = parse_rule(label)
        for m in (4,) if rule.name in ("scoring", "kapproval") else (2, 3, 4, 5):
            resolved = rules._resolve(rule, m, 3)
            for top in (None, 0, m - 1):
                assert ccum._distinct(resolved, m, 3, top) == len(ccum._units(resolved, m, 3, top))

    @pytest.mark.parametrize("search", [
        lambda: possible_outcomes(borda(), 3, tuple(range(8)), tuple(range(8))),
        lambda: possible_outcomes(stv(), 2, None, tuple(range(8))),
        lambda: bruteforce_feasible(copeland(), 2, tuple(range(8)), tuple(range(8))),
        lambda: has_veto_power(runoff(), 2, 8),
        lambda: is_almost_unanimous(stv(), 2, 8),
        lambda: manipulability.classify_randomized_tiebreak(tuple(range(8)), tuple(range(8, 0, -1)), 2),
    ], ids=["fixed", "free", "table", "veto", "unanimous", "randomized"])
    def test_refused_before_any_tally(self, search, monkeypatch):
        # m=8: every one of these weighs over 10^8 summed tallies and is refused before one tally is built
        monkeypatch.setattr(rules, "_tally", lambda *args: pytest.fail("tally built"))
        with pytest.raises(TooLargeError, match="summed tallies"):
            search()
