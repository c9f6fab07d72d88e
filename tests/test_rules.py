"""Winner determination under every supported rule."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omvote import (
    DimensionMismatchError,
    DuplicateOutcomeError,
    InvalidParametersError,
    OutOfRangeIndexError,
    RuleSpec,
    UnsupportedRuleError,
    antiplurality,
    borda,
    bruteforce_feasible,
    classify,
    classify_randomized_tiebreak,
    condorcet_winner,
    copeland,
    dowdall,
    enumerate_profiles,
    enumerate_rankings,
    has_veto_power,
    is_almost_unanimous,
    kapproval,
    kapproval_k,
    make_profile,
    make_score_vector,
    paperfamily,
    parse_rule,
    plurality,
    possible_outcomes,
    rule_label,
    runoff,
    score_vector,
    scoring,
    scoring_cowinners,
    scoring_scores,
    scoring_winner,
    stv,
    vetofamily,
    winner,
)
from omvote import manipulability
from omvote.rules import SCORING_RULE_NAMES, _canonical_weights

F = Fraction

# three ballots used throughout: the strict-rule counterexample election
PROOF_PROFILE = make_profile([(0, 1, 3, 2), (2, 0, 3, 1), (2, 1, 3, 0)])


class TestScoreVectors:
    def test_borda(self):
        assert score_vector(borda(), 4) == (3, 2, 1, 0)

    def test_kapproval(self):
        assert score_vector(kapproval(2), 4) == (1, 1, 0, 0)

    def test_dowdall(self):
        assert score_vector(dowdall(), 3) == (1, F(1, 2), F(1, 3))

    def test_paperfamily(self):
        assert score_vector(paperfamily(), 4) == (6, 5, 4, 0)
        assert score_vector(paperfamily(), 5) == (7, 6, 5, 4, 0)

    def test_vetofamily(self):
        assert score_vector(vetofamily(9, 1), 4, n=3) == (13, 12, 11, 0)

    def test_vetofamily_constraint(self):
        # omega must exceed m*eps*(n-1) once n is known
        with pytest.raises(InvalidParametersError):
            score_vector(vetofamily(8, 1), 4, n=3)
        with pytest.raises(InvalidParametersError):
            vetofamily(0, 1)

    def test_kapproval_bounds(self):
        with pytest.raises(InvalidParametersError):
            score_vector(kapproval(4), 4)
        with pytest.raises(InvalidParametersError):
            kapproval(0)

    def test_increasing_vector_rejected(self):
        with pytest.raises(InvalidParametersError):
            make_score_vector([1, 2, 3])

    def test_constant_vector_rejected(self):
        with pytest.raises(InvalidParametersError):
            make_score_vector([1, 1, 1])

    def test_single_weight_rejected(self):
        with pytest.raises(InvalidParametersError):
            make_score_vector([1])

    def test_kapproval_k_detection(self):
        assert kapproval_k(plurality(), 5) == 1
        assert kapproval_k(kapproval(3), 5) == 3
        assert kapproval_k(scoring([1, 1, 0, 0]), 4) == 2
        assert kapproval_k(borda(), 5) is None
        assert kapproval_k(scoring([2, 2, 0, 0]), 4) == 2


class TestRuleInputErrors:
    # constructors raise a VotingError subclass, never ValueError or TypeError
    @pytest.mark.parametrize("rule", [borda(), stv(), runoff(), copeland()])
    def test_float_tiebreak_entry_rejected(self, rule):
        # (0, 1.0, 2) passes a set comparison with range(3) but is not a tie-break
        with pytest.raises(OutOfRangeIndexError):
            winner(rule, make_profile([(0, 1, 2), (1, 0, 2)]), (0, 1.0, 2))

    def test_non_numeric_weights(self):
        with pytest.raises(InvalidParametersError):
            scoring(["x", 1])
        with pytest.raises(InvalidParametersError):
            make_score_vector([None, 0])

    def test_non_numeric_vetofamily(self):
        with pytest.raises(InvalidParametersError):
            vetofamily("a", 1)
        with pytest.raises(InvalidParametersError):
            vetofamily(9, "b")

    @pytest.mark.parametrize("weights", [("x", 0, 0), (None, 0, 0)])
    def test_non_numeric_weights_at_every_scoring_function(self, weights):
        profile = make_profile([(0, 1, 2), (1, 0, 2)])
        with pytest.raises(InvalidParametersError):
            scoring_scores(weights, profile)
        with pytest.raises(InvalidParametersError):
            scoring_cowinners(weights, profile)
        with pytest.raises(InvalidParametersError):
            scoring_winner(weights, profile, (0, 1, 2))

    @pytest.mark.parametrize("rule", [scoring((3, 2, 1, 0)), stv()], ids=["weight-count", "stv"])
    def test_no_score_vector_at_m3(self, rule):
        with pytest.raises(InvalidParametersError):
            score_vector(rule, 3)

    def test_kapproval_needs_integer_k(self):
        with pytest.raises(InvalidParametersError):
            kapproval(2.5)
        with pytest.raises(InvalidParametersError):
            kapproval("2")


class TestCanonicalWeights:
    @pytest.mark.parametrize("rule, expected", [
        (borda(), (3, 2, 1, 0)),
        (dowdall(), (9, 3, 1, 0)),
        (paperfamily(), (6, 5, 4, 0)),
        (vetofamily(9, 1), (13, 12, 11, 0)),
        (kapproval(2), (1, 1, 0, 0)),
        (antiplurality(), (1, 1, 1, 0)),
    ])
    def test_pinned_at_m4(self, rule, expected):
        got = _canonical_weights(rule, 4)
        assert got == expected
        assert all(type(w) is int for w in got)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_affine_invariance(self, data):
        # a positive affine map of the weights changes nothing a rule decides
        m = data.draw(st.sampled_from([3, 4]), label="m")
        n = data.draw(st.sampled_from([2, 3]), label="n")
        rule = data.draw(_scoring_rules(m), label="rule")
        scale = data.draw(st.fractions(min_value=F(1, 7), max_value=7).filter(bool), label="scale")
        shift = data.draw(st.fractions(min_value=-5, max_value=5), label="shift")
        mapped = scoring([scale * w + shift for w in score_vector(rule, m, n)])
        assert kapproval_k(mapped, m) == kapproval_k(rule, m)
        rankings = st.permutations(list(range(m))).map(tuple)
        for _ in range(3):
            profile = make_profile(data.draw(st.lists(rankings, min_size=n, max_size=n), label="profile"))
            tiebreak = data.draw(rankings, label="tiebreak")
            assert winner(mapped, profile, tiebreak) == winner(rule, profile, tiebreak)
        truth = data.draw(rankings, label="truth")
        tiebreak = data.draw(rankings, label="tiebreak")
        assert classify(truth, mapped, n, tiebreak) == classify(truth, rule, n, tiebreak)


@st.composite
def _scoring_rules(draw, m):
    name = draw(st.sampled_from(sorted(SCORING_RULE_NAMES)))
    if name == "kapproval":
        return kapproval(draw(st.integers(1, m - 1)))
    if name == "vetofamily":
        return vetofamily(9, 1)  # omega > m*eps*(n-1) for every m <= 4, n <= 3
    if name == "scoring":
        drops = draw(st.lists(st.integers(0, 3), min_size=m - 1, max_size=m - 1).filter(any))
        return scoring([sum(drops[i:]) for i in range(m)])
    return parse_rule(name)


class TestOneRuleIdentity:
    """Every RuleSpec is resolved once to its canonical rule, and every search and cache reads that rule."""

    @pytest.mark.parametrize("search", [
        lambda rule: possible_outcomes(rule, 3, None, (0, 1, 2, 3), budget=0),
        lambda rule: classify((0, 1, 2, 3), rule, 3, (0, 1, 2, 3), budget=0),
        lambda rule: has_veto_power(rule, 3, 4, None, budget=0),
        lambda rule: is_almost_unanimous(rule, 3, 4, None, budget=0),
    ], ids=["possible_outcomes", "classify", "veto", "unanimous"])
    def test_unknown_rule_named_before_weighing(self, search):
        # weighed as a rule of 24 one-ballot tallies, it would exceed a budget of 0 first
        with pytest.raises(UnsupportedRuleError, match="unknown rule 'foo'"):
            search(RuleSpec("foo"))

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_aliases_share_reports_and_tables(self, data):
        # the rules of a group share one canonical rule: the same report in every mode, and the second
        # rule, or a co-winner run after the identity brute-force run, sums no reachable set again
        m = data.draw(st.integers(3, 5), label="m")
        n = data.draw(st.integers(2, 3), label="n")
        group = data.draw(_aliases(m, n), label="group")
        truth = tuple(data.draw(st.permutations(range(m)), label="truth"))
        tiebreak = tuple(data.draw(st.permutations(range(m)), label="tiebreak"))
        modes = ["auto", "bruteforce"] + (["reduction"] if kapproval_k(group[0], m) is not None else [])
        reports = [classify(truth, group[0], n, tiebreak, mode) for mode in modes]
        for alias in group[1:]:
            misses = possible_outcomes.cache_info().misses
            assert [classify(truth, alias, n, tiebreak, mode) for mode in modes] == reports, rule_label(alias)
            assert possible_outcomes.cache_info().misses == misses, rule_label(alias)
        bruteforce_feasible(group[0], n, truth, tuple(range(m)))  # the identity table, which classify reads
        manipulability._cowinner_feasible_map.cache_clear()
        misses = possible_outcomes.cache_info().misses
        classify_randomized_tiebreak(truth, score_vector(group[-1], m, n), n)
        assert possible_outcomes.cache_info().misses == misses


@st.composite
def _aliases(draw, m, n):
    # rules equal up to their name or a positive affine map of their weights
    scale = draw(st.fractions(min_value=F(1, 5), max_value=5).filter(bool), label="scale")
    shift = draw(st.fractions(min_value=-3, max_value=3), label="shift")

    def images(ws):
        return [scoring(ws), scoring([2 * w for w in ws]), scoring([scale * w + shift for w in ws])]

    kind = draw(st.sampled_from(["borda", "plurality", "antiplurality", "vetofamily", "binary"]), label="kind")
    if kind == "borda":  # (6, 4, 2, 0) among the images at m=4
        return [borda(), *images(score_vector(borda(), m))]
    if kind == "plurality":
        return [plurality(), kapproval(1), *images([1] + [0] * (m - 1))]
    if kind == "antiplurality":
        return [antiplurality(), kapproval(m - 1), *images([1] * (m - 1) + [0])]
    if kind == "vetofamily":
        eps = draw(st.integers(1, 3), label="eps")
        rule = vetofamily(m * eps * (n - 1) + draw(st.integers(1, 4), label="omega over its bound"), eps)
        return [rule, *images(score_vector(rule, m, n))]
    k = draw(st.integers(1, m - 1), label="k")
    return [*images([1] * k + [0] * (m - k)), kapproval(k)]


class TestScoring:
    def test_unanimous_borda(self):
        profile = make_profile([(0, 1, 2), (0, 1, 2)])
        assert scoring_scores((2, 1, 0), profile) == {0: 4, 1: 2, 2: 0}

    def test_plurality_counts(self):
        profile = make_profile([(0, 1, 2), (1, 0, 2), (1, 2, 0)])
        assert scoring_scores((1, 0, 0), profile) == {0: 1, 1: 2, 2: 0}

    def test_proof_profile_scores(self):
        # hand sum: 6+5+0, 5+0+5, 0+6+6, 4+4+4 -- outcomes 2 and 3 tie at 12
        scores = scoring_scores((6, 5, 4, 0), PROOF_PROFILE)
        assert scores == {0: 11, 1: 10, 2: 12, 3: 12}

    def test_proof_profile_winner_by_tiebreak(self):
        assert scoring_winner((6, 5, 4, 0), PROOF_PROFILE, (0, 1, 2, 3)) == 2
        assert scoring_winner((6, 5, 4, 0), PROOF_PROFILE, (3, 2, 1, 0)) == 3

    def test_tie_resolved_by_priority(self):
        profile = make_profile([(0, 1, 2), (1, 0, 2)])
        assert scoring_winner((1, 1, 0), profile, (2, 1, 0)) == 1

    def test_cowinners(self):
        profile = make_profile([(0, 1, 2), (1, 0, 2)])
        assert scoring_cowinners((1, 1, 0), profile) == {0, 1}
        rotations = make_profile([(0, 1, 2), (1, 2, 0), (2, 0, 1)])
        assert scoring_cowinners((2, 1, 0), rotations) == {0, 1, 2}

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            scoring_scores((1, 0), make_profile([(0, 1, 2)]))
        with pytest.raises(DimensionMismatchError):
            scoring_winner((1, 0, 0), make_profile([(0, 1, 2)]), (0, 1))

    def test_tiebreak_must_be_a_permutation(self):
        profile = make_profile([(0, 1, 2), (1, 0, 2)])
        for rule in (borda(), stv(), runoff(), copeland()):
            with pytest.raises(DuplicateOutcomeError):
                winner(rule, profile, (0, 0, 1))

    def test_dowdall_exact_tie(self):
        # 1 + 1/2 + 1/3 arithmetic must compare exactly, not approximately
        profile = make_profile([(0, 1, 2), (1, 2, 0), (2, 0, 1)])
        weights = score_vector(dowdall(), 3)
        assert scoring_cowinners(weights, profile) == {0, 1, 2}


class TestStv:
    def test_unanimous(self):
        profile = make_profile([(1, 0, 2)] * 3)
        assert winner(stv(), profile, (0, 1, 2)) == 1

    def test_elimination_trace(self):
        profile = make_profile([(0, 1, 2), (0, 1, 2), (1, 2, 0)])
        assert winner(stv(), profile, (0, 1, 2)) == 0

    def test_majority_top_never_loses(self):
        for profile in enumerate_profiles(3, 3):
            firsts = [0, 0, 0]
            for ballot in profile:
                firsts[ballot[0]] += 1
            leaders = [o for o in range(3) if 2 * firsts[o] > 3]
            if leaders:
                assert winner(stv(), profile, (0, 1, 2)) == leaders[0]


def _stv_reference(profile, tiebreak):
    # elimination ties drop the outcome that comes last in the tie-break
    remaining = set(range(profile.m))
    while len(remaining) > 1:
        tops = [next(o for o in ballot if o in remaining) for ballot in profile]
        fewest = min(tops.count(o) for o in remaining)
        remaining.remove(max((o for o in remaining if tops.count(o) == fewest), key=tiebreak.index))
    return remaining.pop()


def _runoff_reference(profile, tiebreak):
    # finalists by first places, ties to the higher priority; a tied runoff to the higher priority too
    tops = [ballot[0] for ballot in profile]
    a, b = sorted(range(profile.m), key=lambda o: (-tops.count(o), tiebreak.index(o)))[:2]
    margin = sum(1 if ballot.index(a) < ballot.index(b) else -1 for ballot in profile)
    return a if margin > 0 else b if margin < 0 else min(a, b, key=tiebreak.index)


@pytest.mark.parametrize("rule, reference", [(stv(), _stv_reference), (runoff(), _runoff_reference)],
                         ids=["stv", "runoff"])
@pytest.mark.parametrize("m, n", [(3, 4), (4, 2)])
def test_ties_follow_the_tiebreak_exhaustively(rule, reference, m, n):
    for profile in enumerate_profiles(m, n):
        for tiebreak in enumerate_rankings(m):
            assert winner(rule, profile, tiebreak) == reference(profile, tiebreak), (profile.ballots, tiebreak)


class TestRunoff:
    def test_unanimous(self):
        profile = make_profile([(2, 0, 1)] * 4)
        assert winner(runoff(), profile, (0, 1, 2)) == 2

    def test_all_tied_finalists_by_priority(self):
        profile = make_profile([(0, 2, 1), (1, 2, 0), (2, 0, 1)])
        # finalists 0 and 1 by priority; 0 beats 1 pairwise 2-1
        assert winner(runoff(), profile, (0, 1, 2)) == 0

    def test_two_outcomes_equals_plurality(self):
        for profile in enumerate_profiles(2, 3):
            assert winner(runoff(), profile, (0, 1)) == scoring_winner(
                (1, 0), profile, (0, 1)
            )

    def test_one_outcome_rejected(self):
        with pytest.raises(InvalidParametersError):
            winner(runoff(), make_profile([(0,), (0,)]), (0,))


class TestCopelandCondorcet:
    def test_unanimous(self):
        profile = make_profile([(1, 2, 0)] * 3)
        assert winner(copeland(), profile, (0, 1, 2)) == 1
        assert condorcet_winner(profile) == 1

    def test_cycle(self):
        rotations = make_profile([(0, 1, 2), (1, 2, 0), (2, 0, 1)])
        assert condorcet_winner(rotations) is None
        assert winner(copeland(), rotations, (2, 0, 1)) == 2  # all tied, priority decides

    def test_condorcet_example(self):
        profile = make_profile([(0, 1, 2), (0, 2, 1), (1, 0, 2)])
        assert condorcet_winner(profile) == 0

    def test_copeland_extends_condorcet_exhaustively(self):
        # all 216 profiles with n=3, m=3
        for profile in enumerate_profiles(3, 3):
            cw = condorcet_winner(profile)
            if cw is not None:
                for tiebreak in enumerate_rankings(3):
                    assert winner(copeland(), profile, tiebreak) == cw


class TestAlmostUnanimousBehaviour:
    @pytest.mark.parametrize("rule", [stv(), runoff(), copeland()])
    def test_shared_top_of_all_but_one_wins(self, rule):
        # n=3, m=3: whenever two of three voters rank o first, o wins
        for profile in enumerate_profiles(3, 3):
            firsts = [ballot[0] for ballot in profile]
            for o in range(3):
                if firsts.count(o) >= 2:
                    assert winner(rule, profile, (0, 1, 2)) == o


class TestRelabeling:
    @given(
        st.lists(st.permutations(list(range(3))), min_size=2, max_size=4),
        st.permutations(list(range(3))),
        st.permutations(list(range(3))),
    )
    def test_winner_commutes_with_relabeling(self, ballots, sigma, tiebreak):
        profile = make_profile([tuple(b) for b in ballots])
        mapped = make_profile([tuple(sigma[o] for o in b) for b in ballots])
        mapped_tb = tuple(sigma[o] for o in tiebreak)
        for rule in (borda(), plurality(), kapproval(2), stv(), runoff(), copeland()):
            got = winner(rule, mapped, mapped_tb)
            assert got == sigma[winner(rule, profile, tuple(tiebreak))]

    def test_winner_in_cowinners(self):
        for profile in enumerate_profiles(3, 2):
            for w in ((2, 1, 0), (1, 1, 0), (1, 0, 0)):
                cowinners = scoring_cowinners(w, profile)
                for tiebreak in enumerate_rankings(3):
                    assert scoring_winner(w, profile, tiebreak) in cowinners
                if len(cowinners) == 1:
                    assert scoring_winner(w, profile, (0, 1, 2)) in cowinners


class TestRuleSyntax:
    @pytest.mark.parametrize(
        "text",
        ["borda", "plurality", "antiplurality", "dowdall", "paperfamily", "stv",
         "runoff", "copeland", "kapproval:k=14", "scoring:w=6,5,4,0",
         "vetofamily:omega=9,eps=1"],
    )
    def test_round_trip(self, text):
        assert rule_label(parse_rule(text)) == text

    def test_scoring_fractions(self):
        spec = parse_rule("scoring:w=1,1/2,1/3")
        assert spec.weights == (1, F(1, 2), F(1, 3))

    def test_unknown_rule(self):
        with pytest.raises(InvalidParametersError):
            parse_rule("bucklin")

    def test_winner_of_unknown_rule(self):
        with pytest.raises(UnsupportedRuleError):
            winner(RuleSpec("bucklin"), PROOF_PROFILE, (0, 1, 2, 3))

    def test_bad_parameters(self):
        with pytest.raises(InvalidParametersError):
            parse_rule("kapproval:k=two")
        with pytest.raises(InvalidParametersError):
            parse_rule("kapproval:x=2")
        with pytest.raises(InvalidParametersError):
            parse_rule("borda:k=2")

    @pytest.mark.parametrize("params", ["omega=9,eps=1,bogus=3", "omega=9,eps=1,omega=5"])
    def test_vetofamily_takes_omega_and_eps_once_each(self, params):
        with pytest.raises(InvalidParametersError):
            parse_rule("vetofamily:" + params)

    def test_vetofamily_keys_in_either_order(self):
        assert parse_rule("vetofamily:eps=1,omega=9") == vetofamily(9, 1)
