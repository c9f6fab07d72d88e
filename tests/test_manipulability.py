"""Best-case / worst-case manipulation detection, both solver routes."""

import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omvote import (
    BomWitness,
    CaseOutcomes,
    CcumCertificate,
    CcumInstance,
    InvalidParametersError,
    TooLargeError,
    UnsupportedRuleError,
    VerificationError,
    borda,
    bruteforce_feasible,
    ccum_bruteforce,
    case_outcomes,
    classify,
    classify_randomized_tiebreak,
    dowdall,
    enumerate_profiles,
    enumerate_rankings,
    kapproval,
    kapproval_k,
    paperfamily,
    parse_rule,
    plurality,
    possible_outcomes,
    score_vector,
    scoring,
    scoring_cowinners,
    scoring_winner,
    make_profile,
    ManipulationReport,
    solve_ccum,
    stv,
)
from omvote import ccum, manipulability, rules
from omvote.core import ranking_positions

IDENTITY3 = (0, 1, 2)
IDENTITY4 = (0, 1, 2, 3)


@pytest.fixture
def fresh_verdicts():
    # brute force derives each truth's verdict once and keeps it apart from the table: a test that counts table
    # builds, or injects a fault into the table, starts with none kept and leaves none behind
    for memo in (manipulability._verdict, manipulability._matches):
        memo.cache_clear()
    yield
    for memo in (manipulability._verdict, manipulability._matches):
        memo.cache_clear()


class TestCaseOutcomes:
    def test_plurality_full_range(self):
        cases = case_outcomes((0, 1, 2), (0, 1, 2), plurality(), 3, IDENTITY3)
        assert cases.feasible == {0, 1, 2}
        assert cases.best == 0 and cases.worst == 2

    def test_singleton_feasible(self):
        # two voters, top-priority outcome 0 wins every tie: reporting 0 first
        # pins the election regardless of the other ballot
        cases = case_outcomes((2, 1, 0), (0, 1, 2), plurality(), 2, IDENTITY3)
        assert cases.feasible == {0}
        assert cases.best == cases.worst == 0

    def test_judged_by_truth_not_report(self):
        cases = case_outcomes((2, 1, 0), (0, 1, 2), plurality(), 3, IDENTITY3)
        assert cases.best == 2 and cases.worst == 0


class TestFindBom:
    @pytest.mark.parametrize("truth", list(enumerate_rankings(3)))
    def test_strict_scoring_never_improves_best(self, truth):
        # with strictly decreasing weights the truthful best is the top choice
        assert classify(truth, borda(), 3, IDENTITY3).bom_witness is None

    @pytest.mark.parametrize("truth", list(enumerate_rankings(3)))
    def test_plurality_never(self, truth):
        assert classify(truth, plurality(), 3, IDENTITY3).bom_witness is None

    def test_large_kapproval_witness(self):
        # m=15, k=14, n=3, identity priority: only outcomes 0..3 are ever
        # electable; a voter whose top choice is 3 but who ranks 14 last can
        # reach 3 only by misreporting
        truth = (3,) + tuple(o for o in range(15) if o != 3)
        witness = classify(truth, kapproval(14), 3, tuple(range(15))).bom_witness
        assert witness is not None
        improved = case_outcomes(truth, witness.misreport, kapproval(14), 3, tuple(range(15)))
        assert improved.best == 3
        # the witness ballots really elect 3
        profile = make_profile((witness.misreport,) + witness.others)
        assert scoring_winner(score_vector(kapproval(14), 15), profile, tuple(range(15))) == 3


class TestFindWom:
    def test_large_kapproval_reduction_witness(self):
        # the disapproval swap: dropping the dangerous tie-break leader and
        # approving the harmless bottom outcome instead improves the worst case
        m, k = 15, 14
        truth = tuple(range(m))
        tiebreak = (13,) + tuple(range(13)) + (14,)
        witness = classify(truth, kapproval(k), 3, tiebreak, mode="reduction").wom_witness
        assert witness == tuple(range(13)) + (14, 13)

    def test_paperfamily_bruteforce_witness_is_lex_first(self):
        # truth ranks outcome 2 last; swapping outcomes 1 and 3 vetoes 2
        witness = classify((0, 1, 3, 2), paperfamily(), 3, IDENTITY4, mode="bruteforce").wom_witness
        assert witness == (0, 3, 1, 2)

    @pytest.mark.parametrize("truth", list(enumerate_rankings(3)))
    def test_borda_never(self, truth):
        assert classify(truth, borda(), 3, IDENTITY3, mode="bruteforce").wom_witness is None

    def test_reduction_refuses_non_kapproval(self):
        with pytest.raises(UnsupportedRuleError):
            classify((0, 1, 2), borda(), 3, IDENTITY3, mode="reduction")

    def test_top_choice_worst_case_cannot_improve(self):
        # feasible set {0} with truth (0,1,2): worst case is the top choice
        assert classify((0, 1, 2), plurality(), 2, IDENTITY3, mode="bruteforce").wom_witness is None

    @staticmethod
    def _first_wom_by_max(table, pos, o_w):
        # reference: the first report in enumeration order whose worst reachable outcome, by a max over
        # positions, beats o_w
        cut = pos[o_w]
        return next((r for r in enumerate_rankings(len(pos)) if max(map(pos.__getitem__, table[r])) < cut), None)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_subset_scan_matches_max_scan(self, data):
        m = data.draw(st.integers(3, 5), label="m")
        rankings = list(enumerate_rankings(m))
        masks = data.draw(st.lists(st.integers(1, 2**m - 1), min_size=len(rankings), max_size=len(rankings)),
                          label="rows")
        table = {r: frozenset(o for o in range(m) if mask >> o & 1) for r, mask in zip(rankings, masks)}
        pos = ranking_positions(data.draw(st.permutations(range(m)), label="truth"))
        o_w = data.draw(st.integers(0, m - 1), label="o_w")
        assert manipulability._first_wom(table, pos, o_w) == self._first_wom_by_max(table, pos, o_w)

    @pytest.mark.parametrize("table", [
        lambda: manipulability._bruteforce_feasible_map(rules._resolve(kapproval(2), 4, 3), 3, 4),
        lambda: manipulability._bruteforce_feasible_map(rules._resolve(borda(), 4, 2), 2, 4),
        lambda: manipulability._cowinner_feasible_map((3, 2, 1, 0), 2, 4),
    ], ids=["approval-sets", "possible-outcomes", "cowinners"])
    def test_tables_keep_enumeration_order(self, table):
        # the subset scan returns the first match in key order, which must be the lexicographic one
        assert list(table()) == list(enumerate_rankings(4))


class TestClassify:
    @pytest.mark.parametrize("truth", list(enumerate_rankings(3)))
    @pytest.mark.parametrize("mode", ["reduction", "bruteforce"])
    def test_plurality_nom(self, truth, mode):
        report = classify(truth, plurality(), 3, IDENTITY3, mode=mode)
        assert report.classification == "NOM"

    def test_paperfamily_wom_only(self):
        report = classify((0, 1, 3, 2), paperfamily(), 3, IDENTITY4, mode="bruteforce")
        assert report.classification == "WOM-only"
        assert report.truthful_cases.worst == 2
        assert report.wom_witness == (0, 3, 1, 2)
        assert report.bom_witness is None

    def test_bom_implies_wom_on_sampled_truths(self):
        # m=5, k=4, n=3 is the one manipulable cell with m <= 5
        rule = kapproval(4)
        for truth in enumerate_rankings(5):
            report = classify(truth, rule, 3, (0, 1, 2, 3, 4), mode="reduction")
            assert report.classification != "BOM-only"


class TestReductionAgainstBruteforce:
    """The polynomial route must answer exactly like exhaustive search."""

    @pytest.mark.parametrize("m", [3, 4])
    def test_all_tiebreaks_small(self, m):
        self._sweep(m)

    @pytest.mark.slow
    def test_all_tiebreaks_m5(self):
        self._sweep(5)

    @staticmethod
    def _sweep(m):
        n = 3
        rankings = list(enumerate_rankings(m))
        for k in range(1, m):
            rule = kapproval(k)
            for tiebreak in rankings:
                rows = {r: bruteforce_feasible(rule, n, r, tiebreak) for r in rankings}
                for truth in rankings:
                    reduced = classify(truth, rule, n, tiebreak, mode="reduction")
                    red, bom = reduced.wom_witness, reduced.bom_witness
                    bru = classify(truth, rule, n, tiebreak, mode="bruteforce").wom_witness
                    assert (red is None) == (bru is None), (m, k, tiebreak, truth)
                    pos = {o: i for i, o in enumerate(truth)}
                    truthful_best = min(rows[truth], key=pos.get)
                    improvable = any(
                        pos[min(row, key=pos.get)] < pos[truthful_best] for row in rows.values()
                    )
                    assert (bom is not None) == improvable, (m, k, tiebreak, truth)
                    # witnesses judged by the brute-force rows, a route that never counts approvals
                    if red is not None:
                        truthful_worst = max(rows[truth], key=pos.get)
                        assert pos[max(rows[red], key=pos.get)] < pos[truthful_worst], (m, k, tiebreak, truth)
                    if bom is not None:
                        assert pos[min(rows[bom.misreport], key=pos.get)] < pos[truthful_best], (m, k, tiebreak, truth)


class TestBruteforceFeasible:
    def test_matches_naive_product(self):
        # quotienting voters down to approval multisets must not change the sets
        rankings = list(enumerate_rankings(3))
        for k in (1, 2):
            rule = kapproval(k)
            for report in rankings:
                naive = set()
                for others in itertools.product(rankings, repeat=2):
                    profile = make_profile((report,) + others)
                    naive.add(scoring_winner(score_vector(rule, 3), profile, IDENTITY3))
                assert bruteforce_feasible(rule, 3, report, IDENTITY3) == naive

    def test_matches_possible_outcomes(self):
        for rule in (plurality(), kapproval(2), borda()):
            for report in enumerate_rankings(3):
                assert bruteforce_feasible(rule, 3, report, IDENTITY3) == possible_outcomes(
                    rule, 3, report, IDENTITY3
                )

    @pytest.mark.parametrize("n", [2.5, "3"])
    def test_non_integer_n_rejected(self, n):
        for rule in (borda(), kapproval(1)):
            with pytest.raises(InvalidParametersError):
                bruteforce_feasible(rule, n, (0, 1, 2), IDENTITY3)

    def test_approval_set_budget(self):
        # m=3, k=1, n=3: 3 approval sets times C(3+1, 2) multisets of the other voters' sets
        with pytest.raises(TooLargeError):
            bruteforce_feasible(kapproval(1), 3, (0, 1, 2), IDENTITY3, 17)
        assert bruteforce_feasible(kapproval(1), 3, (0, 1, 2), IDENTITY3, 18) == {0, 1, 2}

    @pytest.mark.parametrize("budget", [None, 10**30])
    def test_large_kapproval_refused_before_any_approval_set(self, budget, monkeypatch):
        # m=22, k=11: C(22, 11) = 705,432 approval sets and 22! rankings; refused before either is
        # built, by the m <= 8 cap whatever the budget, so no sum of approval sets may be made at all
        monkeypatch.setattr(ccum, "_units", lambda *args: pytest.fail("tallies built"))
        monkeypatch.setattr(ccum, "_sums", lambda *args: pytest.fail("sums built"))
        tracemalloc.start()
        try:
            with pytest.raises(TooLargeError):
                classify(tuple(range(22)), kapproval(11), 3, tuple(range(22)), mode="bruteforce", budget=budget)
            with pytest.raises(TooLargeError):
                bruteforce_feasible(kapproval(11), 3, tuple(range(22)), tuple(range(22)), budget)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**18  # a list of 10^5 frozensets would take more than 2 MiB of pointers alone

    def test_approval_set_budget_weighed_before_the_sets(self, monkeypatch):
        # m=8, k=4: 70 sets times C(70+1, 2) multisets, one row over the budget, refused before any tally is made
        count = math.comb(71, 2) * 70
        monkeypatch.setattr(ccum, "_units", lambda *args: pytest.fail("tallies built"))
        monkeypatch.setattr(ccum, "_sums", lambda *args: pytest.fail("sums built"))
        with pytest.raises(TooLargeError):
            bruteforce_feasible(kapproval(4), 3, tuple(range(8)), tuple(range(8)), count - 1)


class TestRandomizedTiebreak:
    @pytest.mark.parametrize("weights", [(2, 1, 0), (1, 1, 0)])
    @pytest.mark.parametrize("truth", list(enumerate_rankings(3)))
    def test_nom_for_borda_and_two_approval(self, weights, truth):
        report = classify_randomized_tiebreak(truth, weights, 3)
        assert report.classification == "NOM"

    def test_feasible_uses_cowinner_union(self):
        report = classify_randomized_tiebreak((0, 1, 2), (1, 1, 0), 3)
        assert report.truthful_cases.feasible == {0, 1, 2}

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("weights", [(2, 1, 0), (1, 1, 0), (1, 0, 0), score_vector(dowdall(), 3)])
    def test_rows_and_completions_match_cowinner_oracle(self, weights, n):
        # the oracle: union of co-winner sets over every completion, scanned in
        # enumeration order, against the rows and the witness search that
        # put the target first in the priority order
        for report in enumerate_rankings(3):
            completions = list(enumerate_profiles(3, n - 1, fixed=(report,)))
            union = set().union(*(scoring_cowinners(weights, p) for p in completions))
            assert classify_randomized_tiebreak(report, weights, n).truthful_cases.feasible == union
            for target in union:
                first = next(p for p in completions if target in scoring_cowinners(weights, p))
                priority = (target, *(o for o in range(3) if o != target))
                cert = ccum_bruteforce(CcumInstance(scoring(weights), (report,), n - 1, target, priority))
                assert cert.manipulator_ballots == first.ballots[1:]

    # non-increasing weights at m=4 with a drop, equal prefixes and 0/1 vectors among them
    WEIGHTS4 = st.one_of(
        st.sampled_from([(1, 0, 0, 0), (1, 1, 0, 0), (1, 1, 1, 0)]),
        st.lists(st.integers(0, 5), min_size=4, max_size=4).map(lambda ws: tuple(sorted(ws, reverse=True)))
        .filter(lambda ws: ws[0] != ws[-1]),
    )

    @settings(max_examples=20, deadline=None)
    @given(weights=WEIGHTS4, n=st.sampled_from([2, 3]))
    def test_rows_match_cowinner_union_at_m4(self, weights, n):
        # the definition: a report's row is the union of the co-winner sets of all its completions
        for report in enumerate_rankings(4):
            union = set().union(*(scoring_cowinners(weights, p) for p in enumerate_profiles(4, n - 1, fixed=(report,))))
            assert classify_randomized_tiebreak(report, weights, n).truthful_cases.feasible == union

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("weights", [(2, 1, 0), (1, 1, 0), (1, 0, 0), score_vector(dowdall(), 3)])
    def test_never_best_case_manipulable(self, weights, n):
        # the other voters can all rank the truthful top first too, which gives
        # it the highest total possible, so it is always a co-winner
        for truth in enumerate_rankings(3):
            report = classify_randomized_tiebreak(truth, weights, n)
            assert report.truthful_cases.best == truth[0]
            assert report.bom_witness is None

    EQUAL_VECTORS = [(3, 2, 1, 0), [3, 2, 1, 0], (3.0, 2.0, 1.0, 0.0), tuple(map(Fraction, (3, 2, 1, 0)))]

    def test_equal_weight_vectors_share_one_entry(self):
        manipulability._cowinner_feasible_map.cache_clear()
        reports = [[classify_randomized_tiebreak(truth, weights, 3) for truth in enumerate_rankings(4)]
                   for weights in self.EQUAL_VECTORS]
        assert all(r == reports[0] for r in reports)
        assert manipulability._cowinner_feasible_map.cache_info().currsize == 1

    @pytest.mark.parametrize("cached", [False, True])
    @pytest.mark.parametrize("truth, weights", [
        (IDENTITY4, (0, 1, 2, 3)),
        (IDENTITY4, (1, 1, 1, 1)),
        (IDENTITY3, (3, 2, 1, 0)),
        (IDENTITY4, ("a", "b", "c", "d")),
        (IDENTITY4, (3, 2, "x", 0)),
        (IDENTITY4, None),
        (IDENTITY4, [[3], [2], [1], [0]]),
    ], ids=["increasing", "constant", "wrong-length", "strings", "one-string", "none", "nested-list"])
    def test_invalid_weights_rejected_whatever_the_cache_holds(self, truth, weights, cached):
        manipulability._cowinner_feasible_map.cache_clear()
        if cached:
            classify_randomized_tiebreak(IDENTITY4, (3, 2, 1, 0), 3)
        size = manipulability._cowinner_feasible_map.cache_info().currsize
        with pytest.raises(InvalidParametersError):
            classify_randomized_tiebreak(truth, weights, 3)
        assert manipulability._cowinner_feasible_map.cache_info().currsize == size


class TestBudgetBoundaries:
    # m=3, n=3: every exhaustive search raises one unit below its exact
    # count and runs at it.  ccum_bruteforce counts (3!)^2 ballot tuples; the
    # others count summed tallies over the C(d+1, 2) = 21 multisets of two
    # free voters' Borda tallies, d = 6: two build steps for one query, and
    # d rows for a table or the all-free query
    CASES = {
        "ccum_bruteforce": (36, lambda b: ccum_bruteforce(
            CcumInstance(borda(), ((0, 1, 2),), 2, 2, IDENTITY3), budget=b)),
        "possible_outcomes_fixed": (42, lambda b: possible_outcomes(borda(), 3, (0, 1, 2), IDENTITY3, b)),
        "possible_outcomes_free": (126, lambda b: possible_outcomes(borda(), 3, None, IDENTITY3, b)),
        "bruteforce_feasible": (126, lambda b: bruteforce_feasible(borda(), 3, (0, 1, 2), IDENTITY3, b)),
        "randomized_tiebreak": (126, lambda b: classify_randomized_tiebreak((0, 1, 2), (2, 1, 0), 3, b)),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_exact_tuple_count(self, name):
        count, run = self.CASES[name]
        with pytest.raises(TooLargeError):
            run(count - 1)
        assert run(count) is not None

    def test_cowinner_refusals(self):
        # a 0/1 vector sums tallies like any other weights and is weighed as one table; m > 8 is refused by the
        # table's enumeration cap, which it checks first
        with pytest.raises(TooLargeError, match="^786867900 summed tallies"):
            classify_randomized_tiebreak(range(7), (1, 1, 1, 0, 0, 0, 0), 8)
        with pytest.raises(TooLargeError, match="refusing to enumerate 9! rankings"):
            classify_randomized_tiebreak(range(9), (3, 2, 2, 1, 1, 1, 0, 0, 0), 3)


class TestQueryChecks:
    def test_unknown_mode_rejected_before_any_answer(self):
        # n=2, truth (0,1,2): the truthful worst is the top choice, which once returned before the mode check
        with pytest.raises(InvalidParametersError):
            classify((0, 1, 2), plurality(), 2, IDENTITY3, "bogus")

    def test_reduction_needs_kapproval_before_any_answer(self):
        with pytest.raises(UnsupportedRuleError):
            classify((0, 1, 2), stv(), 2, IDENTITY3, "reduction")

    @pytest.mark.parametrize("n", [2.5, 3.0, "3", None])
    def test_non_integer_n_rejected(self, n):
        for call in (lambda: classify((0, 1, 2), borda(), n, IDENTITY3),
                     lambda: case_outcomes((0, 1, 2), (1, 0, 2), borda(), n, IDENTITY3),
                     lambda: classify_randomized_tiebreak((0, 1, 2), (2, 1, 0), n)):
            with pytest.raises(InvalidParametersError):
                call()


    @pytest.mark.parametrize("entry", ["classify", "case_outcomes", "possible_outcomes"])
    def test_kapproval_reachability_holds_up_to_256_outcomes(self, entry, monkeypatch):
        # the counting kernel holds outcomes in bytes: m = 256 is answered, and m = 257 refused, naming the limit,
        # before anything is counted.  The reversed truth approves 255..6 under 250-approval, so two free voters,
        # 12 disapprovals, lift the first 13 approved outcomes in priority order, 6..18
        def ask(m):
            truth, rule, tiebreak = tuple(range(m - 1, -1, -1)), kapproval(m - 6), tuple(range(m))
            if entry == "classify":
                return classify(truth, rule, 3, tiebreak).truthful_cases.feasible
            if entry == "case_outcomes":
                return case_outcomes(truth, truth, rule, 3, tiebreak).feasible
            return possible_outcomes(rule, 3, truth, tiebreak)

        assert ask(256) == set(range(6, 19))
        monkeypatch.setattr(ccum, "_kapproval_reachable", lambda *args: pytest.fail("counted"))
        with pytest.raises(InvalidParametersError, match="m must be at most 256, got 257$"):
            ask(257)


RULE_NAMES = ("borda", "plurality", "antiplurality", "dowdall", "paperfamily", "kapproval",
              "scoring", "vetofamily:omega=9,eps=1", "stv", "runoff", "copeland")


def _draw_rule(data, m):
    # every rule family: a named rule, k-approval at any k, or a random integer score vector
    name = data.draw(st.sampled_from(RULE_NAMES), label="rule")
    if name == "kapproval":
        name = f"kapproval:k={data.draw(st.integers(1, m - 1), label='k')}"
    elif name == "scoring":
        ws = sorted(data.draw(st.lists(st.integers(0, 4), min_size=m, max_size=m), label="weights"), reverse=True)
        if ws[0] == ws[-1]:
            ws[0] += 1  # a constant vector is not a scoring rule
        name = "scoring:w=" + ",".join(map(str, ws))
    return parse_rule(name)


class TestEntryPointsAgree:
    """classify's truthful cases are case_outcomes', and its BOM witness does not depend on the mode."""

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_classify_matches_public_functions(self, data):
        m = data.draw(st.sampled_from((3, 4)), label="m")
        n = data.draw(st.sampled_from((2, 3)), label="n")
        rule = _draw_rule(data, m)
        truth = tuple(data.draw(st.permutations(range(m)), label="truth"))
        tiebreak = tuple(data.draw(st.permutations(range(m)), label="tiebreak"))
        modes = ["auto", "bruteforce"] + (["reduction"] if kapproval_k(rule, m) is not None else [])
        cases = case_outcomes(truth, truth, rule, n, tiebreak)
        labels = {(False, False): "NOM", (True, False): "BOM-only",
                  (False, True): "WOM-only", (True, True): "BOM-and-WOM"}
        reports = [classify(truth, rule, n, tiebreak, mode) for mode in modes]
        for report in reports:
            assert report.classification == labels[report.bom_witness is not None, report.wom_witness is not None]
            assert report.bom_witness == reports[0].bom_witness
            assert report.truthful_cases == cases

    def test_fresh_kapproval_classify_builds_at_most_one_instance(self, monkeypatch):
        # m=21, k=20, n=3, identity priority: only 0, 1 and 2 are reachable from the
        # truthful report, but all-free voters can elect the top choice 3, so the
        # query has a best-case witness, whose certificate is built from the query's
        # checked fields, past an instance's checks
        m = 21
        truth = (3,) + tuple(o for o in range(m) if o != 3)
        built = []
        new = CcumInstance.__new__  # an instance is checked in __new__, so every construction passes here

        def counting(cls, *fields, **named):
            built.append(fields)
            return new(cls, *fields, **named)

        monkeypatch.setattr(CcumInstance, "__new__", counting)
        CcumInstance(kapproval(20), (), 3, 3, tuple(range(m)))  # the spy sees a construction
        assert len(built) == 1
        built.clear()
        ccum.possible_outcomes.cache_clear()
        report = classify(truth, kapproval(20), 3, tuple(range(m)))
        assert report.bom_witness is not None
        assert built == []


class TestIdentityTable:
    """Brute force reads one identity table per rule, yet answers every tie-break as that tie-break's own table would.

    The reference builds the tie-break's table row by row from public possible_outcomes, in enumerate_rankings
    order, and classifies from it as a table keyed by the tie-break did: the truthful row's extremes, the first
    ballot of the coalition certificate of the best all-free outcome, and the first report whose row the truth ranks
    wholly above its truthful worst.
    """

    LABELS = {(False, False): "NOM", (True, False): "BOM-only", (False, True): "WOM-only", (True, True): "BOM-and-WOM"}

    @staticmethod
    def _table(rule, n, tiebreak):
        return {r: possible_outcomes(rule, n, r, tiebreak) for r in enumerate_rankings(len(tiebreak))}

    @classmethod
    def _reference(cls, truth, rule, n, tiebreak, table) -> ManipulationReport:
        pos = ranking_positions(truth)
        places = sorted(map(pos.__getitem__, table[truth]))
        truthful = CaseOutcomes(truth[places[0]], truth[places[-1]], table[truth])
        best = min(map(pos.__getitem__, possible_outcomes(rule, n, None, tiebreak)))
        bom = None
        if best < places[0]:
            ballots = solve_ccum(CcumInstance(rule, (), n, truth[best], tiebreak)).manipulator_ballots
            bom = BomWitness(ballots[0], ballots[1:])
        wom = next((r for r, row in table.items() if max(map(pos.__getitem__, row)) < places[-1]), None)
        return ManipulationReport(cls.LABELS[bom is not None, wom is not None], bom, wom, truthful)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_every_entry_point_matches_the_tiebreak_table(self, data):
        m = data.draw(st.sampled_from((3, 4)), label="m")
        n = data.draw(st.sampled_from((2, 3)), label="n")
        rule = _draw_rule(data, m)
        tiebreak = tuple(data.draw(st.permutations(range(m)), label="tiebreak"))
        table = self._table(rule, n, tiebreak)
        for truth in enumerate_rankings(m):
            assert classify(truth, rule, n, tiebreak, mode="bruteforce") == self._reference(
                truth, rule, n, tiebreak, table), truth
            assert bruteforce_feasible(rule, n, truth, tiebreak) == table[truth]
        truth = tuple(data.draw(st.permutations(range(m)), label="truth"))
        for report, row in table.items():
            assert case_outcomes(truth, report, rule, n, tiebreak).feasible == row

    @pytest.mark.parametrize("label", ["antiplurality", "paperfamily"])
    def test_witnesses_at_m5(self, label):
        # at m=5, n=3 antiplurality has BOM-and-WOM and WOM-only truths and paperfamily WOM-only ones, whatever
        # the tie-break; two seeded tie-breaks, every truth
        rule, rng, found = parse_rule(label), random.Random(label), set()
        for tiebreak in (tuple(rng.sample(range(5), 5)) for _ in range(2)):
            table = self._table(rule, 3, tiebreak)
            for truth in enumerate_rankings(5):
                report = classify(truth, rule, 3, tiebreak, mode="bruteforce")
                assert report == self._reference(truth, rule, 3, tiebreak, table), (tiebreak, truth)
                found.add(report.classification)
        assert found == {"antiplurality": {"NOM", "WOM-only", "BOM-and-WOM"}, "paperfamily": {"NOM", "WOM-only"}}[label]

    @pytest.mark.parametrize("label", ["paperfamily", "stv", "kapproval:k=2"])
    def test_one_table_serves_every_tiebreak(self, label, fresh_verdicts):
        # all 24 truths under all 24 tie-breaks at m=4, n=3: one table, and at most its m! rows plus the all-free
        # query cached
        rule = parse_rule(label)
        manipulability._bruteforce_feasible_map.cache_clear()
        possible_outcomes.cache_clear()
        for tiebreak in enumerate_rankings(4):
            for truth in enumerate_rankings(4):
                classify(truth, rule, 3, tiebreak, mode="bruteforce")
        info = manipulability._bruteforce_feasible_map.cache_info()
        assert (info.misses, info.currsize) == (1, 1)
        assert possible_outcomes.cache_info().currsize <= math.factorial(4) + 1


class TestVerdictMemo:
    """Brute force derives each truth's verdict once, in identity labels, and answers every tie-break from it."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_warm_verdicts_answer_another_tiebreak(self, data):
        # every verdict warmed under one tie-break, then every truth classified under another, witnesses included
        m = data.draw(st.sampled_from((3, 4)), label="m")
        n = data.draw(st.sampled_from((2, 3)), label="n")
        rule = _draw_rule(data, m)
        warm, tiebreak = (tuple(data.draw(st.permutations(range(m)), label=label)) for label in ("warm", "tiebreak"))
        manipulability._verdict.cache_clear()
        manipulability._matches.cache_clear()
        for truth in enumerate_rankings(m):
            classify(truth, rule, n, warm, mode="bruteforce")
        table = TestIdentityTable._table(rule, n, tiebreak)
        for truth in enumerate_rankings(m):
            assert classify(truth, rule, n, tiebreak, mode="bruteforce") == TestIdentityTable._reference(
                truth, rule, n, tiebreak, table), truth

    @pytest.mark.parametrize("label", ["paperfamily", "copeland", "kapproval:k=2"])
    def test_every_tiebreak_derives_at_most_m_factorial_verdicts(self, label, fresh_verdicts):
        # all 24 truths under all 24 tie-breaks at m=4, n=3: 576 queries, at most 24 verdicts and fewer than 2^4
        # match lists
        rule = parse_rule(label)
        for tiebreak in enumerate_rankings(4):
            for truth in enumerate_rankings(4):
                classify(truth, rule, 3, tiebreak, mode="bruteforce")
        assert manipulability._verdict.cache_info().misses <= math.factorial(4)
        assert manipulability._matches.cache_info().misses < 2**4

    def test_cowinner_reports_built_once_per_truth(self, monkeypatch):
        # 24 truths asked three times each: one report built per truth, kept with its table and returned again
        derived, first_wom = [], manipulability._first_wom

        def counting(*args):
            derived.append(args)
            return first_wom(*args)

        monkeypatch.setattr(manipulability, "_first_wom", counting)
        manipulability._cowinner_feasible_map.cache_clear()
        rounds = [[classify_randomized_tiebreak(truth, (3, 2, 1, 0), 3) for truth in enumerate_rankings(4)]
                  for _ in range(3)]
        assert len(derived) <= math.factorial(4)
        assert all(a is b for later in rounds[1:] for a, b in zip(rounds[0], later))
        assert len(manipulability._cowinner_feasible_map((3, 2, 1, 0), 3, 4, None).reports) == math.factorial(4)


class TestRefusalOrder:
    """Brute-force classify asks the truth's row, then the all-free set, then the coalition certificate when a
    best-case witness exists, then the table when the truthful worst is not the top choice.

    Each query refuses one unit below its weight and runs at it, so a budget between two weights names the later
    one.  A summed rule weighs its all-free set as one table, so once that set is admitted its table is too; a
    k-approval rule reads its row and all-free set in closed form and builds its certificate greedily, unweighed,
    so its table alone refuses, after the certificate.  No summed rule has a best-case witness at m <= 5.
    """

    IDENTITY5 = (0, 1, 2, 3, 4)
    CASES = [  # rule, truth, tie-break, (budget, the weight its refusal names or None), the verdict at the last budget
        ("borda", IDENTITY4, (2, 0, 3, 1), [(599, 600), (600, 7200), (7199, 7200), (7200, None)], "NOM"),
        ("paperfamily", (0, 1, 3, 2), IDENTITY4, [(599, 600), (600, 7200), (7199, 7200), (7200, None)], "WOM-only"),
        ("kapproval:k=2", IDENTITY4, (1, 3, 0, 2), [(41, 126), (125, 126), (126, None)], "NOM"),
        ("kapproval:k=4", (3, 0, 1, 2, 4), IDENTITY5, [(29, 75), (74, 75), (75, None)], "BOM-and-WOM"),
        ("scoring:w=2,1,1,1,0", IDENTITY5, (1, 0, 2, 4, 3), [(419, 420), (420, 4200), (4199, 4200), (4200, None)],
         "NOM"),
        ("paperfamily", (0, 1, 2, 4, 3), IDENTITY5,
         [(14519, 14520), (14520, 871200), (871199, 871200), (871200, None)], "WOM-only"),
    ]

    @pytest.mark.parametrize("label, truth, tiebreak, budgets, verdict", CASES,
                             ids=[f"{c[0]}-m{len(c[1])}" for c in CASES])
    def test_each_query_refuses_below_its_weight(self, label, truth, tiebreak, budgets, verdict, monkeypatch):
        asked, certificate, table = [], manipulability._certificate, manipulability._bruteforce_feasible_map

        def spying(name, query):
            def spy(*args):
                asked.append(name)
                return query(*args)
            return spy

        monkeypatch.setattr(manipulability, "_certificate", spying("certificate", certificate))
        monkeypatch.setattr(manipulability, "_bruteforce_feasible_map", spying("table", table))
        rule = parse_rule(label)
        for budget, weight in budgets:
            asked.clear()
            if weight is None:
                assert classify(truth, rule, 3, tiebreak, mode="bruteforce", budget=budget).classification == verdict
                continue
            with pytest.raises(TooLargeError, match=f"^{weight} summed tallies exceed the enumeration budget$"):
                classify(truth, rule, 3, tiebreak, mode="bruteforce", budget=budget)
            if rule.name == "kapproval":  # the row and the all-free set never refuse: the table does, last
                assert asked == ["certificate", "table"][verdict != "BOM-and-WOM":], budget
            else:
                assert asked == [], budget

    @pytest.mark.parametrize("label", ["kapproval:k=4", "scoring:w=2,1,1,1,1,1,1,1,0"])
    def test_nine_outcomes_refused_by_the_enumeration_cap(self, label):
        # 4-approval reaches the table, whose cap refuses it; the scoring rule's row is admitted by the budget
        # (72 one-ballot tallies) and refused when its tallies would enumerate the rankings
        with pytest.raises(TooLargeError, match=r"^refusing to enumerate 9! rankings \(m > 8\)$"):
            classify(tuple(range(9)), parse_rule(label), 3, tuple(range(9)), mode="bruteforce")


class TestVerificationFaults:
    """Each witness check raises VerificationError when a fault is injected into what it checks."""

    BOM_TRUTH = (3, 0, 1, 2, 4)  # has a best-case witness under 4-approval, n=3, identity priority

    def _bom_witness(self):
        return classify(self.BOM_TRUTH, kapproval(4), 3, (0, 1, 2, 3, 4)).bom_witness

    def test_bom_without_certificate(self, monkeypatch):
        monkeypatch.setattr(manipulability, "_certificate", lambda *fields: CcumCertificate(False, None))
        with pytest.raises(VerificationError, match="no certificate"):
            self._bom_witness()

    def test_bom_witness_that_does_not_improve(self, monkeypatch):
        certificate = manipulability._certificate

        def truthful_first(*fields):
            cert = certificate(*fields)
            return CcumCertificate(True, (self.BOM_TRUTH, *cert.manipulator_ballots[1:]))

        monkeypatch.setattr(manipulability, "_certificate", truthful_first)
        with pytest.raises(VerificationError, match="best-case witness"):
            self._bom_witness()

    def test_bruteforce_wom_witness_rechecked(self, monkeypatch, fresh_verdicts):
        # the truthful worst case of (0, 1, 2, 3) is 2, so the truth itself does not improve it: a table whose
        # row of the truth claims {0} makes the match memo list it, and the check reads its reachable set again
        monkeypatch.setattr(manipulability, "_bruteforce_feasible_map",
                            lambda rule, n, m, budget=None: {IDENTITY4: frozenset({0})})
        with pytest.raises(VerificationError, match="worst-case witness"):
            classify(IDENTITY4, kapproval(2), 3, IDENTITY4, mode="bruteforce")

    def test_warm_bruteforce_wom_witness_rechecked(self, monkeypatch, fresh_verdicts):
        # with the verdict and its matches kept, a fault in the witness's row is still caught: the check reads that
        # row on every call, not only when the verdict is derived
        assert classify((0, 1, 3, 2), paperfamily(), 3, IDENTITY4, mode="bruteforce").wom_witness == (0, 3, 1, 2)
        reachable = manipulability._identity_reachable

        def faulty(rule, n, fixed, m, budget):
            return frozenset(range(m)) if fixed == (0, 3, 1, 2) else reachable(rule, n, fixed, m, budget)

        monkeypatch.setattr(manipulability, "_identity_reachable", faulty)
        with pytest.raises(VerificationError, match="worst-case witness"):
            classify((0, 1, 3, 2), paperfamily(), 3, IDENTITY4, mode="bruteforce")

    def test_warm_randomized_truthful_top_not_a_cowinner(self, monkeypatch):
        # the truth's report is kept with its table, yet the co-winner check reads the table's row on every call
        classify_randomized_tiebreak(IDENTITY3, (2, 1, 0), 3)
        table = manipulability._cowinner_feasible_map((2, 1, 0), 3, 3, None)
        assert IDENTITY3 in table.reports
        monkeypatch.setitem(table, IDENTITY3, frozenset({1, 2}))
        with pytest.raises(VerificationError, match="not a co-winner"):
            classify_randomized_tiebreak(IDENTITY3, (2, 1, 0), 3)

    def test_randomized_truthful_top_not_a_cowinner(self, monkeypatch):
        monkeypatch.setattr(manipulability, "_cowinner_feasible_map",
                            lambda weights, n, m, budget=None: {IDENTITY3: frozenset({1, 2})})
        with pytest.raises(VerificationError, match="not a co-winner"):
            classify_randomized_tiebreak(IDENTITY3, (2, 1, 0), 3)
