"""Closed-form predicates and the search-based structure detectors."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omvote import (
    InvalidParametersError,
    TooLargeError,
    bom_iff,
    borda,
    bruteforce_feasible,
    classify,
    copeland,
    dowdall,
    enumerate_rankings,
    has_veto_power,
    is_almost_unanimous,
    kapproval,
    kapproval_om,
    paperfamily,
    parse_rule,
    plurality,
    runoff,
    score_vector,
    scoring,
    scoring_nom_sufficient,
    stv,
    vetofamily,
    weakly_diminishing,
)
from omvote import characterization
from omvote.core import ranking_positions

F = Fraction


class TestKapprovalOm:
    def test_manipulable_cell(self):
        verdict = kapproval_om(3, 15, 14)
        assert verdict.holds and verdict.implied_classification == "OM"

    def test_boundary_cell(self):
        verdict = kapproval_om(14, 15, 14)
        assert not verdict.holds and verdict.implied_classification == "NOM"
        assert kapproval_om(13, 15, 14).holds  # 13 <= 13 still manipulable

    def test_wide_gap_cell(self):
        assert kapproval_om(3, 21, 14).implied_classification == "NOM"  # 3 > 19/7

    def test_parameter_validation(self):
        with pytest.raises(InvalidParametersError):
            kapproval_om(2, 15, 14)
        with pytest.raises(InvalidParametersError):
            kapproval_om(3, 4, 4)

    @pytest.mark.parametrize("args", [(3.5, 15, 14), (3, 15.5, 14), (3, 15, "14")])
    def test_non_integer_parameters(self, args):
        with pytest.raises(InvalidParametersError):
            kapproval_om(*args)


class TestScoringNomSufficient:
    def test_plurality_three_voters(self):
        verdict = scoring_nom_sufficient(3, (1, 0, 0))
        assert verdict.holds and verdict.implied_classification == "NOM"

    def test_borda_boundary(self):
        verdict = scoring_nom_sufficient(3, (2, 1, 0))  # 3 > 3 fails
        assert not verdict.holds and verdict.implied_classification == "no-claim"
        assert scoring_nom_sufficient(4, (2, 1, 0)).holds

    def test_flat_prefix_inapplicable(self):
        verdict = scoring_nom_sufficient(100, (1, 1, 0))
        assert not verdict.holds and verdict.implied_classification == "no-claim"


class TestBomIff:
    def test_large_kapproval(self):
        verdict = bom_iff(3, score_vector(kapproval(14), 15))
        assert verdict.holds and verdict.implied_classification == "BOM"
        assert verdict.parameters["equal_prefix"] == 14

    def test_strict_vector_never(self):
        verdict = bom_iff(3, (6, 5, 4, 0))
        assert not verdict.holds and verdict.implied_classification == "not-BOM"

    def test_small_two_approval(self):
        assert not bom_iff(3, (1, 1, 0)).holds  # 3 > 1

    def test_equal_middle_block_does_not_count(self):
        # only a prefix of equal weights can produce a best-case manipulation
        assert not bom_iff(3, (5, 1, 1, 1, 0)).holds


class TestWeaklyDiminishing:
    def test_borda(self):
        verdict = weakly_diminishing(3, (3, 2, 1, 0))
        assert verdict.holds and verdict.implied_classification == "NOM"

    def test_dowdall(self):
        assert weakly_diminishing(3, (1, F(1, 2), F(1, 3))).holds

    def test_tail_gap_fails(self):
        verdict = weakly_diminishing(3, (6, 5, 4, 0))
        assert not verdict.holds and verdict.implied_classification == "no-claim"

    def test_flat_vector_not_strict(self):
        assert not weakly_diminishing(3, (1, 1, 0)).holds

    def test_no_claim_below_three_voters(self):
        # at n=2 search finds a worst-case manipulation of (3, 1, 0): truth (2, 0, 1) reports (0, 2, 1)
        verdict = weakly_diminishing(2, (3, 1, 0))
        assert not verdict.holds and verdict.implied_classification == "no-claim"
        assert weakly_diminishing(3, (3, 1, 0)).implied_classification == "NOM"
        wom = classify((2, 0, 1), parse_rule("scoring:w=3,1,0"), 2, (0, 1, 2), mode="bruteforce").wom_witness
        assert wom == (0, 2, 1)

    @pytest.mark.parametrize("n", [0, 2.5, "3"])
    def test_bad_n_rejected(self, n):
        with pytest.raises(InvalidParametersError):
            weakly_diminishing(n, (3, 2, 1, 0))


class TestVetoPower:
    def test_plurality_has_none(self):
        assert not has_veto_power(plurality(), 3, 3)

    def test_paperfamily_bottom_ranking_vetoes(self):
        assert has_veto_power(paperfamily(), 3, 4)

    def test_vetofamily_with_more_outcomes_than_voters(self):
        assert has_veto_power(vetofamily(9, 1), 3, 4)

    def test_no_veto_implies_nom_exhaustively(self):
        # rules without veto power at n=3, m=3 classify NOM for every truth
        for rule in (plurality(), borda(), copeland(), stv(), runoff()):
            assert not has_veto_power(rule, 3, 3)
            for truth in enumerate_rankings(3):
                report = classify(truth, rule, 3, (0, 1, 2), mode="bruteforce")
                assert report.classification == "NOM", (rule.name, truth)


@pytest.mark.parametrize("n", [2.5, "3"])
@pytest.mark.parametrize("detector", [has_veto_power, is_almost_unanimous])
def test_non_integer_n_rejected(detector, n):
    with pytest.raises(InvalidParametersError):
        detector(borda(), n, 3)


@pytest.mark.parametrize("m", [9, 10**30])
@pytest.mark.parametrize("detector", [has_veto_power, is_almost_unanimous])
def test_too_many_outcomes_rejected_first(detector, m, monkeypatch):
    # m is weighed against the enumeration cap before anything of size m is built
    def unreachable(*args):
        raise AssertionError("built before the cap was checked")

    for name in ("identity_tiebreak", "_reachable"):
        monkeypatch.setattr(characterization, name, unreachable)
    with pytest.raises(TooLargeError):
        detector(kapproval(2), 3, m)


class TestAlmostUnanimous:
    @pytest.mark.parametrize("rule", [copeland(), stv(), runoff()])
    def test_holds_at_small_scale(self, rule):
        assert is_almost_unanimous(rule, 3, 3)

    def test_two_approval_fails(self):
        assert not is_almost_unanimous(kapproval(2), 3, 4)

    def test_plurality_holds(self):
        assert is_almost_unanimous(plurality(), 3, 3)

    @pytest.mark.parametrize("rule, n, m, count", [
        # m * max(n-1, d) * C(d_t+n-2, n-1): d = 6 ballots, d_t = 2 of them rank t first, C(3, 2) = 3
        (stv(), 3, 3, 54),
        (copeland(), 2, 3, 36),  # d = 6 pairwise tallies, d_t = 2, C(2, 1) = 2
        (plurality(), 3, 4, 16),  # d = 4 first places, d_t = 1, C(2, 2) = 1
    ])
    def test_exact_tuple_count(self, rule, n, m, count):
        with pytest.raises(TooLargeError, match=f"{count} summed tallies"):
            is_almost_unanimous(rule, n, m, None, budget=count - 1)
        assert is_almost_unanimous(rule, n, m, None, budget=count) is not None

    @pytest.mark.parametrize("label", [
        "borda", "plurality", "antiplurality", "dowdall", "paperfamily", "kapproval:k=1",
        "kapproval:k=2", "scoring:w=3,1,0", "vetofamily:omega=9,eps=1", "stv", "runoff", "copeland",
    ])
    def test_verdict_does_not_depend_on_the_order(self, label):
        # tiebreak=None checks the identity order only; neutrality makes that enough
        rule = parse_rule(label)
        for detector in (is_almost_unanimous, has_veto_power):
            for n in (2, 3):
                verdicts = {detector(rule, n, 3, tb) for tb in enumerate_rankings(3)}
                assert verdicts == {detector(rule, n, 3)}, (detector.__name__, label, n)


class TestBomIffAgainstSearch:
    def test_verdict_matches_exhaustive_witness_existence(self):
        from omvote import bruteforce_feasible
        from omvote.core import ranking_positions

        for n in (3, 4):
            for m in (3, 4, 5):
                for k in range(1, m):
                    rule = kapproval(k)
                    tiebreak = tuple(range(m))
                    tables = {r: bruteforce_feasible(rule, n, r, tiebreak)
                              for r in enumerate_rankings(m)}
                    distinct = set(tables.values())
                    found = False
                    for truth in enumerate_rankings(m):
                        pos = ranking_positions(truth)
                        best0 = min(pos[o] for o in tables[truth])
                        if any(min(pos[o] for o in f) < best0 for f in distinct):
                            found = True
                            break
                    verdict = bom_iff(n, score_vector(rule, m))
                    assert verdict.holds == found, (n, m, k)


class TestTheoremConsistency:
    def test_nom_sufficient_means_no_witness(self):
        # Borda with n=4, m=3 satisfies the sufficient condition; verify by search
        assert scoring_nom_sufficient(4, (2, 1, 0)).holds
        for truth in enumerate_rankings(3):
            report = classify(truth, borda(), 4, (0, 1, 2), mode="bruteforce")
            assert report.classification == "NOM"

    def test_vetofamily_veto_power_yet_nom(self):
        # veto power does not force manipulability: this family has both
        rule = vetofamily(9, 1)
        assert has_veto_power(rule, 3, 4)
        for truth in enumerate_rankings(4):
            report = classify(truth, rule, 3, (0, 1, 2, 3), mode="bruteforce")
            assert report.classification == "NOM", truth

    def test_dowdall_nom_by_search(self):
        assert weakly_diminishing(3, score_vector(dowdall(), 3)).holds
        for truth in enumerate_rankings(3):
            report = classify(truth, dowdall(), 3, (0, 1, 2), mode="bruteforce")
            assert report.classification == "NOM"


def _by_search(weights, n):
    """(some truth has a BOM, every truth is NOM) by brute force under the identity priority."""
    m = len(weights)
    rows = {r: bruteforce_feasible(scoring(weights), n, r, tuple(range(m))) for r in enumerate_rankings(m)}
    some_bom, every_nom = False, True
    for truth, truthful in rows.items():
        pos = ranking_positions(truth)
        best, worst = min(map(pos.__getitem__, truthful)), max(map(pos.__getitem__, truthful))
        bom = any(min(map(pos.__getitem__, row)) < best for row in rows.values())
        wom = any(max(map(pos.__getitem__, row)) < worst for row in rows.values())
        some_bom |= bom
        every_nom &= not (bom or wom)
    return some_bom, every_nom


def _non_increasing(*ms):
    return st.sampled_from(ms).flatmap(
        lambda m: st.lists(st.integers(-7, 7), min_size=m, max_size=m)
    ).map(lambda ws: tuple(sorted(ws, reverse=True))).filter(lambda ws: ws[0] != ws[-1])


class TestPredicatesAgainstSearch:
    """Every closed-form verdict against exhaustive search, on drawn score vectors."""

    @settings(deadline=None)
    @given(weights=_non_increasing(3, 4), n=st.integers(2, 4))
    def test_scoring_verdicts(self, weights, n):
        self._check_verdicts(weights, n)

    @pytest.mark.slow
    @settings(max_examples=10, deadline=None)
    @given(weights=_non_increasing(5))
    def test_scoring_verdicts_at_m5(self, weights):
        self._check_verdicts(weights, 3)

    @staticmethod
    def _check_verdicts(weights, n):
        some_bom, every_nom = _by_search(weights, n)
        assert bom_iff(n, weights).holds == some_bom
        for verdict in (scoring_nom_sufficient(n, weights), weakly_diminishing(n, weights)):
            if verdict.implied_classification == "NOM":
                assert every_nom, verdict.predicate

    def test_kapproval_om_matches_reduction(self):
        # every cell with m <= 6 and 3 <= n <= 6; n(m-k) > m-2 holds from n = m-1 on, so the boundary is crossed
        for m in range(3, 7):
            identity = tuple(range(m))
            for k in range(1, m):
                for n in range(3, 7):
                    om = any(classify(truth, kapproval(k), n, identity, mode="reduction").classification != "NOM"
                             for truth in enumerate_rankings(m))
                    assert kapproval_om(n, m, k).holds == om, (n, m, k)


class TestOneRuleIdentity:
    """A positive affine image of a score vector is the same rule, so each scoring predicate gives it the same claim."""

    @given(weights=_non_increasing(2, 3, 4), n=st.integers(1, 6),
           a=st.fractions(min_value=0).filter(bool), b=st.fractions())
    def test_affine_images_share_claims(self, weights, n, a, b):
        image = tuple(a * w + b for w in weights)
        for predicate in (scoring_nom_sufficient, bom_iff, weakly_diminishing):
            mine, theirs = predicate(n, weights), predicate(n, image)
            assert (mine.holds, mine.implied_classification) == (theirs.holds, theirs.implied_classification)
            assert theirs.parameters["weights"] == image  # the caller's vector is echoed, not the canonical one

    @pytest.mark.parametrize("weights", [(F(1), F(1, 2), F(1, 3)), (6, 3, 2), (4, 1, 0)])
    def test_dowdall_aliases_at_three_voters(self, weights):
        # Dowdall's canonical vector at m=3 is (4, 1, 0), and 2 * (4 - 1) > 4: all three are NOM at n=3
        assert scoring_nom_sufficient(3, weights).implied_classification == "NOM"
