"""End-to-end acceptance checks for the headline results.

Each test prints one PASS/FAIL line (run with -s to see them on success).
The Monte Carlo criteria use 10^5 samples and seed 42; tolerances are
fixed at +-0.02 around the published rates, with immune cells required
to be exactly zero, and each sampled rate must also lie within 5 sigma
of its exact value, sigma = sqrt(p(1-p)/samples).
"""

import itertools
import math

import pytest

from omvote import (
    bruteforce_feasible,
    case_outcomes,
    ccum_bruteforce,
    ccum_greedy_kapproval,
    CcumInstance,
    classify,
    classify_randomized_tiebreak,
    copeland,
    enumerate_rankings,
    has_veto_power,
    heatmap,
    kapproval,
    kapproval_om,
    make_ranking,
    paperfamily,
    plurality,
    borda,
    rows_to_csv,
    runoff,
    sample_ranking,
    stv,
    sweep_n,
    vetofamily,
)
from omvote.core import ranking_positions
from omvote.experiments import _classify_saturated, exact_rates

SAMPLES = 100_000
SEED = 42
TOLERANCE = 0.02
SIGMAS = 5

pytestmark = pytest.mark.acceptance


def _report(criterion: str, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _largest_deviation(rows) -> tuple:
    # (sigmas, rate) of the sampled rate farthest from exact_rates, in binomial standard deviations
    return max(
        (abs(got - exact) / math.sqrt(exact * (1 - exact) / row.samples), f"{name}{(row.n, row.m, row.k)}")
        for row in rows if row.sampled
        for name, got, exact in zip(("p_wom", "p_bom"), (row.p_wom, row.p_bom), exact_rates(row.n, row.m, row.k))
    )


@pytest.fixture(scope="module")
def fig1_rows():
    return sweep_n(15, 14, (3, 10, 14), SAMPLES, SEED)


@pytest.fixture(scope="module")
def fig2_rows():
    return heatmap(3, (21, 23, 30), SAMPLES, SEED, mk_values=(1, 7, 9))


def test_criterion_1_fig1_reproduction(fig1_rows):
    by_n = {row.n: row for row in fig1_rows}
    checks = [
        ("p_wom(n=3)", by_n[3].p_wom, 0.55),
        ("p_bom(n=3)", by_n[3].p_bom, 0.18),
        ("p_wom(n=10)", by_n[10].p_wom, 0.24),
    ]
    ok = all(abs(got - want) <= TOLERANCE for _, got, want in checks)
    ok = ok and by_n[14].p_wom == 0.0 and by_n[14].p_bom == 0.0 and not by_n[14].sampled
    sigmas, rate = _largest_deviation(fig1_rows)
    ok = ok and sigmas <= SIGMAS
    detail = ", ".join(f"{name}={got:.4f} (target {want}+-0.02)" for name, got, want in checks)
    _report("1 (voter-count sweep)", ok, detail + f", n=14 exact zero={by_n[14].p_wom == 0.0}"
            f", largest deviation from the exact rates {sigmas:.2f} sigma at {rate}")


def test_criterion_2_fig2_spot_cells(fig2_rows):
    cells = {(row.m, row.m - row.k): row for row in fig2_rows}
    checks = [
        ((21, 1), 0.61),
        ((23, 7), 0.28),
        ((30, 9), 0.50),
    ]
    ok = all(abs(cells[cell].p_om - want) <= TOLERANCE for cell, want in checks)
    zero = cells[(21, 7)]
    ok = ok and zero.p_om == 0.0 and not zero.sampled
    sigmas, rate = _largest_deviation(fig2_rows)
    ok = ok and sigmas <= SIGMAS
    detail = ", ".join(f"m={m},m-k={mk}: {cells[(m, mk)].p_om:.4f} (target {want}+-0.02)"
                       for (m, mk), want in checks)
    _report("2 (outcome-grid spot cells)", ok, detail + ", (21,7) exact zero"
            f", largest deviation from the exact rates {sigmas:.2f} sigma at {rate}")


def _grid_cells():
    for n in (3, 4):
        for m in (3, 4, 5):
            for k in range(1, m):
                yield n, m, k


def _exhaustive_om_flags(n, m, k):
    """(wom, bom) per truth by plain exhaustive search over reports."""
    rule = kapproval(k)
    tiebreak = tuple(range(m))
    tables = {r: bruteforce_feasible(rule, n, r, tiebreak) for r in enumerate_rankings(m)}
    distinct = set(tables.values())
    flags = {}
    for truth in enumerate_rankings(m):
        pos = ranking_positions(truth)
        base = tables[truth]
        best0 = min(pos[o] for o in base)
        worst0 = max(pos[o] for o in base)
        bom = any(min(pos[o] for o in feas) < best0 for feas in distinct)
        wom = any(max(pos[o] for o in feas) < worst0 for feas in distinct)
        flags[truth] = (wom, bom)
    return flags


def test_criterion_3_kapproval_characterization_exhaustive():
    disagreements = []
    for n, m, k in _grid_cells():
        flags = _exhaustive_om_flags(n, m, k)
        om_found = any(wom or bom for wom, bom in flags.values())
        predicted = kapproval_om(n, m, k).holds
        if om_found != predicted:
            disagreements.append((n, m, k, om_found, predicted))
    _report(
        "3 (manipulability boundary, exhaustive)",
        not disagreements,
        f"18 (n,m,k) cells, all m! truths each; disagreements={disagreements}",
    )


def test_criterion_4_best_case_implies_worst_case():
    grid_violations = []
    for n, m, k in _grid_cells():
        for truth, (wom, bom) in _exhaustive_om_flags(n, m, k).items():
            if bom and not wom:
                grid_violations.append((n, m, k, truth))
    n, m, k = 3, 15, 14
    sampled_violations = 0
    for i in range(10_000):
        truth = sample_ranking(m, SEED, i)
        ((wom, bom, _),) = _classify_saturated([bytes(ranking_positions(truth))],
                                               [(k, (n - 1) * (m - k) + 1, n * (m - k) + 1)])
        if bom and not wom:
            sampled_violations += 1
    ok = not grid_violations and sampled_violations == 0
    _report(
        "4 (best-case implies worst-case)",
        ok,
        f"grid violations={grid_violations}, sampled violations={sampled_violations}/10000",
    )


def test_criterion_5_strict_rule_witness():
    rule = paperfamily()  # weights (6, 5, 4, 0) at m=4
    truth = make_ranking((0, 1, 3, 2))
    misreport = make_ranking((0, 3, 1, 2))
    tiebreak = (0, 1, 2, 3)
    truthful = case_outcomes(truth, truth, rule, 3, tiebreak)
    shifted = case_outcomes(truth, misreport, rule, 3, tiebreak)
    pos = ranking_positions(truth)
    ok = truthful.worst == 2 and pos[shifted.worst] < pos[2]
    # same answer from the misreport-search route (the reduction route does
    # not apply: the rule is not of the k-approval form)
    witness = classify(truth, rule, 3, tiebreak, mode="bruteforce").wom_witness
    ok = ok and witness == misreport
    ok = ok and 2 not in bruteforce_feasible(rule, 3, misreport, tiebreak)
    _report(
        "5 (strict-rule worst-case witness)",
        ok,
        f"truthful worst={truthful.worst}, worst under misreport={shifted.worst}, "
        f"search witness={witness}",
    )


def test_criterion_6_veto_power_yet_immune():
    rule = vetofamily(9, 1)
    veto = has_veto_power(rule, 3, 4)
    not_nom = [
        truth
        for truth in enumerate_rankings(4)
        if classify(truth, rule, 3, (0, 1, 2, 3), mode="bruteforce").classification != "NOM"
    ]
    _report(
        "6 (veto power without manipulability)",
        veto and not not_nom,
        f"has_veto_power={veto}, non-NOM truths={not_nom}",
    )


def test_criterion_7_immune_rule_suites():
    failures = []
    suites = [
        (plurality(), [3, 4]),
        (borda(), [3, 4]),
        (copeland(), [3]),
        (stv(), [3]),
        (runoff(), [3]),
    ]
    for rule, sizes in suites:
        for m in sizes:
            tiebreak = tuple(range(m))
            tables = {r: bruteforce_feasible(rule, 3, r, tiebreak) for r in enumerate_rankings(m)}
            distinct = set(tables.values())
            for truth in enumerate_rankings(m):
                pos = ranking_positions(truth)
                best0 = min(pos[o] for o in tables[truth])
                worst0 = max(pos[o] for o in tables[truth])
                for feas in distinct:
                    if (min(pos[o] for o in feas) < best0
                            or max(pos[o] for o in feas) < worst0):
                        failures.append((rule.name, m, truth))
                        break
    _report(
        "7 (immune rule suites, exhaustive)",
        not failures,
        f"plurality/borda m in {{3,4}}, copeland/stv/runoff m=3; witnesses={failures}",
    )


def test_criterion_8_greedy_equals_bruteforce():
    disagreements = []
    instances = 0
    for m in (2, 3, 4):
        rankings = list(enumerate_rankings(m))
        tiebreak = tuple(range(m))
        for k in range(1, m):
            rule = kapproval(k)
            for n in (1, 2, 3):
                for ns in range(n + 1):
                    for fixed in itertools.combinations_with_replacement(rankings, ns):
                        for target in range(m):
                            inst = CcumInstance(rule, fixed, n - ns, target, tiebreak)
                            greedy = ccum_greedy_kapproval(inst).achievable
                            brute = ccum_bruteforce(inst).achievable
                            instances += 1
                            if greedy != brute:
                                disagreements.append((m, k, fixed, n - ns, target))
    _report(
        "8 (greedy coalition solver vs exhaustive)",
        not disagreements,
        f"{instances} instances compared; disagreements={disagreements}",
    )


def test_criterion_9_randomized_tiebreak_immune():
    failures = []
    for weights in ((2, 1, 0), (1, 1, 0)):
        for truth in enumerate_rankings(3):
            report = classify_randomized_tiebreak(truth, weights, 3)
            if report.classification != "NOM":
                failures.append((weights, truth, report.classification))
    _report(
        "9 (randomized tie-break immunity)",
        not failures,
        f"borda and 2-approval, n=3, m=3, all truths; failures={failures}",
    )


def test_criterion_10_byte_identical_reruns(fig1_rows, fig2_rows):
    again1 = sweep_n(15, 14, (3, 10, 14), SAMPLES, SEED)
    again2 = heatmap(3, (21, 23, 30), SAMPLES, SEED, mk_values=(1, 7, 9))
    ok = rows_to_csv(again1) == rows_to_csv(fig1_rows)
    ok = ok and rows_to_csv(again2) == rows_to_csv(fig2_rows)
    _report("10 (seeded reruns byte-identical)", ok, "fig1 and fig2 CSV bytes compared")
