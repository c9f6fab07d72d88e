"""Monte Carlo proportion estimates: determinism, short-circuits, cross-checks."""

import hashlib
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omvote import (
    InvalidParametersError,
    VerificationError,
    classify,
    enumerate_rankings,
    heatmap,
    kapproval,
    kapproval_om,
    rows_to_csv,
    sample_ranking,
    sweep_n,
)
from omvote import experiments, manipulability
from omvote.core import ranking_positions
from omvote.experiments import _classify_saturated, run_experiment


def consts(cells):
    # what the grid's classifier reads of each (n, m, k) cell
    return [(k, (n - 1) * (m - k) + 1, n * (m - k) + 1) for n, m, k in cells]


def flags(truth, n, k):
    # (wom, bom) of one truth in one cell, through the grid's classifier
    return _classify_saturated([bytes(ranking_positions(truth))], consts([(n, len(truth), k)]))[0][:2]


def naive_flags(pos, n, k):
    # the classifier as first written, one cell per call: count the places below the truthful worst
    mk = len(pos) - k
    need = (n - 1) * mk + 1
    ranks = pos[: n * mk + 1]
    feasible = [r for r in ranks if r < k][:need]
    cut = max(feasible)
    return len([r for r in ranks if r < cut]) >= need, min(ranks) < min(feasible)


def saturated_cells(m):
    # every (n, m, k) with n >= 3 whose n(m-k) disapprovals leave two outcomes uncovered
    return [(n, m, m - mk) for mk in range(1, m) for n in range(3, (m - 2) // mk + 1)]


class TestShortCircuit:
    def test_immune_cell_is_analytic_zero(self):
        row = sweep_n(15, 14, [14], samples=1000, seed=1)[0]
        assert (row.wom_count, row.bom_count, row.p_om) == (0, 0, 0)
        assert not row.sampled

    def test_sampled_cell_is_flagged(self):
        assert sweep_n(15, 14, [3], samples=10, seed=1)[0].sampled

    def test_boundary_arithmetic(self):
        # the experiments read each cell's immunity from this verdict: immune iff n(m-k) > m-2
        assert not kapproval_om(14, 15, 14).holds
        assert kapproval_om(13, 15, 14).holds
        assert not kapproval_om(3, 21, 14).holds
        assert kapproval_om(3, 23, 16).holds  # n(m-k) = 21 = m-2, the last manipulable cell
        assert not kapproval_om(3, 23, 15).holds


class TestNonIntegerCells:
    @pytest.mark.parametrize("args", [(3.0, 15, 14, 10, 0), (3, 15.0, 14, 10, 0), (3, 15, 14.0, 10, 0),
                                      (3, 15, 14, 10.0, 0), (3, 15, 14, 10, 1.5)])
    def test_rejected(self, args):
        n, m, k, samples, seed = args
        with pytest.raises(InvalidParametersError):
            sweep_n(m, k, [n], samples, seed)[0]


class TestDeterminism:
    def test_reruns_identical(self):
        a = sweep_n(15, 14, [3], samples=2000, seed=42)[0]
        b = sweep_n(15, 14, [3], samples=2000, seed=42)[0]
        assert a == b

    def test_csv_bytes_identical(self):
        rows1 = sweep_n(15, 14, [3, 14], samples=500, seed=7)
        rows2 = sweep_n(15, 14, [3, 14], samples=500, seed=7)
        assert rows_to_csv(rows1) == rows_to_csv(rows2)

    def test_seed_changes_counts(self):
        a = sweep_n(15, 14, [3], samples=2000, seed=1)[0]
        b = sweep_n(15, 14, [3], samples=2000, seed=2)[0]
        assert (a.wom_count, a.bom_count) != (b.wom_count, b.bom_count)


class TestFastClassifierAgreement:
    def test_exhaustive_against_reduction_m5(self):
        # every truth in the one manipulable cell with m=5
        n, m, k = 3, 5, 4
        tiebreak = tuple(range(m))
        for truth in enumerate_rankings(m):
            wom, bom = flags(truth, n, k)
            report = classify(truth, kapproval(k), n, tiebreak, mode="reduction")
            assert wom == (report.wom_witness is not None), truth
            assert bom == (report.bom_witness is not None), truth

    def test_sampled_against_reduction_m15(self):
        n, m, k = 3, 15, 14
        tiebreak = tuple(range(m))
        for i in range(200):
            truth = sample_ranking(m, seed=5, index=i)
            wom, bom = flags(truth, n, k)
            report = classify(truth, kapproval(k), n, tiebreak, mode="reduction")
            assert wom == (report.wom_witness is not None), truth
            assert bom == (report.bom_witness is not None), truth

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_random_cells_and_tiebreaks_against_reduction(self, data):
        m = data.draw(st.integers(5, 9), label="m")
        mk = data.draw(st.integers(1, (m - 2) // 3), label="m-k")
        n = data.draw(st.integers(3, (m - 2) // mk), label="n")
        tiebreak = tuple(data.draw(st.permutations(range(m)), label="tiebreak"))
        truth = tuple(data.draw(st.permutations(range(m)), label="truth"))
        k = m - mk
        place = ranking_positions(tiebreak)  # the fast path runs under the identity: relabel o as its place
        wom, bom = flags(tuple(place[o] for o in truth), n, k)
        report = classify(truth, kapproval(k), n, tiebreak, mode="reduction")
        assert wom == (report.wom_witness is not None)
        assert bom == (report.bom_witness is not None)


class TestNaiveClassifierAgreement:
    """The grid's classifier against its first transcription, on the same truths and cells."""

    @pytest.mark.parametrize("m", range(5, 9))
    def test_every_truth_of_every_saturated_cell(self, m):
        cells = saturated_cells(m)
        read = consts(cells)
        for truth in enumerate_rankings(m):
            pos = ranking_positions(truth)
            counts = _classify_saturated([bytes(pos)], read)
            assert [c[:2] for c in counts] == [naive_flags(pos, n, k) for n, _, k in cells], truth

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_random_cells_up_to_m30(self, data):
        m = data.draw(st.integers(5, 30), label="m")
        cells = data.draw(st.lists(st.sampled_from(saturated_cells(m)), min_size=1, max_size=4), label="cells")
        pos = ranking_positions(tuple(data.draw(st.permutations(range(m)), label="truth")))
        counts = _classify_saturated([bytes(pos)], consts(cells))
        assert [c[:2] for c in counts] == [naive_flags(pos, n, k) for n, _, k in cells]


def truths_with_approved_prefix(k, prefixes):
    # one truth's places per prefix j, its first j places approved: pos[:j] holds the first j approved places of a
    # random truth, in their order, and the other places follow in theirs
    truths = []
    for perm, j in prefixes:
        head = [p for p in perm if p < k][:j]
        truths.append(bytes(head + [p for p in perm if p not in head]))
    return truths


class TestGroupedCells:
    """Cells that share k go through one pass per truth, which equals a test per cell and the naive classifier."""

    @staticmethod
    def draw(data):
        m = data.draw(st.integers(5, 60), label="m")
        mk = data.draw(st.integers(1, (m - 2) // 3), label="m-k")
        k = m - mk
        ns = data.draw(st.lists(st.integers(3, (m - 2) // mk), min_size=2, max_size=12), label="n sharing k")
        others = [j for j in range(1, (m - 2) // 3 + 1) if j != mk]
        lone = data.draw(st.lists(st.sampled_from(others), unique=True, max_size=3), label="lone m-k") if others else []
        cells = [(n, m, k) for n in ns] + [(data.draw(st.integers(3, (m - 2) // j)), m, m - j) for j in lone]
        cells = data.draw(st.permutations(cells), label="cells")
        ends = sorted({n * mk + 1 for n in ns if n * mk + 1 <= k})
        prefix = st.one_of(st.sampled_from(ends), st.integers(0, k)) if ends else st.integers(0, k)
        prefixes = data.draw(st.lists(st.tuples(st.permutations(range(m)), prefix), min_size=1, max_size=6),
                             label="truths")
        return k, cells, truths_with_approved_prefix(k, prefixes)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_one_call_equals_a_call_per_cell_and_the_naive_flags(self, data):
        k, cells, positions = self.draw(data)
        counts = _classify_saturated(positions, consts(cells))
        assert counts == [_classify_saturated(positions, consts([cell]))[0] for cell in cells]
        for cell, (wom, bom, first) in zip(cells, counts):
            flagged = [naive_flags(pos, cell[0], cell[2]) for pos in positions]
            assert (wom, bom, first) == (sum(w for w, _ in flagged), sum(b for _, b in flagged), None), cell
        bounds = sorted({(need, L) for kk, need, L in consts(cells) if kk == k})  # the pass, whichever route won
        assert experiments._scan(positions, k, bounds) == [experiments._test(positions, k, *b) for b in bounds]

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_permuted_cells_permute_the_counts(self, data):
        k, cells, positions = self.draw(data)
        order = data.draw(st.permutations(range(len(cells))), label="order")
        counts = _classify_saturated(positions, consts(cells))
        assert _classify_saturated(positions, consts([cells[i] for i in order])) == [counts[i] for i in order]


def reference_rows(n_values, m_values, mk_values, samples, seed):
    # the grid one cell and one draw at a time: sample_ranking and the classifier, immune cells zero
    rows = []
    for n in n_values:
        for m in m_values:
            for mk in mk_values:
                cell = (n, m, m - mk)
                sampled = kapproval_om(*cell).holds
                wom = bom = 0
                for i in range(samples if sampled else 0):
                    pos = bytes(ranking_positions(sample_ranking(m, seed, i)))
                    w, b, _ = _classify_saturated([pos], consts([cell]))[0]
                    wom, bom = wom + w, bom + b
                rows.append(experiments.ProportionRow(*cell, samples, seed, wom, bom, sampled=sampled))
    return rows


class TestChunkedDraws:
    """Truths drawn CHUNK at a time give the rows of one draw per truth, and the audit reads the first truths."""

    @pytest.fixture
    def audited(self, monkeypatch):
        seen = []
        classify_ = manipulability.classify

        def recording(truth, *args, **kwargs):
            seen.append(truth)
            return classify_(truth, *args, **kwargs)

        monkeypatch.setattr(manipulability, "classify", recording)
        return seen

    @pytest.mark.parametrize("samples", [experiments.CHUNK - 1, experiments.CHUNK, experiments.CHUNK + 1,
                                         2 * experiments.CHUNK + 1])  # the last: chunks past the audit's end
    def test_rows_equal_the_per_draw_loop(self, samples, audited):
        grid = ((3, 4), (15, 21), (1, 2, 7))  # (3, 15, 8) is the first immune cell, audited among sampled cells
        assert run_experiment(*grid, samples, 9) == reference_rows(*grid, samples, 9)
        assert audited == [sample_ranking(15, 9, i) for i in range(min(experiments.AUDIT_SAMPLES, samples))]

    @pytest.mark.parametrize("samples", [experiments.CHUNK - 1, experiments.CHUNK, experiments.CHUNK + 1])
    def test_fig1_sweep_equals_the_per_draw_loop(self, samples):
        # fig1's eleven sampled cells share k=14 and take one pass per truth; the per-draw loop tests each alone
        assert sweep_n(15, 14, range(3, 14), samples, 9) == reference_rows(range(3, 14), (15,), (1,), samples, 9)

    def test_audit_across_a_chunk_boundary(self, monkeypatch, audited):
        # an audit-only m whose audit reads more truths than one chunk holds
        monkeypatch.setattr(experiments, "AUDIT_SAMPLES", experiments.CHUNK + 2)
        grid, samples = ((3,), (21,), (7, 8)), experiments.CHUNK + 5
        assert run_experiment(*grid, samples, 8) == reference_rows(*grid, samples, 8)
        assert audited == [sample_ranking(21, 8, i) for i in range(experiments.CHUNK + 2)]


class TestByteBound:
    """Places are bytes: m runs up to 256, and a larger m is refused before anything is drawn."""

    def test_m_257_is_refused(self):
        with pytest.raises(InvalidParametersError, match="at most 256"):
            run_experiment((3,), (257,), (1,), 1, 0)

    def test_refused_before_any_draw(self, monkeypatch):
        def no_draws(*args):
            raise AssertionError("drew a truth")

        monkeypatch.setattr(experiments, "_fisher_yates_many", no_draws)
        with pytest.raises(InvalidParametersError):
            run_experiment((3,), (15, 257), (1,), 1, 0)

    def test_place_255_in_a_byte(self):
        # at m=256 the last place is 255, the largest a byte holds
        grid = ((3,), (256,), (1,))
        assert run_experiment(*grid, 1, 0) == reference_rows(*grid, 1, 0)
        for last in range(5):  # the outcome ranked last is scanned (0..3) or not (4)
            truth = tuple(o for o in range(256) if o != last) + (last,)
            pos = ranking_positions(truth)
            assert [c[:2] for c in _classify_saturated([bytes(pos)], consts([(3, 256, 255)]))] == [
                naive_flags(pos, 3, 255)]


class TestExactRates:
    """exact_rates against the grid's kernel on every truth, against the theorem, and at paper scale."""

    @pytest.mark.parametrize("m", range(5, 9))
    def test_kernel_counts_over_all_truths(self, m):
        positions = [bytes(ranking_positions(truth)) for truth in enumerate_rankings(m)]
        cells = saturated_cells(m)
        counts = _classify_saturated(positions, consts(cells))
        for (n, _, k), (wom, bom, first) in zip(cells, counts):
            p_wom, p_bom = experiments.exact_rates(n, m, k)
            assert (wom, bom, first) == (p_wom * len(positions), p_bom * len(positions), None), (n, m, k)

    @pytest.mark.parametrize("m", range(5, 8))
    def test_reduction_counts_over_all_truths(self, m):
        # the kernel-free route: classify every truth through the reduction
        truths = list(enumerate_rankings(m))
        for n, _, k in saturated_cells(m):
            reports = [classify(truth, kapproval(k), n, tuple(range(m)), mode="reduction") for truth in truths]
            wom = sum(r.wom_witness is not None for r in reports)
            bom = sum(r.bom_witness is not None for r in reports)
            assert (Fraction(wom, len(truths)), Fraction(bom, len(truths))) == experiments.exact_rates(n, m, k)

    def test_saturated_cells_up_to_m8(self):
        assert sum(len(saturated_cells(m)) for m in range(5, 9)) == 11

    def test_positive_iff_the_theorem_holds(self):
        for m in range(3, 61):
            for k in range(1, m):
                for n in range(3, 41):
                    p_wom, p_bom = experiments.exact_rates(n, m, k)
                    holds = kapproval_om(n, m, k).holds
                    assert (p_wom > 0, p_bom > 0) == (holds, holds), (n, m, k)
                    assert 0 <= p_bom <= p_wom < 1

    @pytest.mark.parametrize("cell, expected", [
        ((3, 15, 14), (Fraction(11, 20), Fraction(11, 60))),
        ((3, 30, 21), (Fraction(10051, 20300), Fraction(601, 20300))),
        ((14, 15, 14), (0, 0)),
    ])
    def test_paper_scale(self, cell, expected):
        assert experiments.exact_rates(*cell) == expected

    @pytest.mark.parametrize("m", range(4, 31))
    def test_one_disapproval_closed_form(self, m):
        # at m-k=1: p_wom = n(m-n-1)/((n+1)m) = n * p_bom
        for n in range(3, m - 1):
            p_wom, p_bom = experiments.exact_rates(n, m, m - 1)
            assert p_wom == Fraction(n * (m - n - 1), (n + 1) * m) == n * p_bom

    def test_rejects_what_kapproval_om_rejects(self):
        with pytest.raises(InvalidParametersError):
            experiments.exact_rates(2, 15, 14)
        with pytest.raises(InvalidParametersError):
            experiments.exact_rates(3, 15, 15)


class TestSharedDraws:
    @pytest.fixture
    def draws(self, monkeypatch):
        seen = []
        draw = experiments._fisher_yates_many

        def counting(m, key, start, count, steps):
            lanes = draw(m, key, start, count, steps)
            seen.extend((m, start + i) for i in range(len(lanes)))
            return lanes

        monkeypatch.setattr(experiments, "_fisher_yates_many", counting)
        return seen

    def test_fig1_draws_each_truth_once(self, draws):
        # 11 sampled cells and the audit of n=14 all read the same 3000 truths
        sweep_n(15, 14, range(3, 15), samples=3000, seed=1)
        assert sorted(draws) == [(15, i) for i in range(3000)]

    def test_mixed_grid_draws_once_per_m(self, draws):
        run_experiment((3, 4), (15, 21), (1, 2, 7), 50, 5)
        assert sorted(draws) == [(m, i) for m in (15, 21) for i in range(50)]

    def test_audit_only_grid_draws_audit_samples(self, draws):
        run_experiment((3,), (21,), (7, 8), samples=10, seed=8)
        assert sorted(draws) == [(21, i) for i in range(10)]

    def test_immune_cell_audit_passes(self, draws):
        # every one of the 25 truths is classified NOM through the reduction, or the run raises
        (row,) = run_experiment((3,), (21,), (7,), samples=25, seed=6)
        assert (row.wom_count, row.sampled) == (0, False)
        assert sorted(draws) == [(21, i) for i in range(25)]


class TestRelabelingInvariance:
    def test_classification_commutes_exactly(self):
        n, m, k = 3, 15, 14
        sigma = sample_ranking(m, seed=11, index=0)  # an arbitrary relabeling, and the priority it maps onto
        for i in range(200):
            truth = sample_ranking(m, seed=12, index=i)
            report = classify(tuple(sigma[o] for o in truth), kapproval(k), n, sigma, mode="reduction")
            witnessed = (report.wom_witness is not None, report.bom_witness is not None)
            assert flags(truth, n, k) == witnessed


class TestGrids:
    def test_heatmap_layout_and_zero_cells(self):
        rows = heatmap(3, [21, 22], samples=50, seed=9, mk_values=[1, 7, 8])
        assert [(r.m, r.m - r.k) for r in rows] == [
            (21, 1), (21, 7), (21, 8), (22, 1), (22, 7), (22, 8)]
        by_cell = {(r.m, r.m - r.k): r for r in rows}
        assert by_cell[(21, 7)].wom_count == 0 and not by_cell[(21, 7)].sampled
        assert by_cell[(22, 8)].wom_count == 0
        assert by_cell[(21, 1)].sampled

    def test_monotone_trend_reported(self, capsys):
        # observed, not asserted: for a fixed disapproval count the rate grows with m
        rows = heatmap(3, [23, 26, 30], samples=2000, seed=21, mk_values=[7])
        rates = [r.p_om for r in rows]
        print(f"p_om across m=23,26,30 at 7 disapprovals: {rates}")
        assert all(0 <= p <= 1 for p in rates)

    def test_sweep_reaches_zero_at_boundary(self):
        rows = sweep_n(15, 14, range(3, 15), samples=200, seed=2)
        assert rows[-1].wom_count == 0 and not rows[-1].sampled
        assert rows[0].wom_count > 0

    def test_config_validation(self):
        with pytest.raises(InvalidParametersError):
            run_experiment((3,), (15,), (1,), samples=0)
        with pytest.raises(InvalidParametersError):
            run_experiment((), (15,), (1,), samples=10)
        with pytest.raises(InvalidParametersError):
            sweep_n(15, 15, [3], samples=10, seed=0)[0]
        with pytest.raises(InvalidParametersError):
            sweep_n(15, 14, [2], samples=10, seed=0)[0]

    @pytest.mark.parametrize("samples", [0, -3])
    def test_single_cell_entries_need_a_sample(self, samples):
        with pytest.raises(InvalidParametersError):
            sweep_n(15, 14, [3], samples, 0)[0]
        with pytest.raises(InvalidParametersError):
            run_experiment((14,), (15,), (1,), samples, 0)


class TestAudit:
    def test_run_experiment_audits_first_zero_cell(self):
        rows = run_experiment((3,), (21,), (1, 7), samples=100, seed=8)
        assert [(r.m - r.k, r.sampled) for r in rows] == [(1, True), (7, False)]

    def test_best_case_only_sample_raises(self, monkeypatch):
        monkeypatch.setattr(experiments, "_classify_saturated", lambda positions, cells: [(0, 1, 0)] * len(cells))
        with pytest.raises(VerificationError, match="best-case-only"):
            sweep_n(15, 14, [3], samples=1, seed=0)[0]

    def test_best_case_only_names_the_absolute_sample(self, monkeypatch):
        # the kernel reports a chunk index; the error names the sample index and the truth
        def second_chunk_third_truth(positions, cells):
            return [(0, 1, 2 if len(positions) < experiments.CHUNK else None)] * len(cells)

        monkeypatch.setattr(experiments, "_classify_saturated", second_chunk_third_truth)
        index = experiments.CHUNK + 2
        with pytest.raises(VerificationError, match=re.escape(f"sample {index}: {sample_ranking(15, 4, index)}")):
            sweep_n(15, 14, [3], samples=experiments.CHUNK + 3, seed=4)

    def test_audited_truth_not_nom_raises(self, monkeypatch):
        report = manipulability.ManipulationReport(manipulability.WOM_ONLY, None, None, None)
        monkeypatch.setattr(manipulability, "classify", lambda *args, **kwargs: report)
        with pytest.raises(VerificationError, match="immune cell"):
            run_experiment((3,), (21,), (7,), samples=2, seed=0)


class TestGoldenCsv:
    """sha256 of the CSV bytes, recorded before the grid shared draws across cells."""

    @staticmethod
    def digest(rows):
        return hashlib.sha256(rows_to_csv(rows).encode()).hexdigest()

    @pytest.mark.parametrize("seed, expected", [
        (0, "e10d4576956341ced6172dba5817157f441feb43646193364101aab0e4542cee"),
        (42, "70505ba93a9b6776718bdf77acb51d24acca445c671f5405b8d1ed89a2976074"),
    ])
    def test_fig1_sweep(self, seed, expected):
        assert self.digest(sweep_n(15, 14, range(3, 15), 2000, seed)) == expected

    @pytest.mark.parametrize("seed, expected", [
        (0, "9f374938d2311dd1d58295da13936f232a2cb06ac11fa6d1a9501814c51fa819"),
        (42, "c115931efca2969941a2a91570ba3f10145bb93c3749f26b51b16520bce73efc"),
    ])
    def test_fig2_heatmap(self, seed, expected):
        assert self.digest(heatmap(3, range(21, 31), 300, seed)) == expected

    def test_mixed_grid_keeps_row_order(self):
        # several n and several m: the work may be regrouped, the rows may not
        rows = run_experiment((3, 4), (15, 21), (1, 2, 7), 500, 5)
        assert [(r.n, r.m, r.m - r.k) for r in rows] == [
            (n, m, mk) for n in (3, 4) for m in (15, 21) for mk in (1, 2, 7)]
        assert self.digest(rows) == "f2daea1c584cc24b8aca6a8fdc5381963a39f9029e60a4598d270821385ff850"


class TestCsv:
    def test_header_and_formatting(self):
        rows = [sweep_n(15, 14, [14], samples=100, seed=3)[0]]
        text = rows_to_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == "n,m,k,m_minus_k,samples,seed,p_wom,p_bom,p_om"
        assert lines[1] == "14,15,14,1,100,3,0.000000,0.000000,0.000000"

    def test_write_csv_file(self, tmp_path):
        rows = sweep_n(15, 14, range(3, 5), 50, 2)
        path = tmp_path / "rows.csv"
        experiments.write_csv_file(path, rows)
        assert path.read_bytes() == rows_to_csv(rows).encode()
