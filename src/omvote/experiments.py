"""Monte Carlo estimates of how many preference orders admit a manipulation.

One election configuration (n voters, m outcomes, k approvals) is sampled by
drawing truthful rankings uniformly; each sample is classified exactly and
the worst-case / best-case manipulation rates are reported per cell.  Cells
where n(m-k) > m-2 are provably immune, so they are emitted as exact zeros;
one such cell per run is audited by sampling anyway and asserting NOM.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from . import manipulability, rules
from .core import identity_tiebreak, make_tiebreak, ranking_positions, sample_ranking
from .errors import InvalidParametersError, VerificationError

DEFAULT_SAMPLES = 100_000
DEFAULT_AUDIT_SAMPLES = 500


@dataclass(frozen=True)
class ProportionRow:
    """Manipulation rates for one (n, m, k) cell."""

    n: int
    m: int
    k: int
    samples: int
    seed: int
    wom_count: int
    bom_count: int
    om_count: int
    sampled: bool  # False when the zero verdict is analytic, not estimated

    @property
    def p_wom(self) -> float:
        return self.wom_count / self.samples

    @property
    def p_bom(self) -> float:
        return self.bom_count / self.samples

    @property
    def p_om(self) -> float:
        return self.om_count / self.samples


@dataclass(frozen=True)
class ExperimentConfig:
    """Grid of cells to estimate: n x m x (number of disapprovals m-k)."""

    n_values: tuple
    m_values: tuple
    mk_values: tuple
    samples: int = DEFAULT_SAMPLES
    seed: int = 0
    tiebreak: tuple | None = None  # None: identity priority per m
    audit_samples: int = DEFAULT_AUDIT_SAMPLES

    def __post_init__(self):
        if self.samples < 1:
            raise InvalidParametersError("samples must be >= 1")
        if not (self.n_values and self.m_values and self.mk_values):
            raise InvalidParametersError("empty parameter range")


def nom_guaranteed(n: int, m: int, k: int) -> bool:
    """True when no preference order admits any manipulation at (n, m, k)."""
    return n * (m - k) > m - 2


def _classify_saturated(truth, n: int, k: int, prank, top_overall) -> tuple:
    """(wom, bom) for one truthful ranking, k-approval, fixed tie-break.

    Valid only when m >= n*(m-k)+2: the n(m-k) disapprovals can never cover
    all outcomes, so the winner is always the highest-priority outcome
    approved by every voter.  With a report approving the set A, exactly the
    (n-1)(m-k)+1 highest-priority members of A are then reachable.
    """
    m = len(truth)
    c = (n - 1) * (m - k)
    pos = ranking_positions(truth)
    approved = truth[:k]
    feasible = sorted(approved, key=lambda o: prank[o])[: c + 1]
    o_b = min(feasible, key=lambda o: pos[o])
    o_w = max(feasible, key=lambda o: pos[o])
    o_star = min(top_overall, key=lambda o: pos[o])
    bom = pos[o_star] < pos[o_b]
    # single candidate misreport: the outcomes better than o_w up front in
    # priority order, the rest behind with high priorities last
    cut = pos[o_w]
    good = truth[:cut]
    filler = sorted(truth[cut:], key=lambda o: prank[o], reverse=True)[: k - cut]
    feasible2 = sorted(list(good) + filler, key=lambda o: prank[o])[: c + 1]
    wom = all(pos[o] < cut for o in feasible2)
    return wom, bom


def om_proportion(
    n: int,
    m: int,
    k: int,
    samples: int,
    seed: int,
    tiebreak=None,
) -> ProportionRow:
    """Estimate manipulation rates for one k-approval cell.

    Sample i draws truth sample_ranking(m, seed, i), so estimates are
    reproducible and independent of batching.  Immune cells short-circuit
    to exact zeros without sampling.
    """
    if n < 3 or m < 3:
        raise InvalidParametersError("experiments assume n >= 3 and m >= 3")
    if not 0 < k < m:
        raise InvalidParametersError(f"need 0 < k < m, got k={k}, m={m}")
    tiebreak = identity_tiebreak(m) if tiebreak is None else make_tiebreak(tiebreak, m)
    if nom_guaranteed(n, m, k):
        return ProportionRow(n, m, k, samples, seed, 0, 0, 0, sampled=False)
    prank = ranking_positions(tiebreak)
    top_overall = sorted(range(m), key=lambda o: prank[o])[: n * (m - k) + 1]
    wom_count = bom_count = om_count = 0
    for i in range(samples):
        truth = sample_ranking(m, seed, i)
        wom, bom = _classify_saturated(truth, n, k, prank, top_overall)
        if bom and not wom:
            raise VerificationError(f"best-case-only manipulation at sample {i}: {truth}")
        wom_count += wom
        bom_count += bom
        om_count += wom or bom
    return ProportionRow(n, m, k, samples, seed, wom_count, bom_count, om_count, sampled=True)


def audit_nom_cell(n: int, m: int, k: int, samples: int, seed: int, tiebreak=None) -> int:
    """Sample an analytically immune cell anyway and insist every draw is NOM.

    Classification here goes through the coalition-solver reduction, not the
    sampling fast path, so the audit exercises an independent route.
    Returns the number of samples checked.
    """
    if not nom_guaranteed(n, m, k):
        raise InvalidParametersError(f"cell n={n}, m={m}, k={k} is not an immune cell")
    tiebreak = identity_tiebreak(m) if tiebreak is None else make_tiebreak(tiebreak, m)
    rule = rules.kapproval(k)
    for i in range(samples):
        truth = sample_ranking(m, seed, i)
        report = manipulability.classify(truth, rule, n, tiebreak, mode="reduction")
        if report.classification != manipulability.NOM:
            raise VerificationError(
                f"immune cell n={n}, m={m}, k={k} classified {report.classification} for {truth}"
            )
    return samples


def run_experiment(config: ExperimentConfig, audit: bool = True) -> list:
    """Evaluate every cell of the grid; audit the first immune cell hit."""
    rows = []
    audited = not audit
    for n in config.n_values:
        for m in config.m_values:
            for mk in config.mk_values:
                row = om_proportion(n, m, m - mk, config.samples, config.seed, config.tiebreak)
                if not row.sampled and not audited:
                    audit_nom_cell(
                        n, m, m - mk,
                        min(config.audit_samples, config.samples),
                        config.seed,
                        config.tiebreak,
                    )
                    audited = True
                rows.append(row)
    return rows


def sweep_n(m: int, k: int, n_values: Iterable[int], samples: int, seed: int, **kwargs) -> list:
    """Manipulation rates as the voter count grows, m and k fixed."""
    cfg = ExperimentConfig(tuple(n_values), (m,), (m - k,), samples, seed, **kwargs)
    return run_experiment(cfg)


def heatmap(
    n: int,
    m_values: Iterable[int],
    samples: int,
    seed: int,
    mk_values: Iterable[int] = range(1, 10),
    **kwargs,
) -> list:
    """Manipulation rates over a grid of m and disapproval counts, n fixed."""
    cfg = ExperimentConfig((n,), tuple(m_values), tuple(mk_values), samples, seed, **kwargs)
    return run_experiment(cfg)


CSV_HEADER = "n,m,k,m_minus_k,samples,seed,p_wom,p_bom,p_om"


def rows_to_csv(rows: Sequence[ProportionRow]) -> str:
    """Deterministic CSV text: identical rows give identical bytes."""
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(
            f"{r.n},{r.m},{r.k},{r.m - r.k},{r.samples},{r.seed},"
            f"{r.p_wom:.6f},{r.p_bom:.6f},{r.p_om:.6f}"
        )
    return "\n".join(lines) + "\n"


def write_csv_file(path, rows: Sequence[ProportionRow]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(rows_to_csv(rows))
