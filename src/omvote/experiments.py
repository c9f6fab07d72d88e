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
from .characterization import kapproval_om
from .core import check_int, identity_tiebreak, ranking_positions, sample_ranking
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

    def __post_init__(self):
        for name in ("n_values", "m_values", "mk_values"):  # stored as tuples, so a range or a list will do
            object.__setattr__(self, name, _ints(getattr(self, name), name))
        check_int(self.samples, "samples", 1)
        if not (self.n_values and self.m_values and self.mk_values):
            raise InvalidParametersError("empty parameter range")


def _ints(values, what: str) -> tuple:
    try:
        values = tuple(values)
    except TypeError:
        raise InvalidParametersError(f"{what} must be a sequence of integers, got {values!r}") from None
    for v in values:
        check_int(v, f"each of {what}")
    return values


def _classify_saturated(pos, n: int, k: int) -> tuple:
    """(wom, bom) for the truth with positions *pos*, k-approval, identity tie-break.

    Valid only when m >= n*(m-k)+2: the n(m-k) disapprovals never cover all
    outcomes, so a report approving the set A reaches exactly the c+1 =
    (n-1)(m-k)+1 highest-priority members of A.  Those lie among the
    n(m-k)+1 outcomes of highest priority, which under the identity are
    0..n(m-k), so a scan of their places pos[: n(m-k)+1] in the truth
    replaces sorting.  Truthfully, at most m-k of them are disapproved and
    the first c+1 approved ones are reachable.  The candidate misreport
    approves the outcomes better than the truthful worst and every bad one
    but the m-k of highest priority; it is a WOM iff c+1 good outcomes come
    before the (m-k+1)-th bad one, i.e. iff the scan holds c+1 good ones.
    """
    mk = len(pos) - k
    need = (n - 1) * mk + 1
    ranks = pos[: n * mk + 1]
    feasible = [r for r in ranks if r < k][:need]
    cut = max(feasible)
    return len([r for r in ranks if r < cut]) >= need, min(ranks) < min(feasible)


def _run_cells(cells, samples: int, seed: int, audit_samples: int) -> list:
    """One row per (n, m, k) cell, in order, from one sampling pass per m, under the identity priority.

    Truth i of m outcomes is sample_ranking(m, seed, i), drawn once and
    classified for every sampled cell of that m.  The first immune cell is
    audited when audit_samples > 0: its first min(audit_samples, samples)
    truths, the same draws, must each come out NOM through the reduction.
    """
    check_int(samples, "samples", 1)
    check_int(seed, "seed")
    immune = [cell for cell in cells if not kapproval_om(*cell).holds]  # the one check of a cell, and its verdict
    audited = immune[0] if immune and audit_samples > 0 else None
    counts = {}
    for m in dict.fromkeys(m for _, m, _ in cells):
        sampled = [(n, k, [0, 0, 0]) for n, mm, k in cells if mm == m and (n, m, k) not in immune]
        counts.update(((n, m, k), c) for n, k, c in sampled)
        audit_n = min(audit_samples, samples) if audited and audited[1] == m else 0
        for i in range(samples if sampled else audit_n):
            truth = sample_ranking(m, seed, i)
            pos = ranking_positions(truth)  # once per draw, for all of its cells
            for n, k, c in sampled:
                wom, bom = _classify_saturated(pos, n, k)
                if bom and not wom:
                    raise VerificationError(f"best-case-only manipulation at sample {i}: {truth}")
                c[0] += wom
                c[1] += bom
                c[2] += wom or bom
            if i < audit_n:
                n, _, k = audited
                report = manipulability.classify(truth, rules.kapproval(k), n, identity_tiebreak(m), mode="reduction")
                if report.classification != manipulability.NOM:
                    raise VerificationError(f"immune cell n={n}, m={m}, k={k} classified "
                                            f"{report.classification} for {truth}")
    return [ProportionRow(*cell, samples, seed, *counts.get(cell, (0, 0, 0)), sampled=cell in counts)
            for cell in cells]


def om_proportion(n: int, m: int, k: int, samples: int, seed: int) -> ProportionRow:
    """Estimate manipulation rates for one k-approval cell, under the identity priority.

    Sample i draws truth sample_ranking(m, seed, i), so estimates are
    reproducible and independent of batching.  Immune cells short-circuit
    to exact zeros without sampling.
    Neutral rule, uniform truth: relabeling by any priority order keeps the rates, so the identity loses nothing.
    """
    return _run_cells([(n, m, k)], samples, seed, 0)[0]


def run_experiment(config: ExperimentConfig) -> list:
    """Evaluate every cell of the grid, rows in (n, m, m-k) order.

    The first immune cell is audited on min(500, samples) of its truths.
    """
    cells = [(n, m, m - mk) for n in config.n_values for m in config.m_values for mk in config.mk_values]
    return _run_cells(cells, config.samples, config.seed, DEFAULT_AUDIT_SAMPLES)


def sweep_n(m: int, k: int, n_values: Iterable[int], samples: int, seed: int) -> list:
    """Manipulation rates as the voter count grows, m and k fixed."""
    mk = check_int(m, "m") - check_int(k, "k")
    return run_experiment(ExperimentConfig(n_values, (m,), (mk,), samples, seed))


def heatmap(
    n: int,
    m_values: Iterable[int],
    samples: int,
    seed: int,
    mk_values: Iterable[int] = range(1, 10),
) -> list:
    """Manipulation rates over a grid of m and disapproval counts, n fixed."""
    return run_experiment(ExperimentConfig((n,), m_values, mk_values, samples, seed))


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
