"""Monte Carlo estimates of how many preference orders admit a manipulation.

One election configuration (n voters, m outcomes, k approvals) is sampled by
drawing truthful rankings uniformly; each sample is classified exactly and
the worst-case / best-case manipulation rates are reported per cell.  Cells
where n(m-k) > m-2 are provably immune, so they are emitted as exact zeros;
one such cell per run is audited by sampling anyway and asserting NOM.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Iterable, NamedTuple, Sequence

from . import manipulability, rules
from .characterization import kapproval_om
from .core import MAX_M, _fisher_yates_many, _fisher_yates_steps, _seed_key, check_int, identity_tiebreak
from .errors import InvalidParametersError, VerificationError

DEFAULT_SAMPLES = 100_000
AUDIT_SAMPLES = 500
CHUNK = 512  # truths drawn together as lanes of one integer: bounds a draw's memory at any samples


class ProportionRow(NamedTuple):
    """Manipulation rates for one (n, m, k) cell."""

    n: int
    m: int
    k: int
    samples: int
    seed: int
    wom_count: int
    bom_count: int
    sampled: bool  # False when the zero verdict is analytic, not estimated

    @property
    def p_wom(self) -> float:
        return self.wom_count / self.samples

    @property
    def p_bom(self) -> float:
        return self.bom_count / self.samples

    @property
    def p_om(self) -> float:
        return self.p_wom  # every BOM draw is a WOM draw (run_experiment raises otherwise), so OM is WOM


def _ints(values, what: str) -> tuple:
    try:
        values = tuple(values)
    except TypeError:
        raise InvalidParametersError(f"{what} must be a sequence of integers, got {values!r}") from None
    for v in values:
        check_int(v, f"each of {what}")
    return values


def _classify_saturated(positions, cells) -> list:
    """(wom, bom, first) for each cell (k, need, L) = (k, (n-1)(m-k)+1, n(m-k)+1), over the truths of *positions*.

    *positions* holds one bytes object per truth, its places by outcome
    (ranking_positions as bytes); wom and bom count the truths that are WOM
    and BOM in the cell, and first is the index of the first truth that is
    BOM but not WOM, or None.  k-approval, identity tie-break.  Valid only
    when m >= n*(m-k)+2: the n(m-k) disapprovals never cover all outcomes,
    so a report approving the set A reaches exactly the need
    highest-priority members of A.  Those lie among the L outcomes of
    highest priority, 0..L-1, so a scan of their places pos[:L] in the truth
    replaces sorting.  At most m-k of them are disapproved, so the approved
    places a of the scan hold at least need, and the truthful reachable set
    is the head a[:need].  The candidate misreport approves the outcomes
    better than the truthful worst, at place cut = max(head), and every bad
    one but the m-k of highest priority; it is a WOM iff the scan holds need
    places below cut.  The head holds need-1 and a disapproved place is >= k
    > cut, so that reads max(head) > min(a[need:]).  The least of L distinct
    places is at most m-L < k, so approved, and a BOM, a scanned place below
    min(head), reads min(head) > min(a[need:]).  With a[need:] empty, neither
    holds.

    Cells that share k (and m) differ only in n, and need(n+1) = L(n): each
    cell's tail a[need:] lies inside the next one's head.  So one pass per
    truth over the places of such a group, in priority order, can serve all
    of its cells (_scan), where a test runs one cell over the whole chunk in
    C (_test).  Per truth, a pass costs about twenty steps, plus one per
    place and five per cell, and a test about twenty-five (a step is one
    approved place of the pass; 512-truth chunks, 2-core x86-64,
    Python 3.11), so a group takes the pass iff its largest L is below
    20 * (cells - 1): a lone cell is tested, and fig1's eleven cells, L <= 14,
    take a third of their tests' time.  Duplicate cells are counted once.
    """
    groups = {}  # the cells of one m, by k
    for k, need, L in dict.fromkeys(cells):
        groups.setdefault(k, []).append((need, L))
    counts = {}
    for k, bounds in groups.items():
        bounds.sort()
        if bounds[-1][1] < 20 * (len(bounds) - 1):
            counts.update(zip([(k, *b) for b in bounds], _scan(positions, k, bounds)))
        else:
            counts.update(((k, *b), _test(positions, k, *b)) for b in bounds)
    return [counts[cell] for cell in cells]


def _test(positions, k, need, L) -> tuple:
    # one cell over the chunk: bytes.translate deletes the disapproved places k..m-1 (m = k + L - need), and the
    # slicing, min and max all run in C
    drop = bytes(range(k, k + L - need))
    wom = bom = 0
    first = None
    for i, pos in enumerate(positions):
        a = pos[:L].translate(None, drop)
        tail = a[need:]
        if tail:
            low = min(tail)
            if max(a[:need]) > low:
                wom += 1
                bom += min(a) == low
            elif min(a) == low and first is None:
                first = i
    return wom, bom, first


def _scan(positions, k, bounds) -> list:
    # the cells (need, L) of *bounds*, sorted, that share k, in one pass per truth over its places in
    # priority order.  hi and lo are the running max and min of the approved places.  Once a head's `need` are
    # seen, the next approved place takes hi and lo as the head's extremes and starts the cell's tail, whose min is
    # low.  Cell c is read at index L, before that index's place, so pos[top] only closes the last cell.  If every
    # place before L is approved, the next head is complete at L - 1 too; its extremes wait for a place at L or
    # beyond, after cell c is read.
    top = bounds[-1][1]
    needs = [need for need, _ in bounds] + [0]  # 0: no head after the last
    ends = [None] * (top + 1)
    for c, (_, L) in enumerate(bounds):
        ends[L] = c
    wom, bom, first = [0] * len(bounds), [0] * len(bounds), [None] * len(bounds)
    for i, pos in enumerate(positions):
        seen = heads = 0
        need, hi, lo, low = needs[0], -1, 256, 256
        for p, c in zip(pos[:top + 1], ends):
            if c is not None and heads > c:  # cell c's head ended before L: its tail is not empty
                if hmax > low:
                    wom[c] += 1
                    bom[c] += hmin > low
                elif hmin > low and first[c] is None:
                    first[c] = i
            if p < k:
                if seen == need:
                    hmax, hmin, low = hi, lo, 256
                    heads += 1
                    need = needs[heads]
                seen += 1
                if p > hi:
                    hi = p
                if p < lo:
                    lo = p
                if p < low:
                    low = p
    return list(zip(wom, bom, first))


def exact_rates(n: int, m: int, k: int) -> tuple:
    """(p_wom, p_bom) of the cell (n, m, k) as Fractions: the rates run_experiment estimates, exactly.

    A saturated cell reads a uniform truth through the places of the
    L = n(m-k)+1 highest-priority outcomes (see _classify_saturated).  The
    number J of them that the truth approves is hypergeometric,
    P(J=j) = C(k,j)C(m-k,L-j)/C(m,L) for c <= j <= min(k, L) with
    c = (n-1)(m-k)+1, and given J=j the approved ones are the j best-ranked
    of the L, in uniform relative order.  The truth is WOM iff the first c
    approved ones in priority order are not the c best-ranked, with
    probability 1 - 1/C(j,c), and BOM iff the best-ranked of the L is not
    among those c, with probability 1 - c/j.  Immune cells (kapproval_om
    fails) are 0, returned before the sum; there c >= k, so the sum is
    empty or its one term is 0.
    """
    if not kapproval_om(n, m, k).holds:
        return Fraction(0), Fraction(0)
    c, L = (n - 1) * (m - k) + 1, n * (m - k) + 1
    p_wom = p_bom = Fraction(0)
    for j in range(c, min(k, L) + 1):
        p = Fraction(comb(k, j) * comb(m - k, L - j), comb(m, L))
        p_wom += p * (1 - Fraction(1, comb(j, c)))
        p_bom += p * (1 - Fraction(c, j))
    return p_wom, p_bom


def run_experiment(n_values, m_values, mk_values, samples: int = DEFAULT_SAMPLES, seed: int = 0) -> list:
    """One row per cell (n, m, m - mk) of the grid, in (n, m, mk) order, under the identity priority.

    Neutral rule, uniform truth: relabeling by any priority order keeps the
    rates, so the identity loses nothing.  Truth i of m outcomes is
    sample_ranking(m, seed, i), drawn once, CHUNK truths at a time, by
    core._fisher_yates_many from the seed's key and the m's steps made once.
    Each chunk's places become bytes, by one bytes.maketrans per truth, and
    one _classify_saturated call counts the chunk's WOM and BOM truths in
    every sampled cell of that m, in one pass per truth for cells that share
    k (fig1's n-sweep); a truth that is BOM but not WOM raises
    VerificationError.  Places are bytes, so every m is at most MAX_M, and
    every m-k lies in 1..m-1 and is named if not, both checked before
    anything is drawn.  The first immune cell is audited: its
    first min(AUDIT_SAMPLES, samples) truths, the same draws, must each come
    out NOM through the reduction.
    """
    n_values, m_values = _ints(n_values, "n_values"), _ints(m_values, "m_values")  # a range or a list will do
    mk_values = _ints(mk_values, "mk_values")
    check_int(samples, "samples", 1)
    if not (n_values and m_values and mk_values):
        raise InvalidParametersError("empty parameter range")
    if max(m_values) > MAX_M:
        raise InvalidParametersError(f"m must be at most {MAX_M}, since places are bytes; got {max(m_values)}")
    for m in m_values:  # each k = m - mk is named by the m-k the caller gave
        check_int(m, "m", 3)
        for mk in mk_values:
            check_int(mk, f"m-k at m={m}", 1, m - 1)
    key = _seed_key(check_int(seed, "seed"))
    cells = [(n, m, m - mk) for n in n_values for m in m_values for mk in mk_values]
    immune = [cell for cell in cells if not kapproval_om(*cell).holds]  # the one check of a cell, and its verdict
    audited = immune[0] if immune else None
    if audited:
        rule, tiebreak = rules.kapproval(audited[2]), identity_tiebreak(audited[1])
    counts = {}
    for m in dict.fromkeys(m for _, m, _ in cells):
        sampled = [cell for cell in cells if cell[1] == m and cell not in immune]
        tallies = [[0, 0] for _ in sampled]
        counts.update(zip(sampled, tallies))
        consts = [(k, (n - 1) * (m - k) + 1, n * (m - k) + 1) for n, _, k in sampled]
        steps, places = _fisher_yates_steps(m), bytes(range(m))
        audit_n = min(AUDIT_SAMPLES, samples) if audited and audited[1] == m else 0
        draws = samples if sampled else audit_n
        for start in range(0, draws, CHUNK):
            chunk = _fisher_yates_many(m, key, start, min(CHUNK, draws - start), steps)
            positions = [bytes.maketrans(bytes(truth), places)[:m] for truth in chunk]  # ranking_positions, in C
            for (wom, bom, first), c in zip(_classify_saturated(positions, consts), tallies):
                if first is not None:
                    raise VerificationError(f"best-case-only manipulation at sample {start + first}: {chunk[first]}")
                c[0] += wom
                c[1] += bom
            for i, truth in enumerate(chunk[:max(audit_n - start, 0)], start):
                report = manipulability.classify(truth, rule, audited[0], tiebreak, mode="reduction")
                if report.classification != manipulability.NOM:
                    raise VerificationError(f"immune cell n={audited[0]}, m={m}, k={audited[2]} classified "
                                            f"{report.classification} for {truth}")
    return [ProportionRow(*cell, samples, seed, *counts.get(cell, (0, 0)), sampled=cell in counts)
            for cell in cells]


def sweep_n(m: int, k: int, n_values: Iterable[int], samples: int, seed: int) -> list:
    """Manipulation rates as the voter count grows, m and k fixed."""
    mk = check_int(m, "m", 3) - check_int(k, "k", 1, m - 1)
    return run_experiment(n_values, (m,), (mk,), samples, seed)


def heatmap(
    n: int,
    m_values: Iterable[int],
    samples: int,
    seed: int,
    mk_values: Iterable[int] = range(1, 10),
) -> list:
    """Manipulation rates over a grid of m and disapproval counts, n fixed."""
    return run_experiment((n,), m_values, mk_values, samples, seed)


CSV_HEADER = "n,m,k,m_minus_k,samples,seed,p_wom,p_bom,p_om"


def rows_to_csv(rows: Sequence[ProportionRow]) -> str:
    """Deterministic CSV text: identical rows give identical bytes."""
    lines = [CSV_HEADER]
    for r in _rows(rows):
        lines.append(
            f"{r.n},{r.m},{r.k},{r.m - r.k},{r.samples},{r.seed},"
            f"{r.p_wom:.6f},{r.p_bom:.6f},{r.p_om:.6f}"
        )
    return "\n".join(lines) + "\n"


def _rows(rows) -> tuple:
    try:
        rows = tuple(rows)
    except TypeError:
        raise InvalidParametersError(f"rows must be a sequence of ProportionRow, got {rows!r}") from None
    for r in rows:
        if not isinstance(r, ProportionRow):
            raise InvalidParametersError(f"each of rows must be a ProportionRow, got {r!r}")
    return rows


def write_csv_file(path, rows: Sequence[ProportionRow]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(rows_to_csv(rows))
