"""The benchmark's three workloads: their inputs, their ops, and golden digests.

Every op carries `ref`, the path of its golden digest in golden.json, and
`key`, its inputs as plain data.  The digest of an op is sha256 over
[key, output], so a change to the inputs fails the op as surely as a change
to the output.  Inputs are finite pools made by the benchmark's own
`random.Random`, never by omvote's sampler: a run's seed orders and selects
pool entries, so every seed hits entries that have a recorded digest.
Ops look omvote functions up on their module when they run, so the
tracer's rebinding of those attributes applies to them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
from typing import Callable, NamedTuple

DIGEST_HEX = 12


def digest(key, output) -> str:
    text = json.dumps([key, output], separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:DIGEST_HEX]


def lookup(golden: dict, ref: tuple):
    """The golden digest at path *ref*: dict keys are strings, list indices ints."""
    node = golden
    for part in ref:
        node = node[str(part)] if isinstance(node, dict) else node[part]
    return node


# Each workload class also fixes `rss_batches`: peak RSS is read after that
# many batches, not at the end of the run.  omvote's lru_caches keep every
# distinct query, so RSS grows with the work done, and a faster program would
# otherwise read as a fatter one.  `pool_batches` is how many batches the
# pool holds before the walk starts over.


class Op(NamedTuple):
    ref: tuple  # path of the golden digest in golden.json
    key: object  # the op's inputs, JSON-able
    weight: int  # ops it counts for: truths classified (mc_grid), else 1
    call: Callable[[], object]  # runs the op and returns its output; the only timed part
    view: Callable[[object], object] | None = None  # makes the output JSON-able, where needed
    check: Callable[[object], bool] | None = None  # extra check on the JSON-able output


def output_data(op: Op, output):
    """The op's output as the JSON-able data that is digested and checked."""
    return output if op.view is None else op.view(output)


def report_view(report) -> list:
    """(classification, WOM witness, BOM witness, truthful cases) of a ManipulationReport."""
    bom = report.bom_witness
    cases = report.truthful_cases
    return [
        report.classification,
        list(report.wom_witness) if report.wom_witness is not None else None,
        [list(bom.misreport), [list(b) for b in bom.others]] if bom is not None else None,
        [cases.best, cases.worst, sorted(cases.feasible)],
    ]


# --------------------------------------------------------------------------- mc_grid
#
# The paper's two figures through the om-vote command, in process, at reduced
# sample counts.  One batch is a fig1 run plus a fig2 run at one CLI seed.
# --seed goes after the figure name: `experiment --seed S fig1` runs seed 0.

FIG_ARGS = {
    "fig1": ["--m", "15", "--k", "14", "--n", "3:14", "--samples", "3000"],
    "fig2": ["--n", "3", "--m", "21:30", "--mk", "1:9", "--samples", "300"],
}
MC_SEEDS = 48  # CLI seeds 0..47 have golden CSV digests
AUDIT_CAP = 500  # the CLI audits one immune cell with min(500, samples) truths


def _figure_cells(fig: str) -> list:
    if fig == "fig1":
        return [(n, 15, 14) for n in range(3, 15)]
    return [(3, m, m - mk) for m in range(21, 31) for mk in range(1, 10)]


def _samples(fig: str) -> int:
    return int(FIG_ARGS[fig][FIG_ARGS[fig].index("--samples") + 1])


def figure_truths(fig: str) -> int:
    """Truths one run of *fig* classifies: sampled cells plus the audited immune cell."""
    samples = _samples(fig)
    cells = _figure_cells(fig)
    immune = [c for c in cells if c[0] * (c[1] - c[2]) > c[1] - 2]
    return (len(cells) - len(immune)) * samples + (min(AUDIT_CAP, samples) if immune else 0)


def _csv_matches(seed: int, samples: int):
    def check(csv_text: str) -> bool:
        header, *rows = csv_text.splitlines()
        cols = header.split(",")
        i_seed, i_samples = cols.index("seed"), cols.index("samples")
        return bool(rows) and all(
            int(r.split(",")[i_seed]) == seed and int(r.split(",")[i_samples]) == samples for r in rows
        )
    return check


class McGrid:
    name = "mc_grid"
    latency_per_batch = True
    rss_batches = 2
    pool_batches = MC_SEEDS

    def __init__(self, omvote, seed: int):
        self.cli = omvote.cli
        self.order = random.Random(seed).sample(range(MC_SEEDS), MC_SEEDS)

    def _op(self, fig: str, cli_seed: int) -> Op:
        argv = ["experiment", fig, "--seed", str(cli_seed)] + FIG_ARGS[fig]

        def call():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = self.cli.main(argv)
            if code != 0:
                raise RuntimeError(f"om-vote {' '.join(argv)} exited {code}")
            return out.getvalue()

        return Op(("mc_grid", fig, cli_seed), argv, figure_truths(fig), call,
                  check=_csv_matches(cli_seed, _samples(fig)))

    def batches(self):
        for cli_seed in itertools.cycle(self.order):
            yield [self._op("fig1", cli_seed), self._op("fig2", cli_seed)]

    def universe(self):
        for cli_seed in range(MC_SEEDS):
            yield from (self._op(fig, cli_seed) for fig in FIG_ARGS)


# --------------------------------------------------------------------------- kapproval_reduction
#
# Single-truth classify queries at paper scale inside the manipulable region
# n(m-k) <= m-2, default mode (the reduction route for k-approval).  A batch
# holds one query of every (m, m-k, n) shape, once with the identity
# tie-break and once with a seeded one, so every run sees the same mix of
# query costs and only the truths and tie-breaks differ.  Query i is drawn
# from its own Random, so a run builds only the queries it reaches.

KR_SHAPES = [
    (m, d, n)
    for m in (15, 21, 25, 30)
    for d in (1, 2, 3, 5)
    if 3 * d <= m - 2
    for n in range(3, min(6, (m - 2) // d) + 1)
]
KR_BATCH = 2 * len(KR_SHAPES)
KR_BATCHES = 250  # pool of 250 * 104 queries


def kapproval_query(i: int) -> tuple:
    """(k, n, truth, tiebreak) of pool query *i*."""
    m, d, n = KR_SHAPES[i % KR_BATCH // 2]
    rng = random.Random(f"kapproval_reduction/{i}")
    truth = list(range(m))
    rng.shuffle(truth)
    tiebreak = list(range(m))
    if i % 2:
        rng.shuffle(tiebreak)
    return m - d, n, tuple(truth), tuple(tiebreak)


class KapprovalReduction:
    name = "kapproval_reduction"
    latency_per_batch = False
    rss_batches = 20
    pool_batches = KR_BATCHES

    def __init__(self, omvote, seed: int):
        self.mp = omvote.manipulability
        self.kapproval = omvote.rules.kapproval
        self.rng = random.Random(seed)
        self.order = self.rng.sample(range(KR_BATCHES), KR_BATCHES)

    def _op(self, i: int) -> Op:
        k, n, truth, tiebreak = kapproval_query(i)
        rule = self.kapproval(k)
        return Op(
            ("kapproval_reduction", i),
            [k, n, truth, tiebreak],
            1,
            lambda: self.mp.classify(truth, rule, n, tiebreak),
            report_view,
        )

    def batches(self):
        # past the end of the pool the walk starts over, and queries repeat
        for b in itertools.cycle(self.order):
            batch = [self._op(b * KR_BATCH + j) for j in range(KR_BATCH)]
            self.rng.shuffle(batch)
            yield batch

    def universe(self):
        return (self._op(i) for i in range(KR_BATCHES * KR_BATCH))


# --------------------------------------------------------------------------- exhaustive_small
#
# m=4, n=3: every truth under seeded tie-breaks, per rule.  One batch is a
# round: one new tie-break for every rule.  Each (rule, tie-break) block costs
# one cold feasible-table build followed by warm lookups; for the scoring
# rules, classify_randomized_tiebreak of each truth adds 24 cheap ops on a
# table shared by all tie-breaks.  The veto-power and almost-unanimity
# detectors run once per rule, in the first round.

SMALL_M, SMALL_N = 4, 3
SMALL_RULES = ("borda", "paperfamily", "dowdall", "copeland", "stv", "runoff",
               "vetofamily:omega=9,eps=1", "kapproval:k=2")
PERMS = list(itertools.permutations(range(SMALL_M)))


class ExhaustiveSmall:
    name = "exhaustive_small"
    latency_per_batch = False
    rss_batches = 2
    pool_batches = len(PERMS)

    def __init__(self, omvote, seed: int):
        self.mp = omvote.manipulability
        self.ch = omvote.characterization
        rules = omvote.rules
        self.rules = {label: rules.parse_rule(label) for label in SMALL_RULES}
        self.weights = {label: rules.score_vector(rule, SMALL_M, SMALL_N)
                        for label, rule in self.rules.items() if rule.is_scoring}
        self.rng = random.Random(seed)
        self.tb_order = {label: self.rng.sample(range(len(PERMS)), len(PERMS)) for label in SMALL_RULES}

    def _block(self, label: str, tb_i: int, first: bool) -> list:
        rule, tb, mp, ch = self.rules[label], PERMS[tb_i], self.mp, self.ch
        ops = [
            Op(("exhaustive_small", "classify", label, tb_i, t), ["classify", label, tb, truth], 1,
               lambda truth=truth: mp.classify(truth, rule, SMALL_N, tb, mode="bruteforce"), report_view)
            for t, truth in enumerate(PERMS)
        ]
        if label in self.weights:
            ws = self.weights[label]
            ops += [
                Op(("exhaustive_small", "randomized", label, t), ["randomized", label, truth], 1,
                   lambda truth=truth: mp.classify_randomized_tiebreak(truth, ws, SMALL_N), report_view)
                for t, truth in enumerate(PERMS)
            ]
        self.rng.shuffle(ops)
        if first:
            # last in the block: has_veto_power fills possible_outcomes for
            # every report, which would make later classify ops cheaper
            ops.append(Op(("exhaustive_small", "veto", label, tb_i), ["veto", label, tb], 1,
                          lambda: ch.has_veto_power(rule, SMALL_N, SMALL_M, tb)))
            ops.append(Op(("exhaustive_small", "unanimous", label, tb_i), ["unanimous", label, tb], 1,
                          lambda: ch.is_almost_unanimous(rule, SMALL_N, SMALL_M, tb)))
        return ops

    def batches(self):
        for rnd in itertools.count():
            batch = []
            for label in SMALL_RULES:
                batch += self._block(label, self.tb_order[label][rnd % len(PERMS)], rnd == 0)
            yield batch

    def universe(self):
        for label in SMALL_RULES:
            for tb_i in range(len(PERMS)):
                for op in self._block(label, tb_i, True):
                    if op.ref[1] != "randomized" or tb_i == 0:
                        yield op


WORKLOADS = {w.name: w for w in (McGrid, KapprovalReduction, ExhaustiveSmall)}

