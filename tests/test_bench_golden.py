"""Benchmark pools against their recorded golden digests.

Every op of the exhaustive_small pool (8 rules, all 24 tie-breaks at m=4,
n=3: classify by brute force with its witnesses, the randomized tie-break
route, veto power and almost-unanimity) and every query of the
kapproval_reduction pool (every (m, m-k, n) shape, identity and seeded
tie-breaks, default mode) are run once and their digests compared with
bench/golden.json; the pool's first two batches also have a test of their
own, which fails fast.  Both files are read, never written.
"""

import importlib.util
import itertools
import json
from pathlib import Path

import omvote

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _mismatches(workloads, ops) -> tuple:
    golden = json.loads((BENCH / "golden.json").read_text(encoding="utf-8"))
    checked, mismatched = 0, []
    for op in ops:
        data = workloads.output_data(op, op.call())
        if workloads.digest(op.key, data) != workloads.lookup(golden, op.ref):
            mismatched.append(op.ref)
        checked += 1
    return checked, mismatched


def test_exhaustive_small_matches_golden_digests():
    workloads = _load_workloads()
    checked, mismatched = _mismatches(workloads, workloads.ExhaustiveSmall(omvote, 0).universe())
    assert checked == 5112
    assert mismatched == []


def test_kapproval_reduction_prefix_matches_golden_digests():
    workloads = _load_workloads()
    ops = itertools.islice(workloads.KapprovalReduction(omvote, 0).universe(), 2 * workloads.KR_BATCH)
    checked, mismatched = _mismatches(workloads, ops)
    assert checked == 208
    assert mismatched == []


def test_kapproval_reduction_pool_matches_golden_digests():
    workloads = _load_workloads()
    checked, mismatched = _mismatches(workloads, workloads.KapprovalReduction(omvote, 0).universe())
    assert checked == workloads.KR_BATCHES * workloads.KR_BATCH == 26000
    assert mismatched == []
