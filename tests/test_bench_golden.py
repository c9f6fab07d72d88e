"""The benchmark's exhaustive_small pool against its recorded golden digests.

Every op of the pool (8 rules, all 24 tie-breaks at m=4, n=3: classify by
brute force with its witnesses, the randomized tie-break route, veto power and
almost-unanimity) is run once and its digest compared with bench/golden.json.
Both files are read, never written.
"""

import importlib.util
import json
from pathlib import Path

import omvote

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_exhaustive_small_matches_golden_digests():
    workloads = _load_workloads()
    golden = json.loads((BENCH / "golden.json").read_text(encoding="utf-8"))
    checked, mismatched = 0, []
    for op in workloads.ExhaustiveSmall(omvote, 0).universe():
        data = workloads.output_data(op, op.call())
        if workloads.digest(op.key, data) != workloads.lookup(golden, op.ref):
            mismatched.append(op.ref)
        checked += 1
    assert checked == 5112
    assert mismatched == []
