#!/usr/bin/env python3
"""omvote benchmark: one workload per invocation, outputs checked against golden digests.

    python3 bench/run.py --workload mc_grid --seed 1 --seconds 20 --trace 0

Run from the repository root; omvote is imported from ./src.  The process
started by this command never imports omvote.  It starts fresh interpreters,
one after another, so that every lru_cache starts empty as it does for an
om-vote user and peak RSS belongs to the workload alone:

  * SETUP_PROBES interpreters that only import omvote and build the inputs;
    setup_s is the median of their set-up times and the loop's;
  * the measured loop: one caller runs one op at a time, in whole batches,
    for --seconds;
  * with --trace 1, a second loop over the same batches with every layer
    wrapped in spans (tracing.py).  It gives the per-layer metrics, and its
    time against the first loop's is the tracing overhead.

Times are scaled to a reference speed.  The machine this runs on is shared,
and its speed drifts by a quarter or more within minutes.  So each loop
also times a fixed pure-Python job, the reference, interleaved with the ops
(REF_SHARE of their time), and every time it reports is divided by how much
slower than REF_NOMINAL_S that job ran on average.  Raw times are that
factor ("slowdown" in the record) times the reported ones.  --seconds is
counted at the reference speed too, so a slow spell neither shortens a run
nor changes its mix of ops; WALL_LIMIT caps the wall time.

The last stdout line is {"correct", "attempted", "failed", "metrics"} with
the end-to-end metrics of BENCHMARK.json (--trace 0) or its per-layer
metrics (--trace 1).  The line before it is the run record: machine and
source context, per-loop details, and the span table of a traced run.
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 7
REF_BALLOTS = tuple(itertools.permutations(range(4)))
REF_NOMINAL_S = 0.0011  # the reference job on an idle core, give or take
REF_SHARE = 0.1  # reference time per unit of op time
REF_WARMUP = 40  # reference passes before the loop and after each set-up
WALL_LIMIT = 1.75  # a loop stops by WALL_LIMIT * --seconds of wall time even on a slow machine
RUN_LIMIT_S = 170  # every process this run starts has ended by then
PROGRAM_MODULES = ("core", "rules", "ccum", "manipulability", "characterization", "experiments", "cli")


# --------------------------------------------------------------------------- child side


def import_program():
    """Import omvote from this checkout's src/, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    omvote = importlib.import_module("omvote")
    for name in PROGRAM_MODULES:
        importlib.import_module(f"omvote.{name}")
    if Path(omvote.__file__).resolve().parent != SRC / "omvote":
        raise RuntimeError(f"imported omvote from {omvote.__file__}, not from {SRC}")
    return omvote


def set_up(workload: str, seed: int):
    start = perf_counter()
    omvote = import_program()
    plan = workloads.WORKLOADS[workload](omvote, seed)
    return omvote, plan, perf_counter() - start


def reference() -> float:
    """Time one pass of a fixed job shaped like omvote's inner loops: a tuple
    and a list per two-ballot profile, a keyed max, a dict and a frozenset."""
    start = perf_counter()
    winners = {}
    for pair in itertools.product(REF_BALLOTS, repeat=2):
        totals = [0] * 4
        for ballot in pair:
            for pos, o in enumerate(ballot):
                totals[o] += 3 - pos
        winners[tuple(totals)] = max(range(4), key=lambda o: (totals[o], -o))
    frozenset(winners.values())
    return perf_counter() - start


FAILED = object()


def matches(op, output, golden: dict) -> bool:
    data = workloads.output_data(op, output)
    if workloads.digest(op.key, data) != workloads.lookup(golden, op.ref):
        return False
    return op.check is None or op.check(data)


def run_loop(plan, golden: dict, seconds: float, batches: int | None) -> dict:
    """Closed loop over the plan's batches: exactly *batches* of them, or as
    many whole batches as end within *seconds* at the reference speed,
    judged by the longest batch so far.

    After each op the reference job runs until its total time catches up
    with REF_SHARE of the ops' time, so it samples the machine's speed when
    the ops run.  Outputs are checked after each batch, so that checking
    does not stand between one op and the next."""
    timed, failed, errors, rss_mib = [], 0, [], None
    refs = [reference() for _ in range(REF_WARMUP)]
    owed = 0.0
    longest, loop_start = 0.0, perf_counter()
    for batch in plan.batches():
        if len(timed) == batches:
            break
        if batches is None and timed:
            wall = perf_counter() - loop_start + longest
            if wall / slowdown(refs) > seconds or wall > WALL_LIMIT * seconds:
                break
        batch_start = perf_counter()
        times, outputs = [], []
        for op in batch:
            start = perf_counter()
            try:
                outputs.append(op.call())
            except Exception:  # a raising op is a failed op; the run goes on and reports it
                outputs.append(FAILED)
                errors.append(traceback.format_exc())
            elapsed = perf_counter() - start
            times.append([elapsed, op.weight])
            owed += REF_SHARE * elapsed
            while owed > 0:
                refs.append(reference())
                owed -= refs[-1]
        for op, output in zip(batch, outputs):
            if output is not FAILED and not matches(op, output, golden):
                errors.append(f"output mismatch: {op.ref}")
                output = FAILED
            failed += op.weight if output is FAILED else 0
        timed.append(times)
        longest = max(longest, perf_counter() - batch_start)
        if len(timed) == plan.rss_batches:
            rss_mib = peak_rss_mib()
    for text in errors[:3]:
        print(text, file=sys.stderr)
    return {"timed": timed, "failed": failed, "slowdown": slowdown(refs), "refs": len(refs),
            "peak_rss_mib": peak_rss_mib() if rss_mib is None else rss_mib}


def slowdown(refs: list) -> float:
    """How much slower than REF_NOMINAL_S the reference job ran, on average."""
    return statistics.fmean(refs) / REF_NOMINAL_S


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def layer_values(omvote, tracer: tracing.Tracer, slow: float) -> dict:
    """Every per-layer figure the traced loop can give, by metric name."""
    values = {}
    for name, (calls, total, self_s) in tracer.stats.items():
        values[f"{name}.calls"] = calls
        values[f"{name}.s"] = total / slow
        values[f"{name}.self_s"] = self_s / slow
    info = tracer.cache_info("ccum.possible_outcomes")
    if info is not None:
        values["ccum.possible_outcomes.hit_ratio"] = _hit_ratio(info)
    table = getattr(omvote.manipulability, "_bruteforce_feasible_map", None)
    if hasattr(table, "cache_info"):
        info = table.cache_info()
        values["manipulability.table.misses"] = info.misses
        values["manipulability.table.hit_ratio"] = _hit_ratio(info)
    return values


def _hit_ratio(info) -> float:
    calls = info.hits + info.misses
    return info.hits / calls if calls else 0.0


def child_main(args) -> int:
    omvote, plan, setup_s = set_up(args.workload, args.seed)
    setup_s /= slowdown([reference() for _ in range(REF_WARMUP)])
    if args.role == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0
    golden = json.loads((BENCH / "golden.json").read_text())
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    loop = run_loop(plan, golden, args.seconds, args.batches)
    loop["setup_s"] = setup_s
    if tracer is not None:
        tracer.uninstall()
        loop["layers"] = layer_values(omvote, tracer, loop["slowdown"])
        loop["bindings"] = sorted(tracer.bindings)
    print(json.dumps(loop))
    return 0


# --------------------------------------------------------------------------- parent side


def spawn(args, role: str, trace: int = 0, batches: int | None = None) -> dict:
    """Run one child interpreter to its end and return its JSON line."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--role", role, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
    if batches is not None:
        cmd += ["--batches", str(batches)]
    timeout = max(1.0, RUN_LIMIT_S - (perf_counter() - args.started))
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=timeout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"{role} process exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(loop: dict, per_batch: bool) -> dict:
    """Ops, time and latency of one loop, times scaled to the reference speed."""
    timed, slow = loop["timed"], loop["slowdown"]
    ops = sum(w for batch in timed for _, w in batch)
    busy = sum(t for batch in timed for t, _ in batch) / slow
    if per_batch:
        samples = [sum(t for t, _ in b) / sum(w for _, w in b) / slow for b in timed]
    else:
        samples = [t / w / slow for batch in timed for t, w in batch]
    if len(samples) > 1:
        cuts = statistics.quantiles(samples, n=100, method="inclusive")
        p50, p99 = cuts[49], cuts[98]
    else:
        p50 = p99 = samples[0]
    return {"ops": ops, "busy_s": busy, "batches": len(timed), "latency_samples": len(samples),
            "ops_per_s": ops / busy, "p50_ms": p50 * 1e3, "p99_ms": p99 * 1e3,
            "slowdown": slow, "refs": loop["refs"], "failed": loop["failed"]}


def context() -> dict:
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT, timeout=30)
        commit = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "commit": commit,
            "src_lines": src_lines}


def parent_main(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (SRC / "omvote" / "__init__.py").is_file():
        print(f"error: no omvote sources under {SRC}", file=sys.stderr)
        return 2
    per_batch = workloads.WORKLOADS[args.workload].latency_per_batch
    setup_samples = [spawn(args, "setup")["setup_s"] for _ in range(SETUP_PROBES)]
    plain = spawn(args, "loop")
    setup_samples.append(plain["setup_s"])
    loops = [summarize(plain, per_batch)]
    if args.trace:
        traced = spawn(args, "loop", trace=1, batches=len(plain["timed"]))
        loops.append(summarize(traced, per_batch))
        found = traced["layers"]
        found["trace.ops"] = loops[1]["ops"]
        found["trace.ops_per_s"] = loops[1]["ops_per_s"]
        found["trace.overhead_pct"] = (loops[1]["busy_s"] / loops[0]["busy_s"] - 1) * 100
        wanted = spec["per_layer"]
    else:
        found = {"ops_per_s": loops[0]["ops_per_s"], "op_p50_ms": loops[0]["p50_ms"],
                 "op_p99_ms": loops[0]["p99_ms"], "setup_s": statistics.median(setup_samples),
                 "peak_rss_mib": plain["peak_rss_mib"]}
        wanted = spec["end_to_end"]
    failed = sum(loop["failed"] for loop in loops)
    metrics = {m["name"]: {"value": found.get(m["name"], 0), "unit": m["unit"]} for m in wanted}
    attempted = sum(loop["ops"] for loop in loops)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "context": context(), "setup_samples_s": setup_samples, "error_rate": failed / attempted,
        "loops": loops, "peak_rss_mib": plain["peak_rss_mib"],
        "pool_wrapped": len(plain["timed"]) > workloads.WORKLOADS[args.workload].pool_batches,
        # names in BENCHMARK.json that no wrapped function or cache gave
        "unmeasured": [m["name"] for m in wanted if m["name"] not in found],
    }
    if args.trace:
        record["layers"] = found
        record["bindings"] = traced["bindings"]
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("parent", "setup", "loop"), default="parent", help=argparse.SUPPRESS)
    parser.add_argument("--batches", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    args.started = perf_counter()
    if args.role != "parent":
        return child_main(args)
    try:
        return parent_main(args)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
