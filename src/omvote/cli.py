"""om-vote: winners, manipulation analysis, and experiment tables from the shell.

Exit codes: 0 success, 2 invalid input, 3 enumeration budget exceeded.
Results go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache

from . import characterization, experiments, manipulability, rules
from .core import DEFAULT_BUDGET, check_int, identity_tiebreak, make_ranking, make_tiebreak, read_profile_file
from .errors import InvalidParametersError, TooLargeError, VotingError


def _parse_int_list(text: str) -> tuple:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise InvalidParametersError(f"expected comma-separated integers, got {text!r}") from None


def _parse_range(text: str) -> tuple:
    """'3:14' -> (3,...,14) inclusive; '7' -> (7,)."""
    try:
        if ":" in text:
            lo, hi = text.split(":", 1)
            lo, hi = int(lo), int(hi)
            if hi < lo:
                raise ValueError
            return tuple(range(lo, hi + 1))
        return (int(text),)
    except ValueError:
        raise InvalidParametersError(f"expected N or LO:HI, got {text!r}") from None


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2, default=str))  # a Fraction prints as str(Fraction)
    else:
        config = payload.get("config", {})
        print("# " + " ".join(f"{k}={_text_value(v)}" for k, v in config.items()))
        for key, value in payload.items():
            if key != "config":
                print(f"{key}: {_text_value(value)}")


def _text_value(value) -> str:
    if isinstance(value, (list, tuple)):  # a list of ballots joins with ';', so ballots keep their bounds
        sep = ";" if all(isinstance(v, (list, tuple)) for v in value) else ","
        return sep.join(_text_value(v) for v in value)
    if isinstance(value, dict):
        return "{" + " ".join(f"{k}={_text_value(v)}" for k, v in value.items()) + "}"
    return str(value)


def _resolve_tiebreak(arg, m, from_file=None):
    if arg is not None:
        return make_tiebreak(_parse_int_list(arg), m)
    if from_file is not None:
        return from_file
    return identity_tiebreak(m)


def _config(args, command: str, **extra) -> dict:
    """The configuration that ran: the command, its budget where it takes one, the format, then *extra*."""
    budget = {"budget": args.budget} if "budget" in args else {}
    return {"command": command, **budget, "format": args.format, **extra}


# --------------------------------------------------------------------------- commands


def _cmd_winner(args) -> int:
    rule = rules.parse_rule(args.rule)
    profile, file_tb = read_profile_file(args.profile)
    tiebreak = _resolve_tiebreak(args.tiebreak, profile.m, file_tb)
    elected = rules.winner(rule, profile, tiebreak)
    payload = {
        "config": _config(args, "winner", rule=rules.rule_label(rule), profile=args.profile,
                          tiebreak=list(tiebreak), n=profile.n, m=profile.m),
        "winner": elected,
    }
    if rule.is_scoring:
        ws = rules.score_vector(rule, profile.m, profile.n)
        payload["scores"] = {str(o): s for o, s in sorted(rules.scoring_scores(ws, profile).items())}
    _emit(payload, args.format)
    return 0


def _cmd_ccum(args) -> int:
    from .ccum import CcumInstance, solve_ccum

    rule = rules.parse_rule(args.rule)
    profile, file_tb = read_profile_file(args.fixed_profile)
    tiebreak = _resolve_tiebreak(args.tiebreak, profile.m, file_tb)
    inst = CcumInstance(rule, profile.ballots, args.manipulators, args.target, tiebreak)
    cert = solve_ccum(inst, budget=args.budget)
    payload = {
        "config": _config(args, "ccum", rule=rules.rule_label(rule), fixed_profile=args.fixed_profile,
                          manipulators=args.manipulators, target=args.target,
                          tiebreak=list(tiebreak)),
        **cert._asdict(),
    }
    _emit(payload, args.format)
    return 0


def _cmd_analyze(args) -> int:
    if args.randomized_tiebreak and (args.tiebreak is not None or args.mode != "auto"):
        flag = "--tiebreak" if args.tiebreak is not None else "--mode"  # co-winner semantics reads neither
        raise InvalidParametersError(f"{flag} cannot be combined with --randomized-tiebreak")
    rule = rules.parse_rule(args.rule)
    truth = make_ranking(_parse_int_list(args.truth))
    m = len(truth)
    tiebreak = _resolve_tiebreak(args.tiebreak, m)
    if args.randomized_tiebreak:
        weights = rules.score_vector(rule, m, args.n)
        report = manipulability.classify_randomized_tiebreak(truth, weights, args.n, args.budget)
    else:
        report = manipulability.classify(truth, rule, args.n, tiebreak, args.mode, args.budget)
    payload = {
        "config": _config(args, "analyze", rule=rules.rule_label(rule), n=args.n,
                          truth=list(truth), tiebreak=list(tiebreak), mode=args.mode,
                          randomized_tiebreak=args.randomized_tiebreak),
        "classification": report.classification,
        "truthful_best": report.truthful_cases.best,
        "truthful_worst": report.truthful_cases.worst,
        "feasible": sorted(report.truthful_cases.feasible),
        "wom_witness": list(report.wom_witness) if report.wom_witness else None,
        "bom_witness": {
            "misreport": list(report.bom_witness.misreport),
            "others": [list(b) for b in report.bom_witness.others],
        } if report.bom_witness else None,
    }
    _emit(payload, args.format)
    return 0


def _cmd_characterize(args) -> int:
    rule = rules.parse_rule(args.rule)
    n, m = check_int(args.n, "n", 1), check_int(args.m, "m", 1)  # checked even where no verdict reads them
    verdicts = []
    if rule.is_scoring:
        ws = rules.score_vector(rule, m, n)
        k = rules.kapproval_k(rule, m)
        if k is not None and n >= 3 and m >= 3:  # where the k-approval characterization applies
            verdicts.append(characterization.kapproval_om(n, m, k))
        verdicts.append(characterization.scoring_nom_sufficient(n, ws))
        verdicts.append(characterization.bom_iff(n, ws))
        verdicts.append(characterization.weakly_diminishing(n, ws))
    if args.exhaustive:
        for detector in (characterization.has_veto_power, characterization.is_almost_unanimous):
            verdicts.append(characterization.TheoremVerdict(
                detector.__name__, detector(rule, n, m, None, args.budget), characterization.NO_CLAIM,
                {"n": n, "m": m}))
    payload = {
        "config": _config(args, "characterize", rule=rules.rule_label(rule), n=n, m=m,
                          exhaustive=args.exhaustive),
        "verdicts": [v._asdict() for v in verdicts],
    }
    _emit(payload, args.format)
    return 0


def _cmd_experiment(args) -> int:
    if args.figure == "fig1":
        rows = experiments.sweep_n(args.m, args.k, _parse_range(args.n), args.samples, args.seed)
    else:
        rows = experiments.heatmap(args.n, _parse_range(args.m), args.samples, args.seed,
                                   mk_values=_parse_range(args.mk))
    if args.format == "json":
        text = json.dumps([
            {"n": r.n, "m": r.m, "k": r.k, "m_minus_k": r.m - r.k, "samples": r.samples,
             "seed": r.seed, "p_wom": round(r.p_wom, 6), "p_bom": round(r.p_bom, 6),
             "p_om": round(r.p_om, 6)}
            for r in rows
        ], indent=2) + "\n"
    else:
        text = experiments.rows_to_csv(rows)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        print(f"wrote {len(rows)} rows to {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


# --------------------------------------------------------------------------- parser


class _BeforeFigure(argparse.Action):
    """Rejects --seed before the figure name, whose parser owns it, and --budget, which nothing reads."""

    def __call__(self, parser, namespace, values, option_string=None):
        if option_string == "--budget":
            parser.error("experiment takes no --budget")
        parser.error(f"{option_string} goes after the figure name, e.g. 'experiment fig1 {option_string} ...'")


@lru_cache(maxsize=None)  # built once per process: parsing leaves a parser as it was
def build_parser() -> argparse.ArgumentParser:
    figure = argparse.ArgumentParser(add_help=False)  # what fig1 and fig2 share
    figure.add_argument("--seed", type=int, default=0, help="PRNG seed (default 0)")
    figure.add_argument("--samples", type=int, default=experiments.DEFAULT_SAMPLES)
    figure.add_argument("--out", help="CSV output path (default: stdout)")
    figure.add_argument("--format", choices=["csv", "json"], default="csv")
    figure.set_defaults(func=_cmd_experiment)
    budgeted = argparse.ArgumentParser(add_help=False)
    budgeted.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                          help=f"enumeration budget override (default {DEFAULT_BUDGET})")

    parser = argparse.ArgumentParser(prog="om-vote",
                                     description="Voting-rule winners and obvious-manipulation analysis.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("winner", help="evaluate a rule on a profile file")
    p.add_argument("--rule", required=True, help="e.g. borda, kapproval:k=2, scoring:w=6,5,4,0")
    p.add_argument("--profile", required=True, help="profile file (text format)")
    p.add_argument("--tiebreak", help="priority order, e.g. 0,1,2 (default: file entry, else identity)")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=_cmd_winner)

    p = sub.add_parser("ccum", parents=[budgeted], help="coalition manipulation for a target outcome")
    p.add_argument("--rule", required=True)
    p.add_argument("--fixed-profile", required=True, help="ballots already cast")
    p.add_argument("--manipulators", type=int, required=True)
    p.add_argument("--target", type=int, required=True)
    p.add_argument("--tiebreak")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=_cmd_ccum)

    p = sub.add_parser("analyze", parents=[budgeted], help="classify one truthful ranking")
    p.add_argument("--rule", required=True)
    p.add_argument("--n", type=int, required=True, help="total number of voters")
    p.add_argument("--truth", required=True, help="truthful ranking, e.g. 0,1,3,2")
    p.add_argument("--tiebreak")
    p.add_argument("--mode", choices=["auto", "reduction", "bruteforce"], default="auto")
    p.add_argument("--randomized-tiebreak", action="store_true",
                   help="use co-winner semantics instead of a fixed priority order")
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("characterize", parents=[budgeted], help="closed-form verdicts for a rule instance")
    p.add_argument("--rule", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--exhaustive", action="store_true",
                   help="also run the search-based veto-power and almost-unanimity detectors")
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.set_defaults(func=_cmd_characterize)

    p = sub.add_parser("experiment", help="Monte Carlo manipulation-rate tables")
    p.add_argument("--seed", "--budget", action=_BeforeFigure, nargs="?", help=argparse.SUPPRESS)
    fig = p.add_subparsers(dest="figure", required=True)
    f1 = fig.add_parser("fig1", parents=[figure], help="rates vs number of voters")
    f1.add_argument("--m", type=int, required=True)
    f1.add_argument("--k", type=int, required=True)
    f1.add_argument("--n", required=True, help="voter range, e.g. 3:14")
    f2 = fig.add_parser("fig2", parents=[figure], help="rates over an m x disapprovals grid")
    f2.add_argument("--n", type=int, required=True)
    f2.add_argument("--m", required=True, help="outcome range, e.g. 21:30")
    f2.add_argument("--mk", default="1:9", help="disapproval range m-k (default 1:9)")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except TooLargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (VotingError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
