"""Command-line interface: outputs, exit codes, reproducibility."""

import hashlib
import json

import pytest

from omvote import classify, enumerate_rankings, format_profile, make_profile, parse_rule
from omvote.cli import main

UNANIMOUS = "3 3\n1,0,2\n1,0,2\n1,0,2\n"
PROOF_PROFILE = "3 4\n0,1,3,2\n2,0,3,1\n2,1,3,0\ntiebreak: 0,1,2,3\n"


@pytest.fixture
def profile_file(tmp_path):
    def write(text, name="p.txt"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return write


class TestWinner:
    def test_unanimous_text(self, profile_file, capsys):
        assert main(["winner", "--rule", "borda", "--profile", profile_file(UNANIMOUS)]) == 0
        out = capsys.readouterr().out
        assert "winner: 1" in out.splitlines()
        assert out.startswith("# command=winner")  # resolved config echo

    def test_proof_profile_json(self, profile_file, capsys):
        path = profile_file(PROOF_PROFILE)
        assert main(["winner", "--rule", "scoring:w=6,5,4,0", "--profile", path,
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["winner"] == 2
        assert payload["scores"] == {"0": 11, "1": 10, "2": 12, "3": 12}
        assert payload["config"]["tiebreak"] == [0, 1, 2, 3]  # from the file

    def test_tiebreak_flag_overrides_file(self, profile_file, capsys):
        path = profile_file(PROOF_PROFILE)
        assert main(["winner", "--rule", "scoring:w=6,5,4,0", "--profile", path,
                     "--tiebreak", "3,2,1,0", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["winner"] == 3

    def test_all_rules_run(self, profile_file, capsys):
        path = profile_file(UNANIMOUS)
        for rule in ("plurality", "dowdall", "stv", "runoff", "copeland"):
            assert main(["winner", "--rule", rule, "--profile", path]) == 0
            assert "winner: 1" in capsys.readouterr().out.splitlines()
        # anti-plurality ties the top two of (1,0,2); identity priority picks 0
        assert main(["winner", "--rule", "antiplurality", "--profile", path]) == 0
        assert "winner: 0" in capsys.readouterr().out.splitlines()

    def test_round_trip_of_library_written_profile(self, tmp_path, capsys):
        profile = make_profile([(2, 0, 1), (2, 1, 0)])
        path = tmp_path / "written.txt"
        path.write_text(format_profile(profile, (0, 1, 2)), encoding="utf-8")
        assert main(["winner", "--rule", "plurality", "--profile", str(path)]) == 0
        assert "winner: 2" in capsys.readouterr().out


class TestCcum:
    def test_greedy_certificate(self, profile_file, capsys):
        path = profile_file("1 3\n0,1,2\n")
        assert main(["ccum", "--rule", "plurality", "--fixed-profile", path,
                     "--manipulators", "1", "--target", "1",
                     "--tiebreak", "1,0,2", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["achievable"] is True
        assert payload["manipulator_ballots"][0][0] == 1

    def test_unachievable(self, profile_file, capsys):
        path = profile_file("2 3\n0,1,2\n0,1,2\n")
        assert main(["ccum", "--rule", "borda", "--fixed-profile", path,
                     "--manipulators", "0", "--target", "2", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["achievable"] is False

    def test_text_keeps_ballot_bounds(self, profile_file, capsys):
        path = profile_file("1 3\n0,1,2\n")
        assert main(["ccum", "--rule", "plurality", "--fixed-profile", path,
                     "--manipulators", "2", "--target", "2", "--format", "text"]) == 0
        assert capsys.readouterr().out.splitlines()[1:] == ["achievable: True", "manipulator_ballots: 2,1,0;2,1,0"]


class TestAnalyze:
    def test_strict_rule_worst_case_manipulation(self, capsys):
        assert main(["analyze", "--rule", "paperfamily", "--n", "3",
                     "--truth", "0,1,3,2", "--tiebreak", "0,1,2,3",
                     "--mode", "bruteforce"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["classification"] == "WOM-only"
        assert payload["wom_witness"] == [0, 3, 1, 2]
        assert payload["truthful_worst"] == 2
        assert payload["bom_witness"] is None

    def test_plurality_nom(self, capsys):
        assert main(["analyze", "--rule", "plurality", "--n", "3",
                     "--truth", "0,1,2", "--mode", "reduction"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["classification"] == "NOM"
        assert payload["truthful_best"] == 0 and payload["truthful_worst"] == 2

    def test_randomized_tiebreak(self, capsys):
        assert main(["analyze", "--rule", "kapproval:k=2", "--n", "3",
                     "--truth", "0,1,2", "--randomized-tiebreak"]) == 0
        assert json.loads(capsys.readouterr().out)["classification"] == "NOM"

    @pytest.mark.parametrize("extra, flag", [
        (["--tiebreak", "2,1,0"], "--tiebreak"),
        (["--mode", "reduction"], "--mode"),
        (["--mode", "bruteforce"], "--mode"),
    ])
    def test_randomized_tiebreak_rejects_unused_flags(self, extra, flag, capsys):
        assert main(["analyze", "--rule", "borda", "--n", "3", "--truth", "0,1,2",
                     "--randomized-tiebreak"] + extra) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert flag in captured.err

    @pytest.mark.parametrize("extra", [[], ["--mode", "auto"]])
    def test_randomized_tiebreak_stdout_unchanged(self, extra, capsys):
        # sha256 of the stdout bytes, recorded when the config echo dropped the seed analyze never reads
        assert main(["analyze", "--rule", "borda", "--n", "3", "--truth", "0,1,2",
                     "--randomized-tiebreak"] + extra) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == "2bffaeaf5c8be473409cf465501a9afde8b783212d035ca4980136dc04fda618"

    def test_best_case_witness_json(self, capsys):
        # m=15, k=14, n=3, identity priority: the truth's top choice 3 is reachable only by misreporting
        truth = (3,) + tuple(o for o in range(15) if o != 3)
        assert main(["analyze", "--rule", "kapproval:k=14", "--n", "3", "--truth", ",".join(map(str, truth))]) == 0
        payload = json.loads(capsys.readouterr().out)
        witness = classify(truth, parse_rule("kapproval:k=14"), 3, tuple(range(15))).bom_witness
        assert payload["classification"] == "BOM-and-WOM"
        assert payload["bom_witness"] == {"misreport": list(witness.misreport),
                                          "others": [list(b) for b in witness.others]}

    def test_best_case_witness_text_keeps_ballot_bounds(self, capsys):
        truth = (3,) + tuple(o for o in range(15) if o != 3)
        assert main(["analyze", "--rule", "kapproval:k=14", "--n", "3", "--truth", ",".join(map(str, truth)),
                     "--format", "text"]) == 0
        witness = classify(truth, parse_rule("kapproval:k=14"), 3, tuple(range(15))).bom_witness
        first, second = (",".join(map(str, b)) for b in witness.others)
        misreport = ",".join(map(str, witness.misreport))
        assert f"bom_witness: {{misreport={misreport} others={first};{second}}}" in capsys.readouterr().out.splitlines()

    def test_bruteforce_beyond_enumerable_m_exits_3(self, capsys):
        # m=30, k=15: refused before any of the C(30, 15) approval sets is built
        assert main(["analyze", "--rule", "kapproval:k=15", "--n", "3", "--mode", "bruteforce",
                     "--truth", ",".join(map(str, range(30)))]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "30!" in captured.err

    def test_config_echoed_without_seed(self, capsys):
        main(["analyze", "--rule", "plurality", "--n", "3", "--truth", "0,1,2"])
        config = json.loads(capsys.readouterr().out)["config"]
        assert "seed" not in config and config["command"] == "analyze"

    def test_zero_budget_echoed(self, capsys):
        assert main(["analyze", "--rule", "plurality", "--n", "3", "--truth", "0,1,2",
                     "--budget", "0"]) == 0
        assert json.loads(capsys.readouterr().out)["config"]["budget"] == 0


class TestCharacterize:
    def test_kapproval_om_verdict(self, capsys):
        assert main(["characterize", "--rule", "kapproval:k=14", "--n", "3", "--m", "15"]) == 0
        payload = json.loads(capsys.readouterr().out)
        verdicts = {v["predicate"]: v for v in payload["verdicts"]}
        assert verdicts["kapproval_om"]["holds"] is True
        assert verdicts["kapproval_om"]["implied_classification"] == "OM"
        assert verdicts["bom_iff"]["holds"] is True

    def test_exhaustive_detectors(self, capsys):
        assert main(["characterize", "--rule", "copeland", "--n", "3", "--m", "3",
                     "--exhaustive"]) == 0
        payload = json.loads(capsys.readouterr().out)
        verdicts = {v["predicate"]: v for v in payload["verdicts"]}
        assert verdicts["has_veto_power"]["holds"] is False
        assert verdicts["is_almost_unanimous"]["holds"] is True

    @pytest.mark.parametrize("n, holds, implied", [(2, False, "no-claim"), (3, True, "NOM")])
    def test_weakly_diminishing_needs_three_voters(self, capsys, n, holds, implied):
        # at n=2, (3, 1, 0) has a worst-case manipulation, so no NOM is licensed there
        assert main(["characterize", "--rule", "scoring:w=3,1,0", "--n", str(n), "--m", "3",
                     "--exhaustive"]) == 0
        verdicts = {v["predicate"]: v for v in json.loads(capsys.readouterr().out)["verdicts"]}
        assert verdicts["weakly_diminishing"]["holds"] is holds
        assert verdicts["weakly_diminishing"]["implied_classification"] == implied

    def test_exhaustive_budget_boundary(self, capsys):
        # n=2, m=3: almost-unanimity weighs m * d * C(d_t, 1) = 3 * 6 * 2 = 36 summed tallies of Copeland's d = 6
        # pairwise tallies, d_t = 2 of them ranking t first; has_veto_power's all-free query d * C(d, 1) = 36
        args = ["characterize", "--rule", "copeland", "--n", "2", "--m", "3", "--exhaustive"]
        assert main(args + ["--budget", "35"]) == 3
        assert main(args + ["--budget", "36"]) == 0

    @pytest.mark.parametrize("argv, predicates", [
        (["--rule", "plurality", "--n", "2", "--m", "3", "--exhaustive"],
         ["scoring_nom_sufficient", "bom_iff", "weakly_diminishing", "has_veto_power", "is_almost_unanimous"]),
        (["--rule", "borda", "--n", "3", "--m", "2"], ["scoring_nom_sufficient", "bom_iff", "weakly_diminishing"]),
    ], ids=["plurality-n2", "borda-m2"])
    def test_zero_one_rule_outside_kapproval_range(self, capsys, argv, predicates):
        # 0/1 vectors, but kapproval_om needs n >= 3 and m >= 3: the other verdicts still print, and search agrees
        assert main(["characterize", *argv]) == 0
        verdicts = json.loads(capsys.readouterr().out)["verdicts"]
        assert [v["predicate"] for v in verdicts] == predicates
        rule, n, m = parse_rule(argv[1]), int(argv[3]), int(argv[5])
        labels = {classify(t, rule, n, tuple(range(m)), mode="bruteforce").classification
                  for t in enumerate_rankings(m)}
        implied = {v["predicate"]: v["implied_classification"] for v in verdicts}
        assert implied["bom_iff"] == "not-BOM" and not labels & {"BOM-only", "BOM-and-WOM"}
        if "NOM" in implied.values():
            assert labels == {"NOM"}

    @pytest.mark.parametrize("rule", ["stv", "copeland", "runoff"])
    @pytest.mark.parametrize("n, m", [("-5", "-5"), ("0", "3"), ("3", "0")])
    def test_bad_n_or_m_rejected(self, rule, n, m, capsys):
        # no verdict of a non-scoring rule reads n or m without --exhaustive, so they are checked up front
        assert main(["characterize", "--rule", rule, "--n", n, "--m", m]) == 2
        assert capsys.readouterr().out == ""

    def test_no_tiebreak_flag(self, capsys):
        # every rule is neutral, so no priority order changes a verdict; there is none to choose
        assert main(["characterize", "--rule", "borda", "--n", "3", "--m", "3", "--exhaustive",
                     "--tiebreak", "2,1,0"]) == 2
        assert capsys.readouterr().out == ""


class TestRecordBytes:
    """The stdout bytes of the library's records as printed; sha256 digests recorded before the CLI printed them
    with dataclasses.asdict."""

    @pytest.mark.parametrize("argv, fmt, digest", [
        (["--rule", "vetofamily:omega=9,eps=1", "--n", "3", "--m", "4"], "json",
         "c11a56eed284a4234201f5d49dd752f3c711a9012c65169acca698978f4853ef"),
        (["--rule", "vetofamily:omega=9,eps=1", "--n", "3", "--m", "4"], "text",
         "3f6a21a4ee6647b12fa92b1d21e9849b527803d193d6a343eea134daa6a9af57"),
        (["--rule", "stv", "--n", "3", "--m", "4"], "json",
         "7ef7c5cdbbc9faf0ef8a531fc1b9e32e7703cae8fa6e36c9e0e066c05e432116"),
        (["--rule", "stv", "--n", "3", "--m", "4"], "text",
         "ba915f6dba465cbe7b18355c3e212c699c894457972b5100c9a2b3b5e8161fed"),
    ], ids=["vetofamily-json", "vetofamily-text", "stv-json", "stv-text"])
    def test_characterize(self, argv, fmt, digest, capsys):
        assert main(["characterize", *argv, "--exhaustive", "--format", fmt]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("rule, ballots, target, tiebreak, fmt, digest", [
        ("plurality", "1 3\n0,1,2\n", "1", "1,0,2", "json",
         "e583ce42874781d717c88518fa9cbe6fdc414cdd1e1c3c5903a5d8542fd95401"),
        ("plurality", "1 3\n0,1,2\n", "1", "1,0,2", "text",
         "ef5173c2998dde77880c55f14c3d44d7c4468f6d292401516d023577cc95291d"),
        ("plurality", "2 3\n0,1,2\n0,1,2\n", "2", "0,1,2", "json",
         "b0908d04f2ab8ca08953f83a667a731d82dfceed95c43668462835ee3c215ea0"),
        ("plurality", "2 3\n0,1,2\n0,1,2\n", "2", "0,1,2", "text",
         "4117808e3ad539da90d73bb99046f8eb039511e00f7d9f2c6485c3a9a517ec06"),
        ("borda", "2 3\n0,1,2\n0,1,2\n", "2", "0,1,2", "json",
         "df4fb3121d8e7745bc85e671a478e8ad2b3d13e2536ad3a5b3727a2b1806cae6"),
        ("borda", "2 3\n0,1,2\n0,1,2\n", "2", "0,1,2", "text",
         "c9cb6c8c16761f3df780ac28db6bfad3b38ae5b70ef53c5e2a0a24dd2efe45d1"),
    ], ids=["greedy-achievable-json", "greedy-achievable-text", "greedy-unachievable-json",
            "greedy-unachievable-text", "bruteforce-null-json", "bruteforce-null-text"])
    def test_ccum(self, rule, ballots, target, tiebreak, fmt, digest, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)  # the echoed profile path is relative, so the bytes do not depend on tmp_path
        (tmp_path / "fixed.txt").write_text(ballots, encoding="utf-8")
        assert main(["ccum", "--rule", rule, "--fixed-profile", "fixed.txt", "--manipulators", "1",
                     "--target", target, "--tiebreak", tiebreak, "--format", fmt]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


class TestExperiment:
    def test_fig1_csv_determinism(self, tmp_path, capsys):
        out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        args = ["experiment", "fig1", "--m", "15", "--k", "14", "--n", "3:4",
                "--samples", "300", "--seed", "42"]
        assert main(args + ["--out", out1]) == 0
        assert main(args + ["--out", out2]) == 0
        b1 = open(out1, "rb").read()
        assert b1 == open(out2, "rb").read()
        assert b1.startswith(b"n,m,k,m_minus_k,samples,seed,p_wom,p_bom,p_om\n")

    def test_seed_before_figure_rejected(self, capsys):
        # --seed belongs to the figure; before it, the figure's default would override it
        assert main(["experiment", "--seed", "5", "fig1", "--m", "15", "--k", "14", "--n", "3",
                     "--samples", "10"]) == 2
        assert capsys.readouterr().out == ""

    def test_seed_before_figure_names_its_place(self, capsys):
        assert main(["experiment", "--seed", "5", "fig1", "--m", "15", "--k", "14", "--n", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--seed goes after the figure name" in captured.err

    def test_budget_before_figure_says_experiment_takes_none(self, capsys):
        assert main(["experiment", "--budget", "5", "fig1", "--m", "15", "--k", "14", "--n", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--budget" in captured.err and "invalid choice" not in captured.err

    def test_fig2_stdout(self, capsys):
        assert main(["experiment", "fig2", "--n", "3", "--m", "21:22", "--mk", "7:8",
                     "--samples", "50", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert len(lines) == 5  # header + 4 cells
        assert all(line.endswith(",0.000000,0.000000,0.000000") for line in lines[1:])

    def test_fig1_json_stdout_pinned(self, capsys):
        # sha256 of the stdout bytes, recorded before the count checks moved into core
        assert main(["experiment", "fig1", "--m", "15", "--k", "14", "--n", "3:5", "--samples", "300",
                     "--seed", "4", "--format", "json"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "e79d96a72e030f24f11c69b8466d8af17da8ac51e1abbb8983155151b042401b")


def runnable(command, path):
    # a valid invocation of each subcommand, with *path* as its profile file
    return {
        "winner": ["winner", "--rule", "borda", "--profile", path],
        "ccum": ["ccum", "--rule", "plurality", "--fixed-profile", path, "--manipulators", "1", "--target", "0"],
        "analyze": ["analyze", "--rule", "plurality", "--n", "3", "--truth", "0,1,2"],
        "characterize": ["characterize", "--rule", "borda", "--n", "3", "--m", "3"],
        "fig1": ["experiment", "fig1", "--m", "15", "--k", "14", "--n", "3", "--samples", "10"],
        "fig2": ["experiment", "fig2", "--n", "3", "--m", "21", "--mk", "7", "--samples", "10"],
    }[command]


class TestOnlyReadFlags:
    """Each subcommand takes only the flags it reads, and echoes only the configuration that ran."""

    @pytest.mark.parametrize("command, flag", [
        ("winner", "--seed"), ("winner", "--budget"), ("ccum", "--seed"), ("ccum", "--solver"), ("analyze", "--seed"),
        ("characterize", "--seed"), ("fig1", "--budget"), ("fig2", "--budget"),
    ])
    def test_unread_flag_rejected(self, command, flag, profile_file, capsys):
        argv = runnable(command, profile_file(UNANIMOUS))
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv + [flag, "1"]) == 2
        assert capsys.readouterr().out == ""

    def test_winner_echo(self, profile_file, capsys):
        path = profile_file(UNANIMOUS)
        assert main(runnable("winner", path)) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert header == f"# command=winner format=text rule=borda profile={path} tiebreak=0,1,2 n=3 m=3"

    def test_ccum_echo(self, profile_file, capsys):
        # the solver is picked from the rule, so the echo names none
        assert main(runnable("ccum", profile_file(UNANIMOUS)) + ["--format", "json"]) == 0
        keys = list(json.loads(capsys.readouterr().out)["config"])
        assert keys == ["command", "budget", "format", "rule", "fixed_profile", "manipulators", "target", "tiebreak"]

    @pytest.mark.parametrize("command", ["ccum", "analyze", "characterize"])
    def test_budgeted_echo(self, command, profile_file, capsys):
        assert main(runnable(command, profile_file(UNANIMOUS)) + ["--format", "json"]) == 0
        keys = list(json.loads(capsys.readouterr().out)["config"])
        assert keys[:3] == ["command", "budget", "format"] and "seed" not in keys


class TestExitCodes:
    def test_unknown_rule_is_invalid_input(self, capsys):
        assert main(["analyze", "--rule", "bucklin", "--n", "3", "--truth", "0,1,2"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("rule", ["kapproval:k=2", "borda"])
    def test_negative_budget_is_invalid_input(self, rule, capsys):
        # once echoed by the counting route and exit 3 by brute force; now exit 2 on every route
        assert main(["analyze", "--rule", rule, "--n", "3", "--truth", "0,1,2,3", "--budget", "-7"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "budget must be an integer >= 0" in captured.err

    @pytest.mark.parametrize("budget, code, named", [
        ([], 3, "refusing to enumerate 9! rankings"),
        (["--budget", "-1"], 2, "budget must be an integer >= 0"),
    ], ids=["too-many-rankings", "negative-budget"])
    def test_cowinner_table_beyond_the_enumeration_cap(self, budget, code, named, capsys):
        # the co-winner table checks the m <= 8 cap before it weighs anything, and a bad budget before both
        assert main(["analyze", "--rule", "borda", "--n", "3", "--truth", ",".join(map(str, range(9))),
                     "--randomized-tiebreak", *budget]) == code
        captured = capsys.readouterr()
        assert captured.out == "" and named in captured.err

    def test_m_beyond_a_byte_is_invalid_input(self, capsys):
        # the grid holds each place in a byte, so m=257 is refused before a truth is drawn
        assert main(["experiment", "fig1", "--m", "257", "--k", "256", "--n", "3", "--samples", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "m must be at most 256" in captured.err

    @pytest.mark.parametrize("argv, named", [
        (["fig2", "--n", "3", "--m", "21:22", "--mk", "0:2"], "m-k at m=21 must be an integer >= 1 and <= 20, got 0"),
        (["fig2", "--n", "3", "--m", "21:22", "--mk", "21"], "m-k at m=21 must be an integer >= 1 and <= 20, got 21"),
        (["fig1", "--m", "15", "--k", "15", "--n", "3"], "k must be an integer >= 1 and <= 14, got 15"),
    ], ids=["fig2-mk-0", "fig2-mk-m", "fig1-k-m"])
    def test_out_of_range_k_names_what_was_typed(self, argv, named, capsys):
        # fig2 takes m-k and fig1 takes k; the error names that value, not the k derived from it
        assert main(["experiment", *argv, "--samples", "10"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"error: {named}" in captured.err

    def test_budget_exceeded(self, capsys):
        rc = main(["analyze", "--rule", "borda", "--n", "3", "--truth", "0,1,2",
                   "--budget", "10"])
        assert rc == 3

    def test_missing_file(self, capsys):
        assert main(["winner", "--rule", "borda", "--profile", "/nonexistent.txt"]) == 2

    def test_bad_flags(self, capsys):
        assert main(["analyze", "--rule", "borda"]) == 2

    @pytest.mark.parametrize("bad", [
        ["--seed", "7", "--bogus"], ["--seed", "x"], ["--samples", "10", "--format", "xml"],
    ], ids=["unknown-flag", "bad-seed", "bad-choice"])
    def test_failed_call_leaves_the_parser_as_it_was(self, bad, capsys):
        # the parser is built once per process, so a call that exits 2 must not change what the next one reads
        valid = ["experiment", "fig1", "--m", "15", "--k", "14", "--n", "3", "--samples", "10"]
        assert main(valid) == 0
        expected = capsys.readouterr().out
        assert main(["experiment", "--seed", "7", *valid[1:]]) == 2  # --seed before the figure
        assert main(valid + bad) == 2
        capsys.readouterr()
        assert main(valid) == 0
        out = capsys.readouterr().out
        assert out == expected
        header, *rows = out.splitlines()
        assert {row.split(",")[header.split(",").index("seed")] for row in rows} == {"0"}

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert main(["experiment", "--help"]) == 0

    @pytest.mark.parametrize("n", ["2", "3"])
    def test_reduction_without_kapproval_is_invalid(self, n, capsys):
        # at n=2 the truthful worst is the top choice, which once answered NOM before the mode was checked
        assert main(["analyze", "--rule", "stv", "--n", n, "--truth", "0,1,2", "--mode", "reduction"]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("rule", ["vetofamily:omega=9,eps=1,bogus=3", "vetofamily:omega=5,eps=1,omega=9"])
    def test_vetofamily_keys_checked(self, rule, capsys):
        assert main(["characterize", "--rule", rule, "--n", "3", "--m", "4"]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv", [
        ["analyze", "--rule", "borda", "--n", "3", "--truth", "0,x,2"],
        ["analyze", "--rule", "borda", "--n", "3", "--truth", "0,1,2", "--tiebreak", "0,,1"],
        ["experiment", "fig1", "--m", "15", "--k", "14", "--n", "5:3", "--samples", "10"],
        ["experiment", "fig1", "--m", "15", "--k", "14", "--n", "three", "--samples", "10"],
        ["experiment", "fig2", "--n", "3", "--m", "21:x", "--samples", "10"],
    ])
    def test_malformed_integer_lists(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "expected" in captured.err
