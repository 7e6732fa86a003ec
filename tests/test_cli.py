import ast
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from framedbps import cli, closedforms, links, ovengine
from framedbps.curves import GammaSeries
from framedbps.ovengine import ov_table
from framedbps.qsymbols import BraceRatio

SNAPSHOTS = Path(__file__).parent / "snapshots"

# Bad input that must stop at the argument boundary with exit status 2.
USAGE_ERRORS = [
    ("homfly", "--link", "whitehead", "--colors", "1,1", "--framing", "0"),
    ("ov-table", "--link", "unknot", "--colors", "2,1", "--framing", "0"),
    ("ov-table", "--link", "unknot", "--colors", "x", "--framing", "0"),
    ("ov-table", "--link", "twist", "--colors", "1", "--framing", "0"),
    ("homfly", "--link", "borromean", "--colors", "1,1,1", "--framing", "0,0,0", "--p", "1"),
    ("ov-table", "--link", "unknot", "--colors", "2", "--framing", "0", "--p", "1"),
    ("series", "--knot", "unknot", "--order", "0"),
    ("verify", "recursion", "--n-max", "0"),
    ("verify", "recursion", "--tau-max", "-1"),
    ("verify", "integrality", "--t-range", "5:1"),
    ("verify", "integrality", "--r-max", "0"),
    ("bps", "--knot", "unknot", "--r-max", "-1"),
]


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fmt_half():
    assert cli.fmt_half(4) == "2"
    assert cli.fmt_half(5) == "5/2"
    assert cli.fmt_half(-3) == "-3/2"
    assert cli.fmt_half(0) == "0"


def test_homfly_ascii(capsys):
    code, out, _ = run_cli(capsys, "homfly", "--link", "unknot",
                           "--colors", "1", "--framing", "0")
    assert code == 0
    assert "numerator:" in out and "denominator: {1}" in out
    assert "a^(1/2)" in out


def test_homfly_json_lists_denominator_braces(capsys):
    code, out, _ = run_cli(capsys, "homfly", "--link", "whitehead",
                           "--colors", "2,1", "--framing", "0,0",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["link"] == "whitehead"
    assert doc["colors"] == [2, 1]
    assert all(set(t) == {"q2", "a2", "c"} for t in doc["numerator"])
    assert doc["denominator"] == sorted(doc["denominator"])


@pytest.mark.parametrize("fmt, expected", [
    ("ascii", "link=unknot colors=(1,) framings=(0,)\n0\n"),
    ("json", {"link": "unknot", "colors": [1], "framings": [0],
              "numerator": [], "denominator": []}),
    ("csv", "q2,a2,c\n# denominator braces: 1\n")], ids=["ascii", "json", "csv"])
def test_homfly_of_a_zero_invariant(capsys, monkeypatch, fmt, expected):
    # the zero branch of the output, reached through a patched H
    monkeypatch.setattr(cli, "homfly_link", lambda *args: BraceRatio({}))
    code, out, _ = run_cli(capsys, "homfly", "--link", "unknot", "--colors", "1",
                           "--framing", "0", "--format", fmt)
    assert code == 0
    assert (json.loads(out) if fmt == "json" else out) == expected


def test_ov_table_ascii_layout(capsys):
    code, out, _ = run_cli(capsys, "ov-table", "--link", "whitehead",
                           "--colors", "2,2", "--framing", "0,0")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("link=whitehead")
    assert "epsilon=(0,0)" in lines[0]
    header = lines[1].split()
    assert header[0] == "i\\j"
    # columns descend from 4 to -3, rows from 4 to -2, zeros printed
    assert header[1:] == ["4", "3", "2", "1", "0", "-1", "-2", "-3"]
    first_row = lines[3].split()
    assert first_row == ["4", "0", "1", "0", "0", "0", "0", "0", "0"]


def test_ov_table_ascii_half_integer_labels(capsys):
    code, out, _ = run_cli(capsys, "ov-table", "--link", "borromean",
                           "--colors", "1,1,2", "--framing", "0,0,0")
    assert code == 0
    assert "3/2" in out and "-3/2" in out


def test_ov_table_ascii_without_entries(capsys):
    # p_2 of the 0-framed unknot vanishes, so its table holds no entry
    code, out, _ = run_cli(capsys, "ov-table", "--link", "unknot", "--colors", "2",
                           "--framing", "0")
    assert code == 0
    assert out.splitlines() == ["link=unknot colors=(2,) framings=(0,) epsilon=(0,1)",
                                "(empty table)"]


def test_ov_table_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "ov-table", "--link", "whitehead",
                           "--colors", "2,3", "--framing", "1,0",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["epsilon"] == [1, 1]
    rebuilt = {(e["i2"], e["j2"]): e["N"] for e in doc["entries"]}
    assert rebuilt == ov_table("whitehead", (2, 3), (1, 0)).entries


def test_ov_table_csv_matches_golden_file(capsys):
    code, out, _ = run_cli(capsys, "ov-table", "--link", "whitehead",
                           "--colors", "2,2", "--framing", "0,0",
                           "--format", "csv")
    assert code == 0
    golden = {name: entries for name, _, entries in cli.load_golden()}
    rows = [line for line in out.splitlines()[1:] if line]
    got = {}
    for line in rows:
        i2, j2, n = line.split(",")
        got[(int(i2), int(j2))] = int(n)
    assert got == golden["w22_f00"]


def test_cli_output_is_deterministic(capsys):
    args = ("ov-table", "--link", "borromean", "--colors", "1,2,2",
            "--framing", "1,1,1", "--format", "json")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_parser_is_reused_across_commands(capsys):
    table = ("ov-table", "--link", "whitehead", "--colors", "2,1",
             "--framing", "1,-1", "--format", "json")
    _, first, _ = run_cli(capsys, *table)
    code, _, _ = run_cli(capsys, "bps", "--knot", "twist", "--p", "-2",
                         "--framing", "1", "--r-max", "2")
    assert code == 0
    _, again, _ = run_cli(capsys, *table)
    assert again == first


def test_bps_both_sources_agree(capsys):
    code, out, _ = run_cli(capsys, "bps", "--knot", "unknot", "--framing", "1",
                           "--r-max", "4", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "r,m,b_curve,b_closed,match"
    assert all(line.endswith(",yes") for line in lines[1:])
    assert "2,0,-1,-1,yes" in lines


def test_bps_twist_closed_only(capsys):
    code, out, _ = run_cli(capsys, "bps", "--knot", "twist", "--p", "-1",
                           "--source", "closed", "--r-max", "3",
                           "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "r,sign,b_closed"


def test_bps_r_max_zero_is_empty_success(capsys):
    code, out, _ = run_cli(capsys, "bps", "--knot", "unknot", "--r-max", "0")
    assert code == 0
    assert out.splitlines() == ["r m b_curve b_closed match"]


def test_bps_json_shape(capsys):
    code, out, _ = run_cli(capsys, "bps", "--knot", "twist", "--p", "2",
                           "--framing", "-1", "--r-max", "2",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["p"] == 2 and doc["source"] == "both"
    assert all(row["match"] == "yes" for row in doc["rows"])


def test_series_subcommand(capsys):
    code, out, _ = run_cli(capsys, "series", "--knot", "unknot",
                           "--framing", "1", "--order", "4")
    assert code == 0
    assert "sigma=-1" in out and "Y = 1 - y^2" in out
    code, out, _ = run_cli(capsys, "series", "--knot", "twist", "--p", "-2",
                           "--kind", "extremal_plus", "--order", "3",
                           "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "r,m2,gamma"


def test_verify_tables(capsys):
    code, out, _ = run_cli(capsys, "verify", "tables")
    assert code == 0
    assert "14/14 tables pass" in out
    assert out.count("PASS") == 14


def test_verify_tables_reports_a_parity_violation(monkeypatch, capsys):
    # entries equal to the golden file still fail if the parity check does
    monkeypatch.setattr(cli, "strong_integrality_check", lambda table: False)
    code, out, _ = run_cli(capsys, "verify", "tables")
    assert code == 1
    assert out.count("FAIL (parity violation)") == 14
    assert "0/14 tables pass" in out


def test_verify_integrality_small(capsys):
    code, out, _ = run_cli(capsys, "verify", "integrality", "--r-max", "6",
                           "--t-range", "-3:3")
    assert code == 0
    assert "all pass" in out


def test_verify_integrality_reports_non_integral_values(monkeypatch, capsys):
    monkeypatch.setattr(cli, "integrality_statistic", lambda r, t: (Fraction(r, 2), r == 2))
    code, out, _ = run_cli(capsys, "verify", "integrality", "--r-max", "3",
                           "--t-range", "0:1")
    assert code == 1
    assert "r=1: FAIL at [(0, Fraction(1, 2)), (1, Fraction(1, 2))]" in out
    assert "r=2: t=0..1 all integer" in out
    assert "r=3: FAIL at [(0, Fraction(3, 2)), (1, Fraction(3, 2))]" in out


def test_verify_recursion_small(capsys):
    code, out, _ = run_cli(capsys, "verify", "recursion", "--tau-max", "2",
                           "--n-max", "5")
    assert code == 0
    assert "recursion: all pass" in out


def test_verify_recursion_reports_only_violations(monkeypatch, capsys):
    def violated(tau, n_max):
        raise cli.RecursionViolated(3)
    monkeypatch.setattr(cli, "check_unknot_recursion", violated)
    code, out, _ = run_cli(capsys, "verify", "recursion", "--tau-max", "0")
    assert code == 1
    assert "tau=0: FAIL (3)" in out

    def broken(tau, n_max):
        raise KeyError("bug")
    monkeypatch.setattr(cli, "check_unknot_recursion", broken)
    code, out, err = run_cli(capsys, "verify", "recursion", "--tau-max", "0")
    assert code == 1
    assert "FAIL" not in out
    assert err.startswith("error: KeyError")


def test_verify_symmetry(capsys):
    code, out, _ = run_cli(capsys, "verify", "symmetry")
    assert code == 0
    assert "w22_f01 == w22_f10: PASS" in out


def test_symmetry_checks_read_h_in_the_given_order(monkeypatch, capsys):
    # connected_F reads no H but the unknot's, so the H checks and the
    # oracle of `verify connected` see a homfly_link that is not symmetric in colors
    real = links.homfly_link

    def asymmetric(link, colors, framings):
        h = real(link, colors, framings)
        return h.scale(2) if colors[0] > colors[-1] else h
    for module in (cli, ovengine):
        monkeypatch.setattr(module, "homfly_link", asymmetric)
    code, out, _ = run_cli(capsys, "verify", "symmetry")
    assert code == 1
    assert out.count("permuted and as the unknot: FAIL at") == 6
    line = next(line for line in out.splitlines()
                if line.startswith("H whitehead colors<=(3, 3) framings=(0, 1)"))
    assert line.split(": ")[1].startswith("FAIL at [((0, 1), (1, 0)), ")
    assert "((1, 0), 'unknot')" in line
    code, out, _ = run_cli(capsys, "verify", "connected")
    assert code == 1
    assert "connected whitehead colors<=(3, 3) framings=(0, 0): FAIL at [(1, 0)," in out
    assert "connected unknot colors<=(8,) framings=(0,): PASS" in out


def test_swapped_tables_are_computed_apart(monkeypatch, capsys):
    # the inputs of W (`_log_w_nodes`) at the first component's framing on
    # every component make connected_F depend on the component order; H
    # stays symmetric
    real = ovengine._log_w_nodes
    monkeypatch.setattr(ovengine, "_log_w_nodes",
                        lambda link, taus, v: real(link, taus[:1] * len(taus), v))
    ovengine._log_w.cache_clear()
    try:
        code, out, _ = run_cli(capsys, "verify", "symmetry")
    finally:
        ovengine._log_w.cache_clear()
    assert code == 1
    assert out.count("permuted and as the unknot: PASS") == 6
    swaps = [line for line in out.splitlines() if line.startswith("swap ")]
    assert len(swaps) == 5 and all(line.endswith(": FAIL") for line in swaps)


def test_verify_connected_catches_a_wrong_F(monkeypatch, capsys):
    right = cli.connected_F

    def wrong(link, rvec, framings):
        d, c = right(link, rvec, framings)
        if (link, rvec, framings) == ("whitehead", (2, 1), (1, -1)):
            return d.scale(2), c
        return d, c
    monkeypatch.setattr(cli, "connected_F", wrong)
    code, out, _ = run_cli(capsys, "verify", "connected")
    assert code == 1
    assert "connected whitehead colors<=(3, 3) framings=(1, -1): FAIL at [(2, 1)]" in out
    assert out.count(": PASS") == 26 + 28 + 5 - 1   # Whitehead, Borromean, unknot cases
    assert "connected: 1 failures" in out


def test_zero_color_vector_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main(["ov-table", "--link", "whitehead", "--colors", "0,0",
                  "--framing", "0,0"])
    assert exc.value.code == 2


NO_TWIST = ("argument --link: invalid choice: 'twist' "
            "(choose from 'unknot', 'whitehead', 'borromean')")


def test_twist_has_no_full_invariant(capsys):
    # --link offers only the links with a sum; the twist knot is not one of them
    for command in ("homfly", "ov-table"):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--link", "twist", "--colors", "1", "--framing", "0"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(f"\nframedbps {command}: error: {NO_TWIST}\n")


@pytest.mark.parametrize("argv", USAGE_ERRORS, ids=" ".join)
def test_boundary_errors_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == 2
    assert capsys.readouterr().err.rstrip().split("error: ", 1)[1]


@pytest.mark.parametrize("argv, message", [
    (("homfly", "--link", "whitehead", "--colors", "1,1", "--framing", "0"),
     "whitehead needs 2 framings, got (0,)"),
    (("ov-table", "--link", "unknot", "--colors", "1,", "--framing", "0"),
     "expected comma-separated integers, got '1,'"),
    (("bps", "--knot", "twist"), "twist knot needs --p"),
    (("homfly", "--link", "twist", "--colors", "1", "--framing", "0"), NO_TWIST),
    (("ov-table", "--link", "twist", "--colors", "1", "--framing", "0"), NO_TWIST),
    (("series", "--knot", "unknot", "--order", "0"), "order must be >= 1"),
    (("verify", "recursion", "--n-max", "0"),
     "recursion needs n-max >= 2 and tau-max >= 0"),
    (("ov-table", "--link", "unknot", "--colors", "2", "--framing", "0", "--bogus"),
     "unrecognized arguments: --bogus"),
], ids=["homfly", "ov-table", "bps", "homfly twist", "ov-table twist", "series", "verify",
        "ov-table unrecognized"])
def test_usage_error_names_its_command(argv, message, capsys):
    # the usage line and the error name the subcommand (a verify suite is
    # one), as every usage error of the command table does
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    prog = " ".join(argv[:2] if argv[0] == "verify" else argv[:1])
    assert err.startswith(f"usage: framedbps {prog} [-h] ")
    assert err.endswith(f"\nframedbps {prog}: error: {message}\n")


@pytest.mark.parametrize("argv, message", [
    (("verify", "tables", "--n-max", "0", "--r-max", "0"),
     "unrecognized arguments: --n-max 0 --r-max 0"),
    (("verify", "integrality", "--tau-max", "2"),
     "unrecognized arguments: --tau-max 2"),
    (("verify", "recursion", "--t-range", "-3:3"),
     "unrecognized arguments: --t-range -3:3"),
    (("verify", "connected", "--r-max", "30"),
     "unrecognized arguments: --r-max 30"),
    (("verify", "--r-max", "5", "integrality"),
     "--r-max comes before the suite; a suite's options follow its name, as in "
     "'verify integrality --r-max 5'"),
], ids=["tables", "integrality", "recursion", "connected", "before the suite"])
def test_verify_refuses_options_its_suite_does_not_read(argv, message, capsys):
    # each suite has its own options; an option placed before the suite
    # belongs to none, and the error says where it goes.  Leftover tokens
    # are echoed as typed
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == 2
    prog = "verify" if argv[1].startswith("-") else f"verify {argv[1]}"
    assert capsys.readouterr().err.endswith(f"\nframedbps {prog}: error: {message}\n")


def test_a_value_list_starting_with_a_minus_parses(capsys):
    # "-1,0" starts with a minus and a digit, so it is the value of --framing, not an option
    code, out, err = run_cli(capsys, "ov-table", "--link", "whitehead", "--colors", "2,1",
                             "--framing", "-1,0", "--format", "json")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["framings"] == [-1, 0]
    assert {(e["i2"], e["j2"]): e["N"] for e in doc["entries"]} == ov_table(
        "whitehead", (2, 1), (-1, 0)).entries
    code, out, err = run_cli(capsys, "verify", "integrality", "--r-max", "2",
                             "--t-range", "-3:3")
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == "r=1: t=-3..3 all integer"


# usage errors: the command line, the command that reports it, and the
# message, each as argparse printed it for the same command line
PARSE_ERRORS = [
    ((), "", "the following arguments are required: command"),
    (("foo",), "", "argument command: invalid choice: 'foo' "
                   "(choose from 'homfly', 'ov-table', 'bps', 'series', 'verify')"),
    (("verify",), "verify", "the following arguments are required: suite"),
    (("verify", "foo"), "verify", "argument suite: invalid choice: 'foo' (choose from "
                                  "'tables', 'integrality', 'recursion', 'symmetry', 'connected')"),
    (("ov-table", "--link", "unknot"), "ov-table",
     "the following arguments are required: --colors, --framing"),
    (("ov-table", "--link", "unknot", "--colors"), "ov-table",
     "argument --colors: expected one argument"),
    (("ov-table", "--link", "unknot", "--colors", "--framing", "0"), "ov-table",
     "argument --colors: expected one argument"),
    (("bps", "--knot", "unknot", "--p", "x"), "bps", "argument --p: invalid int value: 'x'"),
    (("verify", "integrality", "--t-range", "1-3"), "verify integrality",
     "argument --t-range: expected LO:HI, got '1-3'"),
    (("bps", "--knot", "unknot", "--f", "1"), "bps",
     "ambiguous option: --f could match --framing, --format"),
    (("bps", "--knot", "twist", "--f=1"), "bps",
     "ambiguous option: --f=1 could match --framing, --format"),
    # every option token is looked up before any value is read
    (("ov-table", "--link", "twist", "--f", "1"), "ov-table",
     "ambiguous option: --f could match --framing, --format"),
    # an option before the command is left over for the command to report
    (("--bogus", "ov-table", "--link", "unknot", "--colors", "1", "--framing", "0"), "ov-table",
     "unrecognized arguments: --bogus"),
]


@pytest.mark.parametrize("argv, prog, message", PARSE_ERRORS,
                         ids=[" ".join(argv) or "no command" for argv, _, _ in PARSE_ERRORS])
def test_parse_errors_keep_argparse_messages(argv, prog, message, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    prog = f"framedbps {prog}".rstrip()
    assert err.startswith(f"usage: {prog} [-h]")
    assert err.endswith(f"\n{prog}: error: {message}\n")


@pytest.mark.parametrize("spelled", [
    ("--link", "whitehead", "--colors", "2,1", "--framing", "0,0", "--format=csv"),
    ("--link", "whitehead", "--col", "2,1", "--fram", "0,0", "--form", "csv"),
    ("--li=whitehead", "--colors=2,1", "--fr=0,0", "--fo=csv"),
], ids=["equals", "prefixes", "prefixes with equals"])
def test_flags_by_equals_and_unique_prefix(spelled, capsys):
    code, out, err = run_cli(capsys, "ov-table", *spelled)
    assert (code, err) == (0, "")
    assert out == run_cli(capsys, "ov-table", "--link", "whitehead", "--colors", "2,1",
                          "--framing", "0,0", "--format", "csv")[1]


def test_a_repeated_flag_keeps_its_last_value(capsys):
    code, out, _ = run_cli(capsys, "verify", "integrality", "--r-max", "1", "--r-max", "2")
    assert code == 0
    assert out == run_cli(capsys, "verify", "integrality", "--r-max", "2")[1]
    assert [line.split(":")[0] for line in out.splitlines()[:-1]] == ["r=1", "r=2"]


@pytest.mark.parametrize("path", cli.COMMANDS, ids=lambda path: path or "top level")
def test_help_lists_every_flag_of_the_command(path, capsys):
    for flag in ("-h", "--help"):
        with pytest.raises(SystemExit) as exc:
            cli.main([*path.split(), flag])
        assert exc.value.code == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert out.startswith(f"usage: {' '.join(['framedbps', *path.split()])} [-h]")
        assert "-h, --help" in out
        lines = out.splitlines()
        for option in cli.COMMANDS[path][2]:   # in the option list, not only the usage line
            assert any(line.startswith(f"  {option.flag} ") for line in lines)
        for sub in (p for p in cli.COMMANDS if p and p.rpartition(" ")[0] == path):
            assert sub.rpartition(" ")[2] in out


def test_importing_the_cli_does_not_import_argparse():
    # argparse's import and first use cost more than parsing one command line
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", "import sys, framedbps.cli; "
                           "print('argparse' in sys.modules)"],
                          capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout) == (0, "False\n")


def test_importing_the_cli_does_not_import_importlib_resources():
    # -S: no site hook has loaded it first; the golden tables are plain files
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-S", "-c", "import sys, framedbps.cli; "
                           "print('importlib.resources' in sys.modules)"],
                          capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout) == (0, "False\n")


@pytest.mark.parametrize("command", ["bps", "series"])
def test_framing_metavar_is_tau(command, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--knot", "twist"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "[--framing TAU]" in err and "FRAMING_INT" not in err


@pytest.mark.parametrize("argv", [
    ("bps", "--knot", "unknot", "--p", "3"),
    ("series", "--knot", "unknot", "--p", "3"),
    ("ov-table", "--link", "whitehead", "--colors", "1,1", "--framing", "0,0", "--p", "5"),
    ("homfly", "--link", "whitehead", "--colors", "1,1", "--framing", "0,0", "--p", "5"),
    ("homfly", "--link", "borromean", "--colors", "1,1,1", "--framing", "0,0,0", "--p", "1"),
    ("ov-table", "--link", "unknot", "--colors", "2", "--framing", "0", "--p", "1"),
], ids=" ".join)
def test_p_is_refused_where_it_means_nothing(argv, capsys):
    # p parametrizes the twist knots only; elsewhere it is not silently
    # dropped, and the link commands have no --p at all
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == 2
    message = ("unknot takes no parameter p" if argv[0] in ("bps", "series")
               else f"unrecognized arguments: --p {argv[-1]}")
    assert capsys.readouterr().err.endswith(f"\nframedbps {argv[0]}: error: {message}\n")


def test_checks_survive_optimized_mode():
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))

    def run_optimized(argv):
        return subprocess.run([sys.executable, "-O", "-m", "framedbps.cli", *argv],
                              capture_output=True, text=True, env=env)

    for argv in USAGE_ERRORS:
        proc = run_optimized(argv)
        assert proc.returncode == 2, argv
        assert proc.stderr.rstrip().split("error: ", 1)[1], argv
    for argv in [("verify", "tables"),
                 ("series", "--knot", "unknot", "--framing", "2", "--order", "8")]:
        assert run_optimized(argv).returncode == 0, argv


def test_library_has_no_assert_statements():
    # python -O strips asserts, so every library check must raise instead
    src = Path(cli.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert not found


def test_int_modules_import_no_fractions():
    # the values of laurent, qsymbols, links and cli are ints: no fractions
    # import and no Fraction name in them
    def uses_fraction(node):
        if isinstance(node, ast.Import):
            return any(alias.name == "fractions" for alias in node.names)
        if isinstance(node, ast.ImportFrom):
            return node.module == "fractions"
        return "Fraction" in (getattr(node, "id", None), getattr(node, "attr", None))

    src = Path(cli.__file__).parent
    found = [f"{name}.py:{node.lineno}" for name in ("laurent", "qsymbols", "links", "cli")
             for node in ast.walk(ast.parse((src / f"{name}.py").read_text()))
             if uses_fraction(node)]
    assert not found


def test_every_public_name_has_a_caller_in_the_library():
    # a public module-level function or class that only tests reach is dead code
    trees = [ast.parse(path.read_text())
             for path in sorted(Path(cli.__file__).parent.glob("*.py"))]

    def references(node):
        return [n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                if isinstance(n, (ast.Name, ast.Attribute))]

    used = [name for tree in trees for name in references(tree)]
    orphans = [node.name for tree in trees for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not node.name.startswith("_")
               and used.count(node.name) == references(node).count(node.name)]
    assert not orphans


@pytest.mark.parametrize("snapshot, argv", [
    ("whitehead_2_3_f1_-1.json",
     ("--link", "whitehead", "--colors", "2,3", "--framing", "1,-1")),
    ("borromean_1_2_2_f0_1_0.json",
     ("--link", "borromean", "--colors", "1,2,2", "--framing", "0,1,0")),
])
def test_homfly_json_matches_snapshot(capsys, snapshot, argv):
    # the unreduced numerator and denominator multiset, which no golden table covers
    code, out, _ = run_cli(capsys, "homfly", *argv, "--format", "json")
    assert code == 0
    assert out == (SNAPSHOTS / snapshot).read_text()


@pytest.mark.parametrize("snapshot, argv", [
    ("ov_whitehead_3_4_f1_-2.csv",
     ("ov-table", "--link", "whitehead", "--colors", "3,4", "--framing", "1,-2")),
    ("ov_borromean_2_2_3_f0_1_-1.csv",
     ("ov-table", "--link", "borromean", "--colors", "2,2,3", "--framing", "0,1,-1")),
    ("ov_unknot_9_f-2.csv",
     ("ov-table", "--link", "unknot", "--colors", "9", "--framing", "-2")),
    ("series_unknot_full_f2_o12.csv",
     ("series", "--knot", "unknot", "--kind", "full", "--framing", "2", "--order", "12")),
    ("bps_twist_p-2_f-2_r12.csv",
     ("bps", "--knot", "twist", "--p", "-2", "--framing", "-2", "--r-max", "12",
      "--source", "both")),
    # the largest tables of the benchmark
    ("ov_whitehead_4_4_f1_-3.csv",
     ("ov-table", "--link", "whitehead", "--colors", "4,4", "--framing", "1,-3")),
    ("ov_borromean_2_3_3_f0_-1_2.csv",
     ("ov-table", "--link", "borromean", "--colors", "2,3,3", "--framing", "0,-1,2")),
    # the sizes where the connected invariants' recurrence replaced the
    # partition sum, captured from the partition sum
    ("ov_whitehead_5_5_f0_0.csv",
     ("ov-table", "--link", "whitehead", "--colors", "5,5", "--framing", "0,0")),
    ("ov_borromean_3_3_3_f1_1_1.csv",
     ("ov-table", "--link", "borromean", "--colors", "3,3,3", "--framing", "1,1,1")),
    ("ov_unknot_12_f1.csv",
     ("ov-table", "--link", "unknot", "--colors", "12", "--framing", "1")),
    # negative framings, where the normal form's exponent E can be negative: a pole at λ = 1
    ("bps_unknot_f-2_r20.csv",
     ("bps", "--knot", "unknot", "--framing", "-2", "--r-max", "20")),
    ("bps_twist_p-3_f1_r30.csv",
     ("bps", "--knot", "twist", "--p", "-3", "--framing", "1", "--r-max", "30")),
    ("series_unknot_full_f-3_o16.csv",
     ("series", "--knot", "unknot", "--kind", "full", "--framing", "-3", "--order", "16")),
    # JSON, which prints the curve itself: every framed display comes from
    # the framing-0 one by the framing change formula
    ("series_unknot_full_f-3_o8.json",
     ("series", "--knot", "unknot", "--kind", "full", "--framing", "-3", "--order", "8")),
    ("series_unknot_extremal_plus_f2_o8.json",
     ("series", "--knot", "unknot", "--kind", "extremal_plus", "--framing", "2",
      "--order", "8")),
    ("series_unknot_extremal_minus_f-1_o8.json",
     ("series", "--knot", "unknot", "--kind", "extremal_minus", "--framing", "-1",
      "--order", "8")),
    ("series_twist_p-2_extremal_minus_f1_o8.json",
     ("series", "--knot", "twist", "--p", "-2", "--kind", "extremal_minus",
      "--framing", "1", "--order", "8")),
    ("series_twist_p3_extremal_plus_f-2_o8.json",
     ("series", "--knot", "twist", "--p", "3", "--kind", "extremal_plus",
      "--framing", "-2", "--order", "8")),
    # every command in every format no snapshot above pins, and the full
    # report of each verify suite, captured before the renderers were merged
    ("homfly_whitehead_2_3_f1_-1.txt",
     ("homfly", "--link", "whitehead", "--colors", "2,3", "--framing", "1,-1")),
    ("homfly_borromean_1_2_2_f0_1_0.csv",
     ("homfly", "--link", "borromean", "--colors", "1,2,2", "--framing", "0,1,0")),
    ("ov_borromean_2_2_3_f0_1_-1.txt",
     ("ov-table", "--link", "borromean", "--colors", "2,2,3", "--framing", "0,1,-1")),
    ("ov_whitehead_3_4_f1_-2.json",
     ("ov-table", "--link", "whitehead", "--colors", "3,4", "--framing", "1,-2")),
    ("bps_unknot_f-2_r20.txt",
     ("bps", "--knot", "unknot", "--framing", "-2", "--r-max", "20")),
    ("bps_unknot_f-2_r20.json",
     ("bps", "--knot", "unknot", "--framing", "-2", "--r-max", "20")),
    ("bps_twist_p-2_f-2_r12.txt",
     ("bps", "--knot", "twist", "--p", "-2", "--framing", "-2", "--r-max", "12",
      "--source", "both")),
    ("bps_twist_p-2_f-2_r12.json",
     ("bps", "--knot", "twist", "--p", "-2", "--framing", "-2", "--r-max", "12",
      "--source", "both")),
    ("bps_unknot_f1_r6_closed.txt",
     ("bps", "--knot", "unknot", "--framing", "1", "--r-max", "6", "--source", "closed")),
    ("bps_twist_p3_f-1_r8_curve.json",
     ("bps", "--knot", "twist", "--p", "3", "--framing", "-1", "--r-max", "8",
      "--source", "curve")),
    ("series_twist_p-2_extremal_minus_f1_o8.txt",
     ("series", "--knot", "twist", "--p", "-2", "--kind", "extremal_minus",
      "--framing", "1", "--order", "8")),
    ("verify_tables.txt", ("verify", "tables")),
    ("verify_integrality_r6_t-3_3.txt",
     ("verify", "integrality", "--r-max", "6", "--t-range", "-3:3")),
    ("verify_recursion_tau2_n5.txt",
     ("verify", "recursion", "--tau-max", "2", "--n-max", "5")),
    ("verify_symmetry.txt", ("verify", "symmetry")),
    ("verify_connected.txt", ("verify", "connected")),
    # an abbreviated flag before a value that starts with a minus
    ("verify_integrality_r6_t-3_3.txt",
     ("verify", "integrality", "--r-max", "6", "--t-r", "-3:3")),
    # unknot tables captured from the brace-ratio recurrence the q-difference equation replaced
    ("ov_unknot_12_f-3.csv",
     ("ov-table", "--link", "unknot", "--colors", "12", "--framing", "-3")),
    ("ov_unknot_16_f1.csv",
     ("ov-table", "--link", "unknot", "--colors", "16", "--framing", "1")),
    # gamma series captured before the Newton lift moved to a-only dicts; the
    # series command also checks Lagrange against Newton, so a change to both
    # solvers shows here
    ("series_unknot_full_f-3_o24.csv",
     ("series", "--knot", "unknot", "--kind", "full", "--framing", "-3", "--order", "24")),
    ("series_unknot_full_f2_o20.csv",
     ("series", "--knot", "unknot", "--kind", "full", "--framing", "2", "--order", "20")),
    ("series_unknot_full_f5_o30.csv",
     ("series", "--knot", "unknot", "--kind", "full", "--framing", "5", "--order", "30")),
    ("series_twist_p-3_extremal_plus_f1_o24.csv",
     ("series", "--knot", "twist", "--p", "-3", "--kind", "extremal_plus", "--framing", "1",
      "--order", "24")),
])
def test_csv_matches_snapshot(capsys, snapshot, argv):
    # the output format is the snapshot's suffix; .txt is the default ascii,
    # which is also the only output of verify
    suffix = Path(snapshot).suffix[1:]
    fmt = () if suffix == "txt" else ("--format", suffix)
    code, out, _ = run_cli(capsys, *argv, *fmt)
    assert code == 0
    assert out.encode() == (SNAPSHOTS / snapshot).read_bytes()


def test_domain_errors_exit_nonzero(capsys):
    # the closed forms and the curves refuse p = 0 with the same error
    for source in ("closed", "both"):
        code, out, err = run_cli(capsys, "bps", "--knot", "twist", "--p", "0",
                                 "--r-max", "2", "--source", source)
        assert code == 1
        assert out == ""
        assert err == "error: UnsupportedKnotKind: twist parameter p=0 out of family\n"


@pytest.mark.parametrize("p", [0, 1])
def test_twist_parameter_is_checked_before_any_r(p, capsys):
    code, out, err = run_cli(capsys, "bps", "--knot", "twist", "--p", str(p),
                             "--r-max", "0")
    assert code == 1
    assert out == ""
    assert err == f"error: UnsupportedKnotKind: twist parameter p={p} out of family\n"


def test_mismatch_detected_surfaces(monkeypatch, capsys):
    monkeypatch.setattr(cli, "_bps_rows", lambda knot, tau, r_max, sources: [(1, 1, 1, -1)])
    code, _, err = run_cli(capsys, "bps", "--knot", "unknot", "--r-max", "1")
    assert code == 1
    assert "MismatchDetected" in err
    assert cli.MismatchDetected is closedforms.MismatchDetected


def refuse(*args):
    raise RuntimeError("a source not asked for was computed")


@pytest.mark.parametrize("knot", [("unknot",), ("twist", "--p", "-3"), ("twist", "--p", "2")],
                         ids=["unknot", "twist p=-3", "twist p=2"])
@pytest.mark.parametrize("source, skipped", [
    ("curve", ("b_unknot", "b_extremal_twist")), ("closed", ("lagrange_log_y",))])
def test_bps_computes_only_the_source_asked_for(monkeypatch, capsys, knot, source, skipped):
    # one row builder serves every source; each skipped function raises if it is called
    for name in skipped:
        monkeypatch.setattr(cli, name, refuse)
    code, out, err = run_cli(capsys, "bps", "--knot", *knot, "--framing", "1",
                             "--r-max", "6", "--source", source, "--format", "csv")
    assert (code, err) == (0, "")
    assert out.splitlines()[0].split(",")[2:] == [f"b_{source}"]
    assert len(out.splitlines()) > 6


@pytest.mark.parametrize("extra", [(2, 1), (3, 5)], ids=["odd r+m", "m past r"])
def test_bps_unknot_compares_every_curve_entry(monkeypatch, capsys, extra):
    # a curve entry off the closed form's support is a mismatch, not a dropped row
    real = cli.bps_from_gamma
    monkeypatch.setattr(cli, "bps_from_gamma", lambda gamma: {**real(gamma), extra: 1})
    code, _, err = run_cli(capsys, "bps", "--knot", "unknot", "--framing", "1",
                           "--r-max", "4", "--source", "both")
    assert code == 1
    assert err == f"error: MismatchDetected: ('unknot', {extra[0]}, {extra[1]}, 1, 0)\n"


def test_series_solver_mismatch_surfaces(monkeypatch, capsys):
    monkeypatch.setattr(cli, "newton_series_solve",
                        lambda curve, order: GammaSeries({}, order))
    code, _, err = run_cli(capsys, "series", "--knot", "unknot", "--order", "3")
    assert code == 1
    assert err.startswith("error: MismatchDetected: ('series', 'unknot'")


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "framedbps.cli"],
                          capture_output=True, text=True)
    assert proc.returncode == 2  # no subcommand is a usage error
    proc = subprocess.run([sys.executable, "-m", "framedbps.cli", "verify",
                           "symmetry"], capture_output=True, text=True)
    assert proc.returncode == 0
