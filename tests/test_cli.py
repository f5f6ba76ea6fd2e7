"""Command-line contract: exit codes, formats, golden files, determinism."""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from primebound import cli, exact, report

GOLDEN_DIR = Path(__file__).parent / "golden"


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def normalized_json(text: str) -> str:
    obj = json.loads(text)
    obj["elapsed"] = 0
    return json.dumps(obj, indent=2) + "\n"


# ----------------------------------------------------------------------
# exit code 0: successful runs
# ----------------------------------------------------------------------


def test_verify_small_suite_passes(capsys):
    code, out, _ = run_cli(
        capsys,
        ["verify", "--suite", "identities", "--max-n", "4", "--max-ab", "4",
         "--count", "20", "--format", "json"],
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["command"] == "verify"
    names = [c["name"] for c in obj["checks"]]
    assert "hankel_det_equals_closed_form" in names
    assert all(c["status"] == "pass" for c in obj["checks"])


def test_verify_inequalities_and_selberg(capsys):
    code, _, _ = run_cli(
        capsys,
        ["verify", "--suite", "inequalities", "--max-n", "5", "--max-ab", "5",
         "--max-ij", "4", "--count", "15"],
    )
    assert code == 0
    code, out, _ = run_cli(
        capsys, ["verify", "--suite", "selberg", "--max-n", "4", "--max-ab", "4",
                 "--format", "json"]
    )
    assert code == 0
    names = [c["name"] for c in json.loads(out)["checks"]]
    assert "selberg_gamma_one_matches_hankel" in names
    assert "quadrature_matches_product" in names


def test_optimize_default_bracket(capsys):
    code, out, _ = run_cli(capsys, ["optimize", "--format", "json"])
    assert code == 0
    obj = json.loads(out)
    w = obj["checks"][0]["witness"]
    assert abs(w["s_star"] - 0.39191162) <= 1e-6
    assert abs(w["c_star"] - 0.49517) <= 1e-4
    # At least 8 printed decimals survive the text renderer too.
    code, out, _ = run_cli(capsys, ["optimize"])
    assert code == 0
    assert "0.39191162" in out


def test_optimize_degenerate_bracket(capsys):
    code, out, _ = run_cli(
        capsys, ["optimize", "--lo", "0.5", "--hi", "0.5", "--format", "json"]
    )
    assert code == 0
    w = json.loads(out)["checks"][0]["witness"]
    assert w["s_star"] == 0.5
    assert abs(w["c_star"] - 0.494376) <= 1e-6


def test_sieve_self_checks(capsys):
    code, out, _ = run_cli(capsys, ["sieve", "--limit", "3000", "--format", "json"])
    assert code == 0
    obj = json.loads(out)
    names = {c["name"]: c for c in obj["checks"]}
    assert names["psi_equals_ln_lcm"]["status"] == "pass"
    assert names["psi1_increments_exact"]["status"] == "pass"
    assert names["psi_equals_ln_lcm"]["witness"]["psi_at_limit"] > 0


def test_sieve_limit_past_exactness_cap_exits_two(capsys, monkeypatch):
    # Refused in the flag's terms, before any table is allocated.
    def no_sieve(limit):
        raise AssertionError("a table was allocated before the limit was checked")

    monkeypatch.setattr(cli.primes, "_mangoldt_base", no_sieve)
    for limit in ("0", "90000001"):
        code, out, err = run_cli(capsys, ["sieve", "--limit", limit])
        assert code == 2
        assert out == ""
        assert err == f"error: --limit must be in [1, 90000000], got {limit}\n"


# ----------------------------------------------------------------------
# table kinds and the CSV contract
# ----------------------------------------------------------------------


def test_table_psi1_csv_fixed_row(capsys):
    code, out, _ = run_cli(
        capsys,
        ["table", "--kind", "psi1", "--x", "1", "--c-star", "0.5", "--format", "csv"],
    )
    assert code == 0
    assert out == "x,psi1,bound,ratio\n1,0,0.5,0\n"


def test_table_psi1_csv_default_points(capsys):
    code, out, _ = run_cli(capsys, ["table", "--kind", "psi1", "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x,psi1,bound,ratio"
    assert len(lines) == 5
    assert out.endswith("\n")
    last = lines[-1].split(",")
    assert last[0] == "10000"
    # ratio approaches 1/2 from below at this scale
    assert 0.4 <= float(last[3]) <= 0.55
    # canonical 12-significant-digit decimal form, '.' separator, no grouping
    assert "," not in last[1] and "." in last[1]
    assert last[1] == report.fmt_real(float(last[1]))


def test_table_increments_csv_margins(capsys):
    code, out, _ = run_cli(
        capsys,
        ["table", "--kind", "increments", "--n-min", "3", "--n-max", "60",
         "--format", "csv"],
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,lhs,rhs,margin"
    assert len(lines) == 60 - 3 + 2
    for line in lines[1:]:
        n, lhs, rhs, margin = line.split(",")
        assert float(margin) >= 0.0
        assert abs(float(lhs) - float(rhs) - float(margin)) <= 1e-6


def test_table_gap_csv_decreasing(capsys):
    code, out, _ = run_cli(
        capsys,
        ["table", "--kind", "asymptotic-gap", "--n", "250,500,1000,2000",
         "--format", "csv"],
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,log_delta_over_n2,f_limit,gap"
    gaps = [float(line.split(",")[3]) for line in lines[1:]]
    inversions = sum(1 for a, b in zip(gaps, gaps[1:]) if b > a)
    assert inversions <= 1


def test_table_json_format(capsys):
    code, out, _ = run_cli(
        capsys,
        ["table", "--kind", "increments", "--n-min", "3", "--n-max", "10",
         "--format", "json"],
    )
    assert code == 0
    obj = json.loads(out)
    chk = obj["checks"][0]
    assert chk["name"] == "table_increments"
    assert chk["status"] == "pass"
    assert chk["witness"]["header"] == ["n", "lhs", "rhs", "margin"]
    assert chk["witness"]["cases"] == 8


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "rows.csv"
    code, out, _ = run_cli(
        capsys,
        ["table", "--kind", "psi1", "--x", "1", "--c-star", "0.5",
         "--format", "csv", "--out", str(target)],
    )
    assert code == 0
    assert out == ""
    assert target.read_text() == "x,psi1,bound,ratio\n1,0,0.5,0\n"


# ----------------------------------------------------------------------
# exit code 2: usage and resource errors
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--suite", "bogus"],
        ["verify", "--max-n", "0"],
        ["optimize", "--lo", "0.9", "--hi", "0.1"],
        ["optimize", "--lo", "0"],
        ["optimize", "--tol", "0"],
        ["table", "--kind", "nope"],
        ["table", "--kind", "psi1", "--x", "0"],
        ["table", "--kind", "psi1", "--x", "5,abc"],
        # --limit was removed from table; argparse refuses it as unknown.
        ["table", "--kind", "psi1", "--x", "100", "--limit", "50"],
        ["table", "--kind", "increments", "--s", "0.001"],
        ["table", "--kind", "increments", "--n-min", "9", "--n-max", "3"],
        ["table", "--kind", "increments", "--limit", "50"],
        ["table", "--kind", "asymptotic-gap", "--s", "-0.4"],
        ["table", "--kind", "asymptotic-gap", "--n", ""],
        ["sieve", "--limit", "0"],
        ["bogus-command"],
        [],
    ],
)
def test_usage_errors_exit_two(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    if argv in _ARGPARSE_REFUSES:
        assert err.startswith("usage: ")
    else:
        assert err.startswith("error: ") and err.count("\n") == 1


# Rows of the table above that argparse refuses with its usage text.
_ARGPARSE_REFUSES = [
    ["verify", "--suite", "bogus"],
    ["table", "--kind", "nope"],
    ["table", "--kind", "psi1", "--x", "100", "--limit", "50"],
    ["table", "--kind", "increments", "--limit", "50"],
    ["bogus-command"],
    [],
]


# ----------------------------------------------------------------------
# argument parsing: one tree per process, reused by every call
# ----------------------------------------------------------------------

_TINY_VERIFY = ["verify", "--suite", "identities", "--max-n", "2", "--max-ab", "2", "--count", "2"]

_PARSE_CASES = [
    ["-h"],
    [],
    ["bogus"],
    *([name, "-h"] for name in cli._SUBCOMMANDS),
    ["sieve", "--limit", "50", "extra"],
    ["optimize", "extra"],
    ["sieve", "--lim", "50"],
    ["table", "--k", "psi1", "--x", "10,20"],
    ["sieve", "--limit", "50", "--format=json"],
    [*_TINY_VERIFY, "--format=csv"],
    ["sieve", "--limit", "40", "--limit", "50"],
    [*_TINY_VERIFY, "--max-n", "1", "--max-n", "3"],
    ["table", "--kind", "increments", "--n-max", "6", "--kind", "psi1", "--x", "7"],
    ["sieve", "--"],
    ["sieve", "--limit", "50", "--"],
    ["sieve", "--", "--limit", "50"],
    ["--", "sieve"],
    ["table", "--kind", "nope"],
    ["optimize", "--tol"],
]


def _masked(text: str) -> str:
    return re.sub(r"elapsed.*", "elapsed", text)


@pytest.mark.parametrize("argv", _PARSE_CASES)
def test_subcommand_parser_matches_full_tree(capsys, monkeypatch, argv):
    # The tree built at import, used twice, answers as a fresh one does:
    # reusing it changes no exit code and no byte of output.
    runs = [run_cli(capsys, argv) for _ in range(2)]
    monkeypatch.setattr(cli, "_PARSER", cli._build_parser())
    runs.append(run_cli(capsys, argv))
    assert len({(code, _masked(out), err) for code, out, err in runs}) == 1, runs


@pytest.mark.parametrize(
    "argv, exit_code",
    [
        (["sieve", "--limit", "100", "--format", "json"], 0),
        ([*_TINY_VERIFY, "--format", "json"], 0),
        ([], 2),  # no command: the usage error of the whole tree
    ],
)
def test_main_builds_no_parser(capsys, monkeypatch, argv, exit_code):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    code, _, _ = run_cli(capsys, argv)
    assert code == exit_code
    assert built == []


def test_import_builds_the_tree_once():
    # A fresh process: the top-level parser and one per subcommand.
    script = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counted(self, *args, **kwargs):\n"
        "    built.append(kwargs.get('prog'))\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counted\n"
        "import primebound.cli\n"
        "print(len(built))\n"
    )
    package_root = str(Path(cli.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=60,
        env=dict(os.environ, PYTHONPATH=pythonpath),
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) == 1 + len(cli._SUBCOMMANDS)


@pytest.mark.parametrize(
    "flag, cap", [("--max-n", 32), ("--max-ab", 32), ("--max-ij", 64), ("--count", 10_000)]
)
def test_verify_sizes_past_cap_exit_two(capsys, monkeypatch, flag, cap):
    # Refused before any suite runs; a size at its cap reaches the stub.
    def no_suite(*args, **kwargs):
        raise AssertionError("stub: suite reached")

    monkeypatch.setattr(cli.suites, "run_suite", no_suite)
    for value in (cap + 1, 10**5):
        code, out, err = run_cli(capsys, ["verify", flag, str(value)])
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {flag} ") and err.count("\n") == 1
    with pytest.raises(AssertionError, match="stub: suite reached"):
        cli.main(["verify", flag, str(cap)])


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--kind", "increments", "--s", "inf"],
        ["table", "--kind", "increments", "--s", "nan"],
        ["table", "--kind", "increments", "--s", "1.5"],
        ["table", "--kind", "asymptotic-gap", "--s", "inf", "--n", "3"],
        ["table", "--kind", "asymptotic-gap", "--s", "nan", "--n", "3"],
        ["table", "--kind", "asymptotic-gap", "--s", "1e7", "--n", "3"],
        ["table", "--kind", "psi1", "--s", "nan"],
        ["table", "--kind", "psi1", "--s", "inf"],
        ["table", "--kind", "psi1", "--s", "1.5"],
    ],
)
def test_s_outside_unit_interval_exits_two(capsys, monkeypatch, argv):
    # The guard must fire before any table is built or grown.
    def no_tables(*args, **kwargs):
        raise AssertionError("table built for an out-of-domain s")

    monkeypatch.setattr(cli.primes, "build_table", no_tables)
    monkeypatch.setattr(cli.bounds, "log_superfactorial", no_tables)
    code, _, err = run_cli(capsys, argv)
    assert code == 2
    assert err.startswith("error: --s must be in (0, 1]")


def test_asymptotic_gap_above_log_table_seam_answers(capsys, monkeypatch):
    # Every G argument is above the seam, so the series answers and no
    # table grows: a grown table fails the test.
    def no_growth(*args):
        raise AssertionError("log table grew for an argument above its seam")

    monkeypatch.setattr(exact, "_exact_prefix_sum", no_growth)
    lsf = len(exact._LSF)
    code, out, err = run_cli(
        capsys, ["table", "--kind", "asymptotic-gap", "--n", "10000000", "--format", "csv"]
    )
    assert code == 0
    assert err == ""
    row = out.splitlines()[1].split(",")
    assert row[0] == "10000000" and 0.0 < float(row[3]) < 1e-6
    assert len(exact._LSF) == lsf <= exact._LOG_SEAM + 1


def test_asymptotic_gap_past_float_range_exits_two(capsys):
    # ln G overflows a float long before s * n does.
    code, out, err = run_cli(capsys, ["table", "--kind", "asymptotic-gap", "--n", str(10**200)])
    assert code == 2
    assert out == ""
    assert err.startswith("error: log_superfactorial(") and err.count("\n") == 1
    assert len(err) < 120 and "201 digits" in err


def test_asymptotic_gap_evaluates_log_delta_once_per_row(capsys, monkeypatch):
    # Both the ratio and the gap column come from one ln Delta_n value per row.
    calls = []
    log_delta = cli.bounds.log_delta
    monkeypatch.setattr(cli.bounds, "log_delta", lambda p: calls.append(p) or log_delta(p))
    code, out, _ = run_cli(
        capsys, ["table", "--kind", "asymptotic-gap", "--n", "1000,2000,100000", "--format", "csv"]
    )
    assert code == 0
    assert len(out.splitlines()) == 4
    assert [p.n for p in calls] == [1000, 2000, 100000]


@pytest.mark.parametrize(
    "s, n_max, refused",
    [
        ("1", "22500001", True),
        # s = 1/2: the top window 3 n_max meets the sieve's MAX_LIMIT at 3e7.
        ("0.5", "30000001", True),
        ("0.5", "30000000", False),
    ],
)
def test_increments_past_sieve_limit_exits_two(capsys, monkeypatch, s, n_max, refused):
    # Refused in --n-max's terms before the sieve; an accepted limit reaches the stub.
    def no_sieve(limit):
        raise ValueError("stub: sieve reached")

    monkeypatch.setattr(cli.primes, "_mangoldt_base", no_sieve)
    code, out, err = run_cli(
        capsys,
        ["table", "--kind", "increments", "--s", s, "--n-min", "2", "--n-max", n_max],
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: --n-max too large" if refused else "error: stub: sieve reached")


def test_increments_window_past_sieve_limit_names_n_max(capsys):
    argv = ["table", "--kind", "increments", "--s", "1", "--n-max", "40000000"]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert err == "error: --n-max too large: its window reaches 2a+2n = 160000000, " \
        f"past the sieve limit {cli.primes.MAX_LIMIT}\n"


@pytest.mark.parametrize(
    "x, shown",
    [("90000001", "90000001"), ("10," + "9" * 40, "an integer of 40 digits")],
)
def test_psi1_x_past_sieve_limit_names_x(capsys, monkeypatch, x, shown):
    # Refused in --x's terms before the sieve: a table build fails the test.
    def no_table(limit):
        raise AssertionError("table built for an --x past the sieve limit")

    monkeypatch.setattr(cli.primes, "build_table", no_table)
    code, out, err = run_cli(capsys, ["table", "--kind", "psi1", "--x", x])
    assert (code, out) == (2, "")
    assert err == f"error: --x values must be <= {cli.primes.MAX_LIMIT}, got {shown}\n"


@pytest.mark.parametrize("c_star", ["nan", "inf", "-inf"])
def test_psi1_non_finite_c_star_exits_two(capsys, monkeypatch, c_star):
    # Refused before the sieve: a table build fails the test.
    def no_table(limit):
        raise AssertionError("table built for a non-finite --c-star")

    monkeypatch.setattr(cli.primes, "build_table", no_table)
    code, out, err = run_cli(
        capsys, ["table", "--kind", "psi1", "--x", "10,100", f"--c-star={c_star}"]
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: --c-star")


_HUGE = str(10**400)  # past the largest float, so s * n overflows


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["table", "--kind", "asymptotic-gap", "--n", _HUGE], "--n"),
        (["table", "--kind", "asymptotic-gap", "--n", f"1000,{_HUGE}"], "--n"),
        (["table", "--kind", "increments", "--n-max", _HUGE], "--n-max"),
        (["table", "--kind", "increments", "--n-min", _HUGE, "--n-max", _HUGE], "--n-min"),
    ],
)
def test_window_size_past_float_range_exits_two(capsys, monkeypatch, argv, flag):
    # Refused before the prime table is built or a log table grows.
    def no_tables(*args):
        raise AssertionError("a table was built or grown for a window size past the float range")

    monkeypatch.setattr(cli.primes, "build_table", no_tables)
    monkeypatch.setattr(exact, "_exact_prefix_sum", no_tables)
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {flag} ")


@pytest.mark.parametrize(
    "argv",
    [
        ["optimize", "--tol", "nan"],
        ["optimize", "--tol", "inf"],
        ["optimize", "--lo", "nan"],
        ["optimize", "--hi", "nan"],
        ["optimize", "--hi", "inf"],
        ["optimize", "--lo", "inf", "--hi", "inf"],
    ],
)
def test_optimize_non_finite_arguments_exit_two(capsys, monkeypatch, argv):
    def no_search(*args, **kwargs):
        raise AssertionError("optimize_s ran on a non-finite argument")

    monkeypatch.setattr(cli.bounds, "optimize_s", no_search)
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: need finite")


@pytest.mark.parametrize("hi", ["1.5", "1e300"])
def test_optimize_hi_above_one_exits_two(capsys, monkeypatch, hi):
    def no_search(*args, **kwargs):
        raise AssertionError("optimize_s ran outside s in (0, 1]")

    monkeypatch.setattr(cli.bounds, "optimize_s", no_search)
    code, out, err = run_cli(capsys, ["optimize", "--hi", hi])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_optimize_hi_one_passes(capsys):
    code, out, _ = run_cli(capsys, ["optimize", "--hi", "1.0", "--format", "json"])
    assert code == 0
    assert json.loads(out)["checks"][0]["status"] == "pass"


def test_unwritable_out_exits_two(capsys):
    code, _, err = run_cli(
        capsys,
        ["optimize", "--format", "json", "--out", "/nonexistent-dir-xyz/o.json"],
    )
    assert code == 2
    assert "error" in err


# ----------------------------------------------------------------------
# exit code 1: a mathematical check failed
# ----------------------------------------------------------------------


def test_failed_check_exits_one(capsys, monkeypatch):
    def forced_failure(*args, **kwargs):
        return [report.Check(name="forced", passed=False, cases=1, witness={})]

    monkeypatch.setattr(cli.suites, "run_suite", forced_failure)
    code, out, _ = run_cli(capsys, ["verify", "--format", "json"])
    assert code == 1
    assert json.loads(out)["checks"][0]["status"] == "fail"


def test_failed_table_exits_one(capsys, monkeypatch):
    class FakeCheck:
        def __init__(self):
            self.holds = False
            self.lhs = 0.0
            self.rhs = 1.0
            self.margin = -1.0

    monkeypatch.setattr(cli.bounds, "increment_check", lambda *a, **k: FakeCheck())
    code, out, _ = run_cli(
        capsys,
        ["table", "--kind", "increments", "--n-min", "3", "--n-max", "4",
         "--format", "csv"],
    )
    assert code == 1


def test_optimize_tol_below_float_spacing_exits_one(capsys):
    code, out, _ = run_cli(capsys, ["optimize", "--tol", "1e-300", "--format", "json"])
    assert code == 1
    check = json.loads(out)["checks"][0]
    assert check["status"] == "fail"
    assert 1e-300 < check["witness"]["bracket_width"] <= 2.0**-53
    assert check["witness"]["cases"] <= 64


# ----------------------------------------------------------------------
# golden files and determinism
# ----------------------------------------------------------------------


def test_verify_matches_golden(capsys):
    code, out, _ = run_cli(
        capsys,
        ["verify", "--suite", "identities", "--max-n", "4", "--max-ab", "4",
         "--count", "25", "--seed", "0", "--format", "json"],
    )
    assert code == 0
    golden = (GOLDEN_DIR / "verify_identities.json").read_text()
    assert normalized_json(out) == golden


def test_verify_all_at_defaults_matches_golden(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--suite", "all", "--format", "json"])
    assert code == 0
    golden = (GOLDEN_DIR / "verify_all.json").read_text()
    assert normalized_json(out) == golden


def test_optimize_matches_golden(capsys):
    code, out, _ = run_cli(capsys, ["optimize", "--format", "json"])
    assert code == 0
    golden = (GOLDEN_DIR / "optimize_default.json").read_text()
    assert normalized_json(out) == golden


def test_only_increments_build_the_dense_psi1_arrays(capsys, monkeypatch):
    # sieve and table --kind psi1 read psi, psi_1 and Lambda at points from
    # the runs; increment_check reads psi1_hi, built on its first window.
    # No command reads mangoldt_base or psi_cum, which are built on every
    # read and stored nowhere, so here a read of either raises.
    built = []
    build = cli.primes.build_table

    def unread(name):
        def read(table):
            raise AssertionError(f"a command read {name}")
        return property(read)

    def capture(limit):
        built.append(build(limit))
        assert "psi1_hi" not in vars(built[-1])
        return built[-1]

    for name in ("mangoldt_base", "psi_cum"):
        monkeypatch.setattr(cli.primes.PrimeTable, name, unread(name))
    monkeypatch.setattr(cli.primes, "build_table", capture)
    for argv in (["sieve", "--limit", "100000"], ["table", "--kind", "psi1"],
                 ["table", "--kind", "increments"]):
        assert run_cli(capsys, argv)[0] == 0
    assert ["psi1_hi" in vars(t) for t in built] == [False, False, True]


def test_table_increments_csv_matches_golden(capsys):
    # The CSV path of ``table`` bypasses ``report.render``; pin it byte for byte.
    code, out, _ = run_cli(
        capsys, ["table", "--kind", "increments", "--n-max", "200", "--format", "csv"]
    )
    assert code == 0
    assert out == (GOLDEN_DIR / "table_increments.csv").read_text()


def test_table_asymptotic_gap_matches_golden(capsys):
    code, out, _ = run_cli(capsys, ["table", "--kind", "asymptotic-gap", "--format", "json"])
    assert code == 0
    golden = (GOLDEN_DIR / "table_asymptotic_gap.json").read_text()
    assert normalized_json(out) == golden


def test_sieve_matches_golden(capsys):
    code, out, _ = run_cli(capsys, ["sieve", "--limit", "100000", "--format", "json"])
    assert code == 0
    golden = (GOLDEN_DIR / "sieve_limit_100000.json").read_text()
    assert normalized_json(out) == golden


def test_json_round_trip(capsys):
    _, out, _ = run_cli(
        capsys, ["verify", "--suite", "selberg", "--max-n", "3", "--max-ab", "3",
                 "--format", "json"]
    )
    stripped = out.rstrip("\n")
    assert json.dumps(json.loads(stripped), indent=2) == stripped


def test_identical_seed_identical_report(capsys):
    argv = ["verify", "--suite", "identities", "--max-n", "3", "--max-ab", "3",
            "--count", "30", "--seed", "7", "--format", "json"]
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)
    assert normalized_json(first) == normalized_json(second)


def test_csv_deterministic_for_seed(capsys):
    argv = ["table", "--kind", "increments", "--n-min", "3", "--n-max", "40",
            "--format", "csv"]
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)
    assert first == second


# ----------------------------------------------------------------------
# installed entry point
# ----------------------------------------------------------------------


def console_script(tmp_path):
    """The ``primebound`` console script and the environment to run it in.

    An installed script on PATH is used as is. Otherwise the launcher that an
    installer writes for the ``[project.scripts]`` entry of ``pyproject.toml``
    is written into ``tmp_path``, so a broken entry point still fails here.
    """
    exe = shutil.which("primebound")
    if exe is not None:
        return exe, None
    tomllib = pytest.importorskip("tomllib")
    with (Path(__file__).parents[1] / "pyproject.toml").open("rb") as fh:
        entry = tomllib.load(fh)["project"]["scripts"]["primebound"]
    module, attr = entry.split(":")
    launcher = tmp_path / "primebound"
    launcher.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {attr}\n"
        f"sys.exit({attr}())\n"
    )
    launcher.chmod(0o755)
    # The directory that holds the imported package: src/ in a checkout.
    package_root = str(Path(cli.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])
    )
    return str(launcher), dict(os.environ, PYTHONPATH=pythonpath)


def test_console_script_runs(tmp_path):
    exe, env = console_script(tmp_path)
    proc = subprocess.run(
        [exe, "optimize", "--tol", "1e-6", "--format", "csv"],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("name,status,cases,witness")
    proc = subprocess.run(
        [exe, "table"], capture_output=True, text=True, timeout=60, env=env
    )
    assert proc.returncode == 2
