"""Command-line contract: exit codes, formats, golden files, determinism."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from primebound import cli, report

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
    assert "0.39191161" in out


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
    def no_sieve(limit):
        raise AssertionError("a table was allocated before the limit was checked")

    monkeypatch.setattr(cli.primes, "_mangoldt_base", no_sieve)
    code, out, err = run_cli(capsys, ["sieve", "--limit", "90000001"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


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
    assert cli.main(argv) == 2
    capsys.readouterr()  # swallow argparse/stderr noise


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--kind", "increments", "--s", "inf"],
        ["table", "--kind", "increments", "--s", "nan"],
        ["table", "--kind", "increments", "--s", "1.5"],
        ["table", "--kind", "asymptotic-gap", "--s", "inf", "--n", "3"],
        ["table", "--kind", "asymptotic-gap", "--s", "nan", "--n", "3"],
        ["table", "--kind", "asymptotic-gap", "--s", "1e7", "--n", "3"],
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


def test_optimize_matches_golden(capsys):
    code, out, _ = run_cli(capsys, ["optimize", "--format", "json"])
    assert code == 0
    golden = (GOLDEN_DIR / "optimize_default.json").read_text()
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
