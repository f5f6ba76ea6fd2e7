"""The CLI contract as a property: any mix of bad options exits 0, 1 or 2,
never prints a traceback, and every exit 2 prints one short ``error:`` line.

Each subcommand's options are drawn from values that have broken the
contract before (nan, infinities, zero, negatives, overflowing floats and
integers, empty and non-numeric text, sizes just past each ``verify`` cap,
an unwritable ``--out``) plus one small valid value, so that passing runs
are drawn too (half the draws).  Prime tables above 10**4 entries are refused by a stub, so
no example sieves more than that; limits outside ``build_table``'s own
range still reach its real refusal.
"""

import contextlib
import io
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primebound import cli, primes

_MAX_LINE = 300
_HUGE_INT = str(10**400)
_BAD = ["nan", "inf", "-inf", "0", "-1", "1e400", _HUGE_INT, "", "x"]
_PAST_CAPS = sorted({str(cap + 1) for cap in cli._VERIFY_CAPS.values()})
_UNWRITABLE = ["/nonexistent-dir-xyz/out.txt", "/"]


def _values(valid: str) -> st.SearchStrategy[str]:
    """Half the time ``valid``, else a bad value."""
    return st.one_of(st.just(valid), st.sampled_from(_BAD + _PAST_CAPS))


def _options(required: dict, optional: dict) -> st.SearchStrategy[list[str]]:
    """argv tail: every ``required`` flag, and each ``optional`` flag or not."""

    @st.composite
    def build(draw):
        argv = []
        for flag, values in required.items():
            argv += [flag, draw(values)]
        for flag, values in optional.items():
            if draw(st.booleans()):
                argv += [flag, draw(values)]
        return argv

    return build()


_COMMON = {
    "--seed": _values("3"),
    "--format": st.sampled_from([*cli._FORMATS, "", "x", _HUGE_INT]),
    "--out": st.sampled_from(_UNWRITABLE),
}

# --max-n and --max-ab are always given: at their defaults a run takes
# ~0.3 s, and at the one valid drawn value, 1, a few milliseconds.
_ARGV = st.one_of(
    _options(
        {"--max-n": _values("1"), "--max-ab": _values("1")},
        {
            "--suite": st.sampled_from(["identities", "inequalities", "selberg", "all", "x"]),
            "--max-ij": _values("1"),
            "--count": _values("1"),
            **_COMMON,
        },
    ).map(lambda tail: ["verify", *tail]),
    _options({}, {"--lo": _values("0.3"), "--hi": _values("0.5"), "--tol": _values("1e-6"), **_COMMON})
    .map(lambda tail: ["optimize", *tail]),
    _options(
        {"--kind": st.sampled_from(["psi1", "increments", "asymptotic-gap", "x"])},
        {
            "--x": _values("100"),
            "--s": _values("0.5"),
            "--n-min": _values("4"),
            "--n-max": _values("8"),
            "--n": _values("100"),
            "--c-star": _values("0.5"),
            **_COMMON,
        },
    ).map(lambda tail: ["table", *tail]),
    _options({}, {"--limit": _values("100"), **_COMMON}).map(lambda tail: ["sieve", *tail]),
)

_build_table = primes.build_table


def _small_tables(limit):
    if 10**4 < limit <= primes.MAX_LIMIT:
        raise ValueError("stub: no prime table above 10**4 entries in this test")
    return _build_table(limit)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_ARGV)
def test_bad_options_exit_cleanly_with_one_short_error_line(argv):
    out, err = io.StringIO(), io.StringIO()
    with (
        mock.patch.object(cli.primes, "build_table", _small_tables),
        contextlib.redirect_stdout(out),
        contextlib.redirect_stderr(err),
    ):
        code = cli.main(argv)
    err = err.getvalue()
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err, argv
    if code == 2:
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1, (argv, err)
        assert len(errors[0]) <= _MAX_LINE, argv
    else:
        assert err == "", (argv, err)


# ----------------------------------------------------------------------
# error lines name huge inputs, not repeat them
# ----------------------------------------------------------------------


def _error_line(capsys, argv):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(lines) == 1
    return lines[0]


def test_huge_limit_is_named_by_its_digit_count(capsys):
    # argparse accepts up to 4,300 digits; the refusal comes before any allocation.
    line = _error_line(capsys, ["sieve", "--limit", "1" + "0" * 4000])
    assert line == f"error: build_table requires 1 <= limit <= {primes.MAX_LIMIT}, " \
        "got an integer of 4001 digits"
    line = _error_line(capsys, ["table", "--kind", "psi1", "--x", "5," + "9" * 400])
    assert line.endswith("got an integer of 400 digits")


def test_c_star_whose_bound_overflows_is_refused(capsys):
    # --c-star is finite, but c* x^2 is not: the bound column would print Infinity.
    line = _error_line(capsys, ["table", "--kind", "psi1", "--c-star", "1e308", "--format", "json"])
    assert line == "error: --c-star too large: c* x^2 overflows a float at x = 10000"
    line = _error_line(capsys, ["table", "--kind", "psi1", "--x", "3", "--c-star=-1e308"])
    assert line == "error: --c-star too large: c* x^2 overflows a float at x = 3"
    assert cli.main(["table", "--kind", "psi1", "--x", "3", "--c-star", "1e307"]) == 0


@pytest.mark.parametrize(
    "argv, start",
    [
        (["table", "--kind", "asymptotic-gap", "--n", "7" * 5000], "error: --n: expected"),
        (["table", "--kind", "psi1", "--x", "10," + "x" * 5000], "error: --x: expected"),
        (["optimize", "--out", "/nonexistent-dir-xyz/" + "o" * 5000], "error: cannot write"),
        (["verify", "--max-n", "x" * 5000], "primebound verify: error: argument --max-n"),
        (["verify", "--format", "x" * 5000], "primebound verify: error: argument --format"),
        (["sieve", *["zz"] * 3000], "primebound: error: unrecognized arguments: zz zz"),
    ],
)
def test_long_input_is_cut_in_the_error_line(capsys, argv, start):
    line = _error_line(capsys, argv)
    assert line.startswith(start)
    assert len(line) <= _MAX_LINE
    assert "characters)" in line
