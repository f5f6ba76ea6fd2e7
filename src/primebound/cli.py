"""Command-line front end.

Four subcommands:

* ``verify``    — run a named verification suite over a parameter grid;
* ``optimize``  — reproduce the asymptotic constant c* and its argmax s*;
* ``table``     — emit numeric tables (psi_1 vs bound, increment margins,
                  finite-n convergence gaps) as CSV/JSON/text;
* ``sieve``     — build a prime table and report summary invariants.

A subcommand only computes: it returns ``(parameters, checks)``, or raises
``ValueError`` for bad input.  :func:`main` runs every subcommand the same
way: it owns the clock, turns a ``ValueError`` or ``MemoryError`` into one
``error:`` line on stderr, renders the report and writes it, and picks the
exit code.

Parsing: one table, ``_SUBCOMMANDS``, names each subcommand with its help
text, the function that adds its arguments after the common ones
(``--format``, ``--seed``, ``--out``) and the function that runs it.  The
tree is built from it once, at import, as ``_PARSER``; argparse keeps no
state between ``parse_args`` calls, so :func:`main` reuses it and builds no
parser per call.  ``table`` refuses an ``--s`` outside (0, 1] before any
kind runs; ``bounds.BoundParams`` then checks its window sizes, its
refusals reworded in the flags' terms.

Exit codes: 0 all checks passed, 1 at least one mathematical check
failed, 2 usage or resource error (bad arguments, unwritable output).
Output is deterministic for a fixed command line and seed, except the
elapsed-time field.
"""

from __future__ import annotations

import argparse
import math
import sys
import time

from . import bounds, primes, report, suites
from .exact import _shown

_FORMATS = ("text", "json", "csv")

# Upper bound of each ``verify`` size flag (the lower bound is 1); the cost
# grows fast in --max-n and --max-ab, see the ``verify`` help text.
_VERIFY_CAPS = {"max_n": 32, "max_ab": 32, "max_ij": 64, "count": 10_000}

_ECHO = 60  # characters of one input that an error line repeats
_LINE = 200  # characters of an argparse error message


def _echo(text: str) -> str:
    """``text`` quoted for an error line: past _ECHO characters, its start and length."""
    if len(text) <= _ECHO:
        return repr(text)
    return f"{text[:_ECHO]!r}... ({len(text)} characters)"


class _Parser(argparse.ArgumentParser):
    """argparse, with a usage error cut to _LINE characters: it may repeat any input."""

    def error(self, message: str):
        if len(message) > _LINE:
            message = f"{message[:_LINE]}... ({len(message)} characters)"
        super().error(message)


def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise ValueError(f"{what}: expected comma-separated integers, got {_echo(text)}") from None
    if not values:
        raise ValueError(f"{what}: empty list")
    return values


def _common_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=_FORMATS, default="text", help="output format")
    p.add_argument("--seed", type=int, default=0, help="seed for randomised checks")
    p.add_argument("--out", default=None, help="write output to this path instead of stdout")


def _verify_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--suite", choices=suites.SUITES, default=suites.SUITES[-1])  # all
    caps = _VERIFY_CAPS
    p.add_argument("--max-n", type=int, default=8,
                   help=f"matrix sizes up to this n (1..{caps['max_n']})")
    p.add_argument("--max-ab", type=int, default=6,
                   help=f"alpha, beta up to this value (1..{caps['max_ab']})")
    p.add_argument("--max-ij", type=int, default=6,
                   help=f"entry indices up to this value (1..{caps['max_ij']})")
    p.add_argument("--count", type=int, default=100,
                   help=f"random instances per randomised check (1..{caps['count']})")


def _optimize_args(p: argparse.ArgumentParser) -> None:
    lo, hi, tol = bounds.DEFAULT_SEARCH
    p.add_argument("--lo", type=float, default=lo)
    p.add_argument("--hi", type=float, default=hi)
    p.add_argument("--tol", type=float, default=tol)


def _table_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--kind",
        choices=("psi1", "increments", "asymptotic-gap"),
        required=True,
    )
    p.add_argument("--x", default="10,100,1000,10000", help="psi1: comma-separated x values")
    p.add_argument("--s", type=float, default=0.39191162, help="scale parameter s")
    p.add_argument("--n-min", type=int, default=3, help="increments: first window size")
    p.add_argument("--n-max", type=int, default=50, help="increments: last window size")
    p.add_argument("--n", default="250,500,1000,2000", help="asymptotic-gap: comma-separated n values")
    p.add_argument("--c-star", type=float, default=None, help="psi1: override the bound constant")


def _sieve_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--limit", type=int, default=100000)


def _cmd_verify(args) -> tuple[dict, list[report.Check]]:
    sizes = {name: getattr(args, name) for name in _VERIFY_CAPS}
    for name, cap in _VERIFY_CAPS.items():
        if not 1 <= sizes[name] <= cap:
            raise ValueError(f"--{name.replace('_', '-')} must be in [1, {cap}]")
    checks = suites.run_suite(args.suite, seed=args.seed, **sizes)
    return {"suite": args.suite, **sizes, "seed": args.seed}, checks


def _cmd_optimize(args) -> tuple[dict, list[report.Check]]:
    if not 0.0 < args.lo <= args.hi <= 1.0:
        raise ValueError("need finite 0 < --lo <= --hi <= 1")
    if not (args.tol > 0.0 and math.isfinite(args.tol)):
        raise ValueError("need finite --tol > 0")
    res = bounds.optimize_s(args.lo, args.hi, args.tol)
    coeff = bounds.chain_constant(res.s_star)
    checks = [
        report.Check(
            name="argmax_located",
            passed=res.bracket_width <= args.tol,
            cases=res.evaluations,
            witness={
                "s_star": res.s_star,
                "c_star": res.c_star,
                "bracket_width": res.bracket_width,
                "f_at_star": coeff.f,
                "rho_at_star": coeff.rho,
            },
        )
    ]
    return {"lo": args.lo, "hi": args.hi, "tol": args.tol, "seed": args.seed}, checks


def _bound_params(s: float, n: int, flag: str, too_small: str) -> bounds.BoundParams:
    """``BoundParams(s, n)`` for an s in (0, 1] and the window size n given as ``flag``.

    With s valid, it refuses n for one of two reasons, told apart here by
    ``float(n)``: n past the float range, or ``too_small`` when n < 1 or
    floor(s n) < 1.
    """
    try:
        return bounds.BoundParams(s=s, n=n)
    except ValueError:
        try:
            float(n)
        except OverflowError:
            raise ValueError(f"{flag} is too large for a float") from None
        raise ValueError(too_small) from None


def _table_psi1(args) -> tuple[list[str], list[list], bool]:
    xs = _parse_int_list(args.x, "--x")
    if min(xs) < 1:
        raise ValueError("--x values must be >= 1")
    if max(xs) > primes.MAX_LIMIT:
        raise ValueError(f"--x values must be <= {primes.MAX_LIMIT}, got {_shown(max(xs))}")
    if args.c_star is not None and not math.isfinite(args.c_star):
        raise ValueError(f"--c-star must be finite, got {args.c_star}")
    table = primes.build_table(max(xs))
    if args.c_star is not None and not math.isfinite(args.c_star * table.limit * table.limit):
        raise ValueError(f"--c-star too large: c* x^2 overflows a float at x = {table.limit}")
    rows_out = []
    for row in bounds.empirical_table(table, xs, c_star=args.c_star):
        rows_out.append([row.x, row.psi1, row.bound, row.ratio])
    return ["x", "psi1", "bound", "ratio"], rows_out, True


def _table_increments(args) -> tuple[list[str], list[list], bool]:
    if args.n_min < 1 or args.n_max < args.n_min:
        raise ValueError("need 1 <= --n-min <= --n-max")
    # --n-max >= --n-min, so only --n-min can be too small.
    too_small = "--n-min too small: floor(s*n) must be >= 1"
    _bound_params(args.s, args.n_min, "--n-min", too_small)
    last = _bound_params(args.s, args.n_max, "--n-max", too_small)
    top = 2 * last.a + 2 * args.n_max
    if top > primes.MAX_LIMIT:
        raise ValueError(
            f"--n-max too large: its window reaches 2a+2n = {_shown(top)}, "
            f"past the sieve limit {primes.MAX_LIMIT}"
        )
    table = primes.build_table(top)
    rows_out = []
    ok = True
    for n in range(args.n_min, args.n_max + 1):
        chk = bounds.increment_check(table, bounds.BoundParams(s=args.s, n=n))
        ok = ok and chk.holds
        rows_out.append([n, chk.lhs, chk.rhs, chk.margin])
    return ["n", "lhs", "rhs", "margin"], rows_out, ok


def _table_gap(args) -> tuple[list[str], list[list], bool]:
    ns = _parse_int_list(args.n, "--n")
    windows = [_bound_params(args.s, n, "--n", "every --n must satisfy floor(s*n) >= 1") for n in ns]
    f = bounds.f_coeff(args.s)
    rows_out = []
    for w in windows:
        r = bounds.log_delta(w) / (w.n * w.n)
        rows_out.append([w.n, r, f, abs(r - f)])  # gap, as bounds.asymptotic_gap
    return ["n", "log_delta_over_n2", "f_limit", "gap"], rows_out, True


_TABLES = {"psi1": _table_psi1, "increments": _table_increments, "asymptotic-gap": _table_gap}


def _cmd_table(args) -> tuple[dict, list[report.Check]]:
    if not 0.0 < args.s <= 1.0:  # every kind needs it; the report echoes s: nan is not JSON
        raise ValueError(f"--s must be in (0, 1], got {args.s}")
    header, rows, ok = _TABLES[args.kind](args)
    check = report.Check(
        name=f"table_{args.kind}",
        passed=ok,
        cases=len(rows),
        witness={"header": header, "rows": rows},
    )
    return {"kind": args.kind, "s": args.s, "seed": args.seed}, [check]


def _cmd_sieve(args) -> tuple[dict, list[report.Check]]:
    m = args.limit
    if not 1 <= m <= primes.MAX_LIMIT:
        raise ValueError(f"--limit must be in [1, {primes.MAX_LIMIT}], got {_shown(m)}")
    table = primes.build_table(m)
    # Self-checks: psi matches ln lcm(1..m) at a modest point; the last
    # increments of psi_1 equal the stored psi exactly.
    probe = min(m, 1000)
    psi_probe = primes.psi(table, probe)
    lcm_ok = abs(psi_probe - math.log(primes.lcm_upto(probe))) <= 1e-9 * max(1.0, probe)
    increments = primes._psi1_increments(table, max(1, m - 200), m)
    inc_ok = all(inc == stored for inc, stored in increments)
    checks = [
        report.Check(
            name="psi_equals_ln_lcm",
            passed=lcm_ok,
            cases=1,
            witness={
                "probe": probe,
                "psi": psi_probe,
                "psi_at_limit": primes.psi(table, m),
                "psi1_at_limit": primes.psi1(table, m),
            },
        ),
        report.Check(
            name="psi1_increments_exact",
            passed=inc_ok,
            cases=min(m, 201),
            witness={},
        ),
    ]
    return {"limit": args.limit, "seed": args.seed}, checks


# name: (help, description or None, adds the arguments after the common ones, runs it)
_SUBCOMMANDS = {
    "verify": (
        "run a verification suite",
        "Run a verification suite. Each size flag is capped; with --max-n and "
        "--max-ab both at their caps, --suite all takes about 40 s and 50 MB.",
        _verify_args,
        _cmd_verify,
    ),
    "optimize": ("maximise the asymptotic constant", None, _optimize_args, _cmd_optimize),
    "table": ("emit numeric tables", None, _table_args, _cmd_table),
    "sieve": ("build a prime table and self-check", None, _sieve_args, _cmd_sieve),
}


def _build_parser() -> argparse.ArgumentParser:
    """The full tree: ``primebound`` and every subcommand under it."""
    p = _Parser(
        prog="primebound",
        description="Exact determinant identities, lcm inequalities and psi_1 lower bounds",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, (help_, description, add, _) in _SUBCOMMANDS.items():
        cmd = sub.add_parser(name, help=help_, description=description)
        _common_args(cmd)
        add(cmd)
    return p


_PARSER = _build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors; normalise and re-raise
        # for real process use while keeping main() callable in-process.
        return int(exc.code or 0)
    *_, run = _SUBCOMMANDS[args.command]
    t0 = time.perf_counter()
    try:
        parameters, checks = run(args)
    except (ValueError, MemoryError) as exc:  # bad input, or too large for memory
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rep = report.RunReport(args.command, parameters, checks, (time.perf_counter() - t0) * 1000.0)
    if args.command == "table" and args.format == "csv":
        text = report.rows_to_csv(checks[0].witness["header"], checks[0].witness["rows"])
    else:
        text = report.render(rep, args.format)
    if args.out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {_echo(args.out)}: {exc.strerror or exc}", file=sys.stderr)
            return 2
    return 0 if rep.passed else 1


if __name__ == "__main__":
    sys.exit(main())
