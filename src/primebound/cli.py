"""Command-line front end.

Four subcommands:

* ``verify``    — run a named verification suite over a parameter grid;
* ``optimize``  — reproduce the asymptotic constant c* and its argmax s*;
* ``table``     — emit numeric tables (psi_1 vs bound, increment margins,
                  finite-n convergence gaps) as CSV/JSON/text;
* ``sieve``     — build a prime table and report summary invariants.

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
from .exact import log_int

_FORMATS = ("text", "json", "csv")


def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"{what}: expected comma-separated integers, got {text!r}")
    if not values:
        raise argparse.ArgumentTypeError(f"{what}: empty list")
    return values


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=_FORMATS, default="text", help="output format")
    common.add_argument("--seed", type=int, default=0, help="seed for randomised checks")
    common.add_argument("--out", default=None, help="write output to this path instead of stdout")

    p = argparse.ArgumentParser(
        prog="primebound",
        description="Exact determinant identities, lcm inequalities and psi_1 lower bounds",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", parents=[common], help="run a verification suite")
    pv.add_argument(
        "--suite",
        choices=("identities", "inequalities", "selberg", "all"),
        default="all",
    )
    pv.add_argument("--max-n", type=int, default=8, help="matrix sizes up to this n")
    pv.add_argument("--max-ab", type=int, default=6, help="alpha, beta up to this value")
    pv.add_argument("--max-ij", type=int, default=6, help="entry indices up to this value")
    pv.add_argument("--count", type=int, default=100, help="random instances per randomised check")

    po = sub.add_parser("optimize", parents=[common], help="maximise the asymptotic constant")
    po.add_argument("--lo", type=float, default=0.01)
    po.add_argument("--hi", type=float, default=0.99)
    po.add_argument("--tol", type=float, default=1e-9)

    pt = sub.add_parser("table", parents=[common], help="emit numeric tables")
    pt.add_argument(
        "--kind",
        choices=("psi1", "increments", "asymptotic-gap"),
        required=True,
    )
    pt.add_argument("--x", default="10,100,1000,10000", help="psi1: comma-separated x values")
    pt.add_argument("--s", type=float, default=0.39191162, help="scale parameter s")
    pt.add_argument("--n-min", type=int, default=3, help="increments: first window size")
    pt.add_argument("--n-max", type=int, default=50, help="increments: last window size")
    pt.add_argument("--n", default="250,500,1000,2000", help="asymptotic-gap: comma-separated n values")
    pt.add_argument("--c-star", type=float, default=None, help="psi1: override the bound constant")
    pt.add_argument("--limit", type=int, default=None, help="sieve limit override")

    ps = sub.add_parser("sieve", parents=[common], help="build a prime table and self-check")
    ps.add_argument("--limit", type=int, default=100000)

    return p


def _emit(text: str, out_path: str | None) -> int:
    if out_path is None:
        sys.stdout.write(text)
        return 0
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {out_path}: {exc}", file=sys.stderr)
        return 2
    return 0


def _finish(rep: report.RunReport, fmt: str, out_path: str | None) -> int:
    rc = _emit(report.render(rep, fmt), out_path)
    if rc:
        return rc
    return 0 if rep.passed else 1


def _cmd_verify(args) -> int:
    for name in ("max_n", "max_ab", "max_ij", "count"):
        if getattr(args, name) < 1:
            print(f"error: --{name.replace('_', '-')} must be >= 1", file=sys.stderr)
            return 2
    t0 = time.perf_counter()
    checks = suites.run_suite(
        args.suite,
        max_n=args.max_n,
        max_ab=args.max_ab,
        max_ij=args.max_ij,
        count=args.count,
        seed=args.seed,
    )
    rep = report.RunReport(
        command="verify",
        parameters={
            "suite": args.suite,
            "max_n": args.max_n,
            "max_ab": args.max_ab,
            "max_ij": args.max_ij,
            "count": args.count,
            "seed": args.seed,
        },
        checks=checks,
        elapsed=(time.perf_counter() - t0) * 1000.0,
    )
    return _finish(rep, args.format, args.out)


def _cmd_optimize(args) -> int:
    if not 0.0 < args.lo <= args.hi <= 1.0:
        print("error: need finite 0 < --lo <= --hi <= 1", file=sys.stderr)
        return 2
    if not (args.tol > 0.0 and math.isfinite(args.tol)):
        print("error: need finite --tol > 0", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
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
    rep = report.RunReport(
        command="optimize",
        parameters={"lo": args.lo, "hi": args.hi, "tol": args.tol, "seed": args.seed},
        checks=checks,
        elapsed=(time.perf_counter() - t0) * 1000.0,
    )
    return _finish(rep, args.format, args.out)


def _table_psi1(args) -> tuple[list[str], list[list], bool]:
    xs = _parse_int_list(args.x, "--x")
    if min(xs) < 1:
        raise argparse.ArgumentTypeError("--x values must be >= 1")
    limit = args.limit if args.limit is not None else max(xs)
    if limit < max(xs):
        raise argparse.ArgumentTypeError("--limit is below the largest --x")
    table = primes.build_table(limit)
    rows_out = []
    ok = True
    for row in bounds.empirical_table(table, xs, c_star=args.c_star):
        rows_out.append([row.x, row.psi1, row.bound, row.ratio])
    return ["x", "psi1", "bound", "ratio"], rows_out, ok


def _table_increments(args) -> tuple[list[str], list[list], bool]:
    if args.n_min < 1 or args.n_max < args.n_min:
        raise argparse.ArgumentTypeError("need 1 <= --n-min <= --n-max")
    if not 0.0 < args.s <= 1.0:
        raise argparse.ArgumentTypeError(f"--s must be in (0, 1], got {args.s}")
    if math.floor(args.s * args.n_min) < 1:
        raise argparse.ArgumentTypeError("--n-min too small: floor(s*n) must be >= 1")
    top = 2 * int(math.floor(args.s * args.n_max)) + 2 * args.n_max
    limit = args.limit if args.limit is not None else top
    if limit < top:
        raise argparse.ArgumentTypeError("--limit is below the largest window top")
    table = primes.build_table(limit)
    rows_out = []
    ok = True
    for n in range(args.n_min, args.n_max + 1):
        chk = bounds.increment_check(table, bounds.BoundParams(s=args.s, n=n))
        ok = ok and chk.holds
        rows_out.append([n, chk.lhs, chk.rhs, chk.margin])
    return ["n", "lhs", "rhs", "margin"], rows_out, ok


def _table_gap(args) -> tuple[list[str], list[list], bool]:
    ns = _parse_int_list(args.n, "--n")
    if not 0.0 < args.s <= 1.0:
        raise argparse.ArgumentTypeError(f"--s must be in (0, 1], got {args.s}")
    if any(math.floor(args.s * n) < 1 for n in ns):
        raise argparse.ArgumentTypeError("every --n must satisfy floor(s*n) >= 1")
    f = bounds.f_coeff(args.s)
    rows_out = []
    for n in ns:
        p = bounds.BoundParams(s=args.s, n=n)
        g = bounds.asymptotic_gap(p)
        rows_out.append([n, bounds.log_delta(p) / (n * n), f, g])
    return ["n", "log_delta_over_n2", "f_limit", "gap"], rows_out, True


def _cmd_table(args) -> int:
    t0 = time.perf_counter()
    try:
        if args.kind == "psi1":
            header, rows, ok = _table_psi1(args)
        elif args.kind == "increments":
            header, rows, ok = _table_increments(args)
        else:
            header, rows, ok = _table_gap(args)
    except (argparse.ArgumentTypeError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed = (time.perf_counter() - t0) * 1000.0
    if args.format == "csv":
        rc = _emit(report.rows_to_csv(header, rows), args.out)
        return rc if rc else (0 if ok else 1)
    rep = report.RunReport(
        command="table",
        parameters={"kind": args.kind, "s": args.s, "seed": args.seed},
        checks=[
            report.Check(
                name=f"table_{args.kind}",
                passed=ok,
                cases=len(rows),
                witness={"header": header, "rows": rows},
            )
        ],
        elapsed=elapsed,
    )
    return _finish(rep, args.format, args.out)


def _cmd_sieve(args) -> int:
    t0 = time.perf_counter()
    try:
        table = primes.build_table(args.limit)
    except (ValueError, MemoryError) as exc:  # bad --limit, or too large for memory
        print(f"error: {exc}", file=sys.stderr)
        return 2
    m = args.limit
    # Self-checks: increments stored exactly; psi matches ln lcm(1..m) at
    # a modest point; psi grows like m.
    probe = min(m, 1000)
    lcm_ok = abs(
        primes.psi(table, probe) - log_int(primes.lcm_upto(probe))
    ) <= 1e-9 * max(1.0, probe)
    inc_ok = all(
        primes.psi1_increment(table, k) == primes.psi(table, k)
        for k in range(max(1, m - 200), m + 1)
    )
    checks = [
        report.Check(
            name="psi_equals_ln_lcm",
            passed=lcm_ok,
            cases=1,
            witness={
                "probe": probe,
                "psi": primes.psi(table, probe),
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
    rep = report.RunReport(
        command="sieve",
        parameters={"limit": args.limit, "seed": args.seed},
        checks=checks,
        elapsed=(time.perf_counter() - t0) * 1000.0,
    )
    return _finish(rep, args.format, args.out)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors; normalise and re-raise
        # for real process use while keeping main() callable in-process.
        return int(exc.code or 0)
    if args.command == "verify":
        return _cmd_verify(args)
    if args.command == "optimize":
        return _cmd_optimize(args)
    if args.command == "table":
        return _cmd_table(args)
    return _cmd_sieve(args)


if __name__ == "__main__":
    sys.exit(main())
