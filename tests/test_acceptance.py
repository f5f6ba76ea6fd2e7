"""End-to-end acceptance gate.

Each test exercises one headline guarantee of the package at its stated
tolerance and runtime budget, and prints a single summary line

    ACCEPTANCE NN <name>: PASS|FAIL (<details>)

before asserting, so the verdict is visible even when a criterion fails.
"""

import json
import math
import pathlib
import random
import time
from fractions import Fraction

import witnesses
from primebound import bounds, cli, determinants as det, primes, report

S_TARGET = 0.39191162

GAP_FIXTURES = {
    200: 0.022877919248565526,
    250: 0.023033154925748978,
    500: 0.011425930649376692,
    1000: 0.0056247232057264895,
    2000: 0.0027246714891209223,
}


def _report(num: int, name: str, ok: bool, details: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {status} ({details})")
    assert ok, f"{name}: {details}"


def test_01_constant_reproduction():
    t0 = time.perf_counter()
    res = bounds.optimize_s(0.01, 0.99, 1e-9)
    dt = time.perf_counter() - t0
    ok = (
        abs(res.s_star - 0.39191162) <= 1e-6
        and abs(res.c_star - 0.49517) <= 1e-4
        and dt < 1.0
    )
    _report(
        1,
        "argmax and chained constant",
        ok,
        f"s_star={res.s_star:.10f} c_star={res.c_star:.10f} elapsed={dt:.3f}s",
    )


def test_02_hankel_equals_closed_form():
    t0 = time.perf_counter()
    checked = 0
    worst = None
    for n in range(1, 13):
        for a in range(1, 11):
            for b in range(1, 11):
                spec = det.HankelSpec(alpha=a, beta=b, n=n)
                if det.hankel_det(spec) != det.closed_form_det(spec):
                    worst = (a, b, n)
                checked += 1
    dt = time.perf_counter() - t0
    ok = worst is None and dt < 10.0
    _report(
        2,
        "hankel determinant closed form",
        ok,
        f"grid n<=12 alpha,beta<=10: {checked} exact matches, "
        f"first mismatch={worst}, elapsed={dt:.2f}s",
    )


def test_03_determinant_lemma():
    t0 = time.perf_counter()
    rng = random.Random(0)
    mismatches = 0
    for _ in range(200):
        inst = det.random_krattenthaler(rng)
        lhs, rhs = det.krattenthaler_sides(inst)
        if lhs != rhs:
            mismatches += 1
    analytic_ok = True
    small = random.Random(1)
    for _ in range(25):
        x1 = small.randint(-50, 50)
        one = det.KrattenthalerInstance(x=(x1,), a=(), b=())
        lhs, rhs = det.krattenthaler_sides(one)
        analytic_ok = analytic_ok and lhs == rhs == 1
        x1, x2 = small.sample(range(-50, 51), 2)
        a2 = small.randint(-50, 50)
        b2 = small.randint(-50, 50)
        two = det.KrattenthalerInstance(x=(x1, x2), a=(a2,), b=(b2,))
        lhs, rhs = det.krattenthaler_sides(two)
        analytic_ok = analytic_ok and lhs == rhs == (x1 - x2) * (b2 - a2)
    dt = time.perf_counter() - t0
    ok = mismatches == 0 and analytic_ok and dt < 5.0
    _report(
        3,
        "factorised determinant lemma",
        ok,
        f"200 random instances, mismatches={mismatches}, "
        f"analytic n=1,2 cases {'exact' if analytic_ok else 'BROKEN'}, "
        f"elapsed={dt:.2f}s",
    )


def test_04_scaled_entry_is_positive_integer():
    t0 = time.perf_counter()
    bad = 0
    checked = 0
    for a in range(1, 21):
        for b in range(1, 21):
            for i in range(1, 11):
                for j in range(1, 11):
                    w = det.basic_integrality(a, b, i + j)
                    if w.denominator != 1 or w < 1:
                        bad += 1
                    checked += 1
    dt = time.perf_counter() - t0
    ok = bad == 0 and dt < 5.0
    _report(
        4,
        "lcm-scaled entry integrality",
        ok,
        f"alpha,beta<=20 i,j<=10: {checked} entries, violations={bad}, "
        f"elapsed={dt:.2f}s",
    )


def test_05_improved_product_at_least_one():
    t0 = time.perf_counter()
    below = 0
    equalities = set()
    for a in range(1, 16):
        for b in range(1, 16):
            for n in range(1, 16):
                q = det.improved_product(det.HankelSpec(alpha=a, beta=b, n=n))
                if q < 1:
                    below += 1
                if q == 1:
                    equalities.add((a, b, n))
    fixtures = {(1, 1, 1), (1, 1, 2), (2, 2, 2)}
    dt = time.perf_counter() - t0
    ok = below == 0 and fixtures <= equalities and dt < 30.0
    _report(
        5,
        "sharpened product bound",
        ok,
        f"alpha,beta,n<=15: violations={below}, fixture equalities "
        f"{'present' if fixtures <= equalities else 'MISSING'}, elapsed={dt:.2f}s",
    )


def test_06_generalized_index_sets():
    t0 = time.perf_counter()
    rng = random.Random(0)
    id_bad = 0
    ineq_bad = 0
    for _ in range(100):
        spec = det.random_generalized(rng)
        if det.generalized_lhs(spec) != det.generalized_rhs(spec):
            id_bad += 1
        if det.generalized_inequality(spec) < 1:
            ineq_bad += 1
    collapse_ok = True
    for n in range(1, 7):
        for b in range(1, 6):
            got = det.generalized_lhs(det.GeneralizedSpec(tuple(range(n)), b))
            want = det.closed_form_det(det.HankelSpec(alpha=2, beta=b, n=n))
            collapse_ok = collapse_ok and got == want
    dt = time.perf_counter() - t0
    ok = id_bad == 0 and ineq_bad == 0 and collapse_ok and dt < 10.0
    _report(
        6,
        "generalized index-set identity",
        ok,
        f"100 random specs: identity mismatches={id_bad}, bound "
        f"violations={ineq_bad}, consecutive collapse "
        f"{'exact' if collapse_ok else 'BROKEN'}, elapsed={dt:.2f}s",
    )


def test_07_selberg_cross_checks():
    t0 = time.perf_counter()
    exact_bad = 0
    for n in range(1, 11):
        for a in range(1, 9):
            for b in range(1, 9):
                lhs = math.factorial(n) * det.hankel_det(det.HankelSpec(alpha=a, beta=b, n=n))
                rhs = det.selberg_rhs_exact(det.SelbergSpec(alpha=a, beta=b, gamma=1, n=n))
                if lhs != rhs:
                    exact_bad += 1
    worst_rel = 0.0
    for n in (1, 2):
        for g in (1, 2, 3):
            for a in range(1, 5):
                for b in range(1, 5):
                    spec = det.SelbergSpec(alpha=a, beta=b, gamma=g, n=n)
                    exact = det.selberg_rhs_exact(spec)
                    got = det.quadrature_oracle(spec)
                    rel = abs(got - float(exact)) / max(1.0, abs(float(exact)))
                    worst_rel = max(worst_rel, rel)
    sixth = det.selberg_rhs_exact(det.SelbergSpec(alpha=1, beta=1, gamma=1, n=2))
    fifteenth = det.selberg_rhs_exact(det.SelbergSpec(alpha=1, beta=1, gamma=2, n=2))
    named_ok = sixth == Fraction(1, 6) and fifteenth == Fraction(1, 15)
    dt = time.perf_counter() - t0
    ok = exact_bad == 0 and worst_rel <= 1e-8 and named_ok and dt < 10.0
    _report(
        7,
        "selberg product agreement",
        ok,
        f"unit-exponent grid mismatches={exact_bad}, quadrature worst rel "
        f"err={worst_rel:.2e}, named values 1/6 and 1/15 "
        f"{'exact' if named_ok else 'BROKEN'}, elapsed={dt:.2f}s",
    )


def test_08_increment_inequality_sweep():
    t0 = time.perf_counter()
    table = primes.build_table(1800)
    failures = []
    worst_margin = math.inf
    for n in range(3, 501):
        chk = bounds.increment_check(table, bounds.BoundParams(s=S_TARGET, n=n))
        worst_margin = min(worst_margin, chk.margin)
        if not chk.holds:
            failures.append(n)
    dt = time.perf_counter() - t0
    ok = not failures and dt < 10.0
    _report(
        8,
        "psi_1 increment inequality",
        ok,
        f"n=3..500 at s={S_TARGET}, table limit 1800, failures={failures}, "
        f"worst margin={worst_margin:.6f}, elapsed={dt:.2f}s",
    )


def test_09_asymptotic_gap_decay():
    t0 = time.perf_counter()
    gaps = {
        n: bounds.asymptotic_gap(bounds.BoundParams(s=S_TARGET, n=n))
        for n in (200, 250, 500, 1000, 2000)
    }
    pinned_ok = all(abs(gaps[n] - GAP_FIXTURES[n]) <= 1e-9 for n in GAP_FIXTURES)
    seq = [gaps[n] for n in (250, 500, 1000, 2000)]
    inversions = sum(1 for x, y in zip(seq, seq[1:]) if y > x)
    dt = time.perf_counter() - t0
    ok = (
        gaps[2000] <= 0.05
        and gaps[200] <= 0.15
        and inversions <= 1
        and pinned_ok
        and dt < 10.0
    )
    _report(
        9,
        "stirling coefficient convergence",
        ok,
        f"gap(200)={gaps[200]:.6f} gap(2000)={gaps[2000]:.6f} "
        f"inversions={inversions} fixtures "
        f"{'pinned' if pinned_ok else 'DRIFTED'}, elapsed={dt:.2f}s",
    )


def test_10_prime_toolkit():
    t0 = time.perf_counter()
    table = primes.build_table(1_000_000)
    build_dt = time.perf_counter() - t0

    # Dual-route lcm agreement at every m <= 10^4.  The fold route is run
    # incrementally (one math.lcm step per m, the same operation lcm_upto
    # folds over the full range) against a prime-power product grown here
    # from its own sieve: d_m = d_{m-1} p when m is a power of the prime p.
    # witnesses.lcm_upto_prime_powers is checked against that product at every
    # m <= 100 and at the anchors; lcm_upto itself at every cached index and
    # at the anchors beyond the cache, where a per-m call would cost
    # quadratic time.
    top = 10_000
    anchors = {2500, 4096, 5000, 7500, 9973, top}
    composite = bytearray(top + 1)
    power_of = [1] * (top + 1)  # p at each power of the prime p, else 1
    for p in range(2, top + 1):
        if not composite[p]:
            composite[p * p :: p] = b"\1" * len(range(p * p, top + 1, p))
            q = p
            while q <= top:
                power_of[q] = p
                q *= p
    fold = product = 1
    route_bad = 0
    psi_bad = 0
    anchor_bad = 0
    for m in range(1, top + 1):
        fold = math.lcm(fold, m)
        product *= power_of[m]
        if fold != product:
            route_bad += 1
        psi_m = primes.psi(table, m)
        if abs(math.log(fold) - psi_m) > 1e-8 * max(1.0, psi_m):
            psi_bad += 1
        if (m <= 2048 or m in anchors) and primes.lcm_upto(m) != fold:
            anchor_bad += 1
        if (m <= 100 or m in anchors) and witnesses.lcm_upto_prime_powers(m) != product:
            anchor_bad += 1
    dt = time.perf_counter() - t0
    ok = build_dt < 5.0 and route_bad == 0 and psi_bad == 0 and anchor_bad == 0
    _report(
        10,
        "prime table and lcm routes",
        ok,
        f"build(10^6)={build_dt:.2f}s, m<=10^4 route disagreements={route_bad}, "
        f"log-lcm vs psi violations={psi_bad}, function anchors bad={anchor_bad}, "
        f"elapsed={dt:.2f}s",
    )


def test_11_empirical_ratio(table_million):
    row = bounds.empirical_table(table_million, [1_000_000])[0]
    ok = 0.45 <= row.ratio <= 0.55
    _report(
        11,
        "summatory psi ratio at a million",
        ok,
        f"psi_1(10^6)/10^12={row.ratio:.10f} within [0.45, 0.55]",
    )


def test_12_cli_contract(capsys, monkeypatch):
    golden_dir = pathlib.Path(__file__).parent / "golden"

    def run(argv):
        code = cli.main(argv)
        return code, capsys.readouterr().out

    def norm(text):
        obj = json.loads(text)
        obj["elapsed"] = 0
        return json.dumps(obj, indent=2) + "\n"

    code0, out0 = run(
        ["verify", "--suite", "identities", "--max-n", "4", "--max-ab", "4",
         "--count", "25", "--seed", "0", "--format", "json"]
    )
    golden_verify = norm(out0) == (golden_dir / "verify_identities.json").read_text()

    code_opt, out_opt = run(["optimize", "--format", "json"])
    golden_opt = norm(out_opt) == (golden_dir / "optimize_default.json").read_text()

    round_trip = json.dumps(json.loads(out_opt), indent=2) == out_opt.rstrip("\n")

    code2a, _ = run(["optimize", "--lo", "0.9", "--hi", "0.1"])
    code2b, _ = run(["table"])

    with monkeypatch.context() as mp:
        mp.setattr(
            cli.suites,
            "run_suite",
            lambda *a, **k: [
                report.Check(name="forced", passed=False, cases=1, witness={})
            ],
        )
        code1, _ = run(["verify"])

    argv = ["verify", "--suite", "identities", "--max-n", "3", "--max-ab", "3",
            "--count", "30", "--seed", "7", "--format", "json"]
    _, first = run(argv)
    _, second = run(argv)
    deterministic = norm(first) == norm(second)

    codes_ok = (code0, code_opt, code1, code2a, code2b) == (0, 0, 1, 2, 2)
    ok = codes_ok and golden_verify and golden_opt and round_trip and deterministic
    _report(
        12,
        "cli exit codes and reports",
        ok,
        f"codes={(code0, code_opt, code1, code2a, code2b)} expected (0,0,1,2,2), "
        f"goldens={'match' if golden_verify and golden_opt else 'DIFFER'}, "
        f"round_trip={round_trip}, seed_stable={deterministic}",
    )
