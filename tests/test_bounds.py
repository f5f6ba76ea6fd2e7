"""Asymptotic pipeline: Delta products, Stirling coefficient, optimizer,
increment inequality, and the empirical table.

Exact small-n values anchor the log-space evaluators; the optimizer is
checked against closed forms at s = 1/2, against a brute grid, and against
mpmath (derivatives, the root of c', interval signs at the bracket); the
inequality sweeps run over a sieve table large enough for every window.
"""

import dataclasses
import math
import pickle
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import witnesses
from primebound import bounds, exact, primes
from primebound import determinants as det

S_TARGET = 0.39191162
# The root of c'(s) and c there, by mpmath.findroot at 40 digits (and
# recomputed by test_optimize_brackets_mpmath_root).
S_ROOT = 0.39191162052177632
C_ROOT = 0.49517959108853238

# Pinned by an independent pre-build evaluation of |log_delta/n^2 - f|
# at s = S_TARGET; the 1e-9 slack covers route noise only.
GAP_FIXTURES = {
    200: 0.022877919248565526,
    250: 0.023033154925748978,
    500: 0.011425930649376692,
    1000: 0.0056247232057264895,
    2000: 0.0027246714891209223,
}


def _log_fraction(q: Fraction) -> float:
    return math.log(q.numerator) - math.log(q.denominator)


# ----------------------------------------------------------------------
# parameters and exact Delta
# ----------------------------------------------------------------------


def test_bound_params_floor_and_validation():
    assert bounds.BoundParams(s=0.9, n=2).a == 1
    assert bounds.BoundParams(s=1.0, n=3).a == 3
    assert bounds.BoundParams(s=S_TARGET, n=100).a == 39
    with pytest.raises(ValueError):
        bounds.BoundParams(s=0.0, n=5)
    with pytest.raises(ValueError):
        bounds.BoundParams(s=0.5, n=0)
    with pytest.raises(ValueError):
        bounds.BoundParams(s=0.1, n=3)  # floor(s*n) = 0 is rejected, not clamped
    with pytest.raises(ValueError, match="too large for a float"):
        bounds.BoundParams(s=0.5, n=10**400)  # s * n would overflow a float


@pytest.mark.parametrize("s", [math.inf, math.nan, 1.5, -math.inf])
def test_bound_params_refuses_s_outside_unit_interval(s):
    with pytest.raises(ValueError, match=r"s must be in \(0, 1\]"):
        bounds.BoundParams(s=s, n=5)


def test_bound_params_contract():
    # One hand-written __init__(s, n): frozen, positional (s, n) only, and
    # replace and pickle behave as with the generated one.
    p = bounds.BoundParams(0.5, 10)
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.n = 11
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.a = 1
    with pytest.raises(TypeError):
        bounds.BoundParams(0.5, 4, 2)
    q = dataclasses.replace(p, n=30)
    assert (q.s, q.n, q.a) == (0.5, 30, 15)
    with pytest.raises(ValueError, match="floor"):
        dataclasses.replace(p, n=1)  # replace validates through __init__
    r = pickle.loads(pickle.dumps(p))
    assert r == p and hash(r) == hash(p) and repr(r) == repr(p) and r.a == 5


def test_delta_exact_fixtures():
    assert witnesses.delta_exact(bounds.BoundParams(s=0.9, n=2)) == Fraction(1, 12)
    assert witnesses.delta_exact(bounds.BoundParams(s=1.0, n=2)) == Fraction(1, 720)
    assert witnesses.delta_exact(bounds.BoundParams(s=0.4, n=3)) == Fraction(1, 2160)


def _delta_per_j(a: int, n: int) -> Fraction:
    # Test-only witness: the closed form as a per-j Fraction product of stdlib factorials.
    q = Fraction(1)
    for j in range(n):
        q *= Fraction(
            math.factorial(a + j - 1) ** 2 * math.factorial(j),
            math.factorial(2 * a + n + j - 2),
        )
    return q


def test_delta_exact_matches_closed_form_determinant():
    # The witness's factorial trees against closed_form_det (a factorial
    # ratio), the per-j product, and exact elimination of the Hankel matrix
    # at alpha = beta = a for n <= 8.
    for s in (0.3, S_TARGET, 0.5, 1.0):
        for n in range(1, 26):
            if math.floor(s * n) < 1:
                continue
            p = bounds.BoundParams(s=s, n=n)
            got = witnesses.delta_exact(p)
            assert got == det.closed_form_det(det.HankelSpec(alpha=p.a, beta=p.a, n=n)), (s, n)
            assert got == _delta_per_j(p.a, n), (s, n)
            if n <= 8:
                assert got == det.hankel_det(det.HankelSpec(alpha=p.a, beta=p.a, n=n)), (s, n)


def test_delta_exact_resource_cap():
    with pytest.raises(ValueError):
        witnesses.delta_exact(bounds.BoundParams(s=1.0, n=201))


def test_log_delta_fixtures():
    assert math.isclose(
        bounds.log_delta(bounds.BoundParams(s=0.9, n=2)), -math.log(12), rel_tol=1e-12
    )
    assert math.isclose(
        bounds.log_delta(bounds.BoundParams(s=0.4, n=3)), -math.log(2160), rel_tol=1e-12
    )
    assert math.isclose(
        bounds.log_delta(bounds.BoundParams(s=1.0, n=2)), -math.log(720), rel_tol=1e-12
    )


def test_log_delta_tracks_exact_value_to_n_sixty():
    # Log-space comparison (exp() would underflow long before n = 60).
    for s in (0.3, S_TARGET, 0.5, 1.0):
        for n in range(1, 61):
            if math.floor(s * n) < 1:
                continue
            p = bounds.BoundParams(s=s, n=n)
            oracle = _log_fraction(witnesses.delta_exact(p))
            got = bounds.log_delta(p)
            assert abs(got - oracle) <= 1e-9 * abs(oracle)


def _log_delta_per_term(p: bounds.BoundParams) -> float:
    """ln Delta_n(s) from five log_superfactorial calls, in log_delta's order."""
    G = exact.log_superfactorial
    a, n = p.a, p.n
    return 2.0 * (G(a + n - 1) - G(a - 1)) + G(n) - (G(2 * a + 2 * n - 2) - G(2 * a + n - 2))


def _seam_windows() -> list[bounds.BoundParams]:
    """Windows whose top 2a+2n-2 is 2^16 - 2, 2^16 or 2^16 + 2 (a top is even)."""
    seam = exact._LOG_SEAM
    out = []
    for top in (seam - 2, seam, seam + 2):
        m = top // 2 + 1  # a + n
        for s in (S_TARGET, 0.5, 0.8, 1.0):
            near = int(m / (1 + s))
            out += [
                bounds.BoundParams(s, n)
                for n in range(near - 2, near + 3)
                if math.floor(s * n) + n == m
            ]
    assert {2 * p.a + 2 * p.n - 2 for p in out} == {seam - 2, seam, seam + 2}
    return out


def _log_delta_cases() -> list[bounds.BoundParams]:
    """Every n <= 650 at five s, and the seam windows, in order of top."""
    sweep = [
        bounds.BoundParams(s, n)
        for s in (S_TARGET, 0.15, 0.5, 0.8, 1.0)
        for n in range(1, 651)
        if math.floor(s * n) >= 1
    ]
    return sorted(sweep + _seam_windows(), key=lambda p: p.a + p.n)


def test_log_delta_reads_the_table_bit_for_bit(monkeypatch):
    # Below the seam log_delta indexes exact._LSF; above it, it calls
    # log_superfactorial.  Both equal the per-term form exactly, also when
    # log_delta grows the table itself from empty: the first window's top
    # is the empty table's length.
    cases = _log_delta_cases()
    want = [_log_delta_per_term(p) for p in cases]
    assert [bounds.log_delta(p) for p in cases] == want
    monkeypatch.setattr(exact, "_LSF", [0.0, 0.0])
    assert [bounds.log_delta(p) for p in cases] == want
    assert len(exact._LSF) == exact._LOG_SEAM + 1


def test_log_delta_large_n_runs():
    v = bounds.log_delta(bounds.BoundParams(s=S_TARGET, n=5000))
    assert v < 0 and math.isfinite(v)


S_SWEEP = (0.05, 0.15, S_TARGET, 0.8, 1.0)


def _primes_upto(m: int) -> list[int]:
    sieve = bytearray([0, 0]) + bytearray([1]) * (m - 1)
    for p in range(2, math.isqrt(m) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, m + 1, p)))
    return [p for p in range(m + 1) if sieve[p]]


def _legendre(m: int, p: int) -> int:
    """v_p(m!) = sum_k floor(m / p^k)."""
    v, q = 0, p
    while q <= m:
        v, q = v + m // q, q * p
    return v


def _delta_ledger(p: bounds.BoundParams) -> dict[int, int]:
    """{q: v_q(Delta_n)} over primes q, from Delta_n = prod_{j<n} (a+j-1)!^2 j! / (2a+n+j-2)!.

    Each exponent is a sum of Legendre counts, so no factorial is built.
    """
    a, n = p.a, p.n
    return {
        q: sum(
            2 * _legendre(a + j - 1, q) + _legendre(j, q) - _legendre(2 * a + n + j - 2, q)
            for j in range(n)
        )
        for q in _primes_upto(2 * a + 2 * n - 3)
    }


def _ledger_fraction(ledger: dict[int, int]) -> Fraction:
    return Fraction(
        math.prod(q**v for q, v in ledger.items() if v > 0),
        math.prod(q**-v for q, v in ledger.items() if v < 0),
    )


def test_delta_ledger_equals_exact_value():
    # The ledger's witness: exactly delta_exact wherever that is cheap to build.
    cases = [(s, n) for s in S_SWEEP for n in range(1, 61)] + [(0.05, 200)]
    for s, n in cases:
        if math.floor(s * n) < 1:
            continue
        p = bounds.BoundParams(s=s, n=n)
        assert _ledger_fraction(_delta_ledger(p)) == witnesses.delta_exact(p), (s, n)


def test_log_delta_matches_exact_value_to_n_two_hundred():
    # delta_exact at n <= 60; above, the prime-exponent ledger, which equals
    # it exactly (test_delta_ledger_equals_exact_value), as sum v_q ln q.
    for s in S_SWEEP:
        for n in [*range(1, 61), 100, 200]:
            if math.floor(s * n) < 1:
                continue
            p = bounds.BoundParams(s=s, n=n)
            if n <= 60:
                oracle = _log_fraction(witnesses.delta_exact(p))
            else:
                oracle = math.fsum(v * math.log(q) for q, v in _delta_ledger(p).items())
            assert abs(bounds.log_delta(p) - oracle) <= 1e-13 * abs(oracle), (s, n)


def test_log_delta_matches_lgamma_sum_to_twenty_thousand():
    # Oracle: math.lgamma per factorial, summed exactly by math.fsum.
    for s in S_SWEEP:
        for n in (250, 1000, 5000, 20000):
            p = bounds.BoundParams(s=s, n=n)
            a = p.a
            oracle = math.fsum(
                t
                for j in range(n)
                for t in (2.0 * math.lgamma(a + j), math.lgamma(j + 1),
                          -math.lgamma(2 * a + n + j - 1))
            )
            assert abs(bounds.log_delta(p) - oracle) <= 1e-12 * abs(oracle), (s, n)


def _mp_log_delta(p):
    def G(k):  # ln G(k+1) = sum_{j<k} ln j!
        return mpmath.log(mpmath.barnesg(k + 1))

    a, n = p.a, p.n
    return 2 * (G(a + n - 1) - G(a - 1)) + G(n) - (G(2 * a + 2 * n - 2) - G(2 * a + n - 2))


@pytest.mark.parametrize(
    "s, n",
    [
        (S_TARGET, 30000), (0.05, 10**6), (S_TARGET, 10**6), (1.0, 123457),
        (0.15, 10**12), (S_TARGET, 10**12), (0.8, 10**12),
        (S_TARGET, 10**18), (0.8, 10**30), (S_TARGET, 10**60),
    ],
)
def test_log_delta_matches_mpmath_barnes_g_to_a_million(s, n):
    # Table and series on either side of the seam: at (S_TARGET, 30000) only
    # the top argument is above it, at (0.05, 1e6) only the bottom one below.
    # From n = 1e12 on, the series alone; past 1e60, mpmath's first value
    # takes seconds.
    p = bounds.BoundParams(s=s, n=n)
    with mpmath.workdps(40):
        oracle = _mp_log_delta(p)
        assert abs(bounds.log_delta(p) - oracle) <= 1e-13 * abs(oracle)


@pytest.mark.slow
@pytest.mark.parametrize("s", [1.0, 0.8, S_TARGET, 0.05])
def test_log_delta_matches_mpmath_barnes_g_to_the_largest_n(largest_accepted, s):
    # Up to the largest n whose G terms are floats (about 2.5e152 at s = 1):
    # the docstring's 3e-12 holds to the end of the accepted range.
    def at(n):
        return bounds.log_delta(bounds.BoundParams(s=s, n=n))

    top = largest_accepted(at, 10**150, 10**154)
    with mpmath.workdps(40):
        for n in (10**100, 10**150, top):
            oracle = _mp_log_delta(bounds.BoundParams(s=s, n=n))
            assert abs(at(n) - oracle) <= 3e-12 * abs(oracle), n


# ----------------------------------------------------------------------
# Stirling coefficient and chain constant
# ----------------------------------------------------------------------


def test_f_coeff_closed_form_at_half():
    assert math.isclose(bounds.f_coeff(0.5), -2.25 * math.log(3.0), rel_tol=1e-14)


def test_f_coeff_limit_at_zero():
    assert math.isclose(bounds.f_coeff(1e-8), -2.0 * math.log(2.0), rel_tol=1e-6)


def test_f_coeff_validation():
    with pytest.raises(ValueError):
        bounds.f_coeff(0.0)
    with pytest.raises(ValueError):
        bounds.f_coeff(-0.3)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            bounds.f_coeff(bad)


def test_chain_constant_signs_on_unit_interval():
    s = 0.02
    while s < 1.0:
        coeff = bounds.chain_constant(s)
        assert coeff.f < 0
        assert coeff.f == bounds.f_coeff(s)
        assert 0.0 < coeff.rho < 1.0
        assert coeff.c > 0
        s += 0.02


def test_chain_constant_closed_form_at_half():
    coeff = bounds.chain_constant(0.5)
    assert math.isclose(coeff.c, 0.45 * math.log(3.0), rel_tol=1e-14)
    assert math.isclose(coeff.rho, 2.0 / 3.0, rel_tol=1e-15)


def test_chain_partial_sum_converges():
    # The witness sums the windows from g = -f(s) alone; the limit is chain_constant's c.
    s = 0.1
    while s <= 0.9 + 1e-12:
        c = bounds.chain_constant(s).c
        g = -bounds.f_coeff(s)
        assert abs(witnesses.chain_partial_sum(s, g, 40) - c) <= 1e-9 * c
        # Partial sums increase toward the limit.
        prev = -1.0
        for k in (0, 1, 2, 5, 10):
            cur = witnesses.chain_partial_sum(s, g, k)
            assert cur > prev
            prev = cur
        assert prev < c
        s += 0.05


def test_chain_partial_sum_first_term():
    for s in (0.2, 0.5, 0.8):
        coeff = bounds.chain_constant(s)
        first = -coeff.f / (4.0 * (s + 1.0) ** 2)
        assert math.isclose(witnesses.chain_partial_sum(s, -bounds.f_coeff(s), 0), first, rel_tol=1e-15)


# ----------------------------------------------------------------------
# optimizer
# ----------------------------------------------------------------------


def test_optimize_reproduces_target_constants():
    res = bounds.optimize_s(0.01, 0.99, 1e-9)
    assert abs(res.s_star - S_TARGET) <= 1e-6
    assert abs(res.c_star - 0.49517) <= 1e-4
    assert res.bracket_width <= 1e-9
    assert math.isclose(res.c_star, bounds.chain_constant(res.s_star).c, rel_tol=1e-15)


def test_optimize_degenerate_bracket():
    res = bounds.optimize_s(0.5, 0.5, 1e-9)
    assert res.s_star == 0.5
    assert math.isclose(res.c_star, 0.45 * math.log(3.0), rel_tol=1e-14)


def test_optimize_validation():
    with pytest.raises(ValueError):
        bounds.optimize_s(0.9, 0.1, 1e-9)
    with pytest.raises(ValueError):
        bounds.optimize_s(0.0, 0.5, 1e-9)
    with pytest.raises(ValueError):
        bounds.optimize_s(0.1, 0.9, 0.0)


@pytest.mark.parametrize(
    "lo, hi, tol",
    [
        (0.1, 0.9, math.nan),
        (0.1, 0.9, math.inf),
        (math.nan, 0.9, 1e-9),
        (0.1, math.nan, 1e-9),
        (0.1, math.inf, 1e-9),
        (math.inf, math.inf, 1e-9),
    ],
)
def test_optimize_refuses_non_finite_arguments(lo, hi, tol):
    with pytest.raises(ValueError, match="finite"):
        bounds.optimize_s(lo, hi, tol)


@pytest.mark.parametrize("hi", [1.5, 1e300])
def test_optimize_refuses_hi_above_one(hi):
    with pytest.raises(ValueError, match="<= 1"):
        bounds.optimize_s(0.1, hi, 1e-9)


def test_optimize_accepts_hi_one():
    res = bounds.optimize_s(0.01, 1.0, 1e-9)
    assert abs(res.s_star - S_TARGET) <= 1e-6


def _f_ctx(ctx, s):
    t, u = 2 * s + 1, s + 1
    return t * t / 2 * ctx.log(t) - s * s * ctx.log(s) - u * u * ctx.log(u) - 2 * u * u * ctx.log(2)


def _f_prime_ctx(ctx, s):
    t, u = 2 * s + 1, s + 1
    return 2 * (t * ctx.log(t) - s * ctx.log(s) - u * ctx.log(u) - 2 * u * ctx.log(2))


def _h_ctx(ctx, s):
    """4 f - (4s+3) f', which has the sign of c'(s)."""
    return 4 * _f_ctx(ctx, s) - (4 * s + 3) * _f_prime_ctx(ctx, s)


@pytest.mark.parametrize("s", ["0.01", "0.39", "1"])
def test_f_derivative_closed_forms_match_mpmath_diff(s):
    mp = mpmath.mp
    with mpmath.workdps(40):
        s = mpmath.mpf(s)
        d1 = mpmath.diff(lambda x: _f_ctx(mp, x), s)
        d2 = mpmath.diff(lambda x: _f_ctx(mp, x), s, 2)
        assert abs(_f_prime_ctx(mp, s) - d1) <= mpmath.mpf("1e-35") * abs(d1)
        assert abs(2 * mpmath.log(1 + 1 / (4 * s * (s + 1))) - d2) <= mpmath.mpf("1e-35") * d2
        assert math.isclose(bounds.f_prime(float(s)), float(d1), rel_tol=1e-14)


def test_optimize_brackets_mpmath_root():
    with mpmath.workdps(40):
        root = mpmath.findroot(lambda x: _h_ctx(mpmath.mp, x), S_TARGET)
        c_root = -_f_ctx(mpmath.mp, root) / (4 * root + 3)
    assert abs(float(root) - S_ROOT) <= 1e-16
    assert abs(float(c_root) - C_ROOT) <= 1e-16
    res = bounds.optimize_s(0.01, 0.99, 1e-9)
    assert 0.0 < res.bracket_width <= 1e-9
    assert res.s_star - res.bracket_width < root < res.s_star + res.bracket_width
    assert math.isclose(res.c_star, C_ROOT, rel_tol=1e-15)


def test_optimize_bracket_signs_certified_by_intervals():
    res = bounds.optimize_s(0.01, 0.99, 1e-9)
    iv, prec = mpmath.iv, mpmath.iv.prec
    iv.prec = 120
    try:
        left = _h_ctx(iv, iv.mpf(res.s_star - res.bracket_width))
        right = _h_ctx(iv, iv.mpf(res.s_star + res.bracket_width))
    finally:
        iv.prec = prec
    assert left.a > 0 and right.b < 0


def test_optimize_maximum_at_an_end():
    at_lo = bounds.optimize_s(0.5, 0.9, 1e-9)
    at_hi = bounds.optimize_s(0.01, 0.2, 1e-9)
    assert (at_lo.s_star, at_lo.bracket_width) == (0.5, 0.0)
    assert (at_hi.s_star, at_hi.bracket_width) == (0.2, 0.0)


def test_optimize_stops_at_adjacent_floats(monkeypatch):
    # No float bracket is narrower than the spacing of floats near s*, so
    # a tol below it must end the search there instead of looping forever.
    calls = 0
    f_prime = bounds.f_prime

    def counted(s):
        nonlocal calls
        calls += 1
        assert calls <= 200, "bisection kept evaluating after its ends met"
        return f_prime(s)

    monkeypatch.setattr(bounds, "f_prime", counted)
    res = bounds.optimize_s(0.01, 0.99, 5e-324)
    assert res.evaluations == calls
    assert 5e-324 < res.bracket_width <= 2.0**-53
    # At this width the sign of h in floats is rounding noise (|h'| ~ 3.5,
    # |h| rounded to ~2e-15), so only closeness to the root is claimed.
    assert abs(res.s_star - S_ROOT) <= 1e-15


def test_coarse_grid_maximum_location():
    cs = {s / 10: bounds.chain_constant(s / 10).c for s in range(1, 10)}
    best = max(cs, key=cs.get)
    assert 0.35 <= best <= 0.45


def test_optimum_dominates_fine_grid():
    s_star = bounds.optimize_s(0.01, 0.99, 1e-9).s_star
    c_star = bounds.chain_constant(s_star).c
    k = 10
    while k <= 990:
        s = k / 1000.0
        if abs(s - s_star) > 1e-3:
            assert c_star > bounds.chain_constant(s).c
        k += 1


def test_argmax_invariant_under_rescaling():
    grid = [k / 1000.0 for k in range(10, 991)]
    base = [bounds.chain_constant(s).c for s in grid]
    scaled = [7.25 * c for c in base]
    assert base.index(max(base)) == scaled.index(max(scaled))


# ----------------------------------------------------------------------
# increment inequality
# ----------------------------------------------------------------------


def test_increment_fixtures(table_small):
    chk = bounds.increment_check(table_small, bounds.BoundParams(s=0.9, n=2))
    assert (chk.lower, chk.upper) == (4, 6)
    assert math.isclose(chk.lhs, math.log(3600), rel_tol=1e-9)
    assert math.isclose(chk.rhs, math.log(12), rel_tol=1e-9)
    assert chk.holds and chk.margin > 0

    chk = bounds.increment_check(table_small, bounds.BoundParams(s=0.4, n=3))
    assert (chk.lower, chk.upper) == (5, 8)
    assert math.isclose(chk.lhs, math.log(21_168_000), rel_tol=1e-9)
    assert math.isclose(chk.rhs, math.log(2160), rel_tol=1e-9)
    assert chk.holds

    chk = bounds.increment_check(table_small, bounds.BoundParams(s=S_TARGET, n=100))
    assert chk.holds


def test_increment_sweep_both_offsets(table_small):
    for n in range(3, 501):
        p = bounds.BoundParams(s=S_TARGET, n=n)
        assert bounds.increment_check(table_small, p).holds
        tighter = bounds.increment_check(table_small, p, offset=-3)
        assert tighter.holds
        assert tighter.margin > 0


def test_increment_inequality_to_n_hundred_thousand(table_million):
    # O(1) log_delta makes the full sweep cheap; the top window is 2a+2n = 278382.
    failures = [
        n
        for n in range(3, 100_001)
        if not bounds.increment_check(table_million, bounds.BoundParams(s=S_TARGET, n=n)).holds
    ]
    assert failures == []


def test_increment_window_validation(table_small):
    with pytest.raises(ValueError):
        bounds.increment_check(table_small, bounds.BoundParams(s=0.9, n=600))
    with pytest.raises(ValueError):
        bounds.increment_check(
            table_small, bounds.BoundParams(s=0.9, n=2), offset=-10
        )


@pytest.mark.parametrize(
    "offset, message",
    [
        (10**400, "window top an integer of 401 digits exceeds table limit 2000"),
        (-(10**400), "window bottom a negative integer of 400 digits is negative"),
    ],
)
def test_increment_window_names_a_huge_end_by_its_digits(table_small, offset, message):
    with pytest.raises(ValueError) as err:
        bounds.increment_check(table_small, bounds.BoundParams(s=0.9, n=2), offset=offset)
    assert str(err.value) == message


@pytest.mark.parametrize("offset", [0.5, -0.5, math.nan, math.inf, "1"])
def test_increment_offset_must_be_an_integer(table_small, offset):
    with pytest.raises(ValueError, match="offset must be an integer"):
        bounds.increment_check(table_small, bounds.BoundParams(s=0.9, n=2), offset=offset)
    with pytest.raises(ValueError, match="offset must be an integer"):
        bounds.increment_check(None, bounds.BoundParams(s=0.9, n=2), offset=offset)  # before any read


def test_increment_check_matches_psi1_and_log_delta_route():
    table = primes.build_table(2 * 520 + 2 * 650)  # the top window, s = 0.8 at n = 650
    cases = 0
    for s in (S_TARGET, 0.15, 0.3, 0.55, 0.8):
        for n in range(3, 651):
            a = math.floor(s * n)
            if a < 1:
                continue
            p = bounds.BoundParams(s, n)
            for offset in (-3, 0):
                lower, upper = 2 * a + n + offset, 2 * a + 2 * n + offset
                lhs = primes.psi1(table, upper) - primes.psi1(table, lower)
                rhs = -bounds.log_delta(p)
                want = (p, offset, lower, upper, lhs, rhs, lhs - rhs, lhs - rhs >= -1e-6)
                chk = bounds.increment_check(table, p, offset)
                assert chk == want, (s, n, offset)
                assert chk.holds == (chk.margin >= -1e-6)
                cases += 1
    assert cases == 2 * (5 * 648 - 5)  # floor(s n) = 0 at s = 0.15, n = 3..6 and s = 0.3, n = 3
    assert type(chk) is bounds.IncrementCheck and chk._asdict()["margin"] == chk.margin
    with pytest.raises(AttributeError):
        chk.lhs = 0.0


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    st.integers(1, 10**6).flatmap(
        lambda n: st.tuples(st.floats(1.0 / n, 1.0), st.just(n))
    )
)
def test_bound_params_stores_floor_and_keeps_value_semantics(sn):
    s, n = sn
    assume(math.floor(s * n) >= 1)
    p, q = bounds.BoundParams(s, n), bounds.BoundParams(s=s, n=n)
    assert p.a == math.floor(s * n) and type(p.a) is int
    assert p == q and hash(p) == hash(q)
    assert repr(p) == f"BoundParams(s={s!r}, n={n!r})"


# ----------------------------------------------------------------------
# asymptotic gap
# ----------------------------------------------------------------------


def test_asymptotic_gap_pinned_fixtures():
    for n, want in GAP_FIXTURES.items():
        got = bounds.asymptotic_gap(bounds.BoundParams(s=S_TARGET, n=n))
        assert abs(got - want) <= 1e-9


def test_asymptotic_gap_thresholds_and_decay():
    gap = {
        n: bounds.asymptotic_gap(bounds.BoundParams(s=S_TARGET, n=n))
        for n in (200, 250, 500, 1000, 2000)
    }
    assert gap[200] <= 0.15
    assert gap[2000] <= 0.05
    monitored = [gap[n] for n in (250, 500, 1000, 2000)]
    inversions = sum(1 for a, b in zip(monitored, monitored[1:]) if b > a)
    assert inversions <= 1


def test_asymptotic_gap_well_defined_elsewhere():
    v = bounds.asymptotic_gap(bounds.BoundParams(s=0.5, n=500))
    assert v > 0 and math.isfinite(v)


# ----------------------------------------------------------------------
# empirical table
# ----------------------------------------------------------------------


def test_empirical_table_rows(table_small):
    rows = bounds.empirical_table(table_small, [1, 5], c_star=0.5)
    assert rows[0].x == 1 and rows[0].psi1 == 0.0 and rows[0].ratio == 0.0
    assert rows[0].bound == 0.5
    assert math.isclose(rows[1].psi1, math.log(8640), rel_tol=1e-12)
    assert math.isclose(rows[1].ratio, math.log(8640) / 25.0, rel_tol=1e-12)
    assert abs(rows[1].ratio - 0.3626) <= 5e-4


def test_empirical_table_default_constant(table_small):
    rows = bounds.empirical_table(table_small, [10])
    c_star = bounds.optimize_s(0.01, 0.99, 1e-9).c_star
    assert math.isclose(rows[0].bound, c_star * 100.0, rel_tol=1e-12)


def test_empirical_table_validation(table_small):
    with pytest.raises(ValueError):
        bounds.empirical_table(table_small, [0])
    with pytest.raises(ValueError):
        bounds.empirical_table(table_small, [2001])


def test_empirical_table_equals_per_point_psi1(table_small):
    # One vector read over unsorted points with repeats, 1 and the limit,
    # against a point read each.
    limit = table_small.limit
    xs = [*range(1, limit + 1), limit, 1, 997, 3, 997]
    rows = bounds.empirical_table(table_small, xs, c_star=0.5)
    assert [r.x for r in rows] == xs
    for row, x in zip(rows, xs):
        want = primes.psi1(table_small, x)
        assert row.psi1.hex() == want.hex()
        assert row.ratio.hex() == (want / (x * x)).hex()
        assert row.bound == 0.5 * x * x
    assert bounds.empirical_table(table_small, [], c_star=0.5) == []


def test_empirical_table_checks_every_point_before_reading(table_small):
    # The first bad point in list order names the error, as per-point reads did.
    with pytest.raises(ValueError, match="got 0"):
        bounds.empirical_table(table_small, [5, 0, 2001], c_star=0.5)
    with pytest.raises(ValueError, match=r"argument 2001 outside table range \[0, 2000\]"):
        bounds.empirical_table(table_small, [5, 2001, 0], c_star=0.5)


def test_window_size_past_float_range_is_named_by_its_digit_count():
    with pytest.raises(ValueError) as info:
        bounds.BoundParams(s=0.5, n=10**400)
    assert str(info.value) == "n is too large for a float, got an integer of 401 digits"
