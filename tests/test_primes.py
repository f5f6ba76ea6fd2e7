"""Sieve-backed prime toolkit: classification, psi/psi_1 tables, lcm folds.

Oracles used here are deliberately primitive: trial division for the
prime-power classifier, an incremental ``math.lcm`` fold and an
incremental prime-power product for d_m, and Fraction-free float
reconstruction for the stored-increment identity.
"""

import itertools
import math

import numpy as np
import pytest

from primebound import exact, primes


def _trial_division_base(m: int):
    """p if m = p^k (k >= 1) else None, by trial division."""
    if m < 2:
        return None
    p = None
    q = 2
    while q * q <= m:
        if m % q == 0:
            p = q
            break
        q += 1
    if p is None:
        return m  # m itself is prime
    while m % p == 0:
        m //= p
    return p if m == 1 else None


def _spf_sieve(limit: int) -> list:
    spf = list(range(limit + 1))
    for p in range(2, int(limit**0.5) + 1):
        if spf[p] == p:
            for q in range(p * p, limit + 1, p):
                if spf[q] == q:
                    spf[q] = p
    return spf


def _bytearray_mangoldt_base(limit: int) -> list:
    """base[m] = p if m = p^k (k >= 1) else 0, by a pure-Python bytearray sieve."""
    is_prime = bytearray([0, 0]) + bytearray([1]) * (limit - 1)
    for p in range(2, math.isqrt(limit) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    base = [0] * (limit + 1)
    for p in itertools.compress(range(limit + 1), is_prime):
        pk = p
        while pk <= limit:
            base[pk] = p
            pk *= p
    return base


def _exact_sum_mismatches(t, chunk: int = 1 << 16) -> list:
    """Indices m where psi_cum, psi1_hi or psi1_lo differ from exact sums.

    The sums are Python ints of x * 2^53, carried across chunks of
    ``chunk`` entries so that memory stays small at any limit.
    """
    q = 2**53
    s_psi = s_psi1 = 0
    bad = []
    for start in range(0, t.limit + 1, chunk):
        part = slice(start, start + chunk)
        lam = np.log(np.maximum(t.mangoldt_base[part], 1).astype(np.float64))
        rows = zip(
            lam.tolist(),
            t.psi_cum[part].tolist(),
            t.psi1_hi[part].tolist(),
            t.psi1_lo[part].tolist(),
            strict=True,
        )
        for m, (x, psi, hi, lo) in enumerate(rows, start):
            s_psi += int(x * q)
            s_psi1 += int(psi * q)
            if s_psi / q != psi or s_psi1 / q != hi or lo * q != s_psi1 - int(hi * q):
                bad.append(m)
    return bad


# ----------------------------------------------------------------------
# construction and classification
# ----------------------------------------------------------------------


def test_build_table_rejects_bad_limit():
    with pytest.raises(ValueError):
        primes.build_table(0)
    with pytest.raises(ValueError):
        primes.build_table(-3)


def _no_sieve(limit):
    raise AssertionError("a table was allocated before the limit was checked")


def test_build_table_refuses_limit_past_exactness_cap(monkeypatch):
    # The sieve is stubbed out so that a guard placed after the allocation
    # fails here instead of asking for the several GB a 9e7 table takes.
    monkeypatch.setattr(primes, "_mangoldt_base", _no_sieve)
    with pytest.raises(ValueError):
        primes.build_table(90_000_001)


def test_limit_one_table():
    t = primes.build_table(1)
    assert primes.psi(t, 1) == 0.0
    assert primes.psi1(t, 1) == 0.0
    assert primes.mangoldt(t, 1) is None


def test_mangoldt_map_limit_ten():
    t = primes.build_table(10)
    expected = {2: 2, 3: 3, 4: 2, 5: 5, 7: 7, 8: 2, 9: 3}
    for m in range(1, 11):
        assert primes.mangoldt(t, m) == expected.get(m)


def test_mangoldt_matches_trial_division(table_million):
    for m in range(1, 20_001):
        assert primes.mangoldt(table_million, m) == _trial_division_base(m)


def test_mangoldt_base_matches_bytearray_sieve(table_million):
    assert table_million.mangoldt_base.tolist() == _bytearray_mangoldt_base(1_000_000)


def test_mangoldt_validation(table_small):
    with pytest.raises(ValueError):
        primes.mangoldt(table_small, 0)
    with pytest.raises(ValueError):
        primes.mangoldt(table_small, 2001)
    with pytest.raises(ValueError):
        primes.mangoldt(table_small, 8.5)


def test_table_arrays_are_frozen(table_small):
    with pytest.raises(ValueError):
        table_small.psi_cum[5] = 1.0


# ----------------------------------------------------------------------
# psi and psi_1
# ----------------------------------------------------------------------


def test_psi_fixtures(table_small):
    t = table_small
    assert primes.psi(t, 0) == 0.0
    assert primes.psi(t, 1) == 0.0
    assert primes.psi(t, 1.999) == 0.0
    assert primes.psi(t, 2) == math.log(2.0)
    assert math.isclose(primes.psi(t, 10), math.log(2520), rel_tol=1e-12)
    assert primes.psi(t, 10.9) == primes.psi(t, 10)


def test_psi_range_errors(table_small):
    with pytest.raises(ValueError):
        primes.psi(table_small, -0.5)
    with pytest.raises(ValueError):
        primes.psi(table_small, 2000.5)


def test_psi1_fixtures(table_small):
    t = table_small
    assert primes.psi1(t, 1) == 0.0
    assert math.isclose(primes.psi1(t, 3), math.log(12), rel_tol=1e-12)
    assert math.isclose(primes.psi1(t, 5), math.log(8640), rel_tol=1e-12)
    assert primes.psi1(t, 2.7) == primes.psi1(t, 2)
    with pytest.raises(ValueError):
        primes.psi1(t, 2001)


def test_psi_equals_log_lcm_to_ten_thousand(table_million):
    v = 1
    for m in range(1, 10_001):
        v = math.lcm(v, m)
        pm = primes.psi(table_million, m)
        assert abs(exact.log_int(v) - pm) <= 1e-8 * max(1.0, pm)


def test_psi_monotone_and_three_increment(table_million):
    c = table_million.psi_cum
    assert np.all(np.diff(c) >= 0.0)
    # Windowed sums psi(m) + psi(m-1) + psi(m-2) are nondecreasing too.
    w = c[2:] + c[1:-1] + c[:-2]
    assert np.all(np.diff(w) >= 0.0)


def test_psi_near_million_scale(table_million):
    v = primes.psi(table_million, 1_000_000)
    assert abs(v - 1_000_000) <= 0.005 * 1_000_000


def test_psi1_increment_equals_stored_psi_small(table_small):
    for m in range(1, 2001):
        assert primes.psi1_increment(table_small, m) == primes.psi(table_small, m)


def test_psi1_increment_equals_stored_psi_million(table_million):
    t = table_million
    hi, lo = t.psi1_hi, t.psi1_lo
    # Exact double-double difference of consecutive stored pairs.
    a, b = hi[1:], -hi[:-1]
    s = a + b
    bb = s - a
    err = (a - (s - bb)) + (b - bb)
    err = err + (lo[1:] - lo[:-1])
    assert np.array_equal(s + err, t.psi_cum[1:])
    for m in (2, 3, 1000, 999_983, 1_000_000):
        assert primes.psi1_increment(t, m) == primes.psi(t, m)


def test_tables_equal_exact_integer_sums(table_million):
    """Every entry against prefix sums in Python ints, scaled by 2^53.

    Each Lambda(m) and each stored psi(m) is 0 or at least ln 2, so times
    2^53 it is an exact integer S; S / 2**53 is then the correctly rounded
    sum, and psi1_lo must hold the exact rest of psi1_hi.
    """
    t = table_million
    q = 2**53
    lam = np.log(np.maximum(t.mangoldt_base, 1).astype(np.float64))
    psi_sums = itertools.accumulate(int(x * q) for x in lam.tolist())
    bad_psi = [
        m for m, (s, got) in enumerate(zip(psi_sums, t.psi_cum.tolist(), strict=True))
        if s / q != got
    ]
    assert not bad_psi, bad_psi[:5]
    psi1_sums = itertools.accumulate(int(x * q) for x in t.psi_cum.tolist())
    bad_psi1 = [
        m
        for m, (s, hi, lo) in enumerate(
            zip(psi1_sums, t.psi1_hi.tolist(), t.psi1_lo.tolist(), strict=True)
        )
        if s / q != hi or lo * q != s - int(hi * q)
    ]
    assert not bad_psi1, bad_psi1[:5]


B = primes._BLOCK


@pytest.mark.parametrize("limit", [B - 1, B, B + 1, 2 * B + 1, 3 * B])
def test_tables_exact_across_block_boundaries(limit):
    t = primes.build_table(limit)
    assert not _exact_sum_mismatches(t)
    for k in range(1, limit // B + 1):
        for m in (k * B - 1, k * B, k * B + 1):
            if m <= limit:
                assert primes.psi1_increment(t, m) == primes.psi(t, m), m


@pytest.mark.slow
def test_tables_equal_exact_integer_sums_ten_million():
    assert not _exact_sum_mismatches(primes.build_table(10_000_000))


def test_psi1_increment_validation(table_small):
    with pytest.raises(ValueError):
        primes.psi1_increment(table_small, 0)
    with pytest.raises(ValueError):
        primes.psi1_increment(table_small, 2001)


# ----------------------------------------------------------------------
# d_m = lcm(1..m), two independent routes
# ----------------------------------------------------------------------


def test_lcm_fixtures():
    assert primes.lcm_upto(1) == 1
    assert primes.lcm_upto(6) == 60
    assert primes.lcm_upto(10) == 2520
    assert primes.lcm_upto_prime_powers(1) == 1
    assert primes.lcm_upto_prime_powers(6) == 60
    assert primes.lcm_upto_prime_powers(10) == 2520


def test_lcm_validation():
    with pytest.raises(ValueError):
        primes.lcm_upto(0)
    with pytest.raises(ValueError):
        primes.lcm_upto_prime_powers(-1)


def test_dual_lcm_routes_agree_to_ten_thousand():
    """Pairwise-lcm fold vs prime-power product, every m up to 10^4.

    Both routes are mirrored incrementally (the package functions
    recompute from scratch per call, which is quadratic when swept), and
    the package functions themselves are anchored to the mirrors at every
    cached index plus spot checkpoints beyond the cache.
    """
    top = 10_000
    spf = _spf_sieve(top)
    fold = 1  # route a: lcm(fold, m)
    pp = 1  # route b: multiply by p exactly when m = p^k
    checkpoints = {2049, 2500, 4096, 5000, 9973, top}
    for m in range(1, top + 1):
        fold = math.lcm(fold, m)
        if m >= 2:
            p = spf[m]
            q = m
            while q % p == 0:
                q //= p
            if q == 1:
                pp *= p
        assert fold == pp
        if m <= 2048:
            assert primes.lcm_upto(m) == fold
        if m <= 256 or m in checkpoints:
            assert primes.lcm_upto_prime_powers(m) == pp
        if m in checkpoints:
            assert primes.lcm_upto(m) == fold


def test_lcm_cache_boundary_consistency():
    for m in (2047, 2048, 2049, 2060):
        first = primes.lcm_upto(m)
        assert first == primes.lcm_upto(m)  # cached/second path agree
        assert first == primes.lcm_upto_prime_powers(m)
