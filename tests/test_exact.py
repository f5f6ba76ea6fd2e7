"""Exact combinatorial layer: integer primitives and the float helpers.

Integer operations are checked against independent oracles (stdlib
factorial, repeated multiplication, Pascal recurrences) and against their
defining recurrences over the documented ranges.  Float helpers are
checked against exact integer/rational arithmetic via ``Fraction``.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primebound import exact


# ----------------------------------------------------------------------
# factorial
# ----------------------------------------------------------------------


def test_factorial_frozen_values():
    assert exact.factorial(0) == 1
    assert exact.factorial(5) == 120
    assert exact.factorial(10) == 3628800


def test_factorial_matches_stdlib_sample():
    for n in (1, 2, 7, 23, 100, 501, 1000):
        assert exact.factorial(n) == math.factorial(n)


def test_factorial_recurrence_to_ten_thousand():
    prev = exact.factorial(0)
    for n in range(1, 10_001):
        cur = exact.factorial(n)
        assert cur == prev * n
        prev = cur


def test_factorial_rejects_negative():
    with pytest.raises(ValueError):
        exact.factorial(-1)


# ----------------------------------------------------------------------
# pochhammer
# ----------------------------------------------------------------------


def test_pochhammer_frozen_values():
    assert exact.pochhammer(2, 0) == 1
    assert exact.pochhammer(1, 1) == 1
    assert exact.pochhammer(3, 4) == 360  # 3*4*5*6


def test_pochhammer_factorial_identity_exhaustive_small():
    # (x)_k * (x-1)! == (x+k-1)!  on the full block x + k <= 200.
    for x in range(1, 201):
        fxm1 = exact.factorial(x - 1)
        for k in range(0, 201 - x):
            assert exact.pochhammer(x, k) * fxm1 == exact.factorial(x + k - 1)


def test_pochhammer_factorial_identity_strided_to_one_thousand():
    # Same identity on a lattice reaching the x + k = 1000 boundary.
    for x in range(1, 1001, 53):
        fxm1 = exact.factorial(x - 1)
        ks = set(range(0, 1001 - x, 67))
        ks.add(1000 - x)  # exact boundary
        for k in sorted(ks):
            assert exact.pochhammer(x, k) * fxm1 == exact.factorial(x + k - 1)


def test_pochhammer_validation():
    with pytest.raises(ValueError):
        exact.pochhammer(0, 3)
    with pytest.raises(ValueError):
        exact.pochhammer(2, -1)


# ----------------------------------------------------------------------
# factorial_ratio
# ----------------------------------------------------------------------


def test_factorial_ratio_fixtures():
    assert exact.factorial_ratio([5], [3]) == 20
    assert exact.factorial_ratio([], [4]) == Fraction(1, 24)
    assert exact.factorial_ratio([], []) == 1
    assert isinstance(exact.factorial_ratio([], []), Fraction)


def test_factorial_ratio_is_pochhammer():
    # (x)_k = (x+k-1)! / (x-1)!, the form every rising factorial takes.
    for x in range(1, 30):
        for k in range(0, 30):
            assert exact.factorial_ratio([x + k - 1], [x - 1]) == exact.pochhammer(x, k)


def test_factorial_ratio_rejects_negative():
    with pytest.raises(ValueError):
        exact.factorial_ratio([-1], [])
    with pytest.raises(ValueError):
        exact.factorial_ratio([3], [2, -2])


_FACTORIAL_ARGS = st.lists(st.integers(0, 60), max_size=6)
_PROPERTY = settings(derandomize=True, max_examples=60, deadline=None)


@_PROPERTY
@given(_FACTORIAL_ARGS, _FACTORIAL_ARGS, st.integers(0, 60))
def test_factorial_ratio_cancels_common_factor(top, bottom, k):
    assert exact.factorial_ratio([*top, k], [k, *bottom]) == exact.factorial_ratio(top, bottom)


@_PROPERTY
@given(_FACTORIAL_ARGS, _FACTORIAL_ARGS)
def test_factorial_ratio_times_inverse_is_one(top, bottom):
    assert exact.factorial_ratio(top, bottom) * exact.factorial_ratio(bottom, top) == 1


# ----------------------------------------------------------------------
# binomial
# ----------------------------------------------------------------------


def test_binomial_frozen_values():
    assert exact.binomial(1, 0) == 1
    assert exact.binomial(5, 2) == 10
    assert exact.binomial(6, 3) == 20


def test_binomial_symmetry_and_row_sums():
    for n in range(0, 61):
        row = [exact.binomial(n, k) for k in range(n + 1)]
        assert row == row[::-1]
        assert sum(row) == 2**n


def test_binomial_pascal_recurrence_sample():
    for n in range(2, 40):
        for k in range(1, n):
            assert exact.binomial(n, k) == exact.binomial(n - 1, k - 1) + exact.binomial(
                n - 1, k
            )


def test_binomial_validation():
    with pytest.raises(ValueError):
        exact.binomial(3, 4)  # k > n is a domain error, not zero
    with pytest.raises(ValueError):
        exact.binomial(-1, 0)
    with pytest.raises(ValueError):
        exact.binomial(3, -1)


# ----------------------------------------------------------------------
# log_factorial / log_int
# ----------------------------------------------------------------------


def test_log_factorial_frozen_values():
    assert exact.log_factorial(0) == 0.0
    assert math.isclose(exact.log_factorial(5), math.log(120), rel_tol=1e-14)
    assert math.isclose(exact.log_factorial(20), 42.335616461, rel_tol=1e-9)


def test_log_factorial_relative_error_bound():
    # Oracle: ln of the exact integer via mantissa/exponent splitting.
    for n in (10, 100, 1000):
        oracle = exact.log_int(exact.factorial(n))
        got = exact.log_factorial(n)
        assert abs(got - oracle) / got <= 1e-12


def test_log_factorial_matches_lgamma():
    for n in (3, 50, 777, 2500):
        assert math.isclose(exact.log_factorial(n), math.lgamma(n + 1), rel_tol=1e-13)


def test_log_factorial_rejects_negative():
    with pytest.raises(ValueError):
        exact.log_factorial(-2)


def test_log_superfactorial_small_values():
    assert exact.log_superfactorial(0) == 0.0
    assert exact.log_superfactorial(1) == 0.0
    assert exact.log_superfactorial(2) == 0.0
    assert math.isclose(exact.log_superfactorial(3), math.log(2), rel_tol=1e-15)
    assert math.isclose(exact.log_superfactorial(4), math.log(12), rel_tol=1e-15)


def test_log_superfactorial_matches_exact_product():
    # Oracle: ln of the exact integer prod_{j<k} j!, built without the tables.
    for k in (10, 100, 400):
        oracle = exact.log_int(math.prod(math.factorial(j) for j in range(k)))
        assert math.isclose(exact.log_superfactorial(k), oracle, rel_tol=1e-14)


def test_log_superfactorial_rejects_negative():
    with pytest.raises(ValueError):
        exact.log_superfactorial(-1)


class _NoGrowth:
    """Stands in for a table accumulator: any attempt to grow a table fails."""

    def add(self, x):
        raise AssertionError("a log table grew for an argument past the cap")


def test_log_tables_refuse_past_cap_before_growing(monkeypatch):
    cap = exact.LOG_TABLE_CAP
    monkeypatch.setattr(exact, "_LNF_ACC", _NoGrowth())
    monkeypatch.setattr(exact, "_LSF_ACC", _NoGrowth())
    lnf, lsf = len(exact._LNF), len(exact._LSF)
    for k in (cap + 1, 10**7, 10**12):
        with pytest.raises(ValueError, match=f"<= {cap}, got {k}"):
            exact.log_factorial(k)
        with pytest.raises(ValueError, match=f"<= {cap}, got {k}"):
            exact.log_superfactorial(k)
    assert len(exact._LNF) == lnf and len(exact._LSF) == lsf


def test_log_int_small_and_huge():
    assert exact.log_int(1) == 0.0
    assert exact.log_int(7) == math.log(7)
    assert math.isclose(exact.log_int(2**200), 200 * math.log(2), rel_tol=1e-15)
    # Far beyond float range: 10**400 would overflow float(n).
    assert math.isclose(exact.log_int(10**400), 400 * math.log(10), rel_tol=1e-14)
    big = exact.factorial(1000)
    assert math.isclose(exact.log_int(big), math.lgamma(1001), rel_tol=1e-13)


def test_log_int_validation():
    with pytest.raises(ValueError):
        exact.log_int(0)
    with pytest.raises(ValueError):
        exact.log_int(-5)


# ----------------------------------------------------------------------
# compensated summation
# ----------------------------------------------------------------------


def _compensated(terms):
    acc = exact.CompensatedSum()
    for t in terms:
        acc.add(t)
    return acc.value


def test_compensated_sum_survives_cancellation():
    # A naive left-to-right sum returns 0.0 on both of these.
    assert _compensated([1e16, 1.0, -1e16]) == 1.0
    # The |new term| > |running sum| branch (where plain Kahan loses).
    assert _compensated([1.0, 1e100, 1.0, -1e100]) == 2.0


def test_compensated_sum_tracks_fsum():
    rng = random.Random(123)
    data = [rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-8, 8) for _ in range(4000)]
    got = _compensated(data)
    want = math.fsum(data)
    scale = sum(abs(x) for x in data)
    # Compensated error is O(eps * sum|x|); a naive sum would sit near
    # n*eps*scale ~ 4e-13 * scale, two orders looser than this bound.
    assert abs(got - want) <= 1e-15 * scale


def test_compensated_sum_streaming_state():
    acc = exact.CompensatedSum()
    for x in (0.1,) * 10:
        acc.add(x)
    assert math.isclose(acc.value, 1.0, rel_tol=1e-15)
    acc.add(-1.0)
    assert abs(acc.value) < 1e-15
