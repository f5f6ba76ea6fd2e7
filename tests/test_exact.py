"""Exact combinatorial layer: integer primitives and the float helpers.

Integer operations are checked against independent oracles (stdlib
factorial, repeated multiplication) and against their
defining recurrences over the documented ranges.  Float helpers are
checked against exact integer/rational arithmetic via ``Fraction``, and
the log-superfactorial series above the table against mpmath's Barnes G.
"""

import itertools
import math
import re
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import witnesses
from primebound import bounds, exact, primes
from primebound import determinants as det


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
        fxm1 = math.factorial(x - 1)
        for k in range(0, 201 - x):
            assert exact.pochhammer(x, k) * fxm1 == math.factorial(x + k - 1)


def test_pochhammer_factorial_identity_strided_to_one_thousand():
    # Same identity on a lattice reaching the x + k = 1000 boundary.
    for x in range(1, 1001, 53):
        fxm1 = math.factorial(x - 1)
        ks = set(range(0, 1001 - x, 67))
        ks.add(1000 - x)  # exact boundary
        for k in sorted(ks):
            assert exact.pochhammer(x, k) * fxm1 == math.factorial(x + k - 1)


def test_pochhammer_is_the_product_of_its_factors():
    # math.perm(x + k - 1, k) against the product it stands for.
    for x in range(1, 61):
        for k in range(61):
            assert exact.pochhammer(x, k) == math.prod(range(x, x + k)), (x, k)


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
# log_superfactorial
# ----------------------------------------------------------------------


def test_log_superfactorial_small_values():
    assert exact.log_superfactorial(0) == 0.0
    assert exact.log_superfactorial(1) == 0.0
    assert exact.log_superfactorial(2) == 0.0
    assert math.isclose(exact.log_superfactorial(3), math.log(2), rel_tol=1e-15)
    assert math.isclose(exact.log_superfactorial(4), math.log(12), rel_tol=1e-15)


def test_log_superfactorial_matches_exact_product():
    # Oracle: ln of the exact integer prod_{j<k} j!, built without the tables.
    for k in (10, 100, 400):
        oracle = math.log(math.prod(math.factorial(j) for j in range(k)))
        assert math.isclose(exact.log_superfactorial(k), oracle, rel_tol=1e-14)


def test_log_superfactorial_rejects_negative():
    # The message names k by its digit count: Python refuses str(k) for a k
    # past 4,300 digits, with a ValueError of its own.
    for k, digits in ((-1, 1), (-(10**5000), 5001)):
        with pytest.raises(ValueError, match=f"k >= 0, got a negative k of {digits} digits"):
            exact.log_superfactorial(k)


_BIG = 10**5000

# Each call refuses an int past Python's 4,300-digit str limit.
_HUGE_REFUSALS = {
    "psi": lambda t: primes.psi(t, _BIG),
    "psi_negative": lambda t: primes.psi(t, -_BIG),
    "psi1": lambda t: primes.psi1(t, _BIG),
    "mangoldt": lambda t: primes.mangoldt(t, _BIG),
    "psi1_increment": lambda t: primes.psi1_increment(t, -_BIG),
    "lcm_upto": lambda t: primes.lcm_upto(-_BIG),
    "lcm_upto_prime_powers": lambda t: witnesses.lcm_upto_prime_powers(-_BIG),
    "pochhammer_x": lambda t: exact.pochhammer(-_BIG, 1),
    "pochhammer_k": lambda t: exact.pochhammer(1, -_BIG),
    "_grow_log_table": lambda t: exact._grow_log_table(_BIG),
    "HankelSpec": lambda t: det.HankelSpec(1, -_BIG, 1),
    "GeneralizedSpec_xs": lambda t: det.GeneralizedSpec((0, -_BIG), 1),
    "GeneralizedSpec_beta": lambda t: det.GeneralizedSpec((0,), -_BIG),
    "SelbergSpec": lambda t: det.SelbergSpec(-_BIG, 1.0, 1, 1),
    "SelbergSpec_n": lambda t: det.SelbergSpec(1.0, 1.0, 1, -_BIG),
    "hankel_entry": lambda t: witnesses.hankel_entry(det.HankelSpec(1, 1, 2), _BIG, 1),
    "partial_fraction_sum": lambda t: det.partial_fraction_sum(1, 1, -_BIG),
    "basic_integrality": lambda t: det.basic_integrality(1, 1, -_BIG),
    "empirical_table": lambda t: bounds.empirical_table(t, [_BIG], c_star=0.5),
    "empirical_table_negative": lambda t: bounds.empirical_table(t, [-_BIG], c_star=0.5),
    "chain_partial_sum": lambda t: witnesses.chain_partial_sum(0.5, 1.0, -_BIG),
}


@pytest.mark.parametrize("name", _HUGE_REFUSALS)
def test_refusals_name_a_huge_int_by_its_digits(table_small, name):
    # str() of such an int raises Python's own "Exceeds the limit" error,
    # so each message names the value through exact._shown.
    with pytest.raises(ValueError) as info:
        _HUGE_REFUSALS[name](table_small)
    assert "integer of 5001 digits" in str(info.value)
    assert "Exceeds" not in str(info.value)


@pytest.mark.parametrize("name", ["mangoldt", "psi1_increment"])
def test_integer_index_names_a_huge_fraction_by_its_digits(table_small, name):
    # str() of this Fraction's numerator exceeds Python's 4,300-digit limit.
    index = getattr(primes, name)
    with pytest.raises(ValueError) as info:
        index(table_small, Fraction(2 * _BIG + 1, 2))
    assert str(info.value) == f"{name} requires an integer, got a fraction of 5001/1 digits"
    with pytest.raises(ValueError) as info:
        index(table_small, Fraction(1, 3))
    assert str(info.value) == f"{name} requires an integer, got 1/3"


def test_shown_fractions_read_as_their_str():
    assert exact._shown(Fraction(1, 3)) == "1/3"
    assert exact._shown(Fraction(-7)) == "-7"
    assert exact._shown(Fraction(-_BIG, 3)) == "a negative fraction of 5001/1 digits"
    assert exact._shown(Fraction(1, _BIG)) == "a fraction of 1/5001 digits"
    assert exact._shown((Fraction(1, 2), 1.0)) == "(1/2, 1.0)"


def test_shown_tuples_read_as_their_repr():
    for v in ((), (1,), (1, -2), (0.5, 3), ("a", (1,))):
        assert exact._shown(v) == repr(v)
    assert exact._shown((1, -_BIG)) == "(1, a negative integer of 5001 digits)"


def _no_growth(*args):
    raise AssertionError("the log table grew for an argument above its seam")


def test_log_superfactorial_above_seam_never_grows_table(monkeypatch):
    seam = exact._LOG_SEAM
    monkeypatch.setattr(exact, "_exact_prefix_sum", _no_growth)
    lsf = len(exact._LSF)
    for k in (seam + 1, 10**7, 10**12):
        assert math.isfinite(exact.log_superfactorial(k))
    assert len(exact._LSF) == lsf <= seam + 1


def test_grow_log_table_refuses_a_k_past_the_seam(monkeypatch):
    # The table stops at the seam, so growing it further found no block to
    # add and never returned; such a k is refused before any growth.
    seam = exact._LOG_SEAM
    monkeypatch.setattr(exact, "_exact_prefix_sum", _no_growth)
    lsf = len(exact._LSF)
    for k in (seam + 1, seam + exact._LOG_BLOCK, 10**12):
        with pytest.raises(ValueError) as info:
            exact._grow_log_table(k)
        assert str(info.value) == f"the ln G table stops at k = {seam}, got {k}"
    assert len(exact._LSF) == lsf


@pytest.mark.parametrize("e", [160, 400])
def test_log_superfactorial_past_float_range_raises(e):
    # ln G(k+1) ~ k^2 ln k / 2 overflows a float from k ~ 1e153 on.  The
    # message names k by its digit count, so it stays one short line.
    with pytest.raises(ValueError, match="past the float range") as info:
        exact.log_superfactorial(10**e)
    assert f"{e + 1} digits" in str(info.value)
    assert len(f"error: {info.value}") < 120


def _mp_log_g(k):
    """ln G(k+1) at the working precision of mpmath."""
    return mpmath.log(mpmath.barnesg(k + 1))


def test_log_superfactorial_matches_mpmath_barnes_g():
    # The 1,000 table entries below the seam and 1,000 series values above
    # it, from one Barnes G value and G(k+2) = k! G(k+1); the far end is
    # checked against Barnes G directly.  Then sampled k up to 1e60, at the
    # docstring's bound; past that, mpmath's first value takes seconds.
    seam = exact._LOG_SEAM
    with mpmath.workdps(40):
        lo, hi = seam - 999, seam + 1000
        g = _mp_log_g(lo)
        for k in range(lo, hi + 1):
            assert abs(exact.log_superfactorial(k) - g) <= 1e-15 * g, k
            g += mpmath.loggamma(k + 1)
        assert abs(g - _mp_log_g(hi + 1)) <= mpmath.mpf("1e-30") * g
        for k in (10**5, 10**6, 10**8, 10**12, 10**15, 10**30, 10**60):
            g = _mp_log_g(k)
            assert abs(exact.log_superfactorial(k) - g) <= 1e-15 * g, k


@pytest.mark.slow
def test_log_superfactorial_matches_mpmath_barnes_g_to_the_largest_k(largest_accepted):
    # Up to the largest k whose value is a float, about 1.01e153: the
    # docstring's 1e-15 holds to the end of the accepted range.
    top = largest_accepted(exact.log_superfactorial, 10**150, 10**154)
    with mpmath.workdps(40):
        for k in (10**100, 10**150, 10**152, 5 * 10**152, top):
            g = _mp_log_g(k)
            assert abs(exact.log_superfactorial(k) - g) <= 1e-15 * g, k


def test_log_superfactorial_series_holds_from_k_25(monkeypatch):
    # With the seam moved down and the table emptied, the series answers
    # alone; its Bernoulli terms are what keep it within 1e-15 this low.
    monkeypatch.setattr(exact, "_LOG_SEAM", 24)
    monkeypatch.setattr(exact, "_LSF", [0.0, 0.0])
    monkeypatch.setattr(exact, "_exact_prefix_sum", _no_growth)
    with mpmath.workdps(40):
        for k in range(25, 200, 7):
            g = _mp_log_g(k)
            assert abs(exact.log_superfactorial(k) - g) <= 1e-15 * g, k


def test_zeta_prime_literal_matches_mpmath():
    with mpmath.workdps(40):
        assert exact._ZETA_M1 == float(mpmath.zeta(-1, derivative=1))
        assert exact._HALF_LN_2PI == float(mpmath.log(2 * mpmath.pi) / 2)


def _log_table_oracle(k_max):
    """Yield (k, ln G(k+1)) for k <= k_max from Python-int sums, each rounded once.

    The terms are math.log(j) * 2^53 and, for ln G, the oracle's own
    rounded ln j! * 2^53, all integers; int / int is correctly rounded.
    """
    q = 2**53
    p = g = 0
    lnf = 0.0
    yield 0, 0.0
    for k in range(1, k_max + 1):
        g += int(lnf * q)  # ln G(k+1) = ln G(k) + ln (k-1)!
        p += int(math.log(k) * q)
        lnf = p / q
        yield k, g / q


def _log_table_mismatches(oracle):
    return [k for k, lsf in oracle if exact.log_superfactorial(k) != lsf]


def test_log_tables_equal_exact_integer_sums():
    assert not (bad := _log_table_mismatches(_log_table_oracle(1 << 16))), bad[:5]


def test_log_table_grown_in_steps_equals_one_full_build(monkeypatch):
    # Each growth rebuilds the table from zero carries, so a table grown in
    # steps holds, bit for bit, the prefix of one built straight to the seam.
    monkeypatch.setattr(exact, "_LSF", [0.0, 0.0])
    exact._grow_log_table(exact._LOG_SEAM)
    full = np.array(exact._LSF)
    monkeypatch.setattr(exact, "_LSF", [0.0, 0.0])
    lengths = []
    for k in (5, 2_338, 4_097, 1 << 16):
        exact.log_superfactorial(k)
        lengths.append(len(exact._LSF))
        assert np.array(exact._LSF).tobytes() == full[: lengths[-1]].tobytes(), k
    # No growth for a k the table holds; otherwise at least double, at most the seam.
    block, seam = exact._LOG_BLOCK, exact._LOG_SEAM
    assert lengths == [block, block, 2 * block, seam + 1]


def test_log_table_cap_keeps_superfactorial_sum_exact():
    # The limb scan is exact below 2^52, and the table stops at the seam.
    # For j < K = seam + 1, ln j! <= j ln K < j * bit_length(K), so
    # sum_{j<K} ln j! < K(K-1)/2 * bit_length(K).
    k = exact._LOG_SEAM + 1
    assert k * (k - 1) // 2 * k.bit_length() < 2**52


_SCAN_TERMS = st.lists(
    st.tuples(st.integers(0, 2**53 - 1), st.integers(0, 40)), min_size=1, max_size=40
)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_SCAN_TERMS, st.sets(st.integers(1, 39), max_size=5), st.integers(1, 41))
def test_exact_prefix_sum_matches_python_ints(terms, cuts, scan_len):
    # Terms m * 2^(e-53) with a 53-bit m cover the floats below 2^40 that
    # are nonnegative multiples of 2^-53; blocks share one carry.  Inside a
    # call, parts of scan_len values (2^20 - 1 in use) share it too.
    q = 2**53
    ints = [m << e for m, e in terms]
    values = np.array([x / q for x in ints])
    edges = [0, *sorted(c for c in cuts if c < len(ints)), len(ints)]
    blocks = [slice(a, b) for a, b in zip(edges, edges[1:])]
    hi, in_place = np.empty_like(values), values.copy()
    carry, carry_in_place = np.zeros(2, dtype=np.int64), np.zeros(2, dtype=np.int64)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exact, "_SCAN_LEN", scan_len)
        for block in blocks:
            exact._exact_prefix_sum(values[block], carry, hi[block])
            exact._exact_prefix_sum(in_place[block], carry_in_place, in_place[block])
    total = 0
    for x, h, h2 in zip(ints, hi.tolist(), in_place.tolist()):
        total += x
        assert h == h2 == total / q
    top, low = carry.tolist()
    assert (top << 43) + low == total
    assert carry.tolist() == carry_in_place.tolist()


@settings(derandomize=True, max_examples=50, deadline=None)
@given(_SCAN_TERMS, st.integers(0, 40))
def test_exact_prefix_sum_empty_part_is_a_no_op(terms, k):
    # [k entries, 0 entries, rest] scanned in turn equals one scan of the
    # whole, bit for bit; the empty scan leaves the carry as it was.
    values = np.array([(m << e) / 2**53 for m, e in terms])
    k = min(k, len(values))
    whole_hi, whole_carry = np.empty_like(values), np.zeros(2, np.int64)
    exact._exact_prefix_sum(values, whole_carry, whole_hi)
    hi, carry = np.empty_like(values), np.zeros(2, np.int64)
    for part in (slice(0, k), slice(k, k), slice(k, None)):
        before = carry.copy()
        exact._exact_prefix_sum(values[part], carry, hi[part])
        if part.start == part.stop:
            assert carry.tolist() == before.tolist()
    assert hi.view(np.int64).tolist() == whole_hi.view(np.int64).tolist()
    assert carry.tolist() == whole_carry.tolist()


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 2**105 - 1) | st.integers(0, 2**54), min_size=1, max_size=20))
def test_floats_of_limbs_are_the_correctly_rounded_head_and_exact_rest(totals):
    # Each total * 2^-53, below 2^52, from its limbs top * 2^43 + low.
    q = 2**53
    top = np.array([x >> 43 for x in totals], dtype=np.int64)
    low = np.array([x & (2**43 - 1) for x in totals], dtype=np.int64)
    hi, lo = exact._floats(top, low)
    for x, h, l in zip(totals, hi.tolist(), lo.tolist()):
        assert h == x / q
        assert Fraction(h) + Fraction(l) == Fraction(x, q)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 2**53 - 1), st.integers(0, 30)), min_size=1, max_size=40),
    st.lists(st.integers(0, 2**20), min_size=40, max_size=40),
)
def test_scaled_limbs_are_exact_products(terms, factors):
    # Values below 2^30 times factors up to 2^20: the run totals of a prime
    # table, len * psi * 2^53, are such products.
    ints = [m << e for m, e in terms]
    factors = factors[: len(ints)]
    top, low = exact._limbs(np.array([x / 2**53 for x in ints]), np.array(factors))
    for x, k, t, lo in zip(ints, factors, top.tolist(), low.tolist(), strict=True):
        assert 0 <= lo < 2**43
        assert (t << 43) + lo == x * k


def test_limbs_refuse_a_factor_past_two_to_the_twenty():
    with pytest.raises(ValueError, match="exceeds"):
        exact._limbs(np.array([1.0, 1.0]), np.array([1, 2**20 + 1]))


def _small_scan_oracle(terms: list) -> list:
    """Inclusive prefix sums of the terms from Python-int sums of term * 2^53, each rounded once."""
    q = 2**53
    return [total / q for total in itertools.accumulate(int(x * q) for x in terms)]


@pytest.mark.parametrize("size", [1, 2**15 - 1, 2**15, 2**15 + 1])
def test_small_prefix_sum_matches_python_ints(size):
    # Lambda-like terms: 0, then ln of seeded integers up to 2^31 (about 21.5),
    # summed in blocks of 2^15 that share the carry, as build_table sums them.
    rng = np.random.default_rng(size)
    terms = np.log(rng.integers(2, 2**31, size).astype(np.float64))
    terms[:: 7] = 0.0
    expected = _small_scan_oracle(terms.tolist())
    values, carry, scratch = terms.copy(), np.zeros(3), np.empty(2**15)
    for a in range(0, size, 2**15):
        exact._small_prefix_sum(values[a : a + 2**15], carry, scratch)
    assert values.tolist() == expected
    assert carry[2] == size


def test_small_prefix_sum_is_exact_on_terms_just_below_two_to_the_five():
    # The largest terms it accepts, with bits down to 2^-48, so the fraction
    # limb is at its widest: a float cumsum of the terms themselves rounds.
    below = np.nextafter(32.0, 0.0)
    terms = np.array([below, below - 2.0**-45, 31.0 + 0.5**20, below] * 2500)
    values = terms.copy()
    exact._small_prefix_sum(values, np.zeros(3), np.empty_like(values))
    assert values.tolist() == _small_scan_oracle(terms.tolist())
    assert np.cumsum(terms).tolist() != values.tolist()


def test_small_prefix_sum_refuses_a_term_of_two_to_the_five():
    for term in (32.0, 1e300, np.inf):
        values = np.array([1.0, term, 2.0])
        msg = f"3 terms, largest {term}: exact under 2^23 below 2^5"
        with pytest.raises(ValueError, match=re.escape(msg)):
            exact._small_prefix_sum(values, np.zeros(3), np.empty(3))
        assert values.tolist() == [1.0, term, 2.0]


def test_small_prefix_sum_refuses_two_to_the_twenty_three_terms():
    # A zero-stride read-only view: refused before anything is written.
    many = np.broadcast_to(np.float64(1.0), (2**23,))
    with pytest.raises(ValueError, match="^8388608 terms, largest 1.0: "):
        exact._small_prefix_sum(many, np.zeros(3), np.empty(1))
    # The count carries across blocks: one more term after 2^23 - 1 is refused too.
    carry = np.array([0.0, 0.0, 2.0**23 - 1])
    with pytest.raises(ValueError, match="^8388608 terms, largest 1.0: "):
        exact._small_prefix_sum(np.array([1.0]), carry, np.empty(1))
