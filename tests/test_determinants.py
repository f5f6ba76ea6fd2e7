"""Exact determinant identities and lcm-scaled integrality inequalities.

Every identity is verified against an independent route: cofactor
expansion for small determinants, naive rational elimination against the
fraction-free path, direct beta-integral factorials for matrix entries
(both from ``witnesses``), and seeded random instances for the polynomial
determinant lemma, which a grid of points also proves for n <= 4.
"""

import itertools
import math
import random
from fractions import Fraction
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import witnesses
from primebound import determinants as det
from primebound.exact import factorial_ratio, pochhammer
from primebound.primes import lcm_upto


def _cofactor_det(rows):
    """Laplace expansion along the first row; exact for any field values."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        sign = -1 if j % 2 else 1
        total += sign * rows[0][j] * _cofactor_det(minor)
    return total


# ----------------------------------------------------------------------
# spec validation
# ----------------------------------------------------------------------


def test_spec_validation():
    with pytest.raises(ValueError):
        det.HankelSpec(alpha=0, beta=1, n=1)
    with pytest.raises(ValueError):
        det.HankelSpec(alpha=1, beta=1, n=0)
    with pytest.raises(ValueError):
        det.KrattenthalerInstance(x=(1, 2), a=(3,), b=())
    with pytest.raises(ValueError):
        det.GeneralizedSpec(xs=(0, 0), beta=1)
    with pytest.raises(ValueError):
        det.GeneralizedSpec(xs=(-1,), beta=1)
    with pytest.raises(ValueError):
        det.SelbergSpec(alpha=0.0, beta=1, gamma=1, n=1)
    with pytest.raises(ValueError):
        det.SelbergSpec(alpha=1, beta=1, gamma=0, n=1)
    # Real alpha/beta are allowed; gamma and n must stay integral.
    det.SelbergSpec(alpha=1.5, beta=2.5, gamma=2, n=2)


@pytest.mark.parametrize(
    "alpha, beta",
    [(math.inf, 1), (1, math.inf), (math.nan, 1), (1, math.nan), (-math.inf, 1)],
)
def test_selberg_spec_refuses_non_finite(alpha, beta):
    # Let through, inf made selberg_rhs return nan and selberg_rhs_exact overflow.
    with pytest.raises(ValueError, match="finite alpha, beta > 0"):
        det.SelbergSpec(alpha=alpha, beta=beta, gamma=1, n=2)


@pytest.mark.parametrize(
    "args, message",
    [
        ((10**5000, 1.0, 1, 1), "alpha is too large for a float, got an integer of 5001 digits"),
        (
            (1.0, Fraction(10**5000, 3), 1, 1),
            "beta is too large for a float, got a fraction of 5001/1 digits",
        ),
        ((1, 1, 10**5000, 1), "gamma is too large for a float, got an integer of 5001 digits"),
    ],
    ids=["alpha", "beta", "gamma"],
)
def test_selberg_spec_refuses_a_value_past_the_float_range(args, message):
    # Let through, selberg_rhs and quadrature_oracle raised OverflowError
    # converting it to a float.
    with pytest.raises(ValueError) as info:
        det.SelbergSpec(*args)
    assert str(info.value) == f"SelbergSpec.{message}"
    det.SelbergSpec(10**300, 1, 1, 1)  # a float holds it


# ----------------------------------------------------------------------
# determinant kernels
# ----------------------------------------------------------------------


def test_bareiss_against_cofactor_oracle():
    rng = random.Random(42)
    for n in range(1, 6):
        for _ in range(25):
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            assert det.bareiss_det([r[:] for r in rows]) == _cofactor_det(rows)


def test_bareiss_handles_zero_pivots():
    assert det.bareiss_det([[0, 1], [1, 0]]) == -1
    assert det.bareiss_det([[0, 2, 3], [0, 0, 5], [7, 0, 0]]) == 70
    assert det.bareiss_det([[1, 2], [2, 4]]) == 0


def test_naive_elimination_matches_cofactor_on_random_fraction_matrices():
    rng = random.Random(99)
    for n in range(1, 7):
        for _ in range(10):
            rows = [
                [Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(n)]
                for _ in range(n)
            ]
            assert witnesses.fraction_det_naive(rows) == _cofactor_det(rows)


# Property tests: seeds pinned, so every run draws the same examples.
_PROPERTY = settings(derandomize=True, max_examples=100, deadline=None)


@st.composite
def _square(draw, entries, max_n=6):
    n = draw(st.integers(1, max_n))
    row = st.lists(entries, min_size=n, max_size=n)
    return draw(st.lists(row, min_size=n, max_size=n))


@st.composite
def _int_matrices(draw):
    """Random integer matrices, about a third made singular on purpose."""
    rows = draw(_square(st.integers(-30, 30)))
    n = len(rows)
    kind = draw(st.sampled_from(["free", "repeat", "combine"])) if n > 1 else "free"
    if kind != "free":
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        if kind == "repeat":
            rows[i] = rows[j][:]
        else:
            k = draw(st.integers(0, n - 1).filter(lambda k: k != i))
            c, d = draw(st.integers(-5, 5)), draw(st.integers(-5, 5))
            rows[i] = [c * u + d * v for u, v in zip(rows[j], rows[k])]
    return kind, rows


_FRACTIONS = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))


@_PROPERTY
@given(_int_matrices(), st.data())
def test_bareiss_matches_naive_elimination(case, data):
    kind, rows = case
    got = det.bareiss_det([r[:] for r in rows])
    assert got == witnesses.fraction_det_naive(rows)
    if kind != "free":
        assert got == 0
    n = len(rows)
    if n > 1:
        i, j = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        rows[i], rows[j] = rows[j], rows[i]
        assert det.bareiss_det(rows) == -got


@_PROPERTY
@given(_int_matrices(), st.integers(0, 5), st.data())
def test_bareiss_swaps_past_zero_leading_pivots(case, k, data):
    # Row k's first k+1 entries are made a combination of the rows above
    # (at k = 0, a zero corner), so the leading (k+1) x (k+1) minor is 0
    # and the elimination meets a zero pivot by step k: the row-swap path.
    _, rows = case
    n = len(rows)
    k = min(k, n - 1)
    coeffs = data.draw(st.lists(st.integers(-5, 5), min_size=k, max_size=k))
    rows[k][: k + 1] = [sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(k + 1)]
    assert witnesses.fraction_det_naive([r[: k + 1] for r in rows[: k + 1]]) == 0
    assert det.bareiss_det([r[:] for r in rows]) == witnesses.fraction_det_naive(rows)


@_PROPERTY
@given(st.sampled_from(["fraction", "int", "mixed"]), st.data())
def test_naive_elimination_takes_ints_fractions_and_mixed_rows(kind, data):
    entries = {
        "fraction": _FRACTIONS,
        "int": st.integers(-40, 40),
        "mixed": st.one_of(st.integers(-40, 40), _FRACTIONS),
    }[kind]
    rows = data.draw(_square(entries))
    got = witnesses.fraction_det_naive(rows)
    assert type(got) is Fraction
    assert got == _cofactor_det(rows)
    if kind == "int":
        assert got == det.bareiss_det(rows)


# ----------------------------------------------------------------------
# Hankel moment determinant and closed form
# ----------------------------------------------------------------------


def test_hankel_entry_fixtures():
    assert witnesses.hankel_entry(det.HankelSpec(1, 1, 1), 1, 1) == 1
    assert witnesses.hankel_entry(det.HankelSpec(1, 1, 2), 1, 2) == Fraction(1, 2)
    assert witnesses.hankel_entry(det.HankelSpec(1, 2, 1), 1, 1) == Fraction(1, 2)


def test_hankel_entry_is_beta_integral():
    # (beta-1)!/(p)_beta == (p-1)!(beta-1)!/(p+beta-1)! with p = alpha+i+j-2,
    # the exact value of the moment integral the matrix is built from.
    for alpha in range(1, 7):
        for beta in range(1, 7):
            spec = det.HankelSpec(alpha=alpha, beta=beta, n=4)
            for i in range(1, 5):
                for j in range(1, 5):
                    p = alpha + i + j - 2
                    want = Fraction(
                        factorial(p - 1) * factorial(beta - 1), factorial(p + beta - 1)
                    )
                    assert witnesses.hankel_entry(spec, i, j) == want


def test_hankel_matrix_equals_entrywise_definition():
    for n in range(1, 9):
        for alpha in range(1, 7):
            for beta in range(1, 7):
                spec = det.HankelSpec(alpha=alpha, beta=beta, n=n)
                want = [
                    [witnesses.hankel_entry(spec, i, j) for j in range(1, n + 1)]
                    for i in range(1, n + 1)
                ]
                assert witnesses.hankel_matrix(spec) == want


def test_hankel_det_fixtures():
    assert det.hankel_det(det.HankelSpec(1, 1, 1)) == 1
    assert det.hankel_det(det.HankelSpec(1, 1, 2)) == Fraction(1, 12)
    assert det.hankel_det(det.HankelSpec(2, 1, 2)) == Fraction(1, 72)
    assert det.closed_form_det(det.HankelSpec(1, 1, 1)) == 1
    assert det.closed_form_det(det.HankelSpec(1, 1, 2)) == Fraction(1, 12)
    assert det.closed_form_det(det.HankelSpec(2, 1, 2)) == Fraction(1, 72)


def test_hankel_det_equals_closed_form_grid():
    # Moderate grid here; the acceptance gate sweeps the full range.
    for n in range(1, 9):
        for alpha in range(1, 7):
            for beta in range(1, 7):
                spec = det.HankelSpec(alpha=alpha, beta=beta, n=n)
                assert det.hankel_det(spec) == det.closed_form_det(spec)


def test_hankel_det_matches_cofactor_oracle_small():
    for n in (1, 2, 3):
        for alpha in (1, 2, 3):
            for beta in (1, 2, 3):
                spec = det.HankelSpec(alpha=alpha, beta=beta, n=n)
                assert det.hankel_det(spec) == _cofactor_det(witnesses.hankel_matrix(spec))


def test_hankel_dets_are_every_leading_minor():
    # One elimination of H_N gives det H_n for every n <= N; each is
    # checked against the factorial product, which no elimination touches.
    for alpha in range(1, 9):
        for beta in range(1, 9):
            for big_n in range(1, 11):
                dets = det.hankel_dets(alpha, beta, big_n)
                assert len(dets) == big_n
                for n, d in enumerate(dets, 1):
                    assert type(d) is Fraction
                    assert d == det.closed_form_det(det.HankelSpec(alpha, beta, n))


def test_hankel_dets_match_cofactor_oracle_small():
    for alpha in range(1, 5):
        for beta in range(1, 5):
            dets = det.hankel_dets(alpha, beta, 4)
            for n in range(1, 5):
                m = witnesses.hankel_matrix(det.HankelSpec(alpha, beta, n))
                assert dets[n - 1] == _cofactor_det(m)


def test_hankel_dets_equal_naive_elimination_of_every_leading_matrix():
    # The integer rows of hankel_rows and their Bareiss pivots against the
    # moment matrix from factorials, eliminated over Fraction, at every n.
    for alpha in range(1, 9):
        for beta in range(1, 9):
            want = [
                witnesses.fraction_det_naive(witnesses.hankel_matrix(det.HankelSpec(alpha, beta, n)))
                for n in range(1, 11)
            ]
            for big_n in range(1, 11):
                assert det.hankel_dets(alpha, beta, big_n) == want[:big_n], (alpha, beta, big_n)


def test_hankel_rows_are_the_moment_rows_times_their_scales():
    for alpha, beta, n in ((1, 1, 1), (1, 3, 4), (4, 2, 5), (7, 6, 3)):
        spec = det.HankelSpec(alpha, beta, n)
        rows, scales = det.hankel_rows(spec)
        for row, scale, moments in zip(rows, scales, witnesses.hankel_matrix(spec)):
            assert all(type(v) is int for v in row)
            assert row == [m * scale for m in moments]


@pytest.mark.parametrize(
    "rows",
    [
        # Leading 2 x 2 block singular, the whole matrix not (det -3).
        [[1, 1, 2], [1, 1, 3], [2, 5, 1]],
        # Zero first pivot; a row swap would give det -1.
        [[0, 1], [1, 0]],
        # [[1/2, 1/3], [3/2, 1]] cleared row by row, over 6 and 2.
        [[3, 2], [3, 2]],
    ],
)
def test_hankel_dets_refuse_a_zero_leading_minor(monkeypatch, rows):
    # Without row swaps the pivots are only minors while none is zero, so
    # a singular leading block must raise, not return a wrong minor.
    monkeypatch.setattr(det, "hankel_rows", lambda spec: ([r[:] for r in rows], [1] * len(rows)))
    with pytest.raises(RuntimeError, match="zero leading minor"):
        det.hankel_dets(1, 1, len(rows))
    with pytest.raises(RuntimeError, match="zero leading minor"):
        det.hankel_det(det.HankelSpec(1, 1, len(rows)))


# ----------------------------------------------------------------------
# partial fractions
# ----------------------------------------------------------------------


def test_partial_fraction_fixtures():
    assert det.partial_fraction_sum(1, 1, 2) == 1
    assert det.partial_fraction_sum(1, 2, 2) == Fraction(1, 2)
    assert det.partial_fraction_sum(2, 3, 3) == Fraction(1, 30)


def test_partial_fraction_expands_entry_grid():
    for alpha in range(1, 13):
        for beta in range(1, 13):
            for m in range(2, 25):
                want = Fraction(factorial(beta - 1), pochhammer(alpha + m - 2, beta))
                assert det.partial_fraction_sum(alpha, beta, m) == want


def test_partial_fraction_expands_entry_to_beta_forty():
    # Wider in beta than any suite grid: the common denominator
    # lcm(lo .. lo+beta-1) then holds many prime powers.
    for alpha in range(1, 7):
        for beta in range(1, 41):
            for m in range(2, 13):
                want = Fraction(factorial(beta - 1), pochhammer(alpha + m - 2, beta))
                assert det.partial_fraction_sum(alpha, beta, m) == want


# ----------------------------------------------------------------------
# polynomial determinant lemma
# ----------------------------------------------------------------------


def test_lemma_fixtures():
    assert det.krattenthaler_sides(det.KrattenthalerInstance(x=(7,), a=(), b=())) == (1, 1)
    inst = det.KrattenthalerInstance(x=(3, 5), a=(2,), b=(7,))
    assert det.krattenthaler_sides(inst) == (-10, -10)
    inst3 = det.KrattenthalerInstance(x=(1, 2, 4), a=(0, 5), b=(3, -1))
    lhs, rhs = det.krattenthaler_sides(inst3)
    assert lhs == rhs
    assert lhs == det.bareiss_det(det.lemma_rows(inst3.x, inst3.a, inst3.b))
    assert lhs == _cofactor_det(det.lemma_rows(inst3.x, inst3.a, inst3.b))


def test_lemma_analytic_orders_one_and_two():
    rng = random.Random(5)
    for _ in range(50):
        x1 = rng.randint(-50, 50)
        lhs, rhs = det.krattenthaler_sides(
            det.KrattenthalerInstance(x=(x1,), a=(), b=())
        )
        assert lhs == rhs == 1
        x2, a2, b2 = (rng.randint(-50, 50) for _ in range(3))
        lhs, rhs = det.krattenthaler_sides(
            det.KrattenthalerInstance(x=(x1, x2), a=(a2,), b=(b2,))
        )
        assert lhs == rhs == (x1 - x2) * (b2 - a2)


def test_lemma_random_instances():
    rng = random.Random(0)
    for _ in range(60):
        inst = det.random_krattenthaler(rng)
        assert len(inst.x) <= 6
        assert all(-50 <= v <= 50 for v in inst.x + inst.a + inst.b)
        lhs, rhs = det.krattenthaler_sides(inst)
        assert lhs == rhs


def _lemma_grid(n):
    """(points, failures) of the lemma over {0..n-1}^(3n-2) with distinct X.

    X in {0..n-1}^n with distinct entries is a permutation of 0..n-1.
    """
    points = failures = 0
    for x in itertools.permutations(range(n)):
        for ab in itertools.product(range(n), repeat=2 * n - 2):
            inst = det.KrattenthalerInstance(x, ab[: n - 1], ab[n - 1 :])
            lhs, rhs = det.krattenthaler_sides(inst)
            points += 1
            failures += lhs != rhs
    return points, failures


def test_lemma_is_proven_on_a_grid_for_n_up_to_three():
    """The lemma holds identically for n <= 3, not only at sampled points.

    For fixed n, det - product is a polynomial P in the 3n - 2 variables
    X_1..X_n, A_2..A_n, B_2..B_n, of degree at most n - 1 in each:
    entry (i, j) has n - 1 factors, each linear in X_i, and the
    determinant takes one entry per row; B_t sits in the n - t + 1
    columns j >= t and A_t in the t - 1 columns j < t, each linearly, and
    the determinant takes one entry per column.  The product side has the
    same degrees: X_i is in n - 1 differences, B_i in n - i + 1 and A_j in
    j - 1.  By Alon's Combinatorial Nullstellensatz, Lemma 2.1 (Combin.
    Probab. Comput. 8 (1999) 7-29), a polynomial whose degree in each
    variable is below n and which vanishes on {0, ..., n-1}^(3n-2) is
    zero.  At a point with two equal X_i both sides are 0 (two equal
    rows; a zero difference), so only the n! n^(2n-2) points with
    distinct X need evaluating: 1 + 8 + 486 = 495 for n <= 3, and
    98,304 at n = 4 (the slow test below).  n = 5 would need
    120 * 5^8, about 4.7e7 points, out of reach for a pure-Python test;
    from n = 5 on the lemma is only sampled, by the random instances.
    """
    assert [_lemma_grid(n) for n in (1, 2, 3)] == [(1, 0), (8, 0), (486, 0)]


@pytest.mark.slow
def test_lemma_is_proven_on_a_grid_at_n_four():
    """n = 4 by the grid argument of the n <= 3 test: 24 * 4^6 points."""
    assert _lemma_grid(4) == (98_304, 0)


def _krattenthaler_entrywise(inst):
    """The lemma matrix entry by entry, each an O(n) product."""
    n = len(inst.x)
    rows = []
    for xi in inst.x:
        row = []
        for j in range(1, n + 1):
            v = 1
            for t in range(2, j + 1):
                v *= xi + inst.b[t - 2]
            for t in range(j + 1, n + 1):
                v *= xi + inst.a[t - 2]
            row.append(v)
        rows.append(row)
    return rows


def _random_lemma_instance(rng, max_n):
    """A lemma instance drawn as random_krattenthaler draws one, with up to max_n variables."""
    n = rng.randint(1, max_n)
    x, a, b = ([rng.randint(-50, 50) for _ in range(k)] for k in (n, n - 1, n - 1))
    return det.KrattenthalerInstance(x=tuple(x), a=tuple(a), b=tuple(b))


@_PROPERTY
@given(st.integers(0, 2**32), st.integers(1, 8))
def test_krattenthaler_matrix_matches_entrywise_products(seed, max_n):
    inst = _random_lemma_instance(random.Random(seed), max_n)
    assert det.lemma_rows(inst.x, inst.a, inst.b) == _krattenthaler_entrywise(inst)


@_PROPERTY
@given(st.integers(1, 8), st.integers(1, 12), st.integers(1, 12))
def test_specialised_lemma_matrix_matches_entrywise_products(n, alpha, beta):
    inst = det.specialize_to_hankel(det.HankelSpec(alpha, beta, n))
    assert det.lemma_rows(inst.x, inst.a, inst.b) == _krattenthaler_entrywise(inst)


def test_specialization_fixtures():
    inst = det.specialize_to_hankel(det.HankelSpec(1, 1, 2))
    assert (inst.x, inst.b, inst.a) == ((1, 2), (0,), (1,))
    inst = det.specialize_to_hankel(det.HankelSpec(3, 2, 2))
    assert (inst.x, inst.b, inst.a) == ((1, 2), (2,), (4,))
    inst = det.specialize_to_hankel(det.HankelSpec(2, 3, 3))
    assert (inst.x, inst.b, inst.a) == ((1, 2, 3), (1, 2), (4, 5))


def test_specialization_reproduces_hankel_determinant():
    for n in range(1, 9):
        for alpha in range(1, 7):
            for beta in range(1, 7):
                spec = det.HankelSpec(alpha=alpha, beta=beta, n=n)
                lhs, rhs = det.krattenthaler_sides(det.specialize_to_hankel(spec))
                assert lhs == rhs
                assert Fraction(lhs) == det.hankel_det(spec) * witnesses.specialization_scale(
                    spec
                )


def test_specialized_lemma_sweep_equals_the_lemma_at_each_n():
    # One elimination of M_8 per (alpha, beta) against a fresh elimination
    # of each M_n and the lemma product of each instance.
    for alpha in range(1, 7):
        for beta in range(1, 7):
            sweep = det.specialized_lemma_sides(alpha, beta, 8)
            assert len(sweep) == 8
            for n, (lhs, rhs, num, den) in enumerate(sweep, 1):
                spec = det.HankelSpec(alpha=alpha, beta=beta, n=n)
                assert all(type(v) is int for v in (lhs, rhs, num, den))
                assert (lhs, rhs) == det.krattenthaler_sides(det.specialize_to_hankel(spec))
                assert Fraction(num, den) == witnesses.specialization_scale(spec)
            # A smaller sweep is the same prefix: each n's value is the block's.
            for big_n in range(1, 8):
                assert det.specialized_lemma_sides(alpha, beta, big_n) == sweep[:big_n]


def test_consecutive_sweep_equals_generalized_lhs_at_each_n():
    # The consecutive rows x_i = i-1, cleared, are the alpha = 2 lemma matrix,
    # so its sweep scaled back by den / num is the generalized lhs.
    for beta in range(1, 6):
        sweep = det.specialized_lemma_sides(2, beta, 6)
        assert len(sweep) == 6
        for n, (lhs, _, num, den) in enumerate(sweep, 1):
            assert type(lhs) is int
            spec = det.GeneralizedSpec(tuple(range(n)), beta)
            assert Fraction(lhs * den, num) == det.generalized_lhs(spec)
        for big_n in range(1, 6):
            assert det.specialized_lemma_sides(2, beta, big_n) == sweep[:big_n]


@pytest.mark.parametrize(
    "rows, fault",
    [
        # Zero first pivot; a row swap would give det -1.
        ([[0, 1], [1, 0]], "zero leading minor"),
        # Leading 2 x 2 block singular, the whole matrix not; the first
        # pivot, 12, is a multiple of the sweep's first row growth.
        ([[12, 12, 1], [12, 12, 2], [1, 2, 1]], "zero leading minor"),
        # Every pivot nonzero, but the first is not a multiple of its row growth.
        ([[1, 1], [1, 2]], "not divisible"),
    ],
)
def test_nested_sweeps_refuse_a_doctored_matrix(monkeypatch, rows, fault):
    # The sweep's first row growth at 1 <= k < N is at least 2, so a unit
    # first pivot leaves a remainder; a zero pivot must not become a minor.
    n = len(rows)
    monkeypatch.setattr(det, "lemma_rows", lambda x, a, b: [r[:] for r in rows])
    with pytest.raises(RuntimeError, match=fault):
        det.specialized_lemma_sides(1, 1, n)


# ----------------------------------------------------------------------
# lcm integrality inequalities
# ----------------------------------------------------------------------


def test_basic_integrality_fixtures():
    # Cutoff is alpha+beta+m-1 throughout, so at (1,1) and m = i + j = 2
    # the scale is lcm(1..3) = 6 and the scaled unit entry is 6.
    assert (lcm_upto(3), det.basic_integrality(1, 1, 2)) == (6, 6)
    assert (lcm_upto(4), det.basic_integrality(1, 2, 2)) == (12, 6)
    assert (lcm_upto(6), det.basic_integrality(2, 3, 2)) == (60, 5)
    assert type(det.basic_integrality(2, 3, 2)) is Fraction


def test_basic_integrality_grid():
    # Full 20/10 range runs in the acceptance gate.
    for alpha in range(1, 9):
        for beta in range(1, 9):
            for i in range(1, 7):
                for j in range(1, 7):
                    w = det.basic_integrality(alpha, beta, i + j)
                    assert w.denominator == 1
                    assert w >= 1


def test_basic_integrality_validation():
    for args in [(1, 1, 1), (0, 1, 2), (1, 0, 2)]:
        with pytest.raises(ValueError, match=r"^need alpha, beta >= 1 and m >= 2, got \("):
            det.basic_integrality(*args)


def test_improved_product_fixtures():
    assert det.improved_product(det.HankelSpec(1, 1, 1)) == 1
    assert det.improved_product(det.HankelSpec(1, 1, 2)) == 1
    assert det.improved_product(det.HankelSpec(2, 2, 2)) == 1
    assert det.improved_product(det.HankelSpec(1, 1, 3)) == 2


def test_improved_product_at_least_one_grid():
    for n in range(1, 9):
        for alpha in range(1, 9):
            for beta in range(1, 9):
                assert det.improved_product(det.HankelSpec(alpha, beta, n)) >= 1


def test_improved_product_non_lcm_factor_is_determinant():
    # Dropping the lcm factors must leave exactly the Hankel determinant.
    for n in range(1, 6):
        for alpha in range(1, 6):
            for beta in range(1, 6):
                spec = det.HankelSpec(alpha=alpha, beta=beta, n=n)
                bare = Fraction(1)
                for i in range(1, n + 1):
                    bare *= Fraction(
                        factorial(n - i) * factorial(beta + i - 2),
                        pochhammer(alpha + i - 1, beta + n - 1),
                    )
                assert bare == det.hankel_det(spec)


# ----------------------------------------------------------------------
# generalized (non-consecutive) index rows
# ----------------------------------------------------------------------


def _generalized_sides(xs, beta):
    spec = det.GeneralizedSpec(xs=xs, beta=beta)
    return det.generalized_lhs(spec), det.generalized_rhs(spec)


def test_generalized_fixtures():
    lhs, rhs = _generalized_sides((0,), 1)
    assert lhs == rhs == Fraction(1, 2)
    lhs, rhs = _generalized_sides((0, 1), 1)
    assert lhs == rhs == Fraction(1, 72)
    lhs, rhs = _generalized_sides((0, 2), 2)
    assert lhs == rhs


def test_generalized_sides_antisymmetric_in_row_order():
    a = _generalized_sides((0, 3, 7), 2)
    b = _generalized_sides((3, 0, 7), 2)
    assert a[0] == a[1] and b[0] == b[1]
    assert a[0] == -b[0] != 0


def test_generalized_identity_random():
    rng = random.Random(1)
    for _ in range(40):
        spec = det.random_generalized(rng)
        assert det.generalized_lhs(spec) == det.generalized_rhs(spec)


def test_generalized_inequality():
    assert det.generalized_inequality(det.GeneralizedSpec(xs=(0,), beta=1)) == 1
    assert det.generalized_inequality(det.GeneralizedSpec(xs=(0, 1), beta=1)) == 1
    assert det.generalized_inequality(det.GeneralizedSpec(xs=(0, 2), beta=1)) == 6
    rng = random.Random(2)
    for _ in range(40):
        spec = det.random_generalized(rng)
        assert det.generalized_inequality(spec) >= 1


def _generalized_inequality_oracle(spec):
    """Sorted-index determinant by naive elimination, times prod_i d_{x_i+beta+n}."""
    xs, b = sorted(spec.xs), spec.beta
    n = len(xs)
    rows = [
        [Fraction(factorial(b - 1), pochhammer(x + j + 1, b)) for j in range(1, n + 1)]
        for x in xs
    ]
    scale = math.prod(math.lcm(*range(1, x + b + n + 1)) for x in xs)
    return scale * witnesses.fraction_det_naive(rows)


def test_generalized_rhs_is_closed_form_side():
    rng = random.Random(6)
    for _ in range(60):
        spec = det.random_generalized(rng)
        assert det.generalized_rhs(spec) == det.generalized_lhs(spec)
        assert det.generalized_inequality(spec) == _generalized_inequality_oracle(spec)


def test_consecutive_indices_collapse_to_hankel():
    for n in range(1, 7):
        for beta in range(1, 6):
            lhs, rhs = _generalized_sides(tuple(range(n)), beta)
            assert lhs == rhs
            assert lhs == det.closed_form_det(det.HankelSpec(alpha=2, beta=beta, n=n))


# ----------------------------------------------------------------------
# integer kernels against the Fraction routes they replaced
# ----------------------------------------------------------------------


def _moment_matrix(spec):
    """The generalized matrix entry by entry, each a witness moment."""
    n = len(spec.xs)
    return [[witnesses.moment(x + j + 1, spec.beta) for j in range(1, n + 1)] for x in spec.xs]


def _factorial_ratio_rhs(spec):
    """generalized_rhs as a factorial ratio times the Vandermonde product."""
    xs, b, n = spec.xs, spec.beta, len(spec.xs)
    ratio = factorial_ratio([*range(b - 1, b + n - 1), *(x + 1 for x in xs)], [x + b + n for x in xs])
    return ratio * math.prod(xj - xi for i, xi in enumerate(xs) for xj in xs[i + 1 :])


def _krattenthaler_product(inst):
    """The lemma's closed form as a double loop over both products."""
    n, rhs = len(inst.x), 1
    for i in range(n):
        for j in range(i + 1, n):
            rhs *= inst.x[i] - inst.x[j]
    for i in range(2, n + 1):
        for j in range(i, n + 1):
            rhs *= inst.b[i - 2] - inst.a[j - 2]
    return rhs


def test_generalized_lhs_matches_fraction_elimination():
    rng = random.Random(17)
    specs = [det.random_generalized(rng) for _ in range(500)]
    specs += [det.GeneralizedSpec(xs=(0,), beta=3), det.GeneralizedSpec(xs=(9, 0, 4), beta=1)]
    assert sum(0 in s.xs for s in specs) >= 50
    assert sum(list(s.xs) != sorted(s.xs) for s in specs) >= 200
    for spec in specs:
        assert det.generalized_lhs(spec) == witnesses.fraction_det_naive(_moment_matrix(spec)), spec
        assert det.generalized_rhs(spec) == _factorial_ratio_rhs(spec), spec


@_PROPERTY
@given(st.lists(st.integers(0, 30), min_size=1, max_size=5, unique=True), st.integers(1, 6))
def test_generalized_identity_property(xs, beta):
    spec = det.GeneralizedSpec(xs=tuple(xs), beta=beta)
    lhs = det.generalized_lhs(spec)
    assert lhs == witnesses.fraction_det_naive(_moment_matrix(spec)) == det.generalized_rhs(spec)


def test_generalized_rows_are_scaled_beta_moments():
    # Lemma rows at X = x, B = 2..n, A = beta+2..beta+n, as generalized_lhs builds them.
    for n in range(1, 7):
        for beta in range(1, 7):
            rows = det.lemma_rows(range(31), range(beta + 2, beta + n + 1), range(2, n + 1))
            assert len(rows) == 31
            for x, row in enumerate(rows):
                scale = Fraction(pochhammer(x + 2, beta + n - 1), factorial(beta - 1))
                want = [witnesses.moment(x + j + 1, beta) * scale for j in range(1, n + 1)]
                assert all(type(v) is int for v in row)
                assert row == want, (x, beta, n)


@_PROPERTY
@given(st.lists(st.integers(0, 30), min_size=1, max_size=6, unique=True), st.integers(1, 6))
def test_generalized_lhs_is_the_scaled_lemma(xs, beta):
    # generalized_lhs = (lemma sides at X = xs, A = beta+2..beta+n, B = 2..n)
    # * (beta-1)!^n / prod_i (x_i+2)_{beta+n-1}, on both sides of the lemma.
    n = len(xs)
    inst = det.KrattenthalerInstance(
        x=tuple(xs), a=tuple(range(beta + 2, beta + n + 1)), b=tuple(range(2, n + 1))
    )
    lhs, rhs = det.krattenthaler_sides(inst)
    assert lhs == rhs
    scale = Fraction(factorial(beta - 1) ** n, math.prod(pochhammer(x + 2, beta + n - 1) for x in xs))
    assert det.generalized_lhs(det.GeneralizedSpec(xs=tuple(xs), beta=beta)) == lhs * scale == rhs * scale


def test_basic_integrality_is_lcm_times_beta_moment():
    for alpha, beta, i, j in itertools.product(range(1, 9), repeat=4):
        w = det.basic_integrality(alpha, beta, i + j)
        assert w == lcm_upto(alpha + beta + i + j - 1) * witnesses.moment(alpha + i + j - 2, beta)


def test_beta_moment_and_pochhammer_match_the_witness_moments():
    # (beta-1)!/(x)_beta, as beta_moment and through pochhammer, against
    # (x-1)!(beta-1)!/(x+beta-1)! from factorials alone.
    for x in range(1, 41):
        for beta in range(1, 41):
            want = witnesses.moment(x, beta)
            assert det.beta_moment(x, beta) == want, (x, beta)
            assert Fraction(factorial(beta - 1), pochhammer(x, beta)) == want, (x, beta)


@_PROPERTY
@given(st.lists(st.integers(-60, 60), min_size=1, max_size=8), st.data())
def test_krattenthaler_matrix_and_product_match_their_definitions(x, data):
    params = st.lists(st.integers(-60, 60), min_size=len(x) - 1, max_size=len(x) - 1)
    inst = det.KrattenthalerInstance(x=tuple(x), a=tuple(data.draw(params)), b=tuple(data.draw(params)))
    assert det.lemma_rows(inst.x, inst.a, inst.b) == _krattenthaler_entrywise(inst)
    lhs, rhs = det.krattenthaler_sides(inst)
    assert rhs == _krattenthaler_product(inst)
    assert lhs == rhs


# ----------------------------------------------------------------------
# Selberg product forms and the quadrature oracle
# ----------------------------------------------------------------------


def test_selberg_exact_fixtures():
    assert det.selberg_rhs_exact(det.SelbergSpec(1, 1, 1, 1)) == 1
    assert det.selberg_rhs_exact(det.SelbergSpec(1, 1, 1, 2)) == Fraction(1, 6)
    assert det.selberg_rhs_exact(det.SelbergSpec(1, 1, 2, 2)) == Fraction(1, 15)
    with pytest.raises(ValueError):
        det.selberg_rhs_exact(det.SelbergSpec(1.5, 1, 1, 2))


def test_selberg_float_tracks_exact():
    for n in (1, 2, 3):
        for gamma in (1, 2):
            for alpha in (1, 2, 4):
                for beta in (1, 3):
                    spec = det.SelbergSpec(alpha, beta, gamma, n)
                    want = det.selberg_rhs_exact(spec)
                    got = det.selberg_rhs(spec)
                    assert abs(got - want) <= 1e-10 * max(1.0, float(want))


def _selberg_pair(alpha, beta, n):
    """(n! det H, the Selberg product at gamma = 1), equal for every valid spec."""
    return (
        factorial(n) * det.hankel_det(det.HankelSpec(alpha, beta, n)),
        det.selberg_rhs_exact(det.SelbergSpec(alpha, beta, 1, n)),
    )


def test_selberg_gamma_one_matches_hankel_fixtures_and_grid():
    assert _selberg_pair(1, 1, 1) == (1, 1)
    assert _selberg_pair(1, 1, 2) == (Fraction(1, 6), Fraction(1, 6))
    lhs, rhs = _selberg_pair(2, 2, 2)
    assert lhs == rhs
    # Moderate grid; acceptance covers n <= 10, alpha, beta <= 8.
    for n in range(1, 7):
        for alpha in range(1, 6):
            for beta in range(1, 6):
                lhs, rhs = _selberg_pair(alpha, beta, n)
                assert lhs == rhs


def test_quadrature_oracle_fixtures():
    assert abs(det.quadrature_oracle(det.SelbergSpec(1, 1, 1, 1)) - 1.0) <= 1e-12
    assert abs(det.quadrature_oracle(det.SelbergSpec(1, 1, 1, 2)) - 1 / 6) <= 1e-8
    assert abs(det.quadrature_oracle(det.SelbergSpec(1, 1, 2, 2)) - 1 / 15) <= 1e-8
    spec = det.SelbergSpec(2, 1, 1, 2)
    assert abs(det.quadrature_oracle(spec) - det.selberg_rhs(spec)) <= 1e-8


def test_quadrature_oracle_integer_grid():
    for n in (1, 2):
        for gamma in (1, 2, 3):
            for alpha in (1, 2, 3, 4):
                for beta in (1, 2, 3, 4):
                    spec = det.SelbergSpec(alpha, beta, gamma, n)
                    exact_v = float(det.selberg_rhs_exact(spec))
                    assert abs(det.quadrature_oracle(spec) - exact_v) <= 1e-8 * max(
                        1.0, exact_v
                    )


def test_quadrature_oracle_real_parameters_sanity():
    # Non-polynomial integrand: only a loose agreement is promised.
    spec = det.SelbergSpec(1.5, 2.5, 1, 2)
    assert abs(det.quadrature_oracle(spec) - det.selberg_rhs(spec)) <= 1e-5


def _quadrature_formula(spec):
    """The quadrature as one per-spec expression, from a fresh rule."""
    a, b, g, n = spec.alpha, spec.beta, spec.gamma, spec.n
    k = max(24, int(math.ceil((a + b - 2 + 2 * g * (n - 1)) / 2)) + 2)
    t, w = np.polynomial.legendre.leggauss(k)
    x, w = (t + 1.0) / 2.0, w / 2.0
    fx = x ** (a - 1) * (1.0 - x) ** (b - 1)
    if n == 1:
        return float(np.dot(w, fx))
    diff = np.abs(x[:, None] - x[None, :]) ** (2 * g)
    return float(((fx * w)[:, None] * (fx * w)[None, :] * diff).sum())


def test_quadrature_oracle_is_the_per_spec_formula_bit_for_bit():
    # The per-rule tables give the same floats as the per-spec expression,
    # cold and warm, including a real (alpha, beta) and a rule above 24 nodes.
    specs = [
        det.SelbergSpec(alpha, beta, gamma, n)
        for n in (1, 2)
        for gamma in (1, 2, 3)
        for alpha in range(1, 7)
        for beta in range(1, 7)
    ] + [det.SelbergSpec(1.5, 2.5, 2, 2), det.SelbergSpec(40, 30, 3, 2)]
    det._node_powers.cache_clear()
    det._node_distances.cache_clear()
    for _ in range(2):
        for spec in specs:
            want = _quadrature_formula(spec)
            assert det.quadrature_oracle(spec).hex() == want.hex(), spec


def _no_rule(k):
    raise AssertionError(f"a {k}-node rule was built")


@pytest.mark.parametrize(
    "args, name, shown",
    [
        ((1e308, 1.0, 1, 1), "alpha", "1e+308"),
        ((1.0, 1e306, 3, 2), "beta", "1e+306"),
        ((1.0, 1.0, 10**40, 2), "gamma", "an integer of 41 digits"),
        ((1.0, 513, 1, 1), "beta", "513"),
    ],
)
def test_quadrature_oracle_refuses_a_huge_rule_before_building_it(monkeypatch, args, name, shown):
    # Let through, the node count overflowed an index ("cannot fit 'int'
    # into an index-sized integer") or asked for a rule past any memory.
    monkeypatch.setattr(det, "_unit_legendre", _no_rule)
    with pytest.raises(ValueError) as info:
        det.quadrature_oracle(det.SelbergSpec(*args))
    assert str(info.value) == f"quadrature oracle needs {name} <= 512, got {shown}"


def test_quadrature_oracle_reads_gamma_only_at_n_two():
    # At n = 1 the integrand has no |x - y| factor, so gamma sets no rule.
    spec = det.SelbergSpec(2, 3, 10**40, 1)
    assert det.quadrature_oracle(spec) == _quadrature_formula(det.SelbergSpec(2, 3, 1, 1))


@pytest.mark.parametrize(
    "args, shown",
    [
        ((1e308, 1.0, 1, 1), "(1e+308, 1.0, 1, 1)"),
        ((1.0, 1e306, 3, 2), "(1.0, 1e+306, 3, 2)"),
        ((1e-300, 1e-300, 1, 2), "(1e-300, 1e-300, 1, 2)"),
    ],
    ids=["lgamma_alpha", "lgamma_beta", "value"],
)
def test_selberg_rhs_refuses_a_float_overflow(args, shown):
    # lgamma of a huge argument, or exp of a value past the float range,
    # raised OverflowError "math range error".
    with pytest.raises(ValueError) as info:
        det.selberg_rhs(det.SelbergSpec(*args))
    assert str(info.value) == (
        f"selberg_rhs is past the float range at (alpha, beta, gamma, n) = {shown}"
    )


def test_quadrature_oracle_validation():
    with pytest.raises(ValueError):
        det.quadrature_oracle(det.SelbergSpec(1, 1, 1, 3))
    with pytest.raises(ValueError):
        det.quadrature_oracle(det.SelbergSpec(0.5, 1, 1, 2))
