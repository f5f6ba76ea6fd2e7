"""Exact determinant identities and lcm-scaled integrality inequalities.

Every identity is verified against an independent route: cofactor
expansion for small determinants, naive rational elimination against the
fraction-free path, direct beta-integral factorials for matrix entries,
and seeded random instances for the polynomial determinant lemma.
"""

import itertools
import math
import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_fraction_det_routes_agree_on_random_matrices():
    rng = random.Random(99)
    for n in range(1, 7):
        for _ in range(10):
            rows = [
                [Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(n)]
                for _ in range(n)
            ]
            got = det.fraction_det([r[:] for r in rows])
            want = det.fraction_det_naive([r[:] for r in rows])
            assert got == want
            if n <= 4:
                assert got == _cofactor_det(rows)


def test_fraction_det_routes_agree_on_moment_matrices():
    for n in range(1, 9):
        for alpha in range(1, 7):
            for beta in range(1, 7):
                m = det.hankel_matrix(det.HankelSpec(alpha=alpha, beta=beta, n=n))
                assert det.fraction_det([r[:] for r in m]) == det.fraction_det_naive(
                    [r[:] for r in m]
                )


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
    assert got == det.fraction_det_naive(rows)
    if kind != "free":
        assert got == 0
    n = len(rows)
    if n > 1:
        i, j = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        rows[i], rows[j] = rows[j], rows[i]
        assert det.bareiss_det(rows) == -got


@_PROPERTY
@given(
    st.sampled_from(["fraction", "int", "mixed"]).flatmap(
        lambda kind: _square(
            {
                "fraction": _FRACTIONS,
                "int": st.integers(-40, 40),
                "mixed": st.one_of(st.integers(-40, 40), _FRACTIONS),
            }[kind]
        )
    )
)
def test_fraction_det_matches_naive_elimination(rows):
    # Entries are read through numerator/denominator, never re-wrapped;
    # all-int and mixed rows check that ints take the same path.
    got = det.fraction_det(rows)
    assert type(got) is Fraction
    assert got == det.fraction_det_naive(rows)


# ----------------------------------------------------------------------
# Hankel moment determinant and closed form
# ----------------------------------------------------------------------


def test_hankel_entry_fixtures():
    assert det.hankel_entry(det.HankelSpec(1, 1, 1), 1, 1) == 1
    assert det.hankel_entry(det.HankelSpec(1, 1, 2), 1, 2) == Fraction(1, 2)
    assert det.hankel_entry(det.HankelSpec(1, 2, 1), 1, 1) == Fraction(1, 2)


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
                    assert det.hankel_entry(spec, i, j) == want


def test_hankel_matrix_equals_entrywise_definition():
    for n in range(1, 9):
        for alpha in range(1, 7):
            for beta in range(1, 7):
                spec = det.HankelSpec(alpha=alpha, beta=beta, n=n)
                want = [
                    [det.hankel_entry(spec, i, j) for j in range(1, n + 1)]
                    for i in range(1, n + 1)
                ]
                assert det.hankel_matrix(spec) == want


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
                assert det.hankel_det(spec) == _cofactor_det(det.hankel_matrix(spec))


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
                m = det.hankel_matrix(det.HankelSpec(alpha, beta, n))
                assert dets[n - 1] == _cofactor_det(m)


@pytest.mark.parametrize(
    "rows",
    [
        # Leading 2 x 2 block singular, the whole matrix not (det -3).
        [[1, 1, 2], [1, 1, 3], [2, 5, 1]],
        # Zero first pivot; a row swap would give det -1.
        [[0, 1], [1, 0]],
        [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1]],
    ],
)
def test_hankel_dets_refuse_a_zero_leading_minor(monkeypatch, rows):
    # Without row swaps the pivots are only minors while none is zero, so
    # a singular leading block must raise, not return a wrong minor.
    monkeypatch.setattr(det, "hankel_matrix", lambda spec: [r[:] for r in rows])
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


@_PROPERTY
@given(st.integers(0, 2**32), st.integers(1, 8))
def test_krattenthaler_matrix_matches_entrywise_products(seed, max_n):
    inst = det.random_krattenthaler(random.Random(seed), max_n=max_n)
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
                assert Fraction(lhs) == det.hankel_det(spec) * det.specialization_scale(
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
                assert Fraction(num, den) == det.specialization_scale(spec)
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
        ([[0, 1], [1, 0]], "zero minor"),
        # Leading 2 x 2 block singular, the whole matrix not; the first
        # pivot, 12, is a multiple of the sweep's first row growth.
        ([[12, 12, 1], [12, 12, 2], [1, 2, 1]], "zero minor"),
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
    # Cutoff is alpha+beta+i+j-1 throughout, so at (1,1,1,1) the scale is
    # lcm(1..3) = 6 and the scaled unit entry is 6.
    assert (lcm_upto(3), det.basic_integrality(1, 1, 1, 1)) == (6, 6)
    assert (lcm_upto(4), det.basic_integrality(1, 2, 1, 1)) == (12, 6)
    assert (lcm_upto(6), det.basic_integrality(2, 3, 1, 1)) == (60, 5)
    assert type(det.basic_integrality(2, 3, 1, 1)) is Fraction


def test_basic_integrality_grid():
    # Full 20/10 range runs in the acceptance gate.
    for alpha in range(1, 9):
        for beta in range(1, 9):
            for i in range(1, 7):
                for j in range(1, 7):
                    w = det.basic_integrality(alpha, beta, i, j)
                    assert w.denominator == 1
                    assert w >= 1


def test_basic_integrality_validation():
    with pytest.raises(ValueError):
        det.basic_integrality(1, 1, 0, 1)


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


def test_generalized_fixtures():
    lhs, rhs = det.generalized_sides(det.GeneralizedSpec(xs=(0,), beta=1))
    assert lhs == rhs == Fraction(1, 2)
    lhs, rhs = det.generalized_sides(det.GeneralizedSpec(xs=(0, 1), beta=1))
    assert lhs == rhs == Fraction(1, 72)
    lhs, rhs = det.generalized_sides(det.GeneralizedSpec(xs=(0, 2), beta=2))
    assert lhs == rhs


def test_generalized_sides_antisymmetric_in_row_order():
    a = det.generalized_sides(det.GeneralizedSpec(xs=(0, 3, 7), beta=2))
    b = det.generalized_sides(det.GeneralizedSpec(xs=(3, 0, 7), beta=2))
    assert a[0] == a[1] and b[0] == b[1]
    assert a[0] == -b[0] != 0


def test_generalized_identity_random():
    rng = random.Random(1)
    for _ in range(40):
        spec = det.random_generalized(rng)
        lhs, rhs = det.generalized_sides(spec)
        assert lhs == rhs


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
    return scale * det.fraction_det_naive(rows)


def test_generalized_rhs_is_closed_form_side():
    rng = random.Random(6)
    for _ in range(60):
        spec = det.random_generalized(rng)
        lhs, rhs = det.generalized_sides(spec)
        assert det.generalized_rhs(spec) == rhs == lhs
        assert det.generalized_inequality(spec) == _generalized_inequality_oracle(spec)


def test_consecutive_indices_collapse_to_hankel():
    for n in range(1, 7):
        for beta in range(1, 6):
            lhs, rhs = det.generalized_sides(det.GeneralizedSpec(tuple(range(n)), beta))
            assert lhs == rhs
            assert lhs == det.closed_form_det(det.HankelSpec(alpha=2, beta=beta, n=n))


# ----------------------------------------------------------------------
# integer kernels against the Fraction routes they replaced
# ----------------------------------------------------------------------


def _beta_moment_matrix(spec):
    """The generalized matrix entry by entry, each a beta_moment Fraction."""
    n = len(spec.xs)
    return [[det.beta_moment(x + j + 1, spec.beta) for j in range(1, n + 1)] for x in spec.xs]


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
        assert det.generalized_lhs(spec) == det.fraction_det(_beta_moment_matrix(spec)), spec
        assert det.generalized_rhs(spec) == _factorial_ratio_rhs(spec), spec


@_PROPERTY
@given(st.lists(st.integers(0, 30), min_size=1, max_size=5, unique=True), st.integers(1, 6))
def test_generalized_identity_property(xs, beta):
    spec = det.GeneralizedSpec(xs=tuple(xs), beta=beta)
    lhs = det.generalized_lhs(spec)
    assert lhs == det.fraction_det(_beta_moment_matrix(spec)) == det.generalized_rhs(spec)


def test_generalized_rows_are_scaled_beta_moments():
    # Lemma rows at X = x, B = 2..n, A = beta+2..beta+n, as generalized_lhs builds them.
    for n in range(1, 7):
        for beta in range(1, 7):
            rows = det.lemma_rows(range(31), range(beta + 2, beta + n + 1), range(2, n + 1))
            assert len(rows) == 31
            for x, row in enumerate(rows):
                scale = Fraction(pochhammer(x + 2, beta + n - 1), factorial(beta - 1))
                want = [det.beta_moment(x + j + 1, beta) * scale for j in range(1, n + 1)]
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
        w = det.basic_integrality(alpha, beta, i, j)
        assert w == lcm_upto(alpha + beta + i + j - 1) * det.beta_moment(alpha + i + j - 2, beta)


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


def test_selberg_vs_det_fixtures_and_grid():
    assert det.selberg_vs_det(det.HankelSpec(1, 1, 1)) == (1, 1)
    pair = det.selberg_vs_det(det.HankelSpec(1, 1, 2))
    assert pair == (Fraction(1, 6), Fraction(1, 6))
    lhs, rhs = det.selberg_vs_det(det.HankelSpec(2, 2, 2))
    assert lhs == rhs
    # Moderate grid; acceptance covers n <= 10, alpha, beta <= 8.
    for n in range(1, 7):
        for alpha in range(1, 6):
            for beta in range(1, 6):
                lhs, rhs = det.selberg_vs_det(det.HankelSpec(alpha, beta, n))
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


def test_quadrature_oracle_validation():
    with pytest.raises(ValueError):
        det.quadrature_oracle(det.SelbergSpec(1, 1, 1, 3))
    with pytest.raises(ValueError):
        det.quadrature_oracle(det.SelbergSpec(0.5, 1, 1, 2))
