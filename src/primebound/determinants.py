"""Hankel beta-moment determinants, a two-sided determinant lemma, and
lcm integrality inequalities — all exact.

The objects
-----------
For integers alpha, beta >= 1 the Hankel matrix of interest has entries

    H[i][j] = (beta-1)! / (alpha+i+j-2)_beta
            = B(alpha+i+j-2, beta)          (a beta-function moment),

for 1 <= i, j <= n, with (x)_k the rising factorial.  Its determinant has
the closed form

    det H = prod_{j=0}^{n-1} (alpha+j-1)! (beta+j-1)! j! / (alpha+beta+n+j-2)!

This module verifies that identity literally (exact rational elimination
against the exact product), derives it a second way through a polynomial
determinant lemma, generalises the row indices from consecutive integers
to arbitrary ones, and attaches the lcm inequalities that turn these
determinants into prime-counting information:

* every entry times d_{alpha+beta+i+j-1} is a positive integer, where
  d_m = lcm(1..m) — because the entry is an integral of x^(a-1)(1-x)^(b-1)
  expanded by partial fractions with denominators below the lcm cutoff;
* a sharper product form bounds det H itself:
      prod_{i=1}^{n} d_{alpha+beta+n+i-3} (n-i)! (beta+i-2)! / (alpha+i-1)_{beta+n-1}  >= 1,
  whose non-lcm part is exactly det H (reindex the factorials to see it).

The determinant lemma
---------------------
For variables X_1..X_n and parameters A_2..A_n, B_2..B_n,

    det( (X_i+B_2)...(X_i+B_j) * (X_i+A_{j+1})...(X_i+A_n) )_{i,j=1..n}
        = prod_{1<=i<j<=n} (X_i - X_j) * prod_{2<=i<=j<=n} (B_i - A_j).

Both sides are integers for integer inputs, so the identity is checked on
seeded random integer instances plus the fully expanded n in {1, 2} cases.
Specialising X_i = i, B_i = alpha+i-3, A_i = alpha+beta+i-3 recovers the
Hankel determinant up to the explicit row-scaling

    det M = det H * prod_{i=1}^{n} (alpha+i-1)_{beta+n-1} / (beta-1)!^n .

Selberg cross-check
-------------------
The n-dimensional Selberg integral with positive-integer parameters is a
ratio of factorials; at gamma = 1 it matches n! * det H, and for n <= 2
it is also computed by direct Gauss-Legendre quadrature, tying the exact
algebra back to actual integrals.

Exact linear algebra
--------------------
Integer determinants use fraction-free Bareiss elimination (intermediate
entries are minors, divisions are exact), one loop shared by every
determinant here.  Run without row swaps, the k-th Bareiss pivot is the
k-th leading principal minor (Sylvester's identity), and H_n is the
leading block of H_max_n, so one elimination per (alpha, beta) gives
det H for every n up to max_n; its moments (beta-1)!/(x)_beta come from
:func:`beta_moment`, 2n-1 distinct ones per matrix, each row cleared to
integers over the lcm of its denominators.  A generalized matrix is
built already cleared: row x times (x+2)_{beta+n-1}/(beta-1)! is the
lemma row at X = x, B_t = t, A_t = t+beta, with integer entries
(x+2)_{j-1} (x+j+beta+1)_{n-j}, so :func:`lemma_rows`, the one builder
of lemma matrices (one prefix and one suffix product per row), builds it
too.  An entry is never a Fraction there, and each value (a determinant,
a closed form, an lcm-scaled entry) is one Fraction, reduced once.  The
specialised lemma matrices are nested too, up to a row scaling: the
suffix product of a row at size N has N-n more factors than at size n,
so the leading n x n block of the size-N matrix is the size-n matrix
with row i times (i+alpha+beta+n-2)_{N-n}.  One elimination per
(alpha, beta) gives every n, each pivot divided exactly by its rows'
scalings (:func:`specialized_lemma_sides`).  The consecutive-index rows
x = 0..n-1 are that matrix at alpha = 2, entry for entry, so the same
sweep serves them.  No pivot is zero, because no lemma product is for
beta >= 1; a zero pivot or a remainder is refused as a fault.
:func:`fraction_det` (a matrix of ints and Fractions, cleared row by
row) and a naive Fraction Gaussian elimination are kept as independent
cross-checks, not as fast paths.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exact import _shown, factorial_ratio, pochhammer
from .primes import lcm_upto

# ----------------------------------------------------------------------
# specs
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class HankelSpec:
    """Parameters (alpha, beta, n) of one Hankel beta-moment matrix."""

    alpha: int
    beta: int
    n: int

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "n"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 1:
                raise ValueError(f"HankelSpec.{name} must be an integer >= 1, got {_shown(v)}")


@dataclass(frozen=True)
class KrattenthalerInstance:
    """One instance (X_1..X_n; A_2..A_n; B_2..B_n) of the determinant lemma.

    ``a[t]`` holds A_{t+2} and ``b[t]`` holds B_{t+2} (the parameter
    subscripts start at 2 in the identity).
    """

    x: tuple[int, ...]
    a: tuple[int, ...]
    b: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.x)
        if n < 1:
            raise ValueError("KrattenthalerInstance needs at least one variable")
        if len(self.a) != n - 1 or len(self.b) != n - 1:
            raise ValueError(
                f"need len(a) == len(b) == len(x)-1 == {n - 1}, "
                f"got {len(self.a)} and {len(self.b)}"
            )


@dataclass(frozen=True)
class GeneralizedSpec:
    """Row indices x_1..x_n (distinct integers >= 0) and a column shift beta."""

    xs: tuple[int, ...]
    beta: int

    def __post_init__(self) -> None:
        if len(self.xs) < 1:
            raise ValueError("GeneralizedSpec needs at least one index")
        if any((not isinstance(v, int)) or v < 0 for v in self.xs):
            raise ValueError(f"indices must be integers >= 0, got {_shown(self.xs)}")
        if len(set(self.xs)) != len(self.xs):
            raise ValueError(f"indices must be distinct, got {_shown(self.xs)}")
        if not isinstance(self.beta, int) or self.beta < 1:
            raise ValueError(f"beta must be an integer >= 1, got {_shown(self.beta)}")


@dataclass(frozen=True)
class SelbergSpec:
    """Parameters (alpha, beta, gamma, n) of the n-dimensional Selberg integral.

    alpha and beta may be any finite positive reals; gamma and n must be
    positive integers (the only regime the closed product needs here).
    """

    alpha: float
    beta: float
    gamma: int
    n: int

    def __post_init__(self) -> None:
        if not (0 < self.alpha < math.inf and 0 < self.beta < math.inf):
            raise ValueError(
                f"SelbergSpec needs finite alpha, beta > 0, got {_shown((self.alpha, self.beta))}"
            )
        for name in ("gamma", "n"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 1:
                raise ValueError(f"SelbergSpec.{name} must be an integer >= 1, got {_shown(v)}")


# ----------------------------------------------------------------------
# exact determinants
# ----------------------------------------------------------------------


def _bareiss_pivots(m: list[list[int]], swap: bool) -> Iterator[int]:
    """Eliminate the integer matrix ``m`` in place, yielding each pivot.

    Bareiss elimination: every intermediate entry is a minor of the input
    (so sizes stay polynomial) and every division is exact.  Without row
    swaps the k-th pivot is the k-th leading principal minor (Sylvester's
    identity), so the last is the determinant.  With ``swap`` a zero pivot
    trades places with a lower row and the pivots yielded carry the sign
    of the swaps so far.  A zero pivot left in place is yielded last.
    """
    n = len(m)
    sign = prev = 1
    for k in range(n):
        if m[k][k] == 0 and swap:
            r = next((r for r in range(k + 1, n) if m[r][k] != 0), k)
            if r != k:
                m[k], m[r], sign = m[r], m[k], -sign
        row_k = m[k]
        pivot = row_k[k]
        yield sign * pivot
        if pivot == 0:
            return
        cols = range(k + 1, n)
        for row_i in m[k + 1 :]:
            mik = row_i[k]
            for j in cols:
                row_i[j] = (row_i[j] * pivot - mik * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot


def _clear_rows(rows: list[list[Fraction | int]]) -> tuple[list[list[int]], list[int]]:
    """Each row times the lcm of its denominators: (integer rows, the lcms).

    Entries are read through ``numerator`` and ``denominator``, which ints
    have too, so no entry is converted.
    """
    scales = [math.lcm(*(v.denominator for v in row)) for row in rows]
    cleared = [[v.numerator * (s // v.denominator) for v in row] for row, s in zip(rows, scales)]
    return cleared, scales


def bareiss_det(rows: list[list[int]]) -> int:
    """Exact determinant of a square integer matrix, fraction-free.

    The last pivot of :func:`_bareiss_pivots`, with row swaps on zero
    pivots (each flips the sign, and the division property is kept).
    """
    n = len(rows)
    if n == 0 or {*map(len, rows)} != {n}:
        raise ValueError("bareiss_det requires a nonempty square matrix")
    return [*_bareiss_pivots([*map(list, rows)], swap=True)][-1]


def fraction_det(rows: list[list[Fraction | int]]) -> Fraction:
    """Exact determinant of a matrix of ints and Fractions, in any mix.

    Each row is cleared to integers over the lcm of its denominators
    (:func:`_clear_rows`) and the integer matrix goes to
    :func:`bareiss_det`.
    """
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        raise ValueError("fraction_det requires a nonempty square matrix")
    cleared, scales = _clear_rows(rows)
    return Fraction(bareiss_det(cleared), math.prod(scales))


def fraction_det_naive(rows: list[list[Fraction]]) -> Fraction:
    """Plain Gaussian elimination over Fraction with partial pivoting.

    Slower and structurally unrelated to :func:`fraction_det`; exists as
    an independent witness that the fast path eliminates correctly.
    """
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        raise ValueError("fraction_det_naive requires a nonempty square matrix")
    m = [[Fraction(v) for v in row] for row in rows]
    det = Fraction(1)
    for k in range(n):
        pivot_row = next((r for r in range(k, n) if m[r][k] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != k:
            m[k], m[pivot_row] = m[pivot_row], m[k]
            det = -det
        det *= m[k][k]
        inv = 1 / m[k][k]
        for r in range(k + 1, n):
            if m[r][k]:
                factor = m[r][k] * inv
                m[r] = [a - factor * b for a, b in zip(m[r], m[k])]
    return det


# ----------------------------------------------------------------------
# Hankel beta-moment matrices
# ----------------------------------------------------------------------


def beta_moment(x: int, beta: int) -> Fraction:
    """(beta-1)! / (x)_beta = B(x, beta), the moment behind every entry here."""
    return Fraction(math.factorial(beta - 1), pochhammer(x, beta))


def hankel_entry(spec: HankelSpec, i: int, j: int) -> Fraction:
    """Entry (beta-1)! / (alpha+i+j-2)_beta at position (i, j), 1-based."""
    if not (1 <= i <= spec.n and 1 <= j <= spec.n):
        raise ValueError(f"entry index {_shown((i, j))} outside 1..{spec.n}")
    return beta_moment(spec.alpha + i + j - 2, spec.beta)


def hankel_matrix(spec: HankelSpec) -> list[list[Fraction]]:
    """The n x n moment matrix, built from its 2n-1 distinct entries.

    Entry (i, j) depends on i+j only, so with the moments
    m_k = (beta-1)! / (alpha+k)_beta, k < 2n-1, row i (0-based) is
    m_i .. m_{i+n-1}.  :func:`hankel_entry` is the per-entry definition.
    """
    n = spec.n
    moments = [beta_moment(spec.alpha + k, spec.beta) for k in range(2 * n - 1)]
    return [moments[i : i + n] for i in range(n)]


def hankel_dets(alpha: int, beta: int, max_n: int) -> list[Fraction]:
    """det H for n = 1..max_n at one (alpha, beta), from one elimination.

    H_n is the leading n x n block of H_max_n, and a moment matrix of a
    positive measure is positive definite, so Bareiss runs without row
    swaps and its k-th pivot over the first k row lcms is det H_k.
    """
    rows, scales = _clear_rows(hankel_matrix(HankelSpec(alpha, beta, max_n)))
    dets, den = [], 1
    for pivot, scale in zip(_bareiss_pivots(rows, swap=False), scales):
        if pivot == 0:
            raise RuntimeError(
                "Hankel beta-moment matrix has a zero leading minor; "
                "this cannot happen for valid parameters and signals a fault"
            )
        den *= scale
        dets.append(Fraction(pivot, den))
    return dets


def hankel_det(spec: HankelSpec) -> Fraction:
    """det of the Hankel beta-moment matrix: the last of :func:`hankel_dets`."""
    return hankel_dets(spec.alpha, spec.beta, spec.n)[-1]


def closed_form_det(spec: HankelSpec) -> Fraction:
    """The factorial product form of the same determinant."""
    a, b, n = spec.alpha, spec.beta, spec.n
    return factorial_ratio(
        [*range(a - 1, a + n - 1), *range(b - 1, b + n - 1), *range(n)],
        range(a + b + n - 2, a + b + 2 * n - 2),
    )


def partial_fraction_sum(alpha: int, beta: int, m: int) -> Fraction:
    """sum_k (-1)^k C(beta-1, k) / (alpha+m+k-2)  ==  the (i+j=m) Hankel entry.

    This is the beta-moment integral expanded by partial fractions; every
    denominator is at most alpha+beta+m-3, which is what powers the lcm
    integrality inequality.
    """
    if alpha < 1 or beta < 1 or m < 2:
        raise ValueError(f"need alpha, beta >= 1 and m >= 2, got {_shown((alpha, beta, m))}")
    lo = alpha + m - 2
    scale = math.lcm(*range(lo, lo + beta))
    total = 0
    for k in range(beta):
        term = math.comb(beta - 1, k) * (scale // (lo + k))
        total += -term if k & 1 else term
    return Fraction(total, scale)


# ----------------------------------------------------------------------
# determinant lemma and its Hankel specialisation
# ----------------------------------------------------------------------


def lemma_rows(x: Iterable[int], a: Sequence[int], b: Iterable[int]) -> list[list[int]]:
    """The lemma matrix at X = ``x``, A_{t+2} = ``a[t]``, B_{t+2} = ``b[t]``, unvalidated.

    Entry (i, j) is prod_{t=2}^{j} (X_i+B_t) * prod_{t=j+1}^{n} (X_i+A_t).
    Row i is the prefix products of X_i+B_t, each times the matching
    suffix product of X_i+A_t, so a row costs O(n) multiplications, not
    O(n^2).
    """
    # The suffix is multiplied in place: a second accumulate, reversed and
    # zipped with the first, measured about 1.5x slower at these n <= 8.
    rows = []
    for xi in x:
        row = [*itertools.accumulate(map(xi.__add__, b), operator.mul, initial=1)]
        suffix, j = 1, len(a)
        for at in reversed(a):
            j -= 1
            suffix *= xi + at
            row[j] *= suffix
        rows.append(row)
    return rows


def krattenthaler_sides(inst: KrattenthalerInstance) -> tuple[int, int]:
    """(determinant, closed-form product) for one lemma instance; equal iff it holds.

    The product is prod_{i<j} (X_i - X_j) times prod over 2 <= i <= j <= n
    of (B_i - A_j).
    """
    vandermonde = math.prod(itertools.starmap(operator.sub, itertools.combinations(inst.x, 2)))
    return bareiss_det(lemma_rows(inst.x, inst.a, inst.b)), vandermonde * math.prod(
        bi - aj for i, bi in enumerate(inst.b) for aj in inst.a[i:]
    )


def random_krattenthaler(rng: random.Random, max_n: int = 6, bound: int = 50) -> KrattenthalerInstance:
    """A seeded random lemma instance with 1 <= n <= max_n, values in [-bound, bound]."""
    n = rng.randint(1, max_n)
    x = tuple(rng.randint(-bound, bound) for _ in range(n))
    a = tuple(rng.randint(-bound, bound) for _ in range(n - 1))
    b = tuple(rng.randint(-bound, bound) for _ in range(n - 1))
    return KrattenthalerInstance(x=x, a=a, b=b)


def specialize_to_hankel(spec: HankelSpec) -> KrattenthalerInstance:
    """The substitution X_i = i, B_i = alpha+i-3, A_i = alpha+beta+i-3."""
    alpha, n = spec.alpha, spec.n
    shift = alpha + spec.beta
    return KrattenthalerInstance(
        x=tuple(range(1, n + 1)),
        b=tuple(range(alpha - 1, alpha + n - 2)),
        a=tuple(range(shift - 1, shift + n - 2)),
    )


def specialization_scale(spec: HankelSpec) -> Fraction:
    """det(specialised lemma matrix) / det(Hankel matrix), as an exact ratio.

    Row i of the Hankel matrix times (alpha+i-1)_{beta+n-1} / (beta-1)!
    is row i of the specialised polynomial matrix, hence the factor; with
    (x)_k = (x+k-1)! / (x-1)! it is one factorial ratio.
    """
    a, b, n = spec.alpha, spec.beta, spec.n
    return factorial_ratio(
        range(a + b + n - 2, a + b + 2 * n - 2), [*range(a - 1, a + n - 1), *[b - 1] * n]
    )


def specialized_lemma_sides(alpha: int, beta: int, max_n: int) -> list[tuple[int, int, int, int]]:
    """For n = 1..max_n: (det M_n, the lemma product, prod_i (alpha+i-1)_{beta+n-1}, (beta-1)!^n).

    M_n is the lemma matrix specialised as in :func:`specialize_to_hankel`;
    the last two values are the numerator and denominator of
    :func:`specialization_scale`.  Growing M_n to M_{n+1} multiplies every
    entry of row i by X_i + A_{n+1}, so the leading n x n block of
    M_max_n is M_n with row i times (i+alpha+beta+n-2)_{max_n-n}, and one
    elimination without row swaps gives every det M_n: its n-th pivot is
    that block's determinant (Sylvester's identity), divided exactly by
    the n row growths.  The lemma product is nonzero for beta >= 1 (each
    B_i - A_j = i-j-beta < 0), so a zero pivot or a remainder raises
    ``RuntimeError`` as a fault.  The product comes from the closed form,
    factor by factor, not from the elimination.
    """
    inst = specialize_to_hankel(HankelSpec(alpha, beta, max_n))
    rows = lemma_rows(inst.x, inst.a, inst.b)
    sides, rhs, fact = [], 1, math.factorial(beta - 1)
    for n, pivot in enumerate(_bareiss_pivots(rows, swap=False), 1):
        growth = math.prod(pochhammer(i + alpha + beta + n - 1, max_n - n) for i in range(n))
        d, r = divmod(pivot, growth)
        if pivot == 0 or r:
            raise RuntimeError(
                f"leading {n} x {n} block of the specialised lemma matrix has "
                f"{'a zero minor' if pivot == 0 else 'a minor not divisible by its row growth'}; "
                "this cannot happen for valid parameters and signals a fault"
            )
        # X_i - X_n for i < n, and B_i - A_n for 2 <= i <= n.
        rhs *= math.prod(range(1 - n, 0)) * math.prod(range(2 - n - beta, -beta + 1))
        scale = math.prod(pochhammer(alpha + i, beta + n - 1) for i in range(n))
        sides.append((d, rhs, scale, fact**n))
    return sides


# ----------------------------------------------------------------------
# lcm integrality inequalities
# ----------------------------------------------------------------------


def basic_integrality(alpha: int, beta: int, i: int, j: int) -> Fraction:
    """The (i, j) entry times d_{alpha+beta+i+j-1}; the result is a positive integer.

    That is d * (beta-1)! / (alpha+i+j-2)_beta, as one Fraction.  Wasteful
    on purpose: the partial-fraction denominators only reach
    alpha+beta+i+j-3, so the lcm cutoff has two spare indices.  The
    sharper per-row inequality is :func:`improved_product`.
    """
    if min(alpha, beta, i, j) < 1:
        raise ValueError(f"all of alpha, beta, i, j must be >= 1, got {_shown((alpha, beta, i, j))}")
    d = lcm_upto(alpha + beta + i + j - 1)
    return Fraction(d * math.factorial(beta - 1), pochhammer(alpha + i + j - 2, beta))


def improved_product(spec: HankelSpec) -> Fraction:
    """prod_i d_{alpha+beta+n+i-3} (n-i)! (beta+i-2)! / (alpha+i-1)_{beta+n-1}.

    Always >= 1; equals 1 exactly at the degenerate corners (e.g. alpha =
    beta = 1 with n <= 2).  Reindexed, the non-lcm factor is det H, the
    determinant-level integrality statement.  It is computed row by row as
    written, one integer over one product of Pochhammer symbols, reduced
    once; the row factorials are smaller than :func:`closed_form_det`'s.
    """
    a, b, n = spec.alpha, spec.beta, spec.n
    rows = range(1, n + 1)
    top = math.prod(
        lcm_upto(a + b + n + i - 3) * math.factorial(n - i) * math.factorial(b + i - 2)
        for i in rows
    )
    return Fraction(top, math.prod(pochhammer(a + i - 1, b + n - 1) for i in rows))


def generalized_sides(spec: GeneralizedSpec) -> tuple[Fraction, Fraction]:
    """Both sides of the non-consecutive-index determinant identity.

    lhs = det( (beta-1)! / (x_i+j+1)_beta )_{i,j=1..n}, by elimination
    (:func:`generalized_lhs`); rhs = :func:`generalized_rhs`, the closed form.
    """
    return generalized_lhs(spec), generalized_rhs(spec)


def generalized_lhs(spec: GeneralizedSpec) -> Fraction:
    """det( (beta-1)! / (x_i+j+1)_beta )_{i,j=1..n}, by one integer elimination.

    Row i, times its scale (x_i+2)_{beta+n-1} / (beta-1)!, is the lemma
    row at X = x_i, B = 2..n, A = beta+2..beta+n (:func:`lemma_rows`);
    the determinant of those integer rows over the product of the scales
    is the only Fraction.
    """
    xs, b = spec.xs, spec.beta
    n = len(xs)
    scales = math.prod(pochhammer(x + 2, b + n - 1) for x in xs)
    rows = lemma_rows(xs, range(b + 2, b + n + 1), range(2, n + 1))
    return Fraction(bareiss_det(rows) * math.factorial(b - 1) ** n, scales)


def generalized_rhs(spec: GeneralizedSpec) -> Fraction:
    """Closed form of the generalized determinant, with no elimination:

        [ (beta-1)! (beta)! ... (beta+n-2)! / prod_i (x_i+2)_{beta+n-1} ]
            * prod_{i<j} (x_j - x_i).

    The Vandermonde factor follows the *input* order of the indices, so
    the sign flips under row exchange exactly as a determinant should.
    With (x+2)_{beta+n-1} = (x+beta+n)! / (x+1)!, the value is one
    Fraction over factorials, the Vandermonde product in its numerator.
    """
    xs, b = spec.xs, spec.beta
    n = len(xs)
    top = math.prod(map(math.factorial, [*range(b - 1, b + n - 1), *(x + 1 for x in xs)]))
    vandermonde = math.prod(xj - xi for xi, xj in itertools.combinations(xs, 2))
    return Fraction(top * vandermonde, math.prod(math.factorial(x + b + n) for x in xs))


def generalized_inequality(spec: GeneralizedSpec) -> Fraction:
    """|rhs of the generalized identity| times prod_i d_{x_i+beta+n}; always >= 1.

    Sorting the indices ascending would make the Vandermonde factor
    positive, and only its sign depends on their order, so the absolute
    value is that sorted rhs.
    """
    n = len(spec.xs)
    return abs(generalized_rhs(spec)) * math.prod(lcm_upto(x + spec.beta + n) for x in spec.xs)


def random_generalized(
    rng: random.Random, max_n: int = 6, max_beta: int = 5, max_index: int = 30
) -> GeneralizedSpec:
    """A seeded random index set (distinct, >= 0) and shift beta."""
    n = rng.randint(1, max_n)
    xs = tuple(rng.sample(range(max_index + 1), n))
    return GeneralizedSpec(xs=xs, beta=rng.randint(1, max_beta))


# ----------------------------------------------------------------------
# Selberg integral: closed form, float form, quadrature oracle
# ----------------------------------------------------------------------


def selberg_rhs_exact(spec: SelbergSpec) -> Fraction:
    """The Selberg product for positive-integer parameters, as a Fraction.

    prod_{j=0}^{n-1} Gamma(a+j g) Gamma(b+j g) Gamma(1+(j+1) g)
                     / ( Gamma(a+b+(n+j-1) g) Gamma(1+g) )
    with every Gamma(k) = (k-1)! exact.  Requires integer alpha, beta.
    """
    if spec.alpha != int(spec.alpha) or spec.beta != int(spec.beta):
        raise ValueError(
            "selberg_rhs_exact needs integer alpha and beta; "
            "use selberg_rhs for real parameters"
        )
    a, b, g, n = int(spec.alpha), int(spec.beta), spec.gamma, spec.n
    top = a + b + (n - 1) * g - 1
    return factorial_ratio(
        [*range(a - 1, a + n * g - 1, g), *range(b - 1, b + n * g - 1, g), *range(g, g + n * g, g)],
        [*range(top, top + n * g, g), *[g] * n],
    )


def selberg_rhs(spec: SelbergSpec) -> float:
    """Float Selberg product: exp of a ``math.fsum`` of lgammas; ~1e-13 relative error."""
    a, b, g, n = spec.alpha, spec.beta, spec.gamma, spec.n
    terms = []
    for j in range(n):
        terms += (
            math.lgamma(a + j * g),
            math.lgamma(b + j * g),
            math.lgamma(1 + (j + 1) * g),
            -math.lgamma(a + b + (n + j - 1) * g),
            -math.lgamma(1 + g),
        )
    return math.exp(math.fsum(terms))


def selberg_vs_det(spec: HankelSpec) -> tuple[Fraction, Fraction]:
    """(n! * det H, Selberg product at gamma = 1) — equal for all valid specs.

    At gamma = 1 the symmetrised Selberg integrand is the squared
    Vandermonde beta-moment, which is n! times the Hankel determinant.
    det H comes from :func:`hankel_det`, one elimination of this spec; a
    sweep over n takes every det H of one (alpha, beta) from a single
    :func:`hankel_dets` call instead, as the selberg suite does.
    """
    lhs = math.factorial(spec.n) * hankel_det(spec)
    rhs = selberg_rhs_exact(
        SelbergSpec(alpha=spec.alpha, beta=spec.beta, gamma=1, n=spec.n)
    )
    return lhs, rhs


@functools.cache
def _unit_legendre(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights mapped from [-1, 1] to [0, 1]."""
    t, w = np.polynomial.legendre.leggauss(k)
    return (t + 1.0) / 2.0, w / 2.0


def quadrature_oracle(spec: SelbergSpec) -> float:
    """Direct numerical evaluation of the Selberg integral for n <= 2.

    The integrand x^(a-1)(1-x)^(b-1) [* same in y * |x-y|^(2g)] is a
    polynomial of total degree a+b-2+2g(n-1) per axis, so Gauss-Legendre
    with enough nodes is exact up to rounding; node count is chosen from
    the degree with margin.  Deliberately independent of all the exact
    machinery — this is the end-to-end sanity anchor.
    """
    a, b, g, n = spec.alpha, spec.beta, spec.gamma, spec.n
    if n > 2:
        raise ValueError(f"quadrature oracle only supports n <= 2, got n={n}")
    if min(a, b) < 1:
        raise ValueError(f"quadrature oracle needs alpha, beta >= 1, got {(a, b)}")
    degree = a + b - 2 + 2 * g * (n - 1)
    k = max(24, int(math.ceil(degree / 2)) + 2)
    x, w = _unit_legendre(k)
    fx = x ** (a - 1) * (1.0 - x) ** (b - 1)
    if n == 1:
        return float(np.dot(w, fx))
    diff = np.abs(x[:, None] - x[None, :]) ** (2 * g)
    vals = (fx * w)[:, None] * (fx * w)[None, :] * diff
    return float(vals.sum())
