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

* an entry depends on i + j = m alone, and times d_{alpha+beta+m-1} it
  is a positive integer, where d_k = lcm(1..k) — because the entry is an
  integral of x^(a-1)(1-x)^(b-1) expanded by partial fractions with
  denominators below the lcm cutoff;
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
algebra back to actual integrals.  The quadrature's node powers and pair
distances are tables per rule, shared by every spec on that rule.

Exact linear algebra
--------------------
Integer determinants use fraction-free Bareiss elimination (intermediate
entries are minors, divisions are exact), one loop shared by every
determinant here.  Run without row swaps, the k-th Bareiss pivot is the
k-th leading principal minor (Sylvester's identity), and H_n is the
leading block of H_max_n, so one elimination per (alpha, beta) gives
det H for every n up to max_n.  Its rows are built as integers
(:func:`hankel_rows`): from the 2n-1 distinct P_k = (alpha+k)_beta, row i
times L_i = lcm(P_i .. P_{i+n-1}) is (beta-1)! L_i / P_{i+j}, and the k-th
pivot over L_0 ... L_{k-1} is det H_k.  A generalized matrix is
built already cleared: row x times (x+2)_{beta+n-1}/(beta-1)! is the
lemma row at X = x, B_t = t, A_t = t+beta, with integer entries
(x+2)_{j-1} (x+j+beta+1)_{n-j}, so :func:`lemma_rows`, the one builder
of lemma matrices (one prefix and one suffix product per row), builds it
too.  An entry is never a Fraction there, and each value (a determinant,
a closed form, a beta moment) is one Fraction, reduced once; an
lcm-scaled entry is d times its moment (:func:`basic_integrality`).  The
specialised lemma matrices are nested too, up to a row scaling: the
suffix product of a row at size N has N-n more factors than at size n,
so the leading n x n block of the size-N matrix is the size-n matrix
with row i times (i+alpha+beta+n-2)_{N-n}.  One elimination per
(alpha, beta) gives every n, each pivot divided exactly by its rows'
scalings (:func:`specialized_lemma_sides`).  The consecutive-index rows
x = 0..n-1 are that matrix at alpha = 2, entry for entry, so the same
sweep serves them.  No pivot is zero, because no lemma product is for
beta >= 1; a zero pivot or a remainder is refused as a fault.
The second routes the tests compare these against (the moment matrix
entry by entry from factorials, a naive Fraction Gaussian elimination,
the row scaling det M / det H as a factorial product) live outside the
package, in ``tests/witnesses.py``, and share no code with it.
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
    alpha, beta and gamma must also convert to a float, as the float
    product and the quadrature read them as floats.
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
        for name in ("alpha", "beta", "gamma"):
            v = getattr(self, name)
            try:
                float(v)
            except OverflowError:
                raise ValueError(
                    f"SelbergSpec.{name} is too large for a float, got {_shown(v)}"
                ) from None


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
    of the swaps so far; a zero pivot left in place is yielded last.
    Without ``swap`` a zero pivot is a zero leading minor, which no matrix
    eliminated so here has, and raises ``RuntimeError`` as a fault.
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
        if pivot == 0 and not swap:
            raise RuntimeError(
                f"elimination without row swaps met a zero leading minor at size {k + 1}; "
                "this cannot happen for valid parameters and signals a fault"
            )
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


def bareiss_det(rows: list[list[int]]) -> int:
    """Exact determinant of a square integer matrix, fraction-free.

    The last pivot of :func:`_bareiss_pivots`, with row swaps on zero
    pivots (each flips the sign, and the division property is kept).
    """
    n = len(rows)
    if n == 0 or {*map(len, rows)} != {n}:
        raise ValueError("bareiss_det requires a nonempty square matrix")
    return [*_bareiss_pivots([*map(list, rows)], swap=True)][-1]


# ----------------------------------------------------------------------
# Hankel beta-moment matrices
# ----------------------------------------------------------------------


def beta_moment(x: int, beta: int) -> Fraction:
    """(beta-1)! / (x)_beta = B(x, beta), the moment behind every entry here."""
    return Fraction(math.factorial(beta - 1), pochhammer(x, beta))


def hankel_rows(spec: HankelSpec) -> tuple[list[list[int]], list[int]]:
    """The moment matrix cleared to integers, with no Fraction: (rows, row scales).

    With P_k = (alpha+k)_beta for k < 2n-1, each computed once, row i
    (0-based) times L_i = lcm(P_i .. P_{i+n-1}) has the integer entries
    (beta-1)! * (L_i // P_{i+j}), so its k-th leading minor is det H_k
    times L_0 ... L_{k-1}.
    """
    n, fact = spec.n, math.factorial(spec.beta - 1)
    polys = [pochhammer(spec.alpha + k, spec.beta) for k in range(2 * n - 1)]
    scales = [math.lcm(*polys[i : i + n]) for i in range(n)]
    return [[fact * (s // p) for p in polys[i : i + n]] for i, s in enumerate(scales)], scales


def hankel_dets(alpha: int, beta: int, max_n: int) -> list[Fraction]:
    """det H for n = 1..max_n at one (alpha, beta), from one elimination.

    H_n is the leading n x n block of H_max_n, and a moment matrix of a
    positive measure is positive definite, so Bareiss runs without row
    swaps on the integer rows of :func:`hankel_rows`, and its k-th pivot
    over the first k row scales is det H_k, reduced once.
    """
    rows, scales = hankel_rows(HankelSpec(alpha, beta, max_n))
    dens = itertools.accumulate(scales, operator.mul)
    return [*map(Fraction, _bareiss_pivots(rows, swap=False), dens)]


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


def random_krattenthaler(rng: random.Random) -> KrattenthalerInstance:
    """A seeded random lemma instance: 1 <= n <= _LEMMA_MAX_N, each value within +-_LEMMA_BOUND."""
    n = rng.randint(1, _LEMMA_MAX_N)
    x = tuple(rng.randint(-_LEMMA_BOUND, _LEMMA_BOUND) for _ in range(n))
    a = tuple(rng.randint(-_LEMMA_BOUND, _LEMMA_BOUND) for _ in range(n - 1))
    b = tuple(rng.randint(-_LEMMA_BOUND, _LEMMA_BOUND) for _ in range(n - 1))
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


def specialized_lemma_sides(alpha: int, beta: int, max_n: int) -> list[tuple[int, int, int, int]]:
    """For n = 1..max_n: (det M_n, the lemma product, prod_i (alpha+i-1)_{beta+n-1}, (beta-1)!^n).

    M_n is the lemma matrix specialised as in :func:`specialize_to_hankel`;
    the last two values are the numerator and denominator of the row
    scaling det M_n / det H_n of the module docstring.  Growing M_n to M_{n+1} multiplies every
    entry of row i by X_i + A_{n+1}, so the leading n x n block of
    M_max_n is M_n with row i times (i+alpha+beta+n-2)_{max_n-n}, and one
    elimination without row swaps gives every det M_n: its n-th pivot is
    that block's determinant (Sylvester's identity), divided exactly by
    the n row growths.  The lemma product is nonzero for beta >= 1 (each
    B_i - A_j = i-j-beta < 0), so a zero pivot (refused by the
    elimination) or a remainder raises ``RuntimeError`` as a fault.  The
    product comes from the closed form, factor by factor, not from the
    elimination.
    """
    inst = specialize_to_hankel(HankelSpec(alpha, beta, max_n))
    rows = lemma_rows(inst.x, inst.a, inst.b)
    sides, rhs, fact = [], 1, math.factorial(beta - 1)
    for n, pivot in enumerate(_bareiss_pivots(rows, swap=False), 1):
        growth = math.prod(pochhammer(i + alpha + beta + n - 1, max_n - n) for i in range(n))
        d, r = divmod(pivot, growth)
        if r:
            raise RuntimeError(
                f"leading {n} x {n} block of the specialised lemma matrix has a minor "
                "not divisible by its row growth; this cannot happen for valid "
                "parameters and signals a fault"
            )
        # X_i - X_n for i < n, and B_i - A_n for 2 <= i <= n.
        rhs *= math.prod(range(1 - n, 0)) * math.prod(range(2 - n - beta, -beta + 1))
        scale = math.prod(pochhammer(alpha + i, beta + n - 1) for i in range(n))
        sides.append((d, rhs, scale, fact**n))
    return sides


# ----------------------------------------------------------------------
# lcm integrality inequalities
# ----------------------------------------------------------------------


def basic_integrality(alpha: int, beta: int, m: int) -> Fraction:
    """The (i+j=m) Hankel entry times d_{alpha+beta+m-1}; the result is a positive integer.

    That is d times :func:`beta_moment` (alpha+m-2, beta).  Wasteful on
    purpose: the partial-fraction denominators only reach alpha+beta+m-3
    (:func:`partial_fraction_sum`), so the lcm cutoff has two spare
    indices.  The sharper per-row inequality is :func:`improved_product`.
    """
    if alpha < 1 or beta < 1 or m < 2:
        raise ValueError(f"need alpha, beta >= 1 and m >= 2, got {_shown((alpha, beta, m))}")
    return lcm_upto(alpha + beta + m - 1) * beta_moment(alpha + m - 2, beta)


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


# random_krattenthaler: up to _LEMMA_MAX_N variables, each X, A and B within +-_LEMMA_BOUND.
_LEMMA_MAX_N, _LEMMA_BOUND = 6, 50
# random_generalized: up to _GEN_MAX_N distinct indices <= _GEN_MAX_INDEX, beta <= _GEN_MAX_BETA.
_GEN_MAX_N, _GEN_MAX_BETA, _GEN_MAX_INDEX = 6, 5, 30


def random_generalized(rng: random.Random) -> GeneralizedSpec:
    """A seeded random index set (distinct, >= 0) and shift beta."""
    n = rng.randint(1, _GEN_MAX_N)
    xs = tuple(rng.sample(range(_GEN_MAX_INDEX + 1), n))
    return GeneralizedSpec(xs=xs, beta=rng.randint(1, _GEN_MAX_BETA))


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
    """Float Selberg product: exp of a ``math.fsum`` of lgammas; ~1e-13 relative error.

    A Gamma argument or a value past the float range is a ``ValueError``.
    """
    a, b, g, n = spec.alpha, spec.beta, spec.gamma, spec.n
    terms = []
    try:
        for j in range(n):
            terms += (
                math.lgamma(a + j * g),
                math.lgamma(b + j * g),
                math.lgamma(1 + (j + 1) * g),
                -math.lgamma(a + b + (n + j - 1) * g),
                -math.lgamma(1 + g),
            )
        return math.exp(math.fsum(terms))
    except OverflowError:
        raise ValueError(
            "selberg_rhs is past the float range at (alpha, beta, gamma, n) = "
            + _shown((a, b, g, n))
        ) from None


@functools.cache
def _unit_legendre(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights mapped from [-1, 1] to [0, 1]."""
    t, w = np.polynomial.legendre.leggauss(k)
    return (t + 1.0) / 2.0, w / 2.0


def _frozen(v: np.ndarray) -> np.ndarray:
    """``v``, made read-only: a cached table is shared by every caller."""
    v.flags.writeable = False
    return v


@functools.lru_cache(maxsize=64, typed=True)
def _node_powers(k: int, e: float, reflect: bool) -> np.ndarray:
    """x^e, or (1-x)^e with ``reflect``, at the nodes x of the k-node rule."""
    x = _unit_legendre(k)[0]
    return _frozen((1.0 - x if reflect else x) ** e)


@functools.lru_cache(maxsize=8)
def _node_distances(k: int, g: int) -> np.ndarray:
    """|x_i - x_j|^(2g) over every pair of nodes of the k-node rule."""
    x = _unit_legendre(k)[0]
    return _frozen(np.abs(x[:, None] - x[None, :]) ** (2 * g))


_QUAD_MAX = 1 << 9  # largest alpha, beta or gamma (n = 2) of a rule: at most 1025 nodes


def quadrature_oracle(spec: SelbergSpec) -> float:
    """Direct numerical evaluation of the Selberg integral for n <= 2.

    The integrand x^(a-1)(1-x)^(b-1) [* same in y * |x-y|^(2g)] is a
    polynomial of total degree a+b-2+2g(n-1) per axis, so Gauss-Legendre
    with enough nodes is exact up to rounding; node count is chosen from
    the degree with margin.  The node powers and the pair distances are
    tables per rule (per (k, e) and (k, g)), so specs that share a rule
    share them; each value is the same float the per-spec expression
    gives.  alpha, beta, or gamma at n = 2, past 2^9 is a ``ValueError``,
    raised before any rule is built.  Deliberately independent of all the
    exact machinery — this is the end-to-end sanity anchor.
    """
    a, b, g, n = spec.alpha, spec.beta, spec.gamma, spec.n
    if n > 2:
        raise ValueError(f"quadrature oracle only supports n <= 2, got n={n}")
    if min(a, b) < 1:
        raise ValueError(f"quadrature oracle needs alpha, beta >= 1, got {(a, b)}")
    for name, v in (("alpha", a), ("beta", b), ("gamma", g if n == 2 else 1)):
        if v > _QUAD_MAX:
            raise ValueError(f"quadrature oracle needs {name} <= {_QUAD_MAX}, got {_shown(v)}")
    degree = a + b - 2 + 2 * g * (n - 1)
    k = max(24, int(math.ceil(degree / 2)) + 2)
    w = _unit_legendre(k)[1]
    fx = _node_powers(k, a - 1, False) * _node_powers(k, b - 1, True)
    if n == 1:
        return float(np.dot(w, fx))
    vals = (fx * w)[:, None] * (fx * w)[None, :] * _node_distances(k, g)
    return float(vals.sum())
