"""Second routes that the tests check the package against.

Each function here recomputes a value that ``primebound`` computes, by
other arithmetic: moments, scalings and Delta_n(s) straight from
``math.factorial`` products, determinants by plain Gaussian elimination
over ``Fraction``, d_m and the prime powers from sieves of their own, the
chained constant as an explicit geometric sum.  No command runs any of
them.  From ``primebound`` this module imports only spec dataclasses,
which hold parameters and no arithmetic, so no witness shares code with
the route it checks; ``test_layout`` parses this file and fails on any
other import from the package.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction

import numpy as np

from primebound.bounds import BoundParams
from primebound.determinants import HankelSpec

_EXACT_N_CAP = 200


def _shown(v) -> str:
    """v as a refusal names it: an int of 30 digits or more by its digit count.

    Python refuses ``str`` of an int past 4,300 digits, so such a value
    cannot be printed; a tuple is shown item by item.
    """
    if isinstance(v, tuple):
        return f"({', '.join(map(_shown, v))}{',' * (len(v) == 1)})"
    if isinstance(v, int) and abs(v) >= 10**30:
        digits = int((abs(v).bit_length() - 1) * math.log10(2.0)) + 1
        digits += abs(v) >= 10**digits
        return f"{'a negative' if v < 0 else 'an'} integer of {digits} digits"
    return repr(v)


# ----------------------------------------------------------------------
# determinants
# ----------------------------------------------------------------------


def fraction_det_naive(rows: list[list[Fraction | int]]) -> Fraction:
    """Plain Gaussian elimination over Fraction with partial pivoting.

    Takes ints, Fractions, or rows mixing both.  Slower than the package's
    fraction-free Bareiss loop and structurally unrelated to it; an
    independent witness that the fast paths eliminate correctly.
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


def moment(x: int, beta: int) -> Fraction:
    """B(x, beta) = (x-1)! (beta-1)! / (x+beta-1)!, from three factorials.

    The beta integral of t^(x-1) (1-t)^(beta-1) over [0, 1], which the
    package writes as (beta-1)! / (x)_beta.
    """
    return Fraction(
        math.factorial(x - 1) * math.factorial(beta - 1), math.factorial(x + beta - 1)
    )


def hankel_entry(spec: HankelSpec, i: int, j: int) -> Fraction:
    """Entry B(alpha+i+j-2, beta) at position (i, j), 1-based."""
    if not (1 <= i <= spec.n and 1 <= j <= spec.n):
        raise ValueError(f"entry index {_shown((i, j))} outside 1..{spec.n}")
    return moment(spec.alpha + i + j - 2, spec.beta)


def hankel_matrix(spec: HankelSpec) -> list[list[Fraction]]:
    """The n x n moment matrix, built from its 2n-1 distinct entries.

    Entry (i, j) depends on i+j only, so with the moments
    m_k = B(alpha+k, beta), k < 2n-1, row i (0-based) is m_i .. m_{i+n-1}.
    :func:`hankel_entry` is the per-entry definition.
    """
    n = spec.n
    moments = [moment(spec.alpha + k, spec.beta) for k in range(2 * n - 1)]
    return [moments[i : i + n] for i in range(n)]


def specialization_scale(spec: HankelSpec) -> Fraction:
    """det(specialised lemma matrix) / det(Hankel matrix), as an exact ratio.

    Row i of the Hankel matrix times (alpha+i-1)_{beta+n-1} / (beta-1)!
    is row i of the specialised polynomial matrix, hence the factor; with
    (x)_k = (x+k-1)! / (x-1)! it is
    prod_i (alpha+beta+n+i-3)! / ((alpha+i-2)! (beta-1)!).
    """
    a, b, n = spec.alpha, spec.beta, spec.n
    return Fraction(
        math.prod(math.factorial(a + b + n + i - 3) for i in range(1, n + 1)),
        math.prod(math.factorial(a + i - 2) for i in range(1, n + 1)) * math.factorial(b - 1) ** n,
    )


# ----------------------------------------------------------------------
# d_m = lcm(1..m)
# ----------------------------------------------------------------------


def lcm_upto_prime_powers(m: int) -> int:
    """d_m as the product over primes p <= m of the largest p^k <= m.

    Independent of ``primes.lcm_upto`` (no shared code path, no cache);
    used as its cross-checking oracle.  Primes above sqrt(m) enter only to
    the first power.
    """
    if m < 1:
        raise ValueError(f"lcm_upto_prime_powers requires m >= 1, got {_shown(m)}")
    r = math.isqrt(m)
    is_prime = bytearray([0, 0]) + bytearray([1]) * (m - 1)
    for p in range(2, r + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = bytes(len(range(p * p, m + 1, p)))
    result = math.prod(itertools.compress(range(r + 1, m + 1), is_prime[r + 1 :]))
    for p in itertools.compress(range(r + 1), is_prime[: r + 1]):
        pw = p
        while pw * p <= m:
            pw *= p
        result *= pw
    return result


def prime_power_runs(limit: int) -> tuple[np.ndarray, np.ndarray]:
    """0 and every prime power up to ``limit``, ascending, and the prime of each (1 for 0).

    These are where the prime table's psi runs start.  A plain sieve, one
    bool for every integer up to ``limit``, crosses out the multiples of
    each prime up to sqrt(limit); the powers p^k (k >= 2) of those primes
    come by repeated multiplication, and one sort merges them in.
    Independent of ``primes``' odd-only sieve and its marked powers.
    """
    if limit < 1:
        raise ValueError(f"prime_power_runs requires limit >= 1, got {_shown(limit)}")
    is_prime = np.ones(limit + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    found = np.flatnonzero(is_prime)
    del is_prime
    powers, roots = [0], [1]  # run 0 starts at 0, before any prime
    for p in found[: found.searchsorted(math.isqrt(limit), "right")].tolist():
        pk = p * p
        while pk <= limit:
            powers.append(pk)
            roots.append(p)
            pk *= p
    starts = np.concatenate([found, np.array(powers, dtype=np.int64)])
    order = np.argsort(starts)
    return starts[order], np.concatenate([found, np.array(roots, dtype=np.int64)])[order]


# ----------------------------------------------------------------------
# Delta_n(s) and the chained constant
# ----------------------------------------------------------------------


def _tree_product(values: list[int]) -> int:
    """The product of ``values``, multiplied pairwise in a balanced tree.

    Each multiplication then joins operands of about the same size, which
    for factorials of hundreds of digits costs far less than a left fold
    whose running product grows with every step.
    """
    while len(values) > 1:
        odd_one_out = values[-1:] if len(values) % 2 else []
        values = [*map(operator.mul, values[::2], values[1::2]), *odd_one_out]
    return values[0] if values else 1


def delta_exact(params: BoundParams) -> Fraction:
    """Delta_n(s) = prod_{j<n} ((a+j-1)!)^2 j! / (2a+n+j-2)!, a = floor(s n), exactly.

    The top and bottom factorials are each multiplied in a balanced tree
    and reduced as one Fraction.  Factorials grow fast; n is capped so a
    single call cannot consume unbounded memory (the cap is far above
    anything the asymptotic tests need; ``bounds.log_delta`` goes beyond it).
    """
    if params.n > _EXACT_N_CAP:
        raise ValueError(
            f"delta_exact supports n <= {_EXACT_N_CAP}, got {params.n}; "
            "use log_delta for large n"
        )
    a, n, f = params.a, params.n, math.factorial
    top = _tree_product([f(a + j - 1) ** 2 * f(j) for j in range(n)])
    return Fraction(top, _tree_product([f(2 * a + n + j - 2) for j in range(n)]))


def chain_partial_sum(s: float, g: float, k_max: int) -> float:
    """sum_{k=0}^{k_max} g rho^{2k} / (4 (s+1)^2), rho = (2s+1)/(2s+2): the telescoped windows.

    ``g`` is the window coefficient -f(s), passed in, so the sum uses
    nothing of ``bounds`` beyond it.  Converges geometrically to
    g / (4s+3); with k_max = 40 the tail is below 1e-11 throughout
    [0.1, 0.9].
    """
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {_shown(k_max)}")
    rho = (2.0 * s + 1.0) / (2.0 * s + 2.0)
    first = g / (4.0 * (s + 1.0) ** 2)
    return math.fsum(itertools.accumulate(itertools.repeat(rho * rho, k_max), operator.mul, initial=first))
