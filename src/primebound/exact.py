"""Exact combinatorial primitives and a careful floating-point layer.

Everything downstream (Hankel determinants, lcm inequalities, asymptotic
coefficients) reduces to factorials, Pochhammer symbols and logarithms of
very large integers.  The integer side is exact by construction: Python
ints and ``fractions.Fraction`` never round, and every exact closed form
(det H, Delta_n, the Selberg product, the lemma's row scaling) is one
:func:`factorial_ratio`.  The float side is where the
care goes, and the rules used throughout the package are:

* ``math.lgamma`` / ``math.log`` give relative error of a few ulp, far
  below the 1e-12 per-operation budget assumed by callers;
* any sum with an unbounded or large number of terms goes through
  Neumaier-compensated accumulation (:class:`CompensatedSum`), so the
  accumulated error stays O(n * eps^2) + eps instead of O(n * eps);
* logarithms of integers too large for float conversion are split as
  ``ln(n) = ln(n >> e) + e*ln 2`` with a 53-bit mantissa, keeping the
  relative error below 1e-15 even for million-digit inputs.

Factorial, log-factorial and log-superfactorial values are memoised in
tables that grow on demand, so repeated sweeps over (alpha, beta, n) grids
pay for each value once.  The two float tables stop at
``LOG_TABLE_CAP`` = 2**22 entries (about 335 MB for both): a larger
argument raises ``ValueError`` before anything grows.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from fractions import Fraction

LN2 = math.log(2.0)

# _FACT[n] == n!,  _LNF[n] == ln(n!)  and  _LSF[k] == sum(ln j!, j < k),
# all extended on demand.
_FACT: list[int] = [1]
_LNF: list[float] = [0.0]
_LSF: list[float] = [0.0]

# Largest argument of log_factorial and log_superfactorial: each table
# entry costs ~40 B, so past this a call would take gigabytes.  It is
# checked only where a table would grow, before it grows, so a lookup
# costs no more than without the cap.
LOG_TABLE_CAP = 1 << 22


class CompensatedSum:
    """Streaming Neumaier-compensated sum.

    ``add`` folds one term in; ``value`` returns the best float estimate
    of the exact sum (running sum plus accumulated compensation).  Used
    for every summation in the package that may exceed ~1e3 terms.
    """

    __slots__ = ("s", "c")

    def __init__(self) -> None:
        self.s = 0.0
        self.c = 0.0

    def add(self, x: float) -> None:
        t = self.s + x
        if abs(self.s) >= abs(x):
            self.c += (self.s - t) + x
        else:
            self.c += (x - t) + self.s
        self.s = t

    @property
    def value(self) -> float:
        return self.s + self.c


# Running compensated accumulators holding sum(ln k, k <= len(_LNF)-1) and
# sum(ln j!, j < len(_LSF)-1), i.e. the state needed to extend _LNF and
# _LSF without re-summing from scratch.
_LNF_ACC = CompensatedSum()
_LSF_ACC = CompensatedSum()


def factorial(n: int) -> int:
    """n! as an exact integer (memoised)."""
    if n < 0:
        raise ValueError(f"factorial requires n >= 0, got {n}")
    if n >= len(_FACT):
        f = _FACT[-1]
        for k in range(len(_FACT), n + 1):
            f *= k
            _FACT.append(f)
    return _FACT[n]


def log_factorial(n: int) -> float:
    """ln(n!) from a compensated running table of ln k.

    Relative error is a few 1e-16 for all n reachable in practice; the
    table shares state across calls so grid sweeps are O(1) amortised.
    """
    if n < 0 or n >= len(_LNF):
        if not 0 <= n <= LOG_TABLE_CAP:
            raise ValueError(f"log_factorial requires 0 <= n <= {LOG_TABLE_CAP}, got {n}")
        for k in range(len(_LNF), n + 1):
            _LNF_ACC.add(math.log(k))
            _LNF.append(_LNF_ACC.value)
    return _LNF[n]


def log_superfactorial(k: int) -> float:
    """sum_{j<k} ln(j!) = ln G(k+1) (Barnes G), from a compensated running table.

    Built from the :func:`log_factorial` table the same way that table is
    built from ln k, so a ratio of superfactorials such as
    prod_{j=lo}^{hi-1} j! is a difference of two lookups.
    """
    if k < 0 or k >= len(_LSF):
        if not 0 <= k <= LOG_TABLE_CAP:
            raise ValueError(f"log_superfactorial requires 0 <= k <= {LOG_TABLE_CAP}, got {k}")
        log_factorial(k - 1)
        for j in range(len(_LSF) - 1, k):
            _LSF_ACC.add(_LNF[j])
            _LSF.append(_LSF_ACC.value)
    return _LSF[k]


def factorial_ratio(top: Iterable[int], bottom: Iterable[int]) -> Fraction:
    """prod of k! over ``top`` divided by prod of k! over ``bottom``, reduced.

    Every exact closed form in the package is one such ratio; a rising
    factorial enters as (x)_k = (x+k-1)! / (x-1)!.  A negative k raises
    ``ValueError`` (from ``math.factorial``).
    """
    return Fraction(
        math.prod(map(math.factorial, top)), math.prod(map(math.factorial, bottom))
    )


def pochhammer(x: int, k: int) -> int:
    """Rising factorial (x)_k = x (x+1) ... (x+k-1), exactly; (x)_0 = 1."""
    if x < 1:
        raise ValueError(f"pochhammer requires x >= 1, got {x}")
    if k < 0:
        raise ValueError(f"pochhammer requires k >= 0, got {k}")
    return math.prod(range(x, x + k))


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k) with strict 0 <= k <= n validation."""
    if n < 0:
        raise ValueError(f"binomial requires n >= 0, got {n}")
    if k < 0 or k > n:
        raise ValueError(f"binomial requires 0 <= k <= n, got k={k}, n={n}")
    return math.comb(n, k)


def log_int(n: int) -> float:
    """Natural log of a positive integer of arbitrary size.

    Floats overflow past ~1e308, so large n is split into its top 53 bits
    plus a power of two: ln(n) = ln(n >> e) + e*ln2.  The dropped low bits
    perturb n by < 2^-52 relatively, so the result has relative error
    below 1e-15 regardless of size.
    """
    if n <= 0:
        raise ValueError(f"log_int requires n >= 1, got {n}")
    bits = n.bit_length()
    if bits <= 53:
        return math.log(n)
    shift = bits - 53
    return math.log(n >> shift) + shift * LN2
