"""Exact combinatorial primitives and a careful floating-point layer.

Everything downstream (Hankel determinants, lcm inequalities, asymptotic
coefficients) reduces to factorials, Pochhammer symbols and logarithms of
very large integers.  The integer side is exact by construction: Python
ints and ``fractions.Fraction`` never round, and det H and the Selberg
product are each one :func:`factorial_ratio` (Delta_n and the lemma's row
scaling are factorial ratios only in the tests, ``tests/witnesses.py``).
The float side is where the care goes, and the rules used throughout the
package are:

* ``math.lgamma`` / ``math.log`` give relative error of a few ulp, far
  below the 1e-12 per-operation budget assumed by callers;
* every long running sum (psi and psi_1 in ``primes``, ln G(n+1) here)
  adds nonnegative multiples of 2^-53 exactly and rounds each partial sum
  once: terms below 2^5 (Lambda, ln j) in two float limbs with no carry
  step, :func:`_small_prefix_sum`; larger ones in the integer-limb carry
  scan :func:`_carry_scan`, each sum made a float by one split,
  :func:`_floats`; short sums use ``math.fsum``;
* the logarithm of an integer too large for a float is ``math.log`` of
  the int itself: CPython splits it into a correctly rounded 53-bit
  mantissa and a power of two, so the relative error stays a few ulp at
  any size.

Log-superfactorials ln G(k+1) come from a table for k <= 2**16, rebuilt at
least doubled when a read passes its end, and from the Barnes G series above it.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from fractions import Fraction

import numpy as np

# _LSF[k] == sum(ln j!, j < k), rebuilt longer on demand.
_LSF: list[float] = [0.0, 0.0]

_LOG_SEAM = 1 << 16  # largest k in _LSF: 2.5 MB, summing to far below the scan's 2^52
_LOG_BLOCK = 1 << 12  # fewest entries a rebuilt table holds
_HALF_LN_2PI = 0.91893853320467274178  # ln(2 pi) / 2
_ZETA_M1 = -0.16542114370045092921  # zeta'(-1)

_LOW = 43  # bits of the low limb
_SCAN_LEN = (1 << 20) - 1  # values per cumsum: with the carry, 2^20 lows < 2^43 sum below 2^63
_MAX_SCALE = 1 << 20  # largest factor of _limbs: a low limb times it stays below 2^63


def _limbs(values: np.ndarray, scale=None, out=None) -> tuple[np.ndarray, np.ndarray]:
    """``values * 2^53`` (times ``scale``) as exact int64 limbs top * 2^43 + low, low < 2^43.

    ``values`` are nonnegative multiples of 2^-53, below 2^52 also when
    scaled.  ``scale``, an optional int64 array of factors in [0, 2^20],
    multiplies both limbs: a low limb times 2^20 is below 2^63, so each
    product is exact, and its bits above 2^43 move into top.  A larger
    factor is a ``ValueError``.  ``out`` = (top, low, float64 scratch), each
    as long as ``values``, takes the limbs with no array allocated.
    """
    top, low, f = out or (np.empty(values.shape, np.int64), np.empty(values.shape, np.int64), None)
    f = np.multiply(values, 1024.0, out=f)  # values * 2^53 = (top + low) * 2^43
    np.trunc(f, out=top, casting="unsafe")
    f -= top  # exact: the fraction of a nonnegative float is a float
    f *= 2.0**_LOW
    np.copyto(low, f, casting="unsafe")
    if scale is not None:
        if scale.max(initial=0) > _MAX_SCALE:
            raise ValueError(f"limb factor {scale.max()} exceeds 2^20: a product would overflow")
        top *= scale
        low *= scale
        _carry_low(top, low, f.view(np.int64))
    return top, low


def _carry_low(top: np.ndarray, low: np.ndarray, scratch: np.ndarray | None = None) -> None:
    """Move each low limb's bits from 2^43 up into its top limb, in place, through ``scratch``."""
    top += np.right_shift(low, _LOW, out=scratch)
    low &= (1 << _LOW) - 1


def _carry_scan(top: np.ndarray, low: np.ndarray, carry: np.ndarray, scratch=None) -> None:
    """Turn the limbs of each term into the limbs of the running total, in place.

    Term i is top[i] * 2^43 + low[i] with low[i] < 2^43.  ``carry`` holds the
    total before the first term as limbs (top, low); it is added to the first
    term and advanced in place to the total after the last, so consecutive
    calls sum as one array.  Each limb is summed by one ``cumsum`` per part of
    2^20 - 1 terms (``_SCAN_LEN``), so no low-limb sum reaches 2^63; on return
    every low limb is below 2^43 again, the moved bits through ``scratch``
    (int64, as long as ``top``) if given.  Exact for totals below 2^105.
    """
    for start in range(0, top.size, _SCAN_LEN):
        part = slice(start, start + _SCAN_LEN)
        t, lo = top[part], low[part]
        t[0] += carry[0]
        lo[0] += carry[1]
        np.cumsum(t, out=t)
        np.cumsum(lo, out=lo)
        _carry_low(t, lo, None if scratch is None else scratch[part])
        carry[:] = t[-1], lo[-1]


def _floats(
    top: np.ndarray, low: np.ndarray, out: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(top * 2^43 + low) / 2^53, low < 2^43, as (hi, lo): hi correctly rounded, lo its exact rest.

    Each value is a + b, a = (top >> 9) * 2^52 and b = ((top & 511) << 43) | low
    < 2^52 both exact floats, so hi = fl(a + b) is correctly rounded and
    lo = b - (hi - a) is its exact tail (fast two-sum: a = 0 or a > b).  Exact
    for values below 2^52.  hi is written to ``out`` when given; ``top`` and
    ``low`` are overwritten.
    """
    low |= (top & 511) << _LOW
    b = low.astype(np.float64)
    top >>= 9
    a = top.astype(np.float64)
    a *= 2.0**52
    hi = np.add(a, b, out=out)
    a -= hi  # exactly -(hi - a), so b becomes b - (hi - a)
    b += a
    hi /= 2.0**53
    b /= 2.0**53
    return hi, b


def _exact_prefix_sum(values: np.ndarray, carry: np.ndarray, hi: np.ndarray) -> None:
    """Continue an inclusive prefix sum of nonnegative multiples of 2^-53.

    ``values * 2^53`` is split into two int64 limbs by :func:`_limbs` and
    summed by :func:`_carry_scan`, which continues from ``carry``, the limbs
    of total * 2^53 before ``values``, and advances it.  :func:`_floats`
    writes each sum to ``hi``, correctly rounded.  Exact for totals below
    2^52.  ``hi`` may be ``values``.
    """
    top, low = _limbs(values)
    _carry_scan(top, low, carry)
    _floats(top, low, hi)


def _small_prefix_sum(values: np.ndarray, carry: np.ndarray, scratch: np.ndarray) -> None:
    """Continue an inclusive prefix sum of under 2^23 terms below 2^5 in place, exactly.

    A term, 0 or a multiple of 2^-53, times 2^24 is an integer hi < 2^29 plus
    a fraction lo in units of 2^-29, so both limb sums stay below 2^52 units:
    float cumsums are exact, and fl(sum hi + sum lo) is the sum rounded once.
    ``carry`` = (sum hi, sum lo, count) before ``values``, advanced in place;
    ``scratch`` is float64 as long as ``values``.  Else a ``ValueError``.
    """
    n, top = values.size, values.max(initial=0.0)
    if carry[2] + n >= 1 << 23 or top >= 32.0:
        raise ValueError(f"{int(carry[2]) + n} terms, largest {top}: exact under 2^23 below 2^5")
    lo = np.multiply(values, 2.0**24, out=scratch[:n])
    np.trunc(lo, out=values)
    lo -= values
    values[:1] += carry[0]
    lo[:1] += carry[1]
    np.cumsum(values, out=values)
    np.cumsum(lo, out=lo)
    if n:
        carry[:] = values[-1], lo[-1], carry[2] + n
    values += lo
    values *= 2.0**-24


def _grow_log_table(k: int) -> None:
    """Rebuild _LSF in one pass, to cover 0 <= k <= _LOG_SEAM.

    The new length is k + 1, at least double the old and _LOG_BLOCK, at
    most _LOG_SEAM + 1.  _LSF[j + 1] = _LSF[j] + ln j!: a carry-free scan of
    the ``math.log(j)`` terms gives the ln j!, a limb carry scan sums them,
    each from a zero carry.  Each term is 0 or at least ln 2, a multiple of
    2^-53, so both scans are exact and every entry is its exact sum rounded
    once, at any length.  A k past _LOG_SEAM is a ``ValueError``: the table stops there.
    """
    if k > _LOG_SEAM:
        raise ValueError(f"the ln G table stops at k = {_LOG_SEAM}, got {_shown(k)}")
    size = min(max(k + 1, 2 * len(_LSF), _LOG_BLOCK), _LOG_SEAM + 1)
    # math.log, not np.log: the two differ in the last bit at some j.
    terms = np.fromiter(map(math.log, range(1, size - 1)), np.float64, size - 2)
    _small_prefix_sum(terms, np.zeros(3), np.empty_like(terms))  # ln j!, each ln j < 12
    _exact_prefix_sum(terms, np.zeros(2, dtype=np.int64), terms)  # _LSF[j + 1]
    _LSF[2:] = terms.tolist()


def _digits(k: int) -> int:
    """Digits of |k|, to name k in a message: Python refuses str(k) past 4,300 digits."""
    k = abs(k)
    digits = int((k.bit_length() - 1) * math.log10(2.0)) + 1
    return digits + (k >= 10**digits)


def _shown(k) -> str:
    """k as a message shows it: an int over 30 digits by its digit count, a tuple item by item.

    A ``Fraction`` reads as its ``str``, ``1/3``; one whose numerator or
    denominator has over 30 digits reads as the two digit counts.
    """
    if isinstance(k, tuple):
        return f"({', '.join(map(_shown, k))}{',' * (len(k) == 1)})"
    if isinstance(k, int) and abs(k) >= 10**30:
        return f"{'a negative' if k < 0 else 'an'} integer of {_digits(k)} digits"
    if isinstance(k, Fraction):
        num, den = k.numerator, k.denominator
        if max(abs(num), den) < 10**30:
            return str(k)
        return f"{'a negative' if k < 0 else 'a'} fraction of {_digits(num)}/{_digits(den)} digits"
    return repr(k)


def log_superfactorial(k: int) -> float:
    """sum_{j<k} ln(j!) = ln G(k+1) (Barnes G).

    For k <= 2**16, the exact sum of the correctly rounded ln j!, from a
    table shared across calls.  Above, the asymptotic series (DLMF 5.17.5)
    to three Bernoulli terms.  Both are within 1e-15 relative of mpmath's
    Barnes G at every accepted k, the series by a few roundings of float(k):
    at most 4.5e-16 measured up to the largest, k ~ 1.01e153.  ``ValueError``
    for k < 0 or a value past the float range.
    """
    if k < 0 or k >= len(_LSF):
        if k > _LOG_SEAM:
            # (k^2/2) ln k - 3k^2/4 + (k/2) ln 2pi - (ln k)/12 + zeta'(-1) + sum_{j=1..3}
            # B_{2j+2} / (4j(j+1) k^{2j}), truncated below 1e-16 relative from k = 25 on.
            x = float(min(k, 1 << 1000))  # the value overflows far below 2**1000
            ln, w = math.log(x), 1.0 / (x * x)
            tail = w * (-1.0 / 240.0 + w * (1.0 / 1008.0 - w / 1440.0))
            value = 0.5 * x * x * ln - 0.75 * x * x + x * _HALF_LN_2PI - ln / 12.0 + _ZETA_M1 + tail
            if not math.isfinite(value):
                raise ValueError(
                    f"log_superfactorial(k) is past the float range for a k of {_digits(k)} digits"
                )
            return value
        if k < 0:
            raise ValueError(
                f"log_superfactorial requires k >= 0, got a negative k of {_digits(k)} digits"
            )
        _grow_log_table(k)
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
    """Rising factorial (x)_k = x (x+1) ... (x+k-1), exactly; (x)_0 = 1.

    That is (x+k-1)! / (x-1)!, the falling product ``math.perm`` takes in C.
    """
    if x < 1:
        raise ValueError(f"pochhammer requires x >= 1, got {_shown(x)}")
    if k < 0:
        raise ValueError(f"pochhammer requires k >= 0, got {_shown(k)}")
    return math.perm(x + k - 1, k)
