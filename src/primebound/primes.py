"""Sieve-backed prime tables: von Mangoldt, Chebyshev psi and psi_1, lcm(1..m).

The central object is :class:`PrimeTable`, built once per limit:

* ``mangoldt_base[m]`` holds p when m = p^k is a prime power and 0
  otherwise, so Lambda(m) = ln(mangoldt_base[m]) with the convention
  ln(0) -> 0.  A boolean sieve of Eratosthenes finds the primes, and the
  few powers p^k with p <= sqrt(limit) are marked directly.
* ``psi_cum[m]`` = psi(m) = sum_{j<=m} Lambda(j) as a correctly-rounded
  float.  Every Lambda value is 0 or at least ln 2, hence an integer
  multiple of 2^-53; the values times 2^53 are summed exactly as int64
  limbs with carries, and psi_cum is each exact sum rounded once, which
  makes it monotone.
* ``psi1_hi/psi1_lo[m]`` = psi_1(m) = sum_{j<=m} psi(j), summed the same
  way over the *stored* psi floats: hi is correctly rounded and lo the
  exact remainder, for every limit up to ``MAX_LIMIT`` = 9e7.  So the
  stored increment psi_1(m) - psi_1(m-1) equals the stored psi(m)
  exactly, bit for bit, which :func:`psi1_increment` exposes.

Both sums run in one pass over cache-sized blocks, each block continuing
from the exact limb totals of the one before.

lcm(1..m) comes in two independent implementations (a pairwise-lcm fold
and a prime-power product) specifically so they can be played against
each other and against psi: ln lcm(1..m) = psi(m).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .exact import two_sum

_LCM_CACHE_MAX = 2048

# _LCM[m] == lcm(1, ..., m); index 0 is a padding entry.
_LCM: list[int] = [1, 1]


# ----------------------------------------------------------------------
# sieve and table construction
# ----------------------------------------------------------------------

# Limb sums are exact while psi_1(limit) < 2^52; psi(m) < 1.03883 m gives psi_1(9e7) < 4.3e15.
MAX_LIMIT = 90_000_000

_LIMB = 26
_MASK = (1 << _LIMB) - 1
_BLOCK = 1 << 15  # entries per block of build_table; of 2^13..2^20, 2^15-2^16 ran fastest


def _exact_prefix_sum(
    values: np.ndarray, carry: np.ndarray, hi: np.ndarray, lo: np.ndarray | None = None
) -> None:
    """Continue an inclusive prefix sum of nonnegative multiples of 2^-53.

    ``values * 2^53`` is split exactly into a top limb (multiples of 2^52)
    and two 26-bit limbs, each summed in int64 with carries propagated.
    ``carry`` holds the running total before ``values`` as int64 limbs
    (top, mid, low) of total * 2^53; it is advanced in place to the total
    after them, so consecutive blocks sum as one array.  Each sum is a + b,
    a = top * 2^52 and b < 2^52 both exact floats, so hi = fl(a + b) is
    correctly rounded and lo = b - (hi - a), when asked for, is its exact
    tail (fast two-sum: a = 0 or a > b).  Exact for totals below 2^52.
    """
    low, top = np.modf(values * 2.0)  # values * 2^53 = (top + low) * 2^52
    low *= 2.0**52
    top, low = top.astype(np.int64), low.astype(np.int64)
    mid = low >> _LIMB
    low &= _MASK
    for limb, c in zip((top, mid, low), carry.tolist()):
        np.cumsum(limb, out=limb)
        limb += c
    mid += low >> _LIMB
    low &= _MASK
    top += mid >> _LIMB
    mid &= _MASK
    carry[:] = top[-1], mid[-1], low[-1]
    mid <<= _LIMB
    mid |= low
    b = mid.astype(np.float64)
    a = top.astype(np.float64)
    a *= 2.0**52
    np.add(a, b, out=hi)
    if lo is not None:
        a -= hi  # exactly -(hi - a), so lo becomes b - (hi - a)
        np.add(b, a, out=lo)
        lo /= 2.0**53
    hi /= 2.0**53


def _mangoldt_base(limit: int) -> np.ndarray:
    """base[m] = p if m = p^k (k >= 1) else 0: primes by a byte sieve, powers marked."""
    is_p = np.ones(limit + 1, dtype=bool)
    is_p[:2] = False
    for q in range(2, math.isqrt(limit) + 1):
        if is_p[q]:
            is_p[q * q :: q] = False
    p = np.flatnonzero(is_p)
    base = np.zeros(limit + 1, dtype=np.int64)
    base[p] = p
    for q in p[p <= math.isqrt(limit)].tolist():
        pk = q * q
        while pk <= limit:
            base[pk] = q
            pk *= q
    return base


@dataclass(frozen=True, eq=False)
class PrimeTable:
    """Immutable sieve product for a fixed limit.

    Fields
    ------
    limit:
        Largest integer covered; all arrays have length limit + 1.
    mangoldt_base:
        int64; entry m is p when m = p^k, else 0.
    psi_cum:
        float64; psi(m), correctly rounded, nondecreasing.
    psi1_hi, psi1_lo:
        float64; psi_1(m) summed exactly over the stored psi values: hi
        correctly rounded, lo the exact remainder (limits <= MAX_LIMIT).
    """

    limit: int
    mangoldt_base: np.ndarray
    psi_cum: np.ndarray
    psi1_hi: np.ndarray
    psi1_lo: np.ndarray


def build_table(limit: int) -> PrimeTable:
    """Sieve and accumulate all tables up to ``limit`` (1 <= limit <= MAX_LIMIT)."""
    if not 1 <= limit <= MAX_LIMIT:
        raise ValueError(f"build_table requires 1 <= limit <= {MAX_LIMIT}, got {limit}")
    base = _mangoldt_base(limit)
    psi_cum, psi1_hi, psi1_lo = (np.empty(limit + 1) for _ in range(3))
    psi_carry, psi1_carry = np.zeros(3, dtype=np.int64), np.zeros(3, dtype=np.int64)
    for start in range(0, limit + 1, _BLOCK):
        block = slice(start, start + _BLOCK)
        lam = np.log(np.maximum(base[block], 1).astype(np.float64))  # ln 1 = 0 off prime powers
        _exact_prefix_sum(lam, psi_carry, psi_cum[block])
        # The tail of psi is dropped, so psi_1 is the exact running sum of the
        # *stored* psi values.
        _exact_prefix_sum(psi_cum[block], psi1_carry, psi1_hi[block], psi1_lo[block])
    for arr in (base, psi_cum, psi1_hi, psi1_lo):
        arr.setflags(write=False)
    return PrimeTable(
        limit=limit,
        mangoldt_base=base,
        psi_cum=psi_cum,
        psi1_hi=psi1_hi,
        psi1_lo=psi1_lo,
    )


# ----------------------------------------------------------------------
# queries
# ----------------------------------------------------------------------

def _check_range(table: PrimeTable, x: float, lo: float) -> int:
    if not (lo <= x <= table.limit):
        raise ValueError(
            f"argument {x} outside table range [{lo}, {table.limit}]"
        )
    return int(math.floor(x))


def mangoldt(table: PrimeTable, m: int) -> int | None:
    """The prime p with m = p^k, or None when Lambda(m) = 0.  1 <= m <= limit."""
    if m != int(m):
        raise ValueError(f"mangoldt requires an integer, got {m}")
    idx = _check_range(table, int(m), 1)
    p = int(table.mangoldt_base[idx])
    return p if p else None


def psi(table: PrimeTable, x: float) -> float:
    """Chebyshev psi(x) = sum_{m <= x} Lambda(m), for 0 <= x <= limit."""
    return float(table.psi_cum[_check_range(table, x, 0)])


def psi1(table: PrimeTable, x: float) -> float:
    """psi_1(x) = sum_{m <= x} psi(m) = integral of psi, for 0 <= x <= limit."""
    return float(table.psi1_hi[_check_range(table, x, 0)])


def psi1_increment(table: PrimeTable, m: int) -> float:
    """psi_1(m) - psi_1(m-1) evaluated exactly in the stored (hi, lo) pairs.

    By construction this equals the stored psi(m) bit for bit; it exists
    so that consumers (and tests) can witness the identity without
    re-deriving the accumulation scheme.  Requires 1 <= m <= limit.
    """
    if m != int(m):
        raise ValueError(f"psi1_increment requires an integer, got {m}")
    idx = _check_range(table, int(m), 1)
    hi = table.psi1_hi
    lo = table.psi1_lo
    s, e = two_sum(float(hi[idx]), -float(hi[idx - 1]))
    e += float(lo[idx]) - float(lo[idx - 1])
    return s + e


# ----------------------------------------------------------------------
# lcm(1..m), two ways
# ----------------------------------------------------------------------

def lcm_upto(m: int) -> int:
    """d_m = lcm(1, 2, ..., m) by a pairwise fold, with a bounded cache."""
    if m < 1:
        raise ValueError(f"lcm_upto requires m >= 1, got {m}")
    if m < len(_LCM):
        return _LCM[m]
    top = min(m, _LCM_CACHE_MAX)
    while len(_LCM) <= top:
        _LCM.append(math.lcm(_LCM[-1], len(_LCM)))
    if m < len(_LCM):
        return _LCM[m]
    v = _LCM[-1]
    for k in range(len(_LCM), m + 1):
        v = math.lcm(v, k)
    return v


def lcm_upto_prime_powers(m: int) -> int:
    """d_m as the product over primes p <= m of the largest p^k <= m.

    Independent of :func:`lcm_upto` (no shared code path, no cache); used
    as its cross-checking oracle.  Primes above sqrt(m) enter only to the
    first power.
    """
    if m < 1:
        raise ValueError(f"lcm_upto_prime_powers requires m >= 1, got {m}")
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
