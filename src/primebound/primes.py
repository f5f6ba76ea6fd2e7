"""Sieve-backed prime tables: von Mangoldt, Chebyshev psi and psi_1, lcm(1..m).

The central object is :class:`PrimeTable`, built once per limit:

* ``mangoldt_base[m]`` holds p when m = p^k is a prime power and 0
  otherwise, so Lambda(m) = ln(mangoldt_base[m]) with the convention
  ln(0) -> 0.  A boolean sieve of Eratosthenes finds the primes, and the
  few powers p^k with p <= sqrt(limit) are marked directly.
* ``psi_cum[m]`` = psi(m) = sum_{j<=m} Lambda(j) as a correctly-rounded
  float.  Every Lambda value is 0 or at least ln 2, hence an integer
  multiple of 2^-53, so the integer-limb scan shared with ``exact``'s log
  tables sums them exactly, and psi_cum is each exact sum rounded once,
  which makes it monotone.  Only the prime powers (about 8% of the entries
  at 6e5) are scanned, in one call; every other entry holds the psi of the
  prime power before it, filled in by one ``np.repeat``.
* ``psi1_hi/psi1_lo[m]`` = psi_1(m) = sum_{j<=m} psi(j), summed the same
  way over the *stored* psi floats: hi is correctly rounded and lo the
  exact remainder, for every limit up to ``MAX_LIMIT`` = 9e7.  So the
  stored increment psi_1(m) - psi_1(m-1) equals the stored psi(m)
  exactly, bit for bit, which :func:`psi1_increment` exposes.

The psi_1 sum is the only dense scan.  It runs over cache-sized blocks,
each block continuing from the exact limb totals of the one before.

lcm(1..m) comes in two independent implementations (a pairwise-lcm fold
and a prime-power product) specifically so they can be played against
each other and against psi: ln lcm(1..m) = psi(m).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .exact import _exact_prefix_sum, _shown

_LCM_CACHE_MAX = 2048

# _LCM[m] == lcm(1, ..., m); index 0 is a padding entry.
_LCM: list[int] = [1, 1]


# ----------------------------------------------------------------------
# sieve and table construction
# ----------------------------------------------------------------------

# Limb sums are exact while psi_1(limit) < 2^52; psi(m) < 1.03883 m gives psi_1(9e7) < 4.3e15.
MAX_LIMIT = 90_000_000

# Entries per block of the psi_1 scan.  Of 2^12..2^18 timed at limits 632,456,
# 4e6 and 1e7 on a 2-core VM (best of 3 to 9, two sweeps), 2^13..2^15 tied
# within noise; 2^12 and 2^18 were slowest.
_BLOCK = 1 << 15


def _mangoldt_base(limit: int) -> tuple[np.ndarray, np.ndarray]:
    """base[m] = p if m = p^k (k >= 1) else 0 (primes sieved, powers marked), and its nonzero m."""
    is_p = np.ones(limit + 1, dtype=bool)
    is_p[:2] = False
    powers, roots = [], []
    for q in range(2, math.isqrt(limit) + 1):
        if is_p[q]:
            is_p[q * q :: q] = False
            pk = q * q
            while pk <= limit:
                powers.append(pk)
                roots.append(q)
                pk *= q
    is_p[powers] = True  # only now: the loop reads is_p[q] as "q is prime"
    at = np.flatnonzero(is_p)
    base = np.zeros(limit + 1, dtype=np.int64)
    base[at] = at
    base[powers] = roots
    return base, at


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
        float64; psi(m), correctly rounded, nondecreasing; it steps only at
        prime powers, where mangoldt_base is nonzero.
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
        raise ValueError(f"build_table requires 1 <= limit <= {MAX_LIMIT}, got {_shown(limit)}")
    base, at = _mangoldt_base(limit)
    # psi steps only at prime powers: sum Lambda there once, hold each sum to the next.
    lam = np.log(base[at].astype(np.float64))
    _exact_prefix_sum(lam, np.zeros(2, dtype=np.int64), lam)
    psi_cum = np.repeat(np.concatenate(([0.0], lam)), np.diff(at, prepend=0, append=limit + 1))
    del at, lam  # before the dense psi_1 arrays, so the peak holds four arrays
    psi1_hi, psi1_lo = np.empty(limit + 1), np.empty(limit + 1)
    carry = np.zeros(2, dtype=np.int64)
    # psi_1 is the exact running sum of the *stored* psi values, not of exact psi.
    for start in range(0, limit + 1, _BLOCK):
        block = slice(start, start + _BLOCK)
        _exact_prefix_sum(psi_cum[block], carry, psi1_hi[block], psi1_lo[block])
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


def _integer_index(table: PrimeTable, m: int, name: str) -> int:
    """m as an index 1 <= m <= limit; a non-integer, nan or infinite m is a ValueError."""
    try:
        idx = int(m)
    except (OverflowError, ValueError):
        raise ValueError(f"{name} requires an integer, got {m}") from None
    if m != idx:
        raise ValueError(f"{name} requires an integer, got {m}")
    return _check_range(table, idx, 1)


def mangoldt(table: PrimeTable, m: int) -> int | None:
    """The prime p with m = p^k, or None when Lambda(m) = 0.  1 <= m <= limit."""
    p = int(table.mangoldt_base[_integer_index(table, m, "mangoldt")])
    return p if p else None


def psi(table: PrimeTable, x: float) -> float:
    """Chebyshev psi(x) = sum_{m <= x} Lambda(m), for 0 <= x <= limit."""
    return float(table.psi_cum[_check_range(table, x, 0)])


def psi1(table: PrimeTable, x: float) -> float:
    """psi_1(x) = sum_{m <= x} psi(m) = integral of psi, for 0 <= x <= limit."""
    return float(table.psi1_hi[_check_range(table, x, 0)])


def psi1_increment(table: PrimeTable, m: int) -> float:
    """psi_1(m) - psi_1(m-1) from the stored (hi, lo) pairs, rounded once.

    hi + lo is each exact psi_1 sum, and ``math.fsum`` rounds the exact
    difference of the four limbs once, so this equals the stored psi(m)
    bit for bit; it exists so that consumers (and tests) can witness the
    identity without re-deriving the accumulation scheme.  Requires
    1 <= m <= limit.
    """
    idx = _integer_index(table, m, "psi1_increment")
    hi, lo = table.psi1_hi, table.psi1_lo
    return math.fsum((hi[idx], -hi[idx - 1], lo[idx], -lo[idx - 1]))


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
