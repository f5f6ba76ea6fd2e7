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
* psi_1(m) = sum_{j<=m} psi(j), summed the same way over the *stored* psi
  floats.  psi is constant on each run from one prime power to the next, so
  psi_1 is linear there: the table keeps only S_k, the exact psi_1 before
  run k, as int64 limbs from one scan over the run totals.  :func:`psi1`
  and :func:`psi1_increment` read psi_1(m) = S_k + (m - start_k + 1) psi(m)
  as a Python int and round it once to (hi, lo): hi correctly rounded and
  lo the exact remainder, for every limit up to ``MAX_LIMIT`` = 9e7.  So
  the increment psi_1(m) - psi_1(m-1) equals the stored psi(m) exactly,
  bit for bit, which :func:`psi1_increment` exposes.
* ``psi1_hi/psi1_lo[m]`` hold the same (hi, lo) for every m.  They are the
  only dense scan, and run only on first access (``increment_check`` reads
  them): over cache-sized blocks, each block continuing from the exact limb
  totals of the one before.

lcm(1..m) comes in two independent implementations (a pairwise-lcm fold
and a prime-power product) specifically so they can be played against
each other and against psi: ln lcm(1..m) = psi(m).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exact import _LOW, _carry_scan, _exact_prefix_sum, _limbs, _shown

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
        Largest integer covered; the dense arrays have length limit + 1.
    mangoldt_base:
        int64; entry m is p when m = p^k, else 0.
    psi_cum:
        float64; psi(m), correctly rounded, nondecreasing; it steps only at
        prime powers, where mangoldt_base is nonzero.
    run_start:
        int64; 0 and every prime power, in order.  Run k is the stretch from
        run_start[k] to the next start, where psi is constant.
    run_psi1_top, run_psi1_low:
        int64; S_k * 2^53 = top * 2^43 + low with low < 2^43, where S_k is
        psi_1(run_start[k] - 1), the exact sum of the stored psi values
        before run k.  :func:`psi1` and :func:`psi1_increment` read psi_1
        from these: psi_1(m) = S_k + (m - run_start[k] + 1) psi(m) in run k.

    Dense psi_1, built on first access
    ----------------------------------
    psi1_hi, psi1_lo:
        float64; psi_1(m) summed exactly over the stored psi values: hi
        correctly rounded, lo the exact remainder (limits <= MAX_LIMIT).
        One blocked scan fills and freezes both; after it they are plain
        instance attributes.
    """

    limit: int
    mangoldt_base: np.ndarray
    psi_cum: np.ndarray
    run_start: np.ndarray
    run_psi1_top: np.ndarray
    run_psi1_low: np.ndarray

    @cached_property
    def psi1_hi(self) -> np.ndarray:
        hi, lo = np.empty(self.limit + 1), np.empty(self.limit + 1)
        carry = np.zeros(2, dtype=np.int64)
        # psi_1 is the exact running sum of the *stored* psi values, not of exact psi.
        for start in range(0, self.limit + 1, _BLOCK):
            block = slice(start, start + _BLOCK)
            _exact_prefix_sum(self.psi_cum[block], carry, hi[block], lo[block])
        hi.setflags(write=False)
        lo.setflags(write=False)
        vars(self)["psi1_lo"] = lo  # the same scan fills both
        return hi

    @cached_property
    def psi1_lo(self) -> np.ndarray:
        self.psi1_hi  # stores psi1_lo beside it
        return vars(self)["psi1_lo"]


def build_table(limit: int) -> PrimeTable:
    """Sieve and accumulate the tables up to ``limit`` (1 <= limit <= MAX_LIMIT)."""
    if not 1 <= limit <= MAX_LIMIT:
        raise ValueError(f"build_table requires 1 <= limit <= {MAX_LIMIT}, got {_shown(limit)}")
    base, at = _mangoldt_base(limit)
    # psi steps only at prime powers: sum Lambda there once, hold each sum to the next.
    lam = np.log(base[at].astype(np.float64))
    _exact_prefix_sum(lam, np.zeros(2, dtype=np.int64), lam)
    starts = np.concatenate(([0], at))
    run_psi = np.concatenate(([0.0], lam))
    del at, lam  # so that while psi_cum is written, the peak is the table and two run arrays
    lengths = np.diff(starts, append=limit + 1)
    # S_k is the sum of the run totals len_j psi_j over j < k.  Every run but
    # the last is a gap between prime powers, far below _limbs' 2^20 at
    # limit <= MAX_LIMIT, so each product is exact.
    top, low = np.zeros_like(starts), np.zeros_like(starts)
    top[1:], low[1:] = _limbs(run_psi[:-1], lengths[:-1])
    _carry_scan(top, low, np.zeros(2, dtype=np.int64))
    psi_cum = np.repeat(run_psi, lengths)
    for arr in (base, psi_cum, starts, top, low):
        arr.setflags(write=False)
    return PrimeTable(
        limit=limit,
        mangoldt_base=base,
        psi_cum=psi_cum,
        run_start=starts,
        run_psi1_top=top,
        run_psi1_low=low,
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


def _psi1_sums(table: PrimeTable, m: int) -> tuple[int, int]:
    """2^53 psi_1(m - 1) and 2^53 psi_1(m) as exact Python ints, for 0 <= m <= limit.

    psi is constant on the run holding m, so both are S_k plus whole steps
    of the stored psi(m).
    """
    k = int(table.run_start.searchsorted(m, "right")) - 1
    before = (table.run_psi1_top.item(k) << _LOW) + table.run_psi1_low.item(k)
    step = int(table.psi_cum.item(m) * 2.0**53)
    j = m - table.run_start.item(k)
    return before + j * step, before + (j + 1) * step


def _rounded(s: int) -> tuple[float, float]:
    """s / 2^53 as (hi, lo): hi correctly rounded (half to even), lo the exact rest."""
    hi = s / 2**53
    return hi, (s - int(hi * 2.0**53)) / 2**53


def mangoldt(table: PrimeTable, m: int) -> int | None:
    """The prime p with m = p^k, or None when Lambda(m) = 0.  1 <= m <= limit."""
    p = int(table.mangoldt_base[_integer_index(table, m, "mangoldt")])
    return p if p else None


def psi(table: PrimeTable, x: float) -> float:
    """Chebyshev psi(x) = sum_{m <= x} Lambda(m), for 0 <= x <= limit."""
    return float(table.psi_cum[_check_range(table, x, 0)])


def psi1(table: PrimeTable, x: float) -> float:
    """psi_1(x) = sum_{m <= x} psi(m) = integral of psi, for 0 <= x <= limit.

    Read from the run sums, not the dense arrays, and rounded once: the
    same float as ``table.psi1_hi[floor(x)]``.
    """
    return _psi1_sums(table, _check_range(table, x, 0))[1] / 2**53


def psi1_increment(table: PrimeTable, m: int) -> float:
    """psi_1(m) - psi_1(m-1) from the (hi, lo) pairs, rounded once.

    Both pairs come from the run sums, each exact sum rounded once, so
    they are the pairs ``psi1_hi``/``psi1_lo`` hold, and no dense array is
    built.  hi + lo is each exact psi_1 sum, and ``math.fsum`` rounds the
    exact difference of the four limbs once, so this equals the stored
    psi(m) bit for bit; it exists so that consumers (and tests) can
    witness the identity without re-deriving the accumulation scheme.
    Requires 1 <= m <= limit.
    """
    below, at = _psi1_sums(table, _integer_index(table, m, "psi1_increment"))
    (hi0, lo0), (hi1, lo1) = _rounded(below), _rounded(at)
    return math.fsum((hi1, -hi0, lo1, -lo0))


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
