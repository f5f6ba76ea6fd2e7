"""Sieve-backed prime tables: von Mangoldt, Chebyshev psi and psi_1, lcm(1..m).

The central object is :class:`PrimeTable`, built once per limit.  psi is
constant from one prime power to the next, so the table is its prime
powers: run k starts at ``run_start[k]`` (0, then every prime power) and
holds one psi value and one psi_1 sum.  That is 32 bytes per prime power,
about 2.5 bytes per integer at 1e6 and 2.1 at 1e7.

* The sieve is odd-only (the wheel-2 sieve of Crandall and Pomerance,
  *Prime Numbers*, 3.2), one bool per odd number, (limit + 1) // 2 bytes
  freed before the run sums: it finds the odd primes, the few odd powers
  p^k with p <= sqrt(limit) are marked directly, and 2 and its powers are
  merged in afterwards.
* ``run_psi[k]`` = psi(run_start[k]) = sum of Lambda(j) over j up to
  run_start[k], as a correctly-rounded float, where Lambda(p^k) = ln p.
  Every Lambda value is 0 or at least ln 2, hence an integer multiple of
  2^-53, so the integer-limb scan shared with ``exact``'s log tables sums
  them exactly, and each stored psi is its exact sum rounded once, which
  makes it monotone.
* psi_1(m) = sum_{j<=m} psi(j), summed the same way over the *stored* psi
  floats.  psi_1 is linear on each run, so the table keeps only S_k, the
  exact psi_1 before run k, as int64 limbs from a scan over the run
  totals.  Both scans walk the runs in cache-sized blocks, the psi sum of a
  block just before its run totals, each continuing from the exact limb
  totals of the block before.
* Every read of psi_1 is one vector read, :func:`_psi1_at`: it sums
  psi_1(m) = S_k + (m - start_k + 1) psi(m) exactly in limbs and rounds it
  once to (hi, lo), hi correctly rounded and lo the exact remainder, for
  every limit up to ``MAX_LIMIT`` = 9e7.  So the increment
  psi_1(m) - psi_1(m-1) equals the stored psi(m) exactly, bit for bit,
  which :func:`psi1_increment` exposes.
* The dense arrays, 8 bytes per integer each, are built from the runs,
  each in its own anonymous mapping, so that dropping one hands its pages
  back to the system at once.  ``mangoldt_base`` and ``psi_cum`` are built
  anew on every read and never stored; ``psi1_hi``, which
  ``increment_check`` reads once per window, is built on first access, a
  block at a time by :func:`_psi1_at`, and kept.  :func:`psi`,
  :func:`psi1` and :func:`mangoldt` read the runs and build none of them.

lcm(1..m) is a pairwise-lcm fold on from a cache (:func:`lcm_upto`).  The
tests play it against a prime-power product, ``lcm_upto_prime_powers`` in
``tests/witnesses.py``, and against psi: ln lcm(1..m) = psi(m).
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exact import _carry_low, _carry_scan, _exact_prefix_sum, _floats, _limbs, _shown

_LCM_CACHE_MAX = 2048

# _LCM[m] == lcm(1, ..., m); index 0 is a padding entry.
_LCM: list[int] = [1, 1]


# ----------------------------------------------------------------------
# sieve and table construction
# ----------------------------------------------------------------------

# Limb sums are exact while psi_1(limit) < 2^52; psi(m) < 1.03883 m gives psi_1(9e7) < 4.3e15.
MAX_LIMIT = 90_000_000

# Runs per block of build_table's two scans, and entries per block of the
# psi1_hi fill.  Of 2^13..2^16 timed for the build at limits 632,456, 4e6
# and 1e7 on a 2-core VM (best of 9 to 12, three sweeps), 2^15 was fastest at
# 4e6 and 1e7 in the interleaved sweep and 2^13 at 632,456, so none won at all
# three.  For the fill, 2^13..2^15 were within 10% of each other at 1e6 and
# 1e7 (best of 5 to 9, two sweeps), and 2^16..2^18 were slowest at 1e7.
_BLOCK = 1 << 15


def _mangoldt_base(limit: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """0 and every prime power up to limit in order, and the powers p^k (k >= 2) with their p.

    Odd-only sieve: entry i of ``odd`` stands for 2i + 1.  The odd primes are
    sieved and their powers marked directly; then 0 (the start of the first
    run), 2 and its powers are merged in by position.  The merge and the sort
    of the few powers avoid ``np.insert`` and ``np.argsort``: the first call
    of those two added 0.6 MB of peak RSS to a table of 2,340 entries.
    """
    odd = np.ones((limit + 1) // 2, dtype=bool)
    odd[:1] = False  # 1 is not prime
    powers = [(1 << k, 2) for k in range(2, int(limit).bit_length())]  # (p^k, p)
    for q in range(3, math.isqrt(limit) + 1, 2):
        if odd[q >> 1]:
            odd[q * q >> 1 :: q] = False  # q^2, q^2 + 2q, ...
            pk = q * q
            while pk <= limit:
                powers.append((pk, q))
                pk *= q
    # Only now: the loop reads odd[q >> 1] as "q is prime".
    odd[[pk >> 1 for pk, p in powers if p > 2]] = True
    at = np.flatnonzero(odd) * 2 + 1
    twos = [0, *(1 << k for k in range(1, int(limit).bit_length()))]
    slots = at.searchsorted(twos) + np.arange(len(twos))  # where 0, 2, 4, ... land
    starts = np.empty(at.size + len(twos), dtype=np.int64)
    starts[slots] = twos
    rest = np.ones(starts.size, dtype=bool)
    rest[slots] = False
    starts[rest] = at
    powers.sort()
    roots = np.array([p for _, p in powers], dtype=np.int64)
    return starts, np.array([v for v, _ in powers], dtype=np.int64), roots


@dataclass(frozen=True, eq=False)
class PrimeTable:
    """Immutable sieve product for a fixed limit.

    Fields (built eagerly; 32 bytes per prime power)
    ------------------------------------------------
    limit:
        Largest integer covered; the dense arrays have length limit + 1.
    run_start:
        int64; 0 and every prime power, in order.  Run k is the stretch from
        run_start[k] to the next start, where psi is constant.
    run_psi:
        float64; psi on run k, correctly rounded, nondecreasing.
    run_psi1_top, run_psi1_low:
        int64; S_k * 2^53 = top * 2^43 + low with low < 2^43, where S_k is
        psi_1(run_start[k] - 1), the exact sum of the stored psi values
        before run k.  :func:`psi1` and :func:`psi1_increment` read psi_1
        from these: psi_1(m) = S_k + (m - run_start[k] + 1) psi(m) in run k.
    powers, roots:
        int64; the prime powers p^k with k >= 2, ascending, and their p.

    Dense arrays, built from the runs (8 bytes per integer each)
    -------------------------------------------------------------
    mangoldt_base:
        int64; entry m is p when m = p^k, else 0.  Built on every read.
    psi_cum:
        float64; psi(m), run_psi expanded over every m.  Built on every
        read, a block of runs at a time.
    psi1_hi:
        float64; psi_1(m) summed exactly over the stored psi values and
        correctly rounded (limits <= MAX_LIMIT): the hi of :func:`_psi1_at`,
        filled a block at a time, without building psi_cum.  Built on first
        access and kept, a plain instance attribute from then on.

    Each is frozen and lives in its own anonymous mapping (:func:`_mapped`):
    a read of the first two returns a new array, whose pages go back to the
    system when the caller drops it, not to the heap.
    """

    limit: int
    run_start: np.ndarray
    run_psi: np.ndarray
    run_psi1_top: np.ndarray
    run_psi1_low: np.ndarray
    powers: np.ndarray
    roots: np.ndarray

    @property
    def mangoldt_base(self) -> np.ndarray:
        base = _mapped(self.limit + 1, np.int64)
        at = self.run_start[1:]
        base[at] = at
        base[self.powers] = self.roots
        base.setflags(write=False)
        return base

    @property
    def psi_cum(self) -> np.ndarray:
        psi = _mapped(self.limit + 1, np.float64)
        starts, runs = self.run_start, self.run_start.size
        for a in range(0, runs, _BLOCK):
            b = min(a + _BLOCK, runs)
            stop = starts.item(b) if b < runs else self.limit + 1
            lengths = np.diff(starts[a:b], append=stop)
            psi[starts.item(a) : stop] = np.repeat(self.run_psi[a:b], lengths)
        psi.setflags(write=False)
        return psi

    @cached_property
    def psi1_hi(self) -> np.ndarray:
        hi = _mapped(self.limit + 1, np.float64)
        for start in range(0, self.limit + 1, _BLOCK):
            stop = min(start + _BLOCK, self.limit + 1)
            hi[start:stop] = _psi1_at(self, np.arange(start, stop))[0]
        hi.setflags(write=False)
        return hi


def _mapped(size: int, dtype) -> np.ndarray:
    """A zeroed, writable array of ``size`` entries in its own private anonymous mapping.

    Dropping the last reference unmaps it, so its pages leave the process at
    once.  An array of limit + 1 entries from the heap (``np.zeros``) would
    not: once glibc frees one such block it raises its mmap threshold to
    that size (up to 32 MiB), later ones land on the heap, and their freed
    pages stay resident, so the peak grows with each array built and
    dropped.
    """
    nbytes = size * np.dtype(dtype).itemsize
    if hasattr(mmap, "MAP_PRIVATE"):
        buf = mmap.mmap(-1, nbytes, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    else:  # Windows: no flags; a -1 mapping is anonymous already
        buf = mmap.mmap(-1, nbytes)
    return np.frombuffer(buf, dtype=dtype)


def build_table(limit: int) -> PrimeTable:
    """Sieve and accumulate the run arrays up to ``limit`` (1 <= limit <= MAX_LIMIT)."""
    if type(limit) is not int:  # bool included
        raise ValueError(f"build_table requires an int limit, got {_shown(limit)}")
    if not 1 <= limit <= MAX_LIMIT:
        raise ValueError(f"build_table requires 1 <= limit <= {MAX_LIMIT}, got {_shown(limit)}")
    starts, powers, roots = _mangoldt_base(limit)
    # Lambda at each prime power, logged in place: ln p at p^k, and ln 1 = 0
    # on the run before 2; summed, each sum is psi on its run.
    run_psi = starts.astype(np.float64)
    run_psi[0] = 1.0
    run_psi[starts.searchsorted(powers)] = roots
    # S_k is the sum of the run totals len_j psi_j over j < k, so S_0 = 0.
    # Every run but the last is a gap between prime powers, far below _limbs'
    # 2^20 at limit <= MAX_LIMIT, so each product is exact.  Both sums run a
    # block of runs at a time, each carry holding the exact total so far.
    top, low = np.zeros(starts.size, dtype=np.int64), np.zeros(starts.size, dtype=np.int64)
    psi_carry, s_carry = np.zeros(2, dtype=np.int64), np.zeros(2, dtype=np.int64)
    for a in range(0, starts.size, _BLOCK):
        block = run_psi[a : a + _BLOCK]
        np.log(block, out=block)
        _exact_prefix_sum(block, psi_carry, block)
        b = min(a + _BLOCK, starts.size - 1)  # the last run ends no S_k
        t, lo = _limbs(run_psi[a:b], np.diff(starts[a : b + 1]))
        _carry_scan(t, lo, s_carry)
        top[a + 1 : b + 1], low[a + 1 : b + 1] = t, lo
    for arr in (starts, run_psi, top, low, powers, roots):
        arr.setflags(write=False)
    return PrimeTable(
        limit=limit,
        run_start=starts,
        run_psi=run_psi,
        run_psi1_top=top,
        run_psi1_low=low,
        powers=powers,
        roots=roots,
    )


# ----------------------------------------------------------------------
# queries
# ----------------------------------------------------------------------

def _check_range(table: PrimeTable, x: float, lo: float) -> int:
    if not (lo <= x <= table.limit):
        raise ValueError(f"argument {_shown(x)} outside table range [{lo}, {table.limit}]")
    return int(math.floor(x))


def _integer_index(table: PrimeTable, m: int, name: str) -> int:
    """m as an index 1 <= m <= limit; a non-integer, nan or infinite m is a ValueError."""
    try:
        idx = int(m)
    except (OverflowError, ValueError):
        raise ValueError(f"{name} requires an integer, got {_shown(m)}") from None
    if m != idx:
        raise ValueError(f"{name} requires an integer, got {_shown(m)}")
    return _check_range(table, idx, 1)


def _run(table: PrimeTable, m):
    """The run holding m, for 0 <= m <= limit; an array of runs for an array of m."""
    return table.run_start.searchsorted(m, "right") - 1


def _psi1_at(table: PrimeTable, ms) -> tuple[np.ndarray, np.ndarray]:
    """psi_1(m) for each m of ms (an int64 array or a list, 0 <= m <= limit) as (hi, lo).

    One ``searchsorted`` finds each run k.  psi is constant on it, so
    2^53 psi_1(m) is the stored S_k plus m - run_start[k] + 1 steps of the
    stored psi(m), summed exactly in limbs (the step count is at most a run
    length, below ``_limbs``' 2^20); :func:`exact._floats` rounds it once,
    hi correctly rounded and lo the exact rest.  psi_1 is the sum of the
    *stored* psi values, not of exact psi.
    """
    ms = np.asarray(ms, dtype=np.int64)
    k = _run(table, ms)
    top, low = _limbs(table.run_psi[k], ms - table.run_start[k] + 1)
    top += table.run_psi1_top[k]
    low += table.run_psi1_low[k]
    _carry_low(top, low)
    return _floats(top, low)


def _psi1_increments(table: PrimeTable, first: int, last: int) -> list[tuple[float, float]]:
    """(psi_1(m) - psi_1(m-1) from the (hi, lo) pairs, stored psi(m)) for 1 <= first <= m <= last.

    One read gives the pairs at first - 1 ... last, and ``math.fsum``
    rounds the exact difference of the four limbs at m and m - 1 once.
    """
    ms = np.arange(first - 1, last + 1)
    hi, lo = (v.tolist() for v in _psi1_at(table, ms))
    psis = table.run_psi[_run(table, ms[1:])].tolist()
    return [
        (math.fsum((h1, -h0, l1, -l0)), p)
        for h1, h0, l1, l0, p in zip(hi[1:], hi, lo[1:], lo, psis)
    ]


def mangoldt(table: PrimeTable, m: int) -> int | None:
    """The prime p with m = p^k, or None when Lambda(m) = 0.  1 <= m <= limit."""
    m = _integer_index(table, m, "mangoldt")
    if table.run_start.item(_run(table, m)) != m:
        return None
    j = int(table.powers.searchsorted(m))
    return table.roots.item(j) if j < table.powers.size and table.powers.item(j) == m else m


def psi(table: PrimeTable, x: float) -> float:
    """Chebyshev psi(x) = sum_{m <= x} Lambda(m), for 0 <= x <= limit.

    Read from the run holding floor(x): the same float as
    ``table.psi_cum[floor(x)]``.
    """
    return table.run_psi.item(_run(table, _check_range(table, x, 0)))


def psi1(table: PrimeTable, x: float) -> float:
    """psi_1(x) = sum_{m <= x} psi(m) = integral of psi, for 0 <= x <= limit.

    Read from the run sums, not the dense arrays, and rounded once: the
    same float as ``table.psi1_hi[floor(x)]``.
    """
    return _psi1_at(table, np.array([_check_range(table, x, 0)]))[0].item()


def psi1_increment(table: PrimeTable, m: int) -> float:
    """psi_1(m) - psi_1(m-1) from the (hi, lo) pairs, rounded once.

    Both pairs come from :func:`_psi1_at`, each exact sum rounded once,
    and no dense array is built.  hi + lo is each exact psi_1 sum, and
    ``math.fsum`` rounds the exact difference of the four limbs once, so
    this equals the stored psi(m) bit for bit; it exists so that consumers
    (and tests) can witness the identity without re-deriving the
    accumulation scheme.
    Requires 1 <= m <= limit.
    """
    m = _integer_index(table, m, "psi1_increment")
    return _psi1_increments(table, m, m)[0][0]


# ----------------------------------------------------------------------
# lcm(1..m)
# ----------------------------------------------------------------------

def lcm_upto(m: int) -> int:
    """d_m = lcm(1, ..., m), one pairwise fold on from the cache of d_k, k <= _LCM_CACHE_MAX."""
    if m < 1:
        raise ValueError(f"lcm_upto requires m >= 1, got {_shown(m)}")
    if m < len(_LCM):
        return _LCM[m]
    v = _LCM[-1]
    for k in range(len(_LCM), m + 1):
        v = math.lcm(v, k)
        if k <= _LCM_CACHE_MAX:
            _LCM.append(v)
    return v

