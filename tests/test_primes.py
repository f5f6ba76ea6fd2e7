"""Sieve-backed prime toolkit: classification, psi/psi_1 tables, lcm folds.

Oracles used here are deliberately primitive: trial division for the
prime-power classifier, an incremental ``math.lcm`` fold and an
incremental prime-power product for d_m, and Fraction-free float
reconstruction for the stored-increment identity.
"""

import itertools
import json
import math
import mmap
import operator
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import witnesses
from primebound import exact, primes


def _trial_division_base(m: int):
    """p if m = p^k (k >= 1) else None, by trial division."""
    if m < 2:
        return None
    p = None
    q = 2
    while q * q <= m:
        if m % q == 0:
            p = q
            break
        q += 1
    if p is None:
        return m  # m itself is prime
    while m % p == 0:
        m //= p
    return p if m == 1 else None


def _spf_sieve(limit: int) -> list:
    spf = list(range(limit + 1))
    for p in range(2, int(limit**0.5) + 1):
        if spf[p] == p:
            for q in range(p * p, limit + 1, p):
                if spf[q] == q:
                    spf[q] = p
    return spf


def _bytearray_mangoldt_base(limit: int) -> list:
    """base[m] = p if m = p^k (k >= 1) else 0, by a pure-Python bytearray sieve."""
    is_prime = bytearray([0, 0]) + bytearray([1]) * (limit - 1)
    for p in range(2, math.isqrt(limit) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    base = [0] * (limit + 1)
    for p in itertools.compress(range(limit + 1), is_prime):
        pk = p
        while pk <= limit:
            base[pk] = p
            pk *= p
    return base


def _exact_sum_mismatches(t, chunk: int = 1 << 16) -> list:
    """Indices m where psi_cum or ``_psi1_at``'s (hi, lo) differ from exact sums.

    The sums are Python ints of x * 2^53, carried across chunks of
    ``chunk`` entries so that memory stays small at any limit.  Each chunk
    of sums becomes floats in one ``np.array`` call, which rounds as
    ``float()`` does, so dividing by 2^53 gives each sum correctly rounded;
    lo is compared exactly with the integer rest of each psi_1 sum.
    """
    q = 2**53
    s_psi = s_psi1 = 0
    bad = []
    base, psi_cum = t.mangoldt_base, t.psi_cum  # each read builds the array
    for start in range(0, t.limit + 1, chunk):
        ms = np.arange(start, min(start + chunk, t.limit + 1))
        lam = np.log(np.maximum(base[ms], 1).astype(np.float64))
        psi = psi_cum[ms]
        # Times 2^53 (exact), each float is an integer, and int() takes it exactly.
        psi_sums = [*itertools.accumulate(map(int, (lam * q).tolist()), initial=s_psi)][1:]
        psi1_sums = [*itertools.accumulate(map(int, (psi * q).tolist()), initial=s_psi1)][1:]
        s_psi, s_psi1 = psi_sums[-1], psi1_sums[-1]
        hi, lo = primes._psi1_at(t, ms)
        rests = list(map(operator.sub, psi1_sums, map(int, (hi * q).tolist())))
        ok = np.array(psi_sums, dtype=np.float64) / q == psi
        ok &= np.array(psi1_sums, dtype=np.float64) / q == hi
        ok &= lo * q == np.array(rests, dtype=np.float64)
        bad += ms[~ok].tolist()
    return bad


def _point_read_mismatches(t, ms) -> list:
    """Indices m where psi or mangoldt read at m from the runs differs from
    the dense arrays."""
    base, psi = t.mangoldt_base.tolist(), t.psi_cum.view(np.int64).tolist()
    return [
        m for m in ms
        if np.float64(primes.psi(t, m)).view(np.int64) != psi[m]
        or (m and (primes.mangoldt(t, m) or 0) != base[m])
    ]


def _sampled(limit: int) -> list:
    """Every 997th index up to limit, and the last 300."""
    return sorted({*range(0, limit + 1, 997), *range(max(0, limit - 299), limit + 1)})


# ----------------------------------------------------------------------
# construction and classification
# ----------------------------------------------------------------------


def test_build_table_rejects_bad_limit():
    with pytest.raises(ValueError):
        primes.build_table(0)
    with pytest.raises(ValueError):
        primes.build_table(-3)


@pytest.mark.parametrize("limit", [100.0, True, np.int64(100), "100"])
def test_build_table_refuses_a_limit_that_is_not_an_int(limit):
    # A float limit reached numpy as a TypeError, and True built a table
    # whose limit was True.
    with pytest.raises(ValueError, match="build_table requires an int limit"):
        primes.build_table(limit)


def _no_sieve(limit):
    raise AssertionError("a table was allocated before the limit was checked")


def test_build_table_refuses_limit_past_exactness_cap(monkeypatch):
    # The sieve is stubbed out so that a guard placed after the allocation
    # fails here instead of asking for the several GB a 9e7 table takes.
    monkeypatch.setattr(primes, "_mangoldt_base", _no_sieve)
    with pytest.raises(ValueError):
        primes.build_table(90_000_001)


def test_limit_one_table():
    t = primes.build_table(1)
    assert primes.psi(t, 1) == 0.0
    assert primes.psi1(t, 1) == 0.0
    assert primes.mangoldt(t, 1) is None


def test_mangoldt_map_limit_ten():
    t = primes.build_table(10)
    expected = {2: 2, 3: 3, 4: 2, 5: 5, 7: 7, 8: 2, 9: 3}
    for m in range(1, 11):
        assert primes.mangoldt(t, m) == expected.get(m)


def test_mangoldt_matches_trial_division(table_million):
    for m in range(1, 20_001):
        assert primes.mangoldt(table_million, m) == _trial_division_base(m)


def test_mangoldt_base_matches_bytearray_sieve(table_million):
    million = table_million.mangoldt_base
    assert million.tolist() == _bytearray_mangoldt_base(1_000_000)
    # The bases at a smaller limit are a prefix of these, and the run starts
    # after 0 are the positions of the prime powers.
    for limit in (*range(1, 41), B - 1, B + 1, 1_000_000):
        t = primes.build_table(limit)
        base = t.mangoldt_base
        assert base.tolist() == million[: limit + 1].tolist(), limit
        assert t.run_start[1:].tolist() == np.flatnonzero(base).tolist(), limit


def test_mangoldt_validation(table_small):
    with pytest.raises(ValueError):
        primes.mangoldt(table_small, 0)
    with pytest.raises(ValueError):
        primes.mangoldt(table_small, 2001)
    with pytest.raises(ValueError):
        primes.mangoldt(table_small, 8.5)
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            primes.mangoldt(table_small, bad)


def test_table_arrays_are_frozen(table_small):
    t = table_small
    for arr in (t.mangoldt_base, t.psi_cum, t.run_start, t.run_psi, t.run_psi1_top,
                t.run_psi1_low, t.powers, t.roots, t.psi1_hi):
        with pytest.raises(ValueError):
            arr[1] = 1


# ----------------------------------------------------------------------
# psi and psi_1
# ----------------------------------------------------------------------


def test_psi_fixtures(table_small):
    t = table_small
    assert primes.psi(t, 0) == 0.0
    assert primes.psi(t, 1) == 0.0
    assert primes.psi(t, 1.999) == 0.0
    assert primes.psi(t, 2) == math.log(2.0)
    assert math.isclose(primes.psi(t, 10), math.log(2520), rel_tol=1e-12)
    assert primes.psi(t, 10.9) == primes.psi(t, 10)


def test_psi_range_errors(table_small):
    with pytest.raises(ValueError):
        primes.psi(table_small, -0.5)
    with pytest.raises(ValueError):
        primes.psi(table_small, 2000.5)


def test_psi1_fixtures(table_small):
    t = table_small
    assert primes.psi1(t, 1) == 0.0
    assert math.isclose(primes.psi1(t, 3), math.log(12), rel_tol=1e-12)
    assert math.isclose(primes.psi1(t, 5), math.log(8640), rel_tol=1e-12)
    assert primes.psi1(t, 2.7) == primes.psi1(t, 2)
    with pytest.raises(ValueError):
        primes.psi1(t, 2001)


def test_psi_equals_log_lcm_to_ten_thousand(table_million):
    v = 1
    for m in range(1, 10_001):
        v = math.lcm(v, m)
        pm = primes.psi(table_million, m)
        assert abs(math.log(v) - pm) <= 1e-8 * max(1.0, pm)


def test_psi_monotone_and_three_increment(table_million):
    c = table_million.psi_cum
    assert np.all(np.diff(c) >= 0.0)
    # Windowed sums psi(m) + psi(m-1) + psi(m-2) are nondecreasing too.
    w = c[2:] + c[1:-1] + c[:-2]
    assert np.all(np.diff(w) >= 0.0)


def test_psi_near_million_scale(table_million):
    v = primes.psi(table_million, 1_000_000)
    assert abs(v - 1_000_000) <= 0.005 * 1_000_000


def test_psi1_increment_equals_stored_psi_small(table_small):
    for m in range(1, 2001):
        assert primes.psi1_increment(table_small, m) == primes.psi(table_small, m)


def test_psi1_increment_equals_stored_psi_million(table_million):
    t = table_million
    hi, lo = primes._psi1_at(t, np.arange(t.limit + 1))
    # Exact double-double difference of consecutive pairs.
    a, b = hi[1:], -hi[:-1]
    s = a + b
    bb = s - a
    err = (a - (s - bb)) + (b - bb)
    err = err + (lo[1:] - lo[:-1])
    assert np.array_equal(s + err, t.psi_cum[1:])
    for m in (2, 3, 1000, 999_983, 1_000_000):
        assert primes.psi1_increment(t, m) == primes.psi(t, m)


def test_tables_equal_exact_integer_sums(table_million):
    """Every entry against prefix sums in Python ints, scaled by 2^53.

    Each Lambda(m) and each stored psi(m) is 0 or at least ln 2, so times
    2^53 it is an exact integer S; S / 2**53 is then the correctly rounded
    sum, and the lo of ``_psi1_at`` must hold the exact rest of its hi.
    """
    assert not _exact_sum_mismatches(table_million)


B = primes._BLOCK
DENSE = {"mangoldt_base", "psi_cum", "psi1_hi"}


@pytest.mark.parametrize("limit", [1, 2, 3, 4, 10, 2000, B - 1, B, B + 1, 100_000])
def test_point_reads_equal_dense_arrays_at_every_index(limit):
    t = primes.build_table(limit)
    assert not DENSE & vars(t).keys()
    assert not _point_read_mismatches(t, range(limit + 1))
    # psi1_hi is _psi1_at's hi, filled a block at a time; the oracle checks the read.
    assert not _exact_sum_mismatches(t)
    assert t.psi1_hi.tobytes() == primes._psi1_at(t, np.arange(limit + 1))[0].tobytes()


def test_point_reads_equal_dense_arrays_million(table_million):
    t = table_million
    ms = _sampled(t.limit)
    assert not _point_read_mismatches(t, ms)
    assert [primes.psi1(t, m) for m in ms] == t.psi1_hi[ms].tolist()


@pytest.mark.parametrize("first", ["mangoldt_base", "psi_cum", "psi1_hi"])
def test_each_dense_array_is_built_once_whichever_is_read_first(first):
    # psi1_hi is built once and kept.  mangoldt_base and psi_cum are built
    # on every read, distinct arrays with equal bytes, and a read of either
    # stores nothing on the table and builds no psi1_hi.
    t, ref = primes.build_table(B + 1), primes.build_table(B + 1)
    arr = getattr(t, first)
    assert DENSE & vars(t).keys() == ({first} if first == "psi1_hi" else set())
    for name in sorted(DENSE):
        a, b = getattr(t, name), getattr(t, name)
        assert (a is b) == (name == "psi1_hi") == np.shares_memory(a, b), name
        assert a.tobytes() == b.tobytes() == getattr(ref, name).tobytes(), name
    assert DENSE & vars(t).keys() == {"psi1_hi"}
    assert first != "psi1_hi" or t.psi1_hi is arr


def test_psi1_increments_equal_stored_psi_over_ranges(table_small):
    # Each increment and each stored psi against psi(m), from the first
    # index, inside one run, across many runs, and to the limit.
    t = table_small
    for first, last in ((1, 1), (1, 2000), (24, 28), (1024, 1024), (1800, 2000), (2000, 2000)):
        want = [(psi, psi) for psi in t.psi_cum[first : last + 1].tolist()]
        assert primes._psi1_increments(t, first, last) == want, (first, last)


def test_psi1_at_reads_unsorted_points_with_repeats(table_small):
    # Against Python-int sums over an independent sieve's Lambda, in any
    # order, with repeats, at 0 and at the limit.
    t, q = table_small, 2**53
    lam = np.log(np.maximum(_bytearray_mangoldt_base(t.limit), 1).astype(np.float64))
    psi = [s / q for s in itertools.accumulate(int(x * q) for x in lam.tolist())]
    sums = list(itertools.accumulate(int(x * q) for x in psi))
    ms = [2000, 0, 17, 17, 1999, 0, 1024, 2000, 3, 2, 1, 1500, 2, 2000]
    want_hi = [sums[m] / q for m in ms]
    want_lo = [(sums[m] - int(h * q)) / q for m, h in zip(ms, want_hi)]
    hi, lo = primes._psi1_at(t, np.array(ms))
    assert hi.tobytes() == np.array(want_hi).tobytes()
    assert lo.tobytes() == np.array(want_lo).tobytes()


def test_run_sums_start_at_every_prime_power(table_small):
    t = table_small
    base = t.mangoldt_base
    assert t.run_start.tolist() == [0, *np.flatnonzero(base).tolist()]
    assert t.run_psi1_top[0] == t.run_psi1_low[0] == 0
    assert t.run_psi.tolist() == t.psi_cum[t.run_start].tolist()
    pk = [m for m in t.run_start[1:].tolist() if base[m] != m]
    assert t.powers.tolist() == pk
    assert t.roots.tolist() == base[pk].tolist()
    assert np.all(t.run_psi1_low < 2**43)


# Every small limit, where a block may hold no prime power (limit 1), and
# the edges of the first blocks: 2^16 is a prime power, 65,537 a prime.
@pytest.mark.parametrize(
    "limit", sorted({*range(1, 41), B - 1, B, B + 1, 2 * B + 1, 3 * B, 2**16 - 1, 2**16, 2**16 + 1})
)
def test_tables_exact_across_block_boundaries(limit):
    t = primes.build_table(limit)
    assert not _exact_sum_mismatches(t)
    for k in range(1, limit // B + 1):
        for m in (k * B - 1, k * B, k * B + 1):
            if m <= limit:
                assert primes.psi1_increment(t, m) == primes.psi(t, m), m


# build_table scans the runs B at a time: at these limits the last run
# falls just before, on and just after the edge of the first and second block.
@pytest.mark.parametrize("runs", [k * B + d for k in (1, 2) for d in (-1, 0, 1)])
def test_build_exact_across_run_block_boundaries(table_million, runs):
    limit = table_million.run_start.item(runs - 1)
    t = primes.build_table(limit)
    assert t.run_start.size == runs
    assert not _exact_sum_mismatches(t)
    # S_k against Python-int sums of the run totals len_j * psi_j * 2^53.
    q = 2**53
    lengths = np.diff(t.run_start, append=limit + 1).tolist()
    sums = itertools.accumulate((n * int(x * q) for n, x in zip(lengths, t.run_psi.tolist())), initial=0)
    limbs = zip(t.run_psi1_top.tolist(), t.run_psi1_low.tolist(), strict=True)
    assert [(top << exact._LOW) + low for top, low in limbs] == list(sums)[:-1]


def test_build_table_peak_memory_is_its_sparse_arrays():
    # The build writes no array of length limit + 1: its peak is the eager
    # run arrays, the odd-only sieve (one byte per odd number) and run-sized
    # temporaries.  Any dense temporary (8 MB here) fails.
    limit = 1_000_000
    tracemalloc.start()
    try:
        t = primes.build_table(limit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not DENSE & vars(t).keys()
    arrays = sum(a.nbytes for a in vars(t).values() if isinstance(a, np.ndarray))
    assert peak <= arrays + (limit + 1) // 2 + 2 * 2**20, (peak, arrays)


def test_dense_psi1_peak_memory_is_its_array():
    # psi1_hi is filled a block at a time into its own anonymous mapping,
    # which tracemalloc does not see: the traced peak is the fill's
    # block-sized temporaries alone, and the array's buffer is the mapping.
    t = primes.build_table(1_000_000)
    tracemalloc.start()
    try:
        hi = t.psi1_hi
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20, (peak, hi.nbytes)
    assert isinstance(hi.base, memoryview) and isinstance(hi.base.obj, mmap.mmap)


def _has_vm_hwm() -> bool:
    try:
        with open("/proc/self/status") as f:
            return any(line.startswith("VmHWM:") for line in f)
    except OSError:
        return False


# A fresh interpreter, so that no earlier test's heap or peak counts: build
# two tables and sha256 both dense views of each, as the sieve benchmark's
# record does, then print how far the peak RSS rose above the RSS before.
_READ_BOTH_VIEWS = """
import hashlib, json
import numpy as np
from primebound import primes

def kib(key):
    with open("/proc/self/status") as f:
        return next(int(line.split()[1]) for line in f if line.startswith(key + ":"))

before = kib("VmRSS")
for limit in (2_844_308, 4_000_000):
    t = primes.build_table(limit)
    runs = sum(a.nbytes for a in vars(t).values() if isinstance(a, np.ndarray))
    for name in ("mangoldt_base", "psi_cum"):
        hashlib.sha256(getattr(t, name).data).hexdigest()
print(json.dumps({"growth": (kib("VmHWM") - before) * 1024, "runs": runs}))
"""


@pytest.mark.skipif(not _has_vm_hwm(), reason="/proc/self/status has no VmHWM")
def test_reading_both_dense_views_peaks_at_one_view():
    # Each read builds its view in its own mapping and the caller drops it,
    # so the peak holds one 4e6 view (30.5 MB), at most two tables' run
    # arrays and block-sized temporaries.  Cached on the table, both views
    # stayed resident (growth 76.7 MB); built per read on the heap, glibc
    # kept the freed pages of earlier views resident (62.6 MB).
    package_root = str(Path(primes.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _READ_BOTH_VIEWS],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=pythonpath),
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    view = 8 * (4_000_000 + 1)
    assert got["growth"] < view + 2 * got["runs"] + 4 * 2**20, (got, view)


@pytest.mark.slow
def test_tables_equal_exact_integer_sums_ten_million():
    t = primes.build_table(10_000_000)
    assert not _exact_sum_mismatches(t)
    assert not _point_read_mismatches(t, _sampled(t.limit))


def test_psi1_increment_validation(table_small):
    with pytest.raises(ValueError):
        primes.psi1_increment(table_small, 0)
    with pytest.raises(ValueError):
        primes.psi1_increment(table_small, 2001)
    for bad in (math.inf, -math.inf, math.nan, 2.5):
        with pytest.raises(ValueError):
            primes.psi1_increment(table_small, bad)


# ----------------------------------------------------------------------
# d_m = lcm(1..m), two independent routes
# ----------------------------------------------------------------------


def test_lcm_fixtures():
    assert primes.lcm_upto(1) == 1
    assert primes.lcm_upto(6) == 60
    assert primes.lcm_upto(10) == 2520
    assert witnesses.lcm_upto_prime_powers(1) == 1
    assert witnesses.lcm_upto_prime_powers(6) == 60
    assert witnesses.lcm_upto_prime_powers(10) == 2520


def test_lcm_validation():
    with pytest.raises(ValueError):
        primes.lcm_upto(0)
    with pytest.raises(ValueError):
        witnesses.lcm_upto_prime_powers(-1)


def test_dual_lcm_routes_agree_to_ten_thousand():
    """Pairwise-lcm fold vs prime-power product, every m up to 10^4.

    Both routes are mirrored incrementally (``lcm_upto`` and the witness
    recompute from scratch per call, which is quadratic when swept), and
    the two functions themselves are anchored to the mirrors at every
    cached index plus spot checkpoints beyond the cache.
    """
    top = 10_000
    spf = _spf_sieve(top)
    fold = 1  # route a: lcm(fold, m)
    pp = 1  # route b: multiply by p exactly when m = p^k
    checkpoints = {2049, 2500, 4096, 5000, 9973, top}
    for m in range(1, top + 1):
        fold = math.lcm(fold, m)
        if m >= 2:
            p = spf[m]
            q = m
            while q % p == 0:
                q //= p
            if q == 1:
                pp *= p
        assert fold == pp
        if m <= 2048:
            assert primes.lcm_upto(m) == fold
        if m <= 256 or m in checkpoints:
            assert witnesses.lcm_upto_prime_powers(m) == pp
        if m in checkpoints:
            assert primes.lcm_upto(m) == fold


def test_lcm_fold_fills_the_cache_to_its_bound(monkeypatch):
    # From an empty cache and from a partly grown one, the fold past the
    # bound caches d_m for every m <= _LCM_CACHE_MAX and for no m above it.
    for first in (1, 10):
        monkeypatch.setattr(primes, "_LCM", [1, 1])
        primes.lcm_upto(first)
        assert len(primes._LCM) == first + 1
        assert primes.lcm_upto(5000) == witnesses.lcm_upto_prime_powers(5000)
        assert len(primes._LCM) == primes._LCM_CACHE_MAX + 1
        for m in (1, 2, 10, 11, 1000, 2047, 2048):
            assert primes._LCM[m] == witnesses.lcm_upto_prime_powers(m)


def test_lcm_cache_boundary_consistency():
    for m in (2047, 2048, 2049, 2060):
        first = primes.lcm_upto(m)
        assert first == primes.lcm_upto(m)  # cached/second path agree
        assert first == witnesses.lcm_upto_prime_powers(m)
