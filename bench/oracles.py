"""Reference results computed without the package's code.

Each oracle recomputes what a workload's ops produce by a different route:
its own sieve, exact integer prefix sums instead of double-double scans,
exact factorials or mpmath instead of the compensated log-factorial table,
and grid sizes counted from the command-line arguments.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

ULP_SCALE = 2.0**53  # every Lambda(m) and psi(m) is an integer multiple of 2^-53


def mangoldt_base(limit: int) -> np.ndarray:
    """base[m] = p when m = p^k, else 0: Eratosthenes plus direct prime-power marking."""
    is_prime = np.ones(limit + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    base = np.zeros(limit + 1, dtype=np.int64)
    primes = np.flatnonzero(is_prime)
    base[primes] = primes
    for p in primes[primes <= math.isqrt(limit)].tolist():
        pk = p * p
        while pk <= limit:
            base[pk] = p
            pk *= p
    return base


def mangoldt_lambda(base: np.ndarray) -> np.ndarray:
    """Lambda(m) with numpy's log, as the package computes it.

    ``math.log`` differs from ``np.log`` in the last bit for a few primes
    below 4e6, so the log itself must come from numpy to compare bits.
    """
    lam = np.zeros(base.size)
    pos = base > 0
    lam[pos] = np.log(base[pos].astype(np.float64))
    return lam


def exact_prefix(values: np.ndarray) -> np.ndarray:
    """Correctly rounded prefix sums of floats that are multiples of 2^-53.

    Sums the scaled values as Python integers (no rounding at all) and
    rounds each partial sum once.  Only nonzero entries are summed, so the
    cost follows the number of prime powers, not the length.
    """
    pos = np.flatnonzero(values)
    scaled = (values[pos] * ULP_SCALE).tolist()
    if any(q != int(q) for q in scaled):
        raise ValueError("values are not multiples of 2^-53")
    sums = np.array([float(c) for c in itertools.accumulate(int(q) for q in scaled)])
    out = np.zeros(values.size)
    j = np.searchsorted(pos, np.arange(values.size), side="right") - 1
    out[j >= 0] = sums[j[j >= 0]] / ULP_SCALE
    return out


def psi(limit: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(mangoldt base, Lambda, correctly rounded psi) for 0..limit."""
    base = mangoldt_base(limit)
    lam = mangoldt_lambda(base)
    return base, lam, exact_prefix(lam)


def log_delta_exact(s: float, n: int) -> float:
    """ln Delta_n(s) from exact factorial products; n <= 200 keeps it quick."""
    a = int(math.floor(s * n))
    num = den = 1
    for j in range(n):
        fa = math.factorial(a + j - 1)
        num *= fa * fa * math.factorial(j)
        den *= math.factorial(2 * a + n + j - 2)
    return math.log(num) - math.log(den)


def log_delta_mpmath(s: float, n: int, dps: int = 30) -> float:
    """ln Delta_n(s) as a sum of mpmath log-gamma values at ``dps`` digits."""
    import mpmath

    a = int(math.floor(s * n))
    with mpmath.workdps(dps):
        total = mpmath.mpf(0)
        for j in range(n):
            total += 2 * mpmath.loggamma(a + j) + mpmath.loggamma(j + 1)
            total -= mpmath.loggamma(2 * a + n + j - 1)
        return float(total)


def verify_checks(suite: str, max_n: int, max_ab: int, max_ij: int, count: int):
    """[(check name, cases)] that ``verify`` must report for these arguments."""
    identities = [
        ("hankel_det_equals_closed_form", max_n * max_ab**2),
        ("partial_fraction_expands_entry", max_ab**2 * 2 * max_n),
        ("determinant_lemma_random", count),
        ("lemma_specialises_to_hankel", min(max_n, 8) * min(max_ab, 6) ** 2),
        ("generalized_identity_random", count),
        ("consecutive_indices_match_hankel", min(max_n, 6) * min(max_ab, 5)),
    ]
    inequalities = [
        ("lcm_times_entry_is_positive_integer", max_ab**2 * max_ij**2),
        ("improved_product_at_least_one", max_n * max_ab**2),
        ("generalized_inequality_at_least_one", count),
    ]
    selberg = [
        ("selberg_gamma_one_matches_hankel", max_n * max_ab**2),
        ("quadrature_matches_product", 2 * 3 * min(max_ab, 4) ** 2),
    ]
    by_suite = {
        "identities": identities,
        "inequalities": inequalities,
        "selberg": selberg,
        "all": identities + inequalities + selberg,
    }
    return by_suite[suite]
