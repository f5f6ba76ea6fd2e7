"""Shared fixtures.

Sieve tables dominate setup cost, so the two sizes used across the suite
are built once per session.  ``table_small`` covers every window touched
by the increment sweeps (top index 1390 at n = 500); ``table_million``
backs the large-scale descriptive checks.  ``largest_accepted`` finds the
end of a float evaluator's range, for the checks at that end.
"""

import pytest

from primebound import primes


@pytest.fixture(scope="session")
def table_small():
    return primes.build_table(2000)


@pytest.fixture(scope="session")
def table_million():
    return primes.build_table(1_000_000)


def _largest_accepted(call, lo, hi):
    """The largest int k in [lo, hi) at which ``call(k)`` raises no ValueError.

    ``call`` must accept lo, refuse hi, and refuse every k past one it refuses.
    """
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            call(mid)
            lo = mid
        except ValueError:
            hi = mid
    return lo


@pytest.fixture(scope="session")
def largest_accepted():
    return _largest_accepted
