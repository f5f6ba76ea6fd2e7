"""Verification lab for determinant / lcm lower bounds on Chebyshev functions.

The package builds, checks, and stress-tests the elementary chain that
leads from exact Hankel-determinant identities for beta-integral moment
matrices, through lcm-based integrality inequalities, to an explicit
asymptotic lower bound psi_1(x) >= c * x^2 with c ~ 0.49517.

Modules
-------
exact
    Factorial ratios, Pochhammer symbols, the exact limb prefix sum,
    log-superfactorials from a correctly rounded table and a series.
primes
    Sieve of Eratosthenes, von Mangoldt classification, exact
    Chebyshev psi / psi_1 tables, lcm(1..m) by a cached pairwise fold.
determinants
    Hankel beta-moment determinants, a two-sided determinant lemma and
    its specialisation, integrality inequalities, Selberg integral
    cross-checks against quadrature.
bounds
    The finite quantity Delta_n(s) in log space, its asymptotic coefficient,
    the optimisation producing the 0.49517 constant, and the increment
    inequality driving the psi_1 lower bound.
report / suites / cli
    Structured pass-fail reporting, named verification suites, and the
    command-line front end.

The tests' second routes (naive elimination, moments and Delta_n(s) from
factorials, lcm as a prime-power product) are in ``tests/witnesses.py``,
outside the package.
"""

from . import bounds, determinants, exact, primes  # noqa: F401

__all__ = ["exact", "primes", "determinants", "bounds"]
__version__ = "0.1.0"
