"""Named verification suites: sweep the exact identities and inequalities.

Each suite function walks a parameter grid (plus seeded random instances
where the contract calls for them), verifies every case exactly, and
returns :class:`~primebound.report.Check` rows with enough witness data
to reproduce any failure.  A check is a stream of (values, ok) pairs,
one per case, handed to :func:`_check`, which counts the cases and names
the first three failures by their parameters.  The (alpha, beta, n) grid
is walked by :func:`_specs` alone, so every check over it reports its
failures in the same order.  Suites never raise on a mathematical failure
— they record it.  :func:`run_suite`, the one entry, takes a name of
:data:`SUITES`, refuses an unknown name or a size below 1 before any
elimination, and eliminates the Hankel grid once for the suites that read it.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from collections.abc import Iterable, Iterator
from fractions import Fraction

from . import determinants as det
from .report import Check

_ABN = ("alpha", "beta", "n")

# The suite names; the last, 'all', runs the other three in this order.
SUITES = ("identities", "inequalities", "selberg", "all")


def _check(
    name: str,
    keys: tuple[str, ...],
    outcomes: Iterable[tuple[tuple, bool]],
    witness: dict | None = None,
) -> Check:
    """One report row: each (values, ok) of ``outcomes`` is a case.

    A failing case is named by ``dict(zip(keys, values))``; the first
    three, in stream order, go into the witness after ``witness``'s keys.
    """
    failures, cases = [], 0
    for values, ok in outcomes:
        cases += 1
        if not ok:
            failures.append(dict(zip(keys, values)))
    w = dict(witness or {})
    if failures:
        w["first_failures"] = failures[:3]
    return Check(name=name, passed=not failures, cases=cases, witness=w)


def _specs(max_n: int, max_ab: int) -> Iterator[tuple[int, int, int]]:
    """(alpha, beta, n) over the grid: n outermost, then alpha, then beta."""
    ab = range(1, max_ab + 1)
    return ((a, b, n) for n, a, b in itertools.product(range(1, max_n + 1), ab, ab))


def _hankel_grid(max_n: int, max_ab: int) -> dict[tuple[int, int, int], Fraction]:
    """det H at every (alpha, beta, n) of the grid, one elimination per (alpha, beta)."""
    return {
        (alpha, beta, n): d
        for alpha in range(1, max_ab + 1)
        for beta in range(1, max_ab + 1)
        for n, d in enumerate(det.hankel_dets(alpha, beta, max_n), 1)
    }


def suite_identities(max_n: int, max_ab: int, count: int, seed: int, hankel: dict) -> list[Check]:
    """Exact determinant identities: closed forms, the lemma, generalized rows.

    ``hankel`` is the :func:`_hankel_grid` at (max_n, max_ab); the sizes
    are checked by :func:`run_suite`.
    """
    rng = random.Random(seed)
    # The specialised lemma, one elimination per (alpha, beta), read by both
    # lemma checks; alpha = 2 is swept too when max_ab = 1 leaves it outside
    # the lemma grid, as the consecutive-index check reads it.
    lemma_n, lemma_ab = min(max_n, 8), range(1, min(max_ab, 6) + 1)
    sides = {
        (a, b): det.specialized_lemma_sides(a, b, lemma_n) for a in {*lemma_ab, 2} for b in lemma_ab
    }

    def lemma_cases() -> Iterator[tuple[tuple, bool]]:
        # The lemma reproduces det H via the explicit row scaling num / den,
        # compared in integers.
        for a, b, n in _specs(lemma_n, len(lemma_ab)):
            lhs, rhs, num, den = sides[a, b][n - 1]
            h = hankel[a, b, n]
            yield (a, b, n), lhs == rhs and lhs * den * h.denominator == h.numerator * num

    def consecutive_cases() -> Iterator[tuple[tuple, bool]]:
        # The consecutive-index rows x_i = i-1, cleared to integers, are the
        # specialised lemma matrix at alpha = 2: its sweep for each beta gives
        # the generalized lhs det M_n * den / num at every n, compared in integers.
        cons_n, cons_b = min(max_n, 6), range(1, min(max_ab, 5) + 1)
        for n, b in itertools.product(range(1, cons_n + 1), cons_b):
            lhs, _, num, den = sides[2, b][n - 1]
            h = det.closed_form_det(det.HankelSpec(alpha=2, beta=b, n=n))
            yield (n, b), lhs * den * h.denominator == h.numerator * num

    # The random instances are drawn lazily, as each check consumes them.
    krattenthaler = (det.random_krattenthaler(rng) for _ in range(count))
    generalized = (det.random_generalized(rng) for _ in range(count))
    ab = range(1, max_ab + 1)
    return [
        # Hankel determinant == factorial closed form, full grid.
        _check("hankel_det_equals_closed_form", _ABN, (
            (v, hankel[v] == det.closed_form_det(det.HankelSpec(*v)))
            for v in _specs(max_n, max_ab)
        )),
        # Entries recovered by partial fractions (the lcm mechanism's engine).
        _check("partial_fraction_expands_entry", ("alpha", "beta", "m"), (
            ((a, b, m), det.beta_moment(a + m - 2, b) == det.partial_fraction_sum(a, b, m))
            for a, b, m in itertools.product(ab, ab, range(2, 2 * max_n + 2))
        )),
        # Polynomial determinant lemma on seeded random integer instances.
        _check("determinant_lemma_random", ("x", "a", "b"), (
            ((i.x, i.a, i.b), operator.eq(*det.krattenthaler_sides(i))) for i in krattenthaler
        ), {"seed": seed}),
        _check("lemma_specialises_to_hankel", _ABN, lemma_cases()),
        # Generalized (non-consecutive indices) identity on random specs.
        _check("generalized_identity_random", ("xs", "beta"), (
            ((s.xs, s.beta), det.generalized_lhs(s) == det.generalized_rhs(s)) for s in generalized
        ), {"seed": seed}),
        # Consecutive indices x_i = i-1 collapse to the alpha = 2 Hankel case.
        _check("consecutive_indices_match_hankel", ("n", "beta"), consecutive_cases()),
    ]


def suite_inequalities(max_n: int, max_ab: int, max_ij: int, count: int, seed: int) -> list[Check]:
    """lcm integrality: scaled entries and products are >= 1; :func:`run_suite` checks the sizes."""
    rng = random.Random(seed)

    def entry_cases() -> Iterator[tuple[tuple, bool]]:
        # Entry (i, j) and its lcm cutoff depend on m = i + j alone, so each
        # (alpha, beta, m) is scaled once and its verdict read by every (i, j).
        ab, ij = range(1, max_ab + 1), range(1, max_ij + 1)
        for a, b in itertools.product(ab, ab):
            ok = {}
            for m in range(2, 2 * max_ij + 1):
                scaled = det.basic_integrality(a, b, m)
                ok[m] = scaled.denominator == 1 and scaled.numerator >= 1
            for i, j in itertools.product(ij, ij):
                yield (a, b, i, j), ok[i + j]

    # Every entry is checked before the first improved product is built.
    entries = _check(
        "lcm_times_entry_is_positive_integer", ("alpha", "beta", "i", "j"), entry_cases()
    )
    products = [(v, det.improved_product(det.HankelSpec(*v))) for v in _specs(max_n, max_ab)]
    generalized = (det.random_generalized(rng) for _ in range(count))
    return [
        entries,
        _check(
            "improved_product_at_least_one",
            _ABN,
            ((v, p >= 1) for v, p in products),
            {"equality_cases": sum(p == 1 for _, p in products)},
        ),
        _check("generalized_inequality_at_least_one", ("xs", "beta"), (
            ((s.xs, s.beta), det.generalized_inequality(s) >= 1) for s in generalized
        ), {"seed": seed}),
    ]


def suite_selberg(max_n: int, max_ab: int, hankel: dict) -> list[Check]:
    """Selberg product vs Hankel determinants and vs direct quadrature.

    ``hankel`` is the :func:`_hankel_grid` at (max_n, max_ab); the sizes
    are checked by :func:`run_suite`.  n! det H from it is compared with
    the Selberg product at gamma = 1, where the symmetrised integrand is
    the squared Vandermonde beta-moment, n! times the Hankel determinant.
    """
    gamma_one = _check("selberg_gamma_one_matches_hankel", _ABN, (
        ((a, b, n), det.selberg_rhs_exact(det.SelbergSpec(a, b, gamma=1, n=n))
         == math.factorial(n) * hankel[a, b, n])
        for a, b, n in _specs(max_n, max_ab)
    ))

    ab = range(1, min(max_ab, 4) + 1)
    errors = []
    for n, gamma, alpha, beta in itertools.product((1, 2), range(1, 4), ab, ab):
        spec = det.SelbergSpec(alpha=alpha, beta=beta, gamma=gamma, n=n)
        exact = float(det.selberg_rhs_exact(spec))
        quad, lg = det.quadrature_oracle(spec), det.selberg_rhs(spec)
        errors.append(((alpha, beta, gamma, n), exact, max(abs(quad - exact), abs(lg - exact))))
    quadrature = _check(
        "quadrature_matches_product",
        ("alpha", "beta", "gamma", "n"),
        ((v, err <= 1e-8 * max(1.0, exact)) for v, exact, err in errors),
        {"worst_rel_err": max([0.0] + [err / exact for _, exact, err in errors])},
    )
    return [gamma_one, quadrature]


def run_suite(name: str, max_n: int, max_ab: int, max_ij: int, count: int, seed: int) -> list[Check]:
    """Run the suite ``name`` of :data:`SUITES`; 'all' concatenates the other three.

    An unknown name, or a size below 1 for any name, is refused before any
    elimination.  The Hankel grid is eliminated once, here, for the suites
    that read it (identities and selberg, both of them under 'all');
    nothing is kept past the call.
    """
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    if min(max_n, max_ab, max_ij, count) < 1:
        raise ValueError("max_n, max_ab, max_ij and count must all be >= 1")
    hankel = None if name == "inequalities" else _hankel_grid(max_n, max_ab)
    checks = []
    if name in ("identities", "all"):
        checks += suite_identities(max_n, max_ab, count, seed, hankel)
    if name in ("inequalities", "all"):
        checks += suite_inequalities(max_n, max_ab, max_ij, count, seed)
    if name in ("selberg", "all"):
        checks += suite_selberg(max_n, max_ab, hankel)
    return checks
