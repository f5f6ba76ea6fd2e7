"""Named verification suites: sweep the exact identities and inequalities.

Each suite function walks a parameter grid (plus seeded random instances
where the contract calls for them), verifies every case exactly, and
returns :class:`~primebound.report.Check` rows with enough witness data
to reproduce any failure.  Suites never raise on a mathematical failure
— they record it — but they do raise on invalid arguments.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from . import determinants as det
from .exact import pochhammer
from .report import Check


def _check(name: str, failures: list, cases: int, witness: dict | None = None) -> Check:
    w = dict(witness or {})
    if failures:
        w["first_failures"] = failures[:3]
    return Check(name=name, passed=not failures, cases=cases, witness=w)


def _hankel_grid(max_n: int, max_ab: int) -> dict[det.HankelSpec, Fraction]:
    """det H at every (alpha, beta, n) of the grid, one elimination per (alpha, beta)."""
    return {
        det.HankelSpec(alpha, beta, n): d
        for alpha in range(1, max_ab + 1)
        for beta in range(1, max_ab + 1)
        for n, d in enumerate(det.hankel_dets(alpha, beta, max_n), 1)
    }


def suite_identities(
    max_n: int, max_ab: int, count: int, seed: int, hankel: dict | None = None
) -> list[Check]:
    """Exact determinant identities: closed forms, the lemma, generalized rows.

    ``hankel`` is the :func:`_hankel_grid` at (max_n, max_ab), built here
    when not given.
    """
    if min(max_n, max_ab, count) < 1:
        raise ValueError("max_n, max_ab and count must all be >= 1")
    checks: list[Check] = []
    rng = random.Random(seed)
    hankel = _hankel_grid(max_n, max_ab) if hankel is None else hankel

    # Hankel determinant == factorial closed form, full grid.  The lemma
    # grid below reads a subset of the same eliminated values.
    failures, cases = [], 0
    for n in range(1, max_n + 1):
        for alpha in range(1, max_ab + 1):
            for beta in range(1, max_ab + 1):
                spec = det.HankelSpec(alpha=alpha, beta=beta, n=n)
                cases += 1
                if hankel[spec] != det.closed_form_det(spec):
                    failures.append({"alpha": alpha, "beta": beta, "n": n})
    checks.append(_check("hankel_det_equals_closed_form", failures, cases))

    # Entries recovered by partial fractions (the lcm mechanism's engine).
    failures, cases = [], 0
    for alpha in range(1, max_ab + 1):
        for beta in range(1, max_ab + 1):
            for m in range(2, 2 * max_n + 2):
                cases += 1
                direct = Fraction(
                    math.factorial(beta - 1), pochhammer(alpha + m - 2, beta)
                )
                if det.partial_fraction_sum(alpha, beta, m) != direct:
                    failures.append({"alpha": alpha, "beta": beta, "m": m})
    checks.append(_check("partial_fraction_expands_entry", failures, cases))

    # Polynomial determinant lemma on seeded random integer instances.
    failures = []
    for _ in range(count):
        inst = det.random_krattenthaler(rng)
        lhs, rhs = det.krattenthaler_sides(inst)
        if lhs != rhs:
            failures.append({"x": inst.x, "a": inst.a, "b": inst.b})
    checks.append(
        _check("determinant_lemma_random", failures, count, {"seed": seed})
    )

    # Lemma specialisation reproduces the Hankel determinant via the
    # explicit row scaling.
    failures, cases = [], 0
    for n in range(1, min(max_n, 8) + 1):
        for alpha in range(1, min(max_ab, 6) + 1):
            for beta in range(1, min(max_ab, 6) + 1):
                spec = det.HankelSpec(alpha=alpha, beta=beta, n=n)
                inst = det.specialize_to_hankel(spec)
                lhs, rhs = det.krattenthaler_sides(inst)
                cases += 1
                ok = (
                    lhs == rhs
                    and Fraction(lhs) == hankel[spec] * det.specialization_scale(spec)
                )
                if not ok:
                    failures.append({"alpha": alpha, "beta": beta, "n": n})
    checks.append(_check("lemma_specialises_to_hankel", failures, cases))

    # Generalized (non-consecutive indices) identity on random specs.
    failures = []
    for _ in range(count):
        spec = det.random_generalized(rng)
        lhs, rhs = det.generalized_sides(spec)
        if lhs != rhs:
            failures.append({"xs": spec.xs, "beta": spec.beta})
    checks.append(
        _check("generalized_identity_random", failures, count, {"seed": seed})
    )

    # Consecutive indices x_i = i-1 collapse to the alpha = 2 Hankel case.
    failures, cases = [], 0
    for n in range(1, min(max_n, 6) + 1):
        for beta in range(1, min(max_ab, 5) + 1):
            spec = det.consecutive_spec(n, beta)
            lhs, _ = det.generalized_sides(spec)
            cases += 1
            if lhs != det.closed_form_det(det.HankelSpec(alpha=2, beta=beta, n=n)):
                failures.append({"n": n, "beta": beta})
    checks.append(_check("consecutive_indices_match_hankel", failures, cases))

    return checks


def suite_inequalities(max_n: int, max_ab: int, max_ij: int, count: int, seed: int) -> list[Check]:
    """lcm integrality: scaled entries are integers >= 1, products are >= 1."""
    if min(max_n, max_ab, max_ij, count) < 1:
        raise ValueError("max_n, max_ab, max_ij and count must all be >= 1")
    checks: list[Check] = []
    rng = random.Random(seed)

    failures, cases = [], 0
    for alpha in range(1, max_ab + 1):
        for beta in range(1, max_ab + 1):
            for i in range(1, max_ij + 1):
                for j in range(1, max_ij + 1):
                    w = det.basic_integrality(alpha, beta, i, j)
                    cases += 1
                    if w.scaled.denominator != 1 or w.scaled < 1:
                        failures.append(
                            {"alpha": alpha, "beta": beta, "i": i, "j": j}
                        )
    checks.append(_check("lcm_times_entry_is_positive_integer", failures, cases))

    failures, cases, equalities = [], 0, 0
    for n in range(1, max_n + 1):
        for alpha in range(1, max_ab + 1):
            for beta in range(1, max_ab + 1):
                spec = det.HankelSpec(alpha=alpha, beta=beta, n=n)
                v = det.improved_product(spec)
                cases += 1
                if v < 1:
                    failures.append({"alpha": alpha, "beta": beta, "n": n})
                elif v == 1:
                    equalities += 1
    checks.append(
        _check(
            "improved_product_at_least_one",
            failures,
            cases,
            {"equality_cases": equalities},
        )
    )

    failures = []
    for _ in range(count):
        spec = det.random_generalized(rng)
        v = det.generalized_inequality(spec)
        if v < 1:
            failures.append({"xs": spec.xs, "beta": spec.beta})
    checks.append(
        _check("generalized_inequality_at_least_one", failures, count, {"seed": seed})
    )

    return checks


def suite_selberg(max_n: int, max_ab: int, hankel: dict | None = None) -> list[Check]:
    """Selberg product vs Hankel determinants and vs direct quadrature.

    ``hankel`` is the :func:`_hankel_grid` at (max_n, max_ab), built here
    when not given; n! det H from it is compared as in
    :func:`~primebound.determinants.selberg_vs_det`.
    """
    if min(max_n, max_ab) < 1:
        raise ValueError("max_n and max_ab must be >= 1")
    checks: list[Check] = []
    hankel = _hankel_grid(max_n, max_ab) if hankel is None else hankel

    failures, cases = [], 0
    for n in range(1, max_n + 1):
        for alpha in range(1, max_ab + 1):
            for beta in range(1, max_ab + 1):
                rhs = det.selberg_rhs_exact(det.SelbergSpec(alpha, beta, gamma=1, n=n))
                cases += 1
                if math.factorial(n) * hankel[det.HankelSpec(alpha, beta, n)] != rhs:
                    failures.append({"alpha": alpha, "beta": beta, "n": n})
    checks.append(_check("selberg_gamma_one_matches_hankel", failures, cases))

    failures, cases, worst = [], 0, 0.0
    for n in (1, 2):
        for gamma in range(1, 4):
            for alpha in range(1, min(max_ab, 4) + 1):
                for beta in range(1, min(max_ab, 4) + 1):
                    spec = det.SelbergSpec(alpha=alpha, beta=beta, gamma=gamma, n=n)
                    exact = float(det.selberg_rhs_exact(spec))
                    quad = det.quadrature_oracle(spec)
                    lg = det.selberg_rhs(spec)
                    cases += 1
                    err = max(abs(quad - exact), abs(lg - exact))
                    worst = max(worst, err / exact)
                    if err > 1e-8 * max(1.0, exact):
                        failures.append(
                            {"alpha": alpha, "beta": beta, "gamma": gamma, "n": n}
                        )
    checks.append(
        _check(
            "quadrature_matches_product",
            failures,
            cases,
            {"worst_rel_err": worst},
        )
    )

    return checks


def run_suite(
    name: str,
    max_n: int = 8,
    max_ab: int = 6,
    max_ij: int = 6,
    count: int = 100,
    seed: int = 0,
) -> list[Check]:
    """Dispatch by suite name; 'all' concatenates every suite.

    'all' eliminates the Hankel grid once and hands it to both suites
    that read it; nothing is kept past the call.
    """
    if name == "identities":
        return suite_identities(max_n, max_ab, count, seed)
    if name == "inequalities":
        return suite_inequalities(max_n, max_ab, max_ij, count, seed)
    if name == "selberg":
        return suite_selberg(max_n, max_ab)
    if name == "all":
        hankel = _hankel_grid(max_n, max_ab)
        return (
            suite_identities(max_n, max_ab, count, seed, hankel)
            + suite_inequalities(max_n, max_ab, max_ij, count, seed)
            + suite_selberg(max_n, max_ab, hankel)
        )
    raise ValueError(f"unknown suite {name!r}")
