"""The verification suites share one Hankel grid and report as before.

``run_suite`` is the suites' one entry: it refuses a size below 1 for every
suite name before any elimination, and eliminates each (alpha, beta) Hankel
matrix once for the identities and Selberg suites.  These tests pin that
refusal, that the report of ``run_suite("all")`` is the concatenation of
the three suites run alone through ``run_suite``, that the specialised
lemma is eliminated once per (alpha, beta) of its grid, the sweeps read by
both the lemma check and the consecutive-index check (whose rows are that
matrix at alpha = 2, swept apart only when alpha = 2 is outside the grid),
that the lcm entry check scales each (alpha, beta, i + j) once, and that
every grid and sweep is rebuilt on every call rather than cached.
"""

from fractions import Fraction

import pytest

from primebound import determinants as det
from primebound import suites


@pytest.mark.parametrize("max_n, max_ab, count", [(4, 3, 20), (6, 5, 30)])
@pytest.mark.parametrize("seed", [0, 11])
def test_all_is_the_suites_run_alone(max_n, max_ab, count, seed):
    sizes = {"max_n": max_n, "max_ab": max_ab, "max_ij": 4, "count": count, "seed": seed}
    got = suites.run_suite("all", **sizes)
    want = [c for name in ("identities", "inequalities", "selberg")
            for c in suites.run_suite(name, **sizes)]
    assert [c.name for c in got] == [c.name for c in want]
    for g, w in zip(got, want):
        assert (g.passed, g.cases, g.witness) == (w.passed, w.cases, w.witness)
    assert all(c.passed for c in got)


def _count_calls(monkeypatch, name):
    calls = []
    real = getattr(det, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(det, name, counted)
    return calls


@pytest.mark.parametrize("suite", ["identities", "inequalities", "selberg", "all"])
@pytest.mark.parametrize("zero", ["max_n", "max_ab", "max_ij", "count"])
def test_every_suite_refuses_a_size_below_one_before_any_elimination(monkeypatch, suite, zero):
    calls = [_count_calls(monkeypatch, name)
             for name in ("hankel_dets", "specialized_lemma_sides", "basic_integrality")]
    sizes = {"max_n": 3, "max_ab": 2, "max_ij": 2, "count": 2, zero: 0}
    with pytest.raises(ValueError, match=r"^max_n, max_ab, max_ij and count must all be >= 1$"):
        suites.run_suite(suite, seed=0, **sizes)
    assert calls == [[], [], []]


@pytest.mark.parametrize("max_ab, max_ij", [(2, 3), (3, 6)])
def test_entry_check_scales_each_alpha_beta_m_once(monkeypatch, max_ab, max_ij):
    # Entry (i, j) depends on m = i + j alone: 2 max_ij - 1 values per
    # (alpha, beta), each scaled once, read by all max_ij^2 cases.
    calls = _count_calls(monkeypatch, "basic_integrality")
    sizes = {"max_n": 2, "max_ab": max_ab, "max_ij": max_ij, "count": 2, "seed": 0}
    checks = suites.run_suite("inequalities", **sizes)
    ab = range(1, max_ab + 1)
    assert len(calls) == max_ab**2 * (2 * max_ij - 1)
    assert sorted(calls) == [(a, b, m) for a in ab for b in ab for m in range(2, 2 * max_ij + 1)]
    assert (checks[0].name, checks[0].cases) == (
        "lcm_times_entry_is_positive_integer", max_ab**2 * max_ij**2
    )
    assert checks[0].passed


@pytest.mark.parametrize(
    "suite, eliminations", [("all", 1), ("identities", 1), ("selberg", 1), ("inequalities", 0)]
)
def test_one_elimination_per_alpha_beta_per_call(monkeypatch, suite, eliminations):
    identities = suite in ("all", "identities")
    count = 5
    # (9, 7) is past the lemma sweep's caps (8, 6); at max_ab = 1, alpha = 2
    # is outside the lemma grid.
    for max_n, max_ab in [(5, 4), (9, 7), (7, 1)]:
        dets = _count_calls(monkeypatch, "hankel_dets")
        single = _count_calls(monkeypatch, "hankel_det")
        lemma = _count_calls(monkeypatch, "specialized_lemma_sides")
        random_lemma = _count_calls(monkeypatch, "krattenthaler_sides")
        lemma_ab = range(1, min(max_ab, 6) + 1)
        # One sweep per (alpha, beta) of the lemma grid, which the
        # consecutive-index check reads at alpha = 2, plus (2, 1) at max_ab = 1.
        sweeps = [(a, b, min(max_n, 8)) for a in lemma_ab for b in lemma_ab]
        sweeps += [(2, 1, min(max_n, 8))] if max_ab == 1 else []
        for call in (1, 2):
            suites.run_suite(suite, max_n=max_n, max_ab=max_ab, max_ij=3, count=count, seed=0)
            # A second call eliminates again: no grid or sweep outlives the call.
            assert len(dets) == call * eliminations * max_ab**2
            assert len(lemma) == call * identities * len(sweeps)
            # The lemma's random instances still go one by one.
            assert len(random_lemma) == call * identities * count
        ab = range(1, max_ab + 1)
        assert sorted(set(dets)) == (
            [(a, b, max_n) for a in ab for b in ab] if eliminations else []
        )
        assert sorted(lemma) == (sorted(2 * sweeps) if identities else [])
        assert single == []
        monkeypatch.undo()


# ----------------------------------------------------------------------
# failure reports: which cases fail, in which order, and how many are kept
# ----------------------------------------------------------------------

# (function, fails at these arguments, the wrong value it then returns).
# The predicates are chosen so that each check's first three failures
# differ under any other walk order of its grid.
_FAULTS = [
    ("closed_form_det", lambda s: s.n == 3 or s.alpha == 3 or (s.n, s.beta) == (4, 1),
     lambda v: v + 1),
    ("partial_fraction_sum", lambda a, b, m: m % 4 == 0, lambda v: v + 1),
    ("krattenthaler_sides", lambda inst: len(inst.x) == 3 or inst.b[:1] == (1,),
     lambda v: (v[0] + 1, v[1])),
    # The specialised lemma's sweep at alpha = 2: its det M_n is off for n >= 2.
    # The consecutive-index check reads the same sweep, so it fails there too.
    ("specialized_lemma_sides", lambda a, b, max_n: a == 2,
     lambda v: [(d + (n > 1), *rest) for n, (d, *rest) in enumerate(v, 1)]),
    ("generalized_rhs", lambda s: s.beta == 2, lambda v: v + 1),
    # An entry depends on m = i + j alone; m == 3 fails at (i, j) = (1, 2)
    # before (2, 1), so the i, j order is pinned too.
    ("basic_integrality", lambda a, b, m: m == 3 or a == 2, lambda v: v + Fraction(1, 2)),
    ("improved_product", lambda s: s.n == 2 or s.beta == 3, lambda v: Fraction(0)),
    ("generalized_inequality", lambda s: len(s.xs) == 2, lambda v: Fraction(1, 2)),
    ("selberg_rhs_exact", lambda s: s.gamma == 1 and (s.n == 2 or s.alpha == 3),
     lambda v: v + 1),
]


def _abn(*triples):
    return [{"alpha": a, "beta": b, "n": n} for a, b, n in triples]


def _abij(*quads):
    return [{"alpha": a, "beta": b, "i": i, "j": j} for a, b, i, j in quads]


_SHARED = {
    "hankel_det_equals_closed_form": _abn((3, 1, 1), (3, 2, 1), (3, 3, 1)),
    "lemma_specialises_to_hankel": _abn((2, 1, 2), (2, 2, 2), (2, 3, 2)),
    "consecutive_indices_match_hankel": [
        {"n": 2, "beta": 1}, {"n": 2, "beta": 2}, {"n": 2, "beta": 3}
    ],
    "lcm_times_entry_is_positive_integer": _abij((1, 1, 1, 2), (1, 1, 2, 1), (1, 2, 1, 2)),
    "improved_product_at_least_one": _abn((1, 3, 1), (2, 3, 1), (3, 3, 1)),
    "selberg_gamma_one_matches_hankel": _abn((3, 1, 1), (3, 2, 1), (3, 3, 1)),
    "quadrature_matches_product": [
        {"alpha": 3, "beta": b, "gamma": 1, "n": 1} for b in (1, 2, 3)
    ],
}

# (max_n, max_ab, max_ij, count, seed) -> (check name, cases, first_failures)
_FAULTED_REPORTS = {
    (4, 3, 3, 20, 0): [
        ("hankel_det_equals_closed_form", 36, None),
        ("partial_fraction_expands_entry", 72, [
            {"alpha": 1, "beta": 1, "m": 4}, {"alpha": 1, "beta": 1, "m": 8},
            {"alpha": 1, "beta": 2, "m": 4},
        ]),
        ("determinant_lemma_random", 20, [
            {"x": (24, -23, 14), "a": (-33, -14), "b": (-33, 46)},
            {"x": (18, 40, 27), "a": (-32, -11), "b": (-38, 43)},
            {"x": (10, 21, -38), "a": (-5, 5), "b": (-10, 28)},
        ]),
        ("lemma_specialises_to_hankel", 36, None),
        ("generalized_identity_random", 20, [
            {"xs": (11, 25), "beta": 2}, {"xs": (27, 22), "beta": 2}, {"xs": (20,), "beta": 2},
        ]),
        ("consecutive_indices_match_hankel", 12, None),
        ("lcm_times_entry_is_positive_integer", 81, None),
        ("improved_product_at_least_one", 36, None),
        ("generalized_inequality_at_least_one", 20, [
            {"xs": (29, 18), "beta": 2}, {"xs": (25, 30), "beta": 2},
        ]),
        ("selberg_gamma_one_matches_hankel", 36, None),
        ("quadrature_matches_product", 54, None),
    ],
    # max_n > 8 and max_ab > 6 also pin the lemma grid's caps (8, 6).
    (9, 7, 3, 20, 3): [
        ("hankel_det_equals_closed_form", 441, None),
        ("partial_fraction_expands_entry", 882, [
            {"alpha": 1, "beta": 1, "m": 4}, {"alpha": 1, "beta": 1, "m": 8},
            {"alpha": 1, "beta": 1, "m": 12},
        ]),
        ("determinant_lemma_random", 20, [
            {"x": (28, -17, -31), "a": (38, -45), "b": (-7, -10)},
            {"x": (-33, -2, -2), "a": (8, 16), "b": (-1, 32)},
            {"x": (16, -12, 20), "a": (-7, -49), "b": (50, 3)},
        ]),
        ("lemma_specialises_to_hankel", 288, None),
        ("generalized_identity_random", 20, [
            {"xs": (18,), "beta": 2}, {"xs": (22, 3, 29, 19, 10, 26), "beta": 2},
            {"xs": (17, 30, 29, 22), "beta": 2},
        ]),
        ("consecutive_indices_match_hankel", 30, None),
        ("lcm_times_entry_is_positive_integer", 441, None),
        ("improved_product_at_least_one", 441, None),
        ("generalized_inequality_at_least_one", 20, [
            {"xs": (18, 17), "beta": 2}, {"xs": (20, 4), "beta": 5}, {"xs": (24, 30), "beta": 5},
        ]),
        ("selberg_gamma_one_matches_hankel", 441, None),
        ("quadrature_matches_product", 96, None),
    ],
}


@pytest.mark.parametrize("grid", list(_FAULTED_REPORTS))
def test_failures_are_counted_and_the_first_three_kept_in_grid_order(monkeypatch, grid):
    for name, bad, wrong in _FAULTS:

        def faulty(*args, real=getattr(det, name), bad=bad, wrong=wrong):
            return wrong(real(*args)) if bad(*args) else real(*args)

        monkeypatch.setattr(det, name, faulty)
    max_n, max_ab, max_ij, count, seed = grid
    got = suites.run_suite("all", max_n=max_n, max_ab=max_ab, max_ij=max_ij, count=count, seed=seed)
    want = _FAULTED_REPORTS[grid]
    assert [c.name for c in got] == [name for name, _, _ in want]
    for check, (name, cases, first) in zip(got, want):
        first = _SHARED[name] if first is None else first
        assert (check.passed, check.cases) == (False, cases), name
        assert check.witness["first_failures"] == first, name
        assert len(check.witness["first_failures"]) <= 3
