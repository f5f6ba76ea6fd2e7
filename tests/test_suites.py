"""The verification suites share one Hankel grid and report as before.

``run_suite("all")`` eliminates each (alpha, beta) Hankel matrix once and
hands the determinants to the identities and Selberg suites; these tests
pin that its report is the concatenation of the suites run alone, and
that the grid is rebuilt on every call rather than cached.
"""

import pytest

from primebound import determinants as det
from primebound import suites


@pytest.mark.parametrize("max_n, max_ab, count", [(4, 3, 20), (6, 5, 30)])
@pytest.mark.parametrize("seed", [0, 11])
def test_all_is_the_suites_run_alone(max_n, max_ab, count, seed):
    got = suites.run_suite("all", max_n=max_n, max_ab=max_ab, max_ij=4, count=count, seed=seed)
    want = (
        suites.suite_identities(max_n, max_ab, count, seed)
        + suites.suite_inequalities(max_n, max_ab, 4, count, seed)
        + suites.suite_selberg(max_n, max_ab)
    )
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


@pytest.mark.parametrize(
    "suite, eliminations", [("all", 1), ("identities", 1), ("selberg", 1), ("inequalities", 0)]
)
def test_one_elimination_per_alpha_beta_per_call(monkeypatch, suite, eliminations):
    max_n, max_ab = 5, 4
    dets = _count_calls(monkeypatch, "hankel_dets")
    single = _count_calls(monkeypatch, "hankel_det")
    for call in (1, 2):
        suites.run_suite(suite, max_n=max_n, max_ab=max_ab, max_ij=3, count=5, seed=0)
        # A second call eliminates again: no grid outlives the call.
        assert len(dets) == call * eliminations * max_ab**2
    assert sorted(set(dets)) == (
        [(a, b, max_n) for a in range(1, max_ab + 1) for b in range(1, max_ab + 1)]
        if eliminations
        else []
    )
    assert single == []
