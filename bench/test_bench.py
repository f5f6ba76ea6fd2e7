"""Tests of the benchmark's own arithmetic.  Run with: python3 -m pytest bench"""

from __future__ import annotations

import json
import math
import types
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import layers
import oracles
import run
import stats
import workloads
from tracer import Tracer, self_times


# -- percentiles and ratios ----------------------------------------------


def test_tail_leaves_exactly_ten_beyond():
    for k in (100, 101, 137, 6488):
        values = list(range(k))[::-1]
        value, pct, count = stats.tail(values)
        assert count == k
        assert sum(v > value for v in values) == 10
        assert pct == pytest.approx(100.0 * (k - 10) / k)


def test_tail_percentile_at_hundred_samples_is_p90():
    value, pct, _ = stats.tail([float(i) for i in range(1, 101)])
    assert (value, pct) == (90.0, 90.0)


def test_no_tail_below_hundred_samples():
    for k in (0, 11, 32, 99):
        assert stats.tail(range(k)) is None


def test_best_times_pool_repeated_inputs():
    samples = [[5.0, 3.0], [4.0, 6.0], [2.0, 9.0], [7.0, 1.0]]
    assert stats.best_times(samples, ["a", "b", "a", "c"]) == [2.0, 4.0, 2.0, 1.0]
    assert stats.best_times(samples, ["a", "b", "c", "d"]) == [3.0, 4.0, 2.0, 1.0]


def test_ratio_bases():
    assert stats.ratio(3, 4) == 0.75
    assert stats.ratio(0, 0) == 0.0
    with pytest.raises(ValueError):
        stats.ratio(5, 4)


# -- self time -----------------------------------------------------------


def test_self_times_of_nested_synthetic_spans():
    # (op, key, parent, t0, t1, hot_ns)
    spans = [
        (0, "root", -1, 0, 100, 0),
        (0, "a", 0, 10, 40, 5),  # 5 ns of hot leaves inside
        (0, "b", 1, 15, 25, 0),
        (0, "c", 0, 50, 90, 0),
    ]
    assert self_times(spans) == [100 - 30 - 40, 30 - 5 - 10, 10, 40]
    assert sum(self_times(spans)) + 5 == 100


class FakeClock:
    def __init__(self) -> None:
        self.t = 0

    def __call__(self) -> int:
        return self.t


def _fake_package(clock: FakeClock):
    leaf = types.ModuleType("fake.leaf")
    exec(
        "def hot(n):\n"
        "    clock.t += n\n"
        "    return n\n",
        {"clock": clock, "__name__": "fake.leaf"}, leaf.__dict__,
    )
    top = types.ModuleType("fake.top")
    top.__dict__.update(clock=clock, hot=leaf.hot)  # as if "from .leaf import hot"
    exec(
        "def inner():\n"
        "    clock.t += 7\n"
        "    return hot(3)\n"
        "def outer():\n"
        "    clock.t += 1\n"
        "    inner()\n"
        "    hot(2)\n"
        "    clock.t += 4\n"
        "def broken():\n"
        "    clock.t += 1\n"
        "    raise KeyError('x')\n",
        top.__dict__,
    )
    return {"leaf": leaf, "top": top}


def test_tracer_self_time_with_hot_leaves_and_rebinding():
    clock = FakeClock()
    mods = _fake_package(clock)
    tracer = Tracer(clock=clock)
    keys = tracer.install(mods, lambda short, name: "hot" if short == "leaf" else "span", {})
    assert keys == ["leaf.hot", "top.broken", "top.inner", "top.outer"]
    assert mods["top"].hot is mods["leaf"].hot  # the imported name is wrapped too

    mods["top"].outer()
    with pytest.raises(KeyError):
        mods["top"].broken()
    summary = tracer.summary()
    assert summary["top.outer"].self_ns == 1 + 4
    assert summary["top.outer"].total_ns == 1 + 7 + 3 + 2 + 4
    assert summary["top.inner"].self_ns == 7
    assert summary["leaf.hot"].calls == 2 and summary["leaf.hot"].self_ns == 5
    assert summary["top.broken"].errors == 1
    assert sum(s.self_ns for s in summary.values()) == 17 + 1

    tracer.uninstall()
    assert mods["top"].outer.__name__ == "outer" and mods["top"].hot.__name__ == "hot"
    assert not hasattr(mods["top"].outer, "__wrapped__")


def test_tracer_summary_since_mark():
    clock = FakeClock()
    mods = _fake_package(clock)
    tracer = Tracer(clock=clock)
    tracer.install(mods, lambda short, name: "hot" if short == "leaf" else "span", {})
    mods["top"].inner()
    mark = tracer.mark()
    mods["top"].outer()
    since = tracer.summary(mark)
    assert since["top.inner"].calls == 1 and since["leaf.hot"].calls == 2
    assert sum(s.self_ns for s in since.values()) == 17
    tracer.uninstall()


def test_probes_count_hits_repeats_and_bits():
    pkg = types.SimpleNamespace(primes=types.SimpleNamespace(_LCM=[1, 1, 2]),
                                exact=types.SimpleNamespace(_FACT=[1]))
    probes = layers.Probes(pkg)
    for m in (1, 2, 3):
        probes._lcm(m)
    probes._factorial(0)
    probes._factorial(5)
    for spec in ("a", "b", "a"):
        probes._hankel(spec)
    probes.begin_op()
    probes._hankel("a")
    probes._bits(Fraction(1, 2**70))
    probes._bits(-(2**9))
    assert (probes.lcm_hits, probes.factorial_hits, probes.hankel_repeats) == (2, 1, 1)
    assert probes.det_bits_max == 71


# -- metric names ----------------------------------------------------------


def test_benchmark_json_lists_the_metrics_the_runs_print():
    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.METRICS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_every_named_function_metric_maps_to_a_traced_function():
    for name, unit, _ in layers.METRICS:
        prefix, _, stat = name.rpartition(".")
        if stat in ("calls", "self_s", "errors") and not name.startswith(("layer.", "trace.")):
            assert prefix in layers.FUNCS, name


# -- inputs and oracles ----------------------------------------------------


def test_inputs_repeat_for_a_seed_and_differ_across_seeds():
    for cls in workloads.WORKLOADS.values():
        assert cls(1).ops == cls(1).ops
        assert cls(1).ops != cls(2).ops


def test_sieve_limits_keep_the_ends_and_the_median():
    for seed in range(20):
        limits = workloads.Sieve(seed).ops
        assert min(limits) == 100_000 and max(limits) == 4_000_000
        assert sorted(limits)[len(limits) // 2] == round(math.sqrt(100_000 * 4_000_000))


def test_mangoldt_oracle_small():
    base = oracles.mangoldt_base(30)
    want = {2: 2, 3: 3, 4: 2, 5: 5, 7: 7, 8: 2, 9: 3, 11: 11, 13: 13, 16: 2, 17: 17,
            19: 19, 23: 23, 25: 5, 27: 3, 29: 29}
    assert base.tolist() == [want.get(m, 0) for m in range(31)]


def test_exact_prefix_is_correctly_rounded():
    rng = np.random.default_rng(0)
    values = np.log(rng.integers(2, 10**6, size=2000).astype(np.float64))
    values[::3] = 0.0
    got = oracles.exact_prefix(values)
    for m in (0, 1, 17, 999, 1999):
        assert got[m] == math.fsum(values[: m + 1].tolist())


def test_log_delta_oracles_agree():
    for s, n in ((0.39191162, 50), (0.7, 120)):
        exact = oracles.log_delta_exact(s, n)
        assert oracles.log_delta_mpmath(s, n) == pytest.approx(exact, rel=1e-14)
