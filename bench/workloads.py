"""The three workloads: seeded inputs, the timed op, and the output checks.

Each workload has a child side (``setup``, ``run``, ``record``), which runs
in the fresh process that is timed, and a parent side (``expect``,
``check``), which runs the oracles outside every timed region.

Where sizes are drawn (sieve limits, increments' s values), the draws are
stratified and antithetic: each stratum of the input range gets a pair of
draws mirrored about its middle.  The marginal distribution is the one
named below, but the total work, and so ``solve_s``, barely depends on the
seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path

import numpy as np

import oracles


def _pairs(rng: random.Random, strata: int) -> list[float]:
    """Points in [0, 1]: two per stratum, at v and 1 - v of its width."""
    out = []
    for i in range(strata):
        v = rng.random()
        out += [(i + v) / strata, (i + 1 - v) / strata]
    return out


def _digest(arr: np.ndarray, dtype) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr, dtype=dtype).data).hexdigest()


def _report(path: Path) -> dict:
    rep = json.loads(path.read_text(encoding="utf-8"))
    return {
        "checks": [[c["name"], c["status"], c["witness"]["cases"]] for c in rep["checks"]],
        "witness": rep["checks"][0]["witness"],
    }


class Sieve:
    """``sieve --limit L`` for L log-uniform in [1e5, 4e6], two antithetic
    pairs per half of the log range, plus 1e5, 4e6 and seven copies of their
    geometric mean.  The mean is then the median op.  Two passes fit in a
    run, and one sample of an op of about half a second often falls wholly
    in the CPU's slow mode, so its copies are spread evenly through the pass
    to give its best time fourteen chances to meet the fast mode."""

    LO, HI, STRATA, MID_COPIES = 100_000, 4_000_000, 2, 7

    def __init__(self, seed: int) -> None:
        rng = random.Random(f"sieve-{seed}")
        lo, hi = math.log(self.LO), math.log(self.HI)
        mid = (lo + hi) / 2
        others = [self.LO, self.HI]
        for start in (lo, mid):
            others += [round(math.exp(start + u * (mid - lo))) for u in _pairs(rng, self.STRATA)]
        rng.shuffle(others)
        k = self.MID_COPIES
        self.ops = []
        for i in range(k):
            self.ops += others[i * len(others) // k:(i + 1) * len(others) // k]
            self.ops.append(round(math.exp(mid)))

    def params(self) -> dict:
        return {"limits": self.ops}

    # -- child ------------------------------------------------------------

    def setup(self, pkg, work: Path):
        built = []
        build = pkg.primes.build_table

        def capture(limit):
            table = build(limit)
            built.append(table)
            return table

        pkg.primes.build_table = capture
        return {"cli": pkg.cli, "work": work, "built": built}

    def run(self, ctx, i: int, limit: int):
        out = ctx["work"] / f"sieve-{i}.json"
        return ctx["cli"].main(
            ["sieve", "--limit", str(limit), "--format", "json", "--out", str(out)]
        )

    def record(self, ctx, i: int, limit: int, rc) -> dict:
        table = ctx["built"].pop()
        ctx["built"].clear()
        rep = _report(ctx["work"] / f"sieve-{i}.json")
        return {
            "rc": rc,
            "checks": rep["checks"],
            "psi": rep["witness"]["psi_at_limit"],
            "psi1": rep["witness"]["psi1_at_limit"],
            "base_sha": _digest(table.mangoldt_base, np.int64),
            "psi_sha": _digest(table.psi_cum, np.float64),
        }

    # -- parent -----------------------------------------------------------

    def expect(self) -> dict:
        base, lam, psi = oracles.psi(max(self.ops))
        exp = {}
        for limit in set(self.ops):
            psi_fsum = math.fsum(lam[: limit + 1][base[: limit + 1] > 0].tolist())
            if psi_fsum != psi[limit]:
                raise RuntimeError(f"oracle disagrees with itself at {limit}")
            exp[limit] = {
                "rc": 0,
                "checks": [["psi_equals_ln_lcm", "pass", 1],
                           ["psi1_increments_exact", "pass", min(limit, 201)]],
                "psi": psi_fsum,
                "psi1": math.fsum(psi[: limit + 1].tolist()),
                "base_sha": _digest(base[: limit + 1], np.int64),
                "psi_sha": _digest(psi[: limit + 1], np.float64),
            }
        return exp

    def check(self, expected, outputs) -> list[str | None]:
        return [_diff(expected[limit], out) for limit, out in zip(self.ops, outputs)]


class Increments:
    """``increment_check(table, BoundParams(s, n))`` for every n in [3, N] and
    s in {s*} plus seeded s in [0.15, 0.8]; one op is one window."""

    S_STAR = 0.39191162
    S_LO, S_HI, S_DRAWN, N = 0.15, 0.8, 4, 650
    SAMPLE_EXACT, SAMPLE_MPMATH, EXACT_N_MAX = 12, 4, 200
    REL_TOL = 1e-12

    def __init__(self, seed: int) -> None:
        rng = random.Random(f"increments-{seed}")
        svals = [self.S_STAR] + [
            self.S_LO + u * (self.S_HI - self.S_LO) for u in _pairs(rng, self.S_DRAWN // 2)
        ]
        self.ops = [(s, n) for s in svals for n in range(3, self.N + 1)
                    if math.floor(s * n) >= 1]
        self.limit = max(2 * math.floor(s * self.N) + 2 * self.N for s in svals)
        small = [i for i, (_, n) in enumerate(self.ops) if n <= self.EXACT_N_MAX]
        large = [i for i, (_, n) in enumerate(self.ops) if n > self.EXACT_N_MAX]
        self.sample = sorted(rng.sample(small, self.SAMPLE_EXACT)
                             + rng.sample(large, self.SAMPLE_MPMATH))

    def params(self) -> dict:
        svals = sorted({s for s, _ in self.ops})
        return {"s": svals, "n": [3, self.N], "table_limit": self.limit,
                "oracle_sample": len(self.sample)}

    def setup(self, pkg, work: Path):
        return {"bounds": pkg.bounds, "table": pkg.primes.build_table(self.limit)}

    def run(self, ctx, i: int, op):
        bounds = ctx["bounds"]
        return bounds.increment_check(ctx["table"], bounds.BoundParams(op[0], op[1]))

    def record(self, ctx, i: int, op, chk) -> dict:
        return {"window": [chk.lower, chk.upper], "lhs": chk.lhs, "rhs": chk.rhs,
                "holds": chk.holds}

    def expect(self) -> dict:
        _, _, psi = oracles.psi(self.limit)
        psi1 = oracles.exact_prefix(psi)
        return {"psi1": psi1}

    def check(self, expected, outputs) -> list[str | None]:
        psi1 = expected["psi1"]
        fails = []
        for i, ((s, n), out) in enumerate(zip(self.ops, outputs)):
            a = math.floor(s * n)
            lo, hi = 2 * a + n, 2 * a + 2 * n
            want = {"window": [lo, hi], "lhs": float(psi1[hi]) - float(psi1[lo]),
                    "rhs": out.get("rhs"), "holds": True}
            reason = _diff(want, out)
            if reason is None and i in self.sample:
                ref = (oracles.log_delta_exact(s, n) if n <= self.EXACT_N_MAX
                       else oracles.log_delta_mpmath(s, n))
                if abs(-out["rhs"] - ref) > self.REL_TOL * abs(ref):
                    reason = f"log_delta {-out['rhs']!r} vs oracle {ref!r}"
            fails.append(reason)
        return fails


class Verify:
    """``verify`` on every suite at four grid sizes, twice each.

    The seed assigns the suites and grid sizes to the ops (a permutation of
    a fixed set) and draws each op's ``--seed``, which picks the random
    instances.  The set itself is fixed because one op's cost spans about 20x
    across it: drawing sizes freely would move ``solve_s`` and the median op
    with the seed.
    """

    SUITES = ("identities", "inequalities", "selberg", "all")
    GRIDS = ((4, 4, 40), (5, 4, 50), (6, 5, 60), (8, 5, 80))  # max_n, max_ab, count
    COPIES = 2
    MAX_IJ = 6  # the CLI default, needed to count the inequality grid

    def __init__(self, seed: int) -> None:
        rng = random.Random(f"verify-{seed}")
        grid = [(suite, g) for suite in self.SUITES for g in self.GRIDS] * self.COPIES
        rng.shuffle(grid)
        self.ops = [{"suite": suite, "max_n": n, "max_ab": ab, "count": count,
                     "seed": rng.randrange(2**31)} for suite, (n, ab, count) in grid]

    def params(self) -> dict:
        return {"ops": self.ops}

    def setup(self, pkg, work: Path):
        return {"cli": pkg.cli, "work": work}

    def run(self, ctx, i: int, op):
        out = ctx["work"] / f"verify-{i}.json"
        return ctx["cli"].main([
            "verify", "--suite", op["suite"], "--max-n", str(op["max_n"]),
            "--max-ab", str(op["max_ab"]), "--count", str(op["count"]),
            "--seed", str(op["seed"]), "--format", "json", "--out", str(out),
        ])

    def record(self, ctx, i: int, op, rc) -> dict:
        return {"rc": rc, "checks": _report(ctx["work"] / f"verify-{i}.json")["checks"]}

    def expect(self) -> dict:
        return {}

    def check(self, expected, outputs) -> list[str | None]:
        fails = []
        for op, out in zip(self.ops, outputs):
            cases = oracles.verify_checks(op["suite"], op["max_n"], op["max_ab"],
                                          self.MAX_IJ, op["count"])
            want = {"rc": 0, "checks": [[name, "pass", n] for name, n in cases]}
            fails.append(_diff(want, out))
        return fails


def _diff(want: dict, got: dict) -> str | None:
    if "error" in got:
        return got["error"]
    for key, value in want.items():
        if got.get(key) != value:
            return f"{key}: got {got.get(key)!r}, want {value!r}"
    return None


WORKLOADS = {"sieve": Sieve, "increments": Increments, "verify": Verify}
