"""The package's layers as the traced run sees them, and the per-layer metrics.

The layers are the package modules.  Every public function of each is
wrapped from here; nothing under ``src/`` knows it is traced.  The names
of the metrics follow the benchmark's README.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from stats import ratio
from tracer import Tracer

LAYERS = ("cli", "report", "suites", "bounds", "determinants", "primes", "exact")

# Private helpers that build_table looks up at call time; traced while they exist.
STAGES = {
    "_smallest_prime_factor": "stage.smallest_prime_factor",
    "_mangoldt_base": "stage.mangoldt_base",
    "_dd_prefix_sum": "stage.dd_prefix_sum",
}

# Leaves called per entry or per term: counted and timed in aggregate, no spans.
# Every function of ``exact`` is one; these call nothing traced but them.
HOT = {
    "determinants": {"hankel_entry"},
    "primes": {"psi", "psi1", "psi1_increment", "mangoldt"},
}

# metric prefix -> traced function, for the "<prefix>.<stat>" metrics.
FUNCS = {
    "build_table": "primes.build_table",
    **{v: f"primes.{k}" for k, v in STAGES.items()},
    "psi1": "primes.psi1",
    "psi1_increment": "primes.psi1_increment",
    "lcm_upto": "primes.lcm_upto",
    **{f: f"exact.{f}" for f in ("log_factorial", "factorial", "pochhammer", "log_int")},
    **{f: f"determinants.{f}" for f in (
        "hankel_det", "hankel_matrix", "fraction_det", "bareiss_det", "closed_form_det",
        "krattenthaler_sides", "generalized_sides", "improved_product",
        "partial_fraction_sum", "selberg_rhs_exact", "quadrature_oracle")},
    "increment_check": "bounds.increment_check",
    "log_delta": "bounds.log_delta",
    **{f: f"suites.{f}" for f in ("suite_identities", "suite_inequalities", "suite_selberg")},
    "report.render": "report.render",
    "cli.main": "cli.main",
}

_STAT_UNITS = {"calls": ("count", "lower"), "self_s": ("s", "lower"), "errors": ("count", "lower")}


def _fn(prefix: str, *stats: str) -> list[tuple[str, str, str]]:
    return [(f"{prefix}.{s}", *_STAT_UNITS[s]) for s in stats]


# (name, unit, better), in the order of the README and BENCHMARK.json.
METRICS: list[tuple[str, str, str]] = [
    *_fn("build_table", "calls", "self_s", "errors"),
    ("build_table.ns_per_entry", "ns", "lower"),
    ("table_bytes", "B", "lower"),
    *_fn("stage.smallest_prime_factor", "self_s"),
    *_fn("stage.mangoldt_base", "self_s"),
    *_fn("stage.dd_prefix_sum", "calls", "self_s"),
    *_fn("psi1", "calls"),
    *_fn("psi1_increment", "calls"),
    *_fn("lcm_upto", "calls", "self_s"),
    ("lcm_upto.cache_hit_ratio", "1", "higher"),
    *_fn("log_factorial", "calls", "self_s"),
    *_fn("factorial", "calls", "self_s"),
    ("factorial.cache_hit_ratio", "1", "higher"),
    *_fn("pochhammer", "calls", "self_s"),
    *_fn("log_int", "calls"),
    *_fn("hankel_det", "calls", "self_s"),
    ("hankel_det.repeat_ratio", "1", "lower"),
    *_fn("hankel_matrix", "self_s"),
    *_fn("fraction_det", "self_s"),
    *_fn("bareiss_det", "calls", "self_s"),
    ("det_bits_max", "bit", "lower"),
    *[m for f in ("closed_form_det", "krattenthaler_sides", "generalized_sides",
                  "improved_product", "partial_fraction_sum", "selberg_rhs_exact",
                  "quadrature_oracle") for m in _fn(f, "self_s")],
    *_fn("increment_check", "calls", "self_s", "errors"),
    *_fn("log_delta", "calls", "self_s"),
    *_fn("suite_identities", "self_s"),
    *_fn("suite_inequalities", "self_s"),
    *_fn("suite_selberg", "self_s"),
    *_fn("report.render", "calls", "self_s"),
    ("report.bytes_out", "B", "lower"),
    *_fn("cli.main", "self_s"),
    *[(f"layer.{layer}.self_s", "s", "lower") for layer in LAYERS],
    ("trace.solve_s", "s", "lower"),
    ("trace.untraced_solve_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.self_sum_s", "s", "lower"),
    ("trace.coverage", "1", "higher"),
]

# Filled in by the parent process, which also sees the untraced passes.
PARENT_METRICS = ("trace.untraced_solve_s", "trace.overhead_s")


def select(short: str, name: str) -> str | None:
    if short == "primes" and name in STAGES:
        return "span"
    if name.startswith("_"):
        return None
    if short == "exact" or name in HOT.get(short, ()):
        return "hot"
    return "span"


class Probes:
    """Counts taken at the wrapped calls: cache hits, repeats, sizes."""

    def __init__(self, pkg) -> None:
        self.pkg = pkg
        self.lcm_hits = 0
        self.factorial_hits = 0
        self.hankel_repeats = 0
        self.det_bits_max = 0
        self.bytes_out = 0
        self.table_bytes = 0
        self.entries = 0
        self._specs: set = set()

    def begin_op(self) -> None:
        self._specs.clear()

    def _lcm(self, m, *_):
        # _LCM is the memo lcm_upto answers from; absent, no call counts as a hit.
        if m < len(getattr(self.pkg.primes, "_LCM", ())):
            self.lcm_hits += 1

    def _factorial(self, n, *_):
        if 0 <= n < len(getattr(self.pkg.exact, "_FACT", ())):
            self.factorial_hits += 1

    def _hankel(self, spec, *_):
        if spec in self._specs:
            self.hankel_repeats += 1
        else:
            self._specs.add(spec)

    def _bits(self, value):
        if isinstance(value, Fraction):
            bits = max(value.numerator.bit_length(), value.denominator.bit_length())
        else:
            bits = abs(value).bit_length()
        self.det_bits_max = max(self.det_bits_max, bits)

    def _render(self, text):
        self.bytes_out += len(text.encode("utf-8"))

    def _table(self, table):
        arrays = [v for v in vars(table).values() if isinstance(v, np.ndarray)]
        self.table_bytes = max(self.table_bytes, sum(a.nbytes for a in arrays))
        self.entries += table.limit + 1

    def table(self) -> dict:
        return {
            "primes.lcm_upto": (self._lcm, None),
            "exact.factorial": (self._factorial, None),
            "determinants.hankel_det": (self._hankel, self._bits),
            "determinants.closed_form_det": (None, self._bits),
            "determinants.fraction_det": (None, self._bits),
            "determinants.bareiss_det": (None, self._bits),
            "report.render": (None, self._render),
            "primes.build_table": (None, self._table),
        }


def install(pkg) -> tuple[Tracer, Probes, list[str]]:
    """Wrap every layer of the imported package ``pkg``; returns the wrapped keys."""
    tracer = Tracer()
    probes = Probes(pkg)
    modules = {name: getattr(pkg, name) for name in LAYERS}
    keys = tracer.install(modules, select, probes.table())
    return tracer, probes, keys


def child_metrics(tracer: Tracer, probes: Probes, solve_mark, solve_ns: int):
    """Per-layer metric values and ratio bases for one traced pass.

    Per-function figures cover the whole pass, set-up included (so the
    table that ``increments`` builds in set-up shows); the layer sums cover
    the timed ops only, so they add up to the traced ``solve_s``.
    """
    whole = tracer.summary()
    solve = tracer.summary(solve_mark)
    values: dict[str, float] = {}
    for name, _, _ in METRICS:
        prefix, _, stat = name.rpartition(".")
        key = FUNCS.get(prefix)
        if key is None or stat not in _STAT_UNITS:
            continue
        st = whole.get(key)
        if stat == "calls":
            values[name] = st.calls if st else 0
        elif stat == "errors":
            values[name] = st.errors if st else 0
        else:
            values[name] = st.self_ns / 1e9 if st else 0.0
    build = whole.get("primes.build_table")
    values["build_table.ns_per_entry"] = build.total_ns / probes.entries if build else 0.0
    values["table_bytes"] = probes.table_bytes
    lcm_calls = values["lcm_upto.calls"]
    fact_calls = values["factorial.calls"]
    hankel_calls = values["hankel_det.calls"]
    values["lcm_upto.cache_hit_ratio"] = ratio(probes.lcm_hits, lcm_calls)
    values["factorial.cache_hit_ratio"] = ratio(probes.factorial_hits, fact_calls)
    values["hankel_det.repeat_ratio"] = ratio(probes.hankel_repeats, hankel_calls)
    values["det_bits_max"] = probes.det_bits_max
    values["report.bytes_out"] = probes.bytes_out
    layer_ns = dict.fromkeys(LAYERS, 0)
    for key, st in solve.items():
        layer_ns[key.partition(".")[0]] += st.self_ns
    for layer, ns in layer_ns.items():
        values[f"layer.{layer}.self_s"] = ns / 1e9
    self_sum = sum(layer_ns.values())
    values["trace.solve_s"] = solve_ns / 1e9
    values["trace.self_sum_s"] = self_sum / 1e9
    values["trace.coverage"] = self_sum / solve_ns if solve_ns else 0.0
    bases = {
        "lcm_upto.cache_hit_ratio": [probes.lcm_hits, lcm_calls],
        "factorial.cache_hit_ratio": [probes.factorial_hits, fact_calls],
        "hankel_det.repeat_ratio": [probes.hankel_repeats, hankel_calls],
        "trace.coverage": [self_sum / 1e9, solve_ns / 1e9],
        "build_table.ns_per_entry": [build.total_ns / 1e9 if build else 0.0, probes.entries],
    }
    return values, bases
