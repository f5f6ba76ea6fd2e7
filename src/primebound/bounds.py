"""From exact determinants to an explicit lower bound psi_1(x) >= c x^2.

The pivot quantity is the Hankel determinant at alpha = beta = floor(s n):

    Delta_n(s) = prod_{j=0}^{n-1} ((a+j-1)!)^2 j! / (2a+n+j-2)!,   a = floor(s n),

a rational number strictly between 0 and 1.  The lcm integrality product
(see :mod:`primebound.determinants`) says

    prod_{i=1}^{n} d_{2a+n+i-3}  *  Delta_n(s)  >=  1,

and since ln d_m = psi(m), taking logs and summing the psi values as
consecutive increments of psi_1 gives the *increment inequality*

    psi_1(2a+2n-3) - psi_1(2a+n-3)  >=  -ln Delta_n(s),

together with the slightly weaker shifted form at offset 0 (the window
moved up by three, each summand no smaller because psi is nondecreasing).
:func:`increment_check` evaluates either form against a sieve table.

Asymptotics.  By Stirling, (1/n^2) ln Delta_n(s) -> f(s) with

    f(s) = (2s+1)^2/2 ln(2s+1) - s^2 ln s - (s+1)^2 ln(s+1) - 2 (s+1)^2 ln 2,

which is negative; write g = -f.  Chaining the increment inequality over
windows scaled by rho = (2s+1)/(2s+2) — so that each window's top end is
the previous window's bottom end, n_{k+1} = rho n_k, x = 2(s+1) n_0 —
telescopes to psi_1(x) >= c(s) x^2 + o(x^2) with the geometric series

    c(s) = sum_k g(s) rho^{2k} / (4 (s+1)^2)  =  g(s) / (4 (s+1)^2 (1 - rho^2)).

Maximising c over s in (0, 1) lands at s* ~ 0.3919116 and c* ~ 0.49518,
within a hair of the best constant this route can produce (c < 1/2, the
true coefficient of psi_1).  :func:`optimize_s` reproduces the constants
deterministically with a grid scan plus golden-section refinement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exact import CompensatedSum, factorial, log_superfactorial
from .primes import PrimeTable, psi1

_EXACT_N_CAP = 200
_GRID_POINTS = 64
_MAX_REFINE_STEPS = 200
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class BoundParams:
    """A scale parameter s in (0, 1] and a window size n, with floor(s n) >= 1."""

    s: float
    n: int

    def __post_init__(self) -> None:
        if not (0.0 < self.s <= 1.0):  # also refuses nan and inf
            raise ValueError(f"s must be in (0, 1], got {self.s}")
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"n must be an integer >= 1, got {self.n!r}")
        if math.floor(self.s * self.n) < 1:
            raise ValueError(
                f"floor(s*n) must be >= 1, got s={self.s}, n={self.n}"
            )

    @property
    def a(self) -> int:
        """a = floor(s n), the matrix parameter alpha = beta."""
        return int(math.floor(self.s * self.n))


def delta_exact(params: BoundParams) -> Fraction:
    """Delta_n(s) as an exact rational.

    Factorials grow fast; n is capped so a single call cannot consume
    unbounded memory (the cap is far above anything the asymptotic tests
    need — use :func:`log_delta` beyond it).
    """
    if params.n > _EXACT_N_CAP:
        raise ValueError(
            f"delta_exact supports n <= {_EXACT_N_CAP}, got {params.n}; "
            "use log_delta for large n"
        )
    a, n = params.a, params.n
    num = 1
    den = 1
    for j in range(n):
        fa = factorial(a + j - 1)
        num *= fa * fa * factorial(j)
        den *= factorial(2 * a + n + j - 2)
    return Fraction(num, den)


def log_delta(params: BoundParams) -> float:
    """ln Delta_n(s) in floats, from four differences of log-superfactorials.

    With G(k) = sum_{j<k} ln j! (:func:`~primebound.exact.log_superfactorial`),
    each factor of Delta_n(s) is a ratio of superfactorials:

        ln Delta_n(s) = 2 (G(a+n-1) - G(a-1)) + G(n) - (G(2a+2n-2) - G(2a+n-2)),

    so a call is O(1) table lookups once the table reaches 2a+2n-2.
    The differences cancel, yet at s in {0.05, 0.15, s*, 0.8, 1} the worst
    relative error measured was 2.1e-15 against ln(delta_exact) for every
    n <= 200, and 4.2e-15 against an fsum of math.lgamma terms up to n = 2e4.
    """
    a, n = params.a, params.n
    G = log_superfactorial
    return 2.0 * (G(a + n - 1) - G(a - 1)) + G(n) - (G(2 * a + 2 * n - 2) - G(2 * a + n - 2))


def f_coeff(s: float) -> float:
    """f(s) = lim (1/n^2) ln Delta_n(s); strictly negative on (0, 1]."""
    if s <= 0.0:
        raise ValueError(f"f_coeff requires s > 0, got {s}")
    t = 2.0 * s + 1.0
    u = s + 1.0
    return (
        0.5 * t * t * math.log(t)
        - s * s * math.log(s)
        - u * u * math.log(u)
        - 2.0 * u * u * math.log(2.0)
    )


@dataclass(frozen=True)
class AsymptoticCoeff:
    """The pieces of the chained bound at one s: f, g = -f, rho, and c."""

    s: float
    f: float
    g: float
    rho: float
    c: float


def chain_constant(s: float) -> AsymptoticCoeff:
    """c(s) = g(s) / (4 (s+1)^2 (1 - rho^2)) with rho = (2s+1)/(2s+2)."""
    f = f_coeff(s)
    g = -f
    u = s + 1.0
    rho = (2.0 * s + 1.0) / (2.0 * u)
    c = g / (4.0 * u * u * (1.0 - rho * rho))
    return AsymptoticCoeff(s=s, f=f, g=g, rho=rho, c=c)


def chain_partial_sum(s: float, k_max: int) -> float:
    """sum_{k=0}^{k_max} g rho^{2k} / (4 (s+1)^2): the telescoped windows.

    Converges geometrically to chain_constant(s).c; with k_max = 40 the
    tail is below 1e-11 throughout [0.1, 0.9].
    """
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    co = chain_constant(s)
    acc = CompensatedSum()
    r2 = co.rho * co.rho
    term = co.g / (4.0 * (s + 1.0) ** 2)
    for _ in range(k_max + 1):
        acc.add(term)
        term *= r2
    return acc.value


@dataclass(frozen=True)
class OptimizationResult:
    """Argmax data for c(s): location, value, work done, final bracket width."""

    s_star: float
    c_star: float
    evaluations: int
    bracket_width: float


def optimize_s(lo: float, hi: float, tol: float) -> OptimizationResult:
    """Maximise c(s) on [lo, hi] within (0, 1] by grid scan + golden-section refinement.

    Deterministic: a fixed 64-point scan brackets the peak, then
    golden-section narrows the bracket below ``tol`` (c is unimodal on
    (0, 1), so the combination is reliable); iteration count is capped.
    """
    if not 0.0 < lo <= hi <= 1.0:
        raise ValueError(f"need finite 0 < lo <= hi <= 1, got lo={lo}, hi={hi}")
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ValueError(f"need finite tol > 0, got {tol}")
    evals = 0

    def cval(s: float) -> float:
        nonlocal evals
        evals += 1
        return chain_constant(s).c

    if lo == hi:
        return OptimizationResult(lo, cval(lo), evals, 0.0)

    grid = [lo + (hi - lo) * i / (_GRID_POINTS - 1) for i in range(_GRID_POINTS)]
    vals = [cval(s) for s in grid]
    best = max(range(_GRID_POINTS), key=vals.__getitem__)
    a = grid[max(best - 1, 0)]
    b = grid[min(best + 1, _GRID_POINTS - 1)]

    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1 = cval(x1)
    f2 = cval(x2)
    for _ in range(_MAX_REFINE_STEPS):
        if b - a <= tol:
            break
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = cval(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = cval(x1)
    s_star = 0.5 * (a + b)
    return OptimizationResult(s_star, chain_constant(s_star).c, evals + 1, b - a)


def asymptotic_gap(params: BoundParams) -> float:
    """| ln Delta_n(s) / n^2  -  f(s) |: the finite-n convergence gap."""
    return abs(log_delta(params) / (params.n * params.n) - f_coeff(params.s))


_INCREMENT_SLACK = 1e-6


@dataclass(frozen=True)
class IncrementCheck:
    """One evaluated instance of the increment inequality."""

    params: BoundParams
    offset: int
    lower: int
    upper: int
    lhs: float
    rhs: float
    margin: float
    holds: bool


def increment_check(table: PrimeTable, params: BoundParams, offset: int = 0) -> IncrementCheck:
    """Check psi_1(2a+2n+offset) - psi_1(2a+n+offset) >= -ln Delta_n(s).

    offset = -3 is the form delivered directly by the lcm product (the
    psi window is m = 2a+n-2 .. 2a+2n-3); offset = 0 is the relaxed
    version obtained because psi is nondecreasing.  Both ends must lie
    inside the table.  ``holds`` allows 1e-6 of slack: both sides are
    logs of exact integers, so the slack only absorbs float rounding.
    """
    a, n = params.a, params.n
    lower = 2 * a + n + offset
    upper = 2 * a + 2 * n + offset
    if lower < 0:
        raise ValueError(f"window bottom {lower} is negative")
    if upper > table.limit:
        raise ValueError(
            f"window top {upper} exceeds table limit {table.limit}"
        )
    lhs = psi1(table, upper) - psi1(table, lower)
    rhs = -log_delta(params)
    margin = lhs - rhs
    return IncrementCheck(
        params=params,
        offset=offset,
        lower=lower,
        upper=upper,
        lhs=lhs,
        rhs=rhs,
        margin=margin,
        holds=margin >= -_INCREMENT_SLACK,
    )


@dataclass(frozen=True)
class EmpiricalRow:
    """psi_1 at x against the asymptotic bound c* x^2."""

    x: int
    psi1: float
    bound: float
    ratio: float


def empirical_table(
    table: PrimeTable, xs: list[int], c_star: float | None = None
) -> list[EmpiricalRow]:
    """Tabulate psi_1(x), c* x^2 and psi_1(x)/x^2 at the given points.

    When c_star is omitted it is recomputed by :func:`optimize_s` on
    (0.01, 0.99) at 1e-9, so the table is self-contained.
    """
    if c_star is None:
        c_star = optimize_s(0.01, 0.99, 1e-9).c_star
    rows = []
    for x in xs:
        if not isinstance(x, int) or x < 1:
            raise ValueError(f"table points must be integers >= 1, got {x!r}")
        v = psi1(table, x)
        rows.append(
            EmpiricalRow(x=x, psi1=v, bound=c_star * x * x, ratio=v / (x * x))
        )
    return rows
