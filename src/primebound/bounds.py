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

    c(s) = sum_k g(s) rho^{2k} / (4 (s+1)^2)  =  g(s) / (4s+3),

since 4 (s+1)^2 (1 - rho^2) = 4s+3.  c' has the sign of h = 4f - (4s+3) f',
and h' = -(4s+3) f'' < 0 since f''(s) = 2 ln(1 + 1/(4s(s+1))) > 0: h falls
from h(0+) = 4 ln 2 to h(1) ~ -1.41, so c has one maximum on (0, 1), at
s* ~ 0.39191162 with c* ~ 0.49518, within a hair of the best constant this
route can produce (c < 1/2, the true coefficient of psi_1).
:func:`optimize_s` finds s* by bisection on the sign of h.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

from . import exact
from .exact import _shown, log_superfactorial
from .primes import PrimeTable, _check_range, _psi1_at


@dataclass(frozen=True, init=False)
class BoundParams:
    """A scale parameter s in (0, 1] and a window size n, with floor(s n) >= 1.

    ``a`` = floor(s n), the matrix parameter alpha = beta, is computed once
    by the validation in ``__init__`` and stored; it takes no part in ``==``,
    ``hash`` or ``repr``, which see only (s, n).  The one hand-written
    ``__init__`` replaces the generated one and its ``__post_init__``, so a
    construction runs one Python frame, not two; ``dataclasses.replace``
    calls it with (s, n), so ``a`` is recomputed.
    """

    s: float
    n: int
    a: int = field(init=False, compare=False, repr=False)

    def __init__(self, s: float, n: int) -> None:
        if not (0.0 < s <= 1.0):  # also refuses nan and inf
            raise ValueError(f"s must be in (0, 1], got {s}")
        if not isinstance(n, int):
            raise ValueError(f"n must be an integer >= 1, got {_shown(n)}")
        try:
            a = math.floor(s * n)
        except OverflowError:  # s * n is a float; n may have hundreds of digits
            raise ValueError(f"n is too large for a float, got {_shown(n)}") from None
        if a < 1:  # also every n < 1, as 0 < s <= 1
            raise ValueError(f"floor(s*n) must be >= 1, got s={s}, n={_shown(n)}")
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "a", a)


def log_delta(params: BoundParams) -> float:
    """ln Delta_n(s) in floats, from four differences of log-superfactorials.

    With G(k) = sum_{j<k} ln j! (:func:`~primebound.exact.log_superfactorial`),
    each factor of Delta_n(s) is a ratio of superfactorials:

        ln Delta_n(s) = 2 (G(a+n-1) - G(a-1)) + G(n) - (G(2a+2n-2) - G(2a+n-2)),

    so a call is O(1).  When the largest index 2a+2n-2 is at most the seam
    ``exact._LOG_SEAM``, the five values are read straight from the shared
    table ``exact._LSF``, grown once if it is short; above it, each comes
    from one ``log_superfactorial`` call, as the series answers there.  Both
    give the same floats, summed in the same order.

    The differences cancel, yet the worst relative error measured was
    2.1e-15 against the ln of the exact Delta_n(s) (``delta_exact`` in
    ``tests/witnesses.py``) for every n <= 200 at s in
    {0.05, 0.15, s*, 0.8, 1}, 4.2e-15 against an fsum of math.lgamma terms up
    to n = 2e4, and 1.4e-14 against mpmath's Barnes G up to n = 1e12.  The
    cancellation grows like ln n: at every accepted n (to 2.5e152 at s = 1,
    5e152 as s -> 0) the G terms sum to below 1,900 |ln Delta_n(s)|, so the
    error is below 3e-12; on 1,500 samples up to there it was at most 2.3e-13.
    """
    a, n = params.a, params.n
    top = 2 * a + 2 * n - 2
    if top <= exact._LOG_SEAM:
        if top >= len(exact._LSF):
            exact._grow_log_table(top)
        G = exact._LSF
        return 2.0 * (G[a + n - 1] - G[a - 1]) + G[n] - (G[top] - G[2 * a + n - 2])
    G = log_superfactorial
    return 2.0 * (G(a + n - 1) - G(a - 1)) + G(n) - (G(top) - G(2 * a + n - 2))


def f_coeff(s: float) -> float:
    """f(s) = lim (1/n^2) ln Delta_n(s); strictly negative on (0, 1]."""
    if not 0.0 < s < math.inf:
        raise ValueError(f"f_coeff requires finite s > 0, got {s}")
    t = 2.0 * s + 1.0
    u = s + 1.0
    return (
        0.5 * t * t * math.log(t)
        - s * s * math.log(s)
        - u * u * math.log(u)
        - 2.0 * u * u * math.log(2.0)
    )


def f_prime(s: float) -> float:
    """f'(s) = 2 (t ln t - s ln s - u ln u - 2u ln 2), t = 2s+1, u = s+1 (t - s - u = 0)."""
    t, u = 2.0 * s + 1.0, s + 1.0
    return 2.0 * (t * math.log(t) - s * math.log(s) - u * math.log(u) - 2.0 * u * math.log(2.0))


@dataclass(frozen=True)
class AsymptoticCoeff:
    """The pieces of the chained bound at one s: f, g = -f, rho, and c."""

    s: float
    f: float
    g: float
    rho: float
    c: float


def chain_constant(s: float) -> AsymptoticCoeff:
    """c(s) = g(s) / (4s+3), the chained series summed, and rho = (2s+1)/(2s+2)."""
    f = f_coeff(s)
    rho = (2.0 * s + 1.0) / (2.0 * s + 2.0)
    return AsymptoticCoeff(s=s, f=f, g=-f, rho=rho, c=-f / (4.0 * s + 3.0))


@dataclass(frozen=True)
class OptimizationResult:
    """Argmax data for c(s): location, value, work done, final bracket width."""

    s_star: float
    c_star: float
    evaluations: int
    bracket_width: float


def optimize_s(lo: float, hi: float, tol: float) -> OptimizationResult:
    """Maximise c(s) on [lo, hi] within (0, 1] by bisection on the sign of c'(s).

    c' has the sign of h = 4f - (4s+3) f', which is strictly decreasing, so
    the maximum is at hi if h(hi) >= 0, at lo if h(lo) <= 0 (width 0), and
    otherwise in a bracket with h(a) > 0 >= h(b), halved until b - a <= tol
    or until its ends are adjacent floats.  ``evaluations`` counts h calls.
    """
    if not 0.0 < lo <= hi <= 1.0:
        raise ValueError(f"need finite 0 < lo <= hi <= 1, got lo={lo}, hi={hi}")
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ValueError(f"need finite tol > 0, got {tol}")
    evals = 0

    def h(s: float) -> float:
        nonlocal evals
        evals += 1
        return 4.0 * f_coeff(s) - (4.0 * s + 3.0) * f_prime(s)

    a, b = lo, hi
    if h(b) >= 0.0:
        a = b
    elif h(a) <= 0.0:
        b = a
    while b - a > tol:
        m = 0.5 * (a + b)
        if m == a or m == b:
            break
        if h(m) > 0.0:
            a = m
        else:
            b = m
    s_star = 0.5 * (a + b)
    return OptimizationResult(s_star, chain_constant(s_star).c, evals, b - a)


def asymptotic_gap(params: BoundParams) -> float:
    """| ln Delta_n(s) / n^2  -  f(s) |: the finite-n convergence gap."""
    return abs(log_delta(params) / (params.n * params.n) - f_coeff(params.s))


_INCREMENT_SLACK = 1e-6


class IncrementCheck(NamedTuple):
    """One evaluated instance of the increment inequality (an immutable named tuple)."""

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
    version obtained because psi is nondecreasing.  offset must be an
    ``int`` and both ends must lie inside the table; the ends are then
    integers in [0, limit], so psi_1 is read straight from
    ``table.psi1_hi``, which the first check on a table fills by the
    table's one psi_1 read, ``primes._psi1_at``.  ``holds`` allows 1e-6 of
    slack: both sides are logs of exact integers, so the slack only
    absorbs float rounding.  The result is built by ``tuple.__new__``, the
    allocation the generated ``IncrementCheck.__new__`` makes, without that
    extra Python frame.
    """
    if not isinstance(offset, int):
        raise ValueError(f"offset must be an integer, got {offset!r}")
    a, n = params.a, params.n
    lower = 2 * a + n + offset
    upper = lower + n
    if lower < 0:
        raise ValueError(f"window bottom {_shown(lower)} is negative")
    if upper > table.limit:
        raise ValueError(f"window top {_shown(upper)} exceeds table limit {table.limit}")
    psi1_hi = table.psi1_hi
    lhs = psi1_hi.item(upper) - psi1_hi.item(lower)
    rhs = -log_delta(params)
    margin = lhs - rhs
    return tuple.__new__(
        IncrementCheck,
        (params, offset, lower, upper, lhs, rhs, margin, margin >= -_INCREMENT_SLACK),
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
    for x in xs:
        if not isinstance(x, int) or x < 1:
            raise ValueError(f"table points must be integers >= 1, got {_shown(x)}")
        _check_range(table, x, 0)
    # One vector read: each value is the float psi1(table, x) returns.
    values = _psi1_at(table, xs)[0].tolist()
    return [
        EmpiricalRow(x=x, psi1=v, bound=c_star * x * x, ratio=v / (x * x))
        for x, v in zip(xs, values)
    ]
