"""Spectral thresholds of u'''' - p u'' + m u with hinged end conditions.

For the operator on [a, b] with u(a) = u(b) = u''(a) = u''(b) = 0 the
eigenvalues of -c are explicit,

    lambda_k = (k pi / L)^4 + p (k pi / L)^2,   L = b - a,

and the inverse-positivity / inverse-negativity windows are bounded by two
further thresholds lambda2 < 0 < lambda3, each the least root of a tan/tanh
equation coming from the clamped-hinged and interior-touching boundary
cases.  Substituting x = (L/2) q for lambda2 and x = L q / sqrt(2) for
lambda3 turns both equations into

    tan x / x = tanh y / y,   y^2 = x^2 + s,

with s = p L^2 / 2 (lambda2) or s = p L^2 (lambda3).  For every p >= 0 and
L > 0 the least positive root lies in (pi, 3 pi / 2) and is the only root
there: on (0, pi/2) tan x / x > 1 > tanh y / y, on (pi/2, pi] tan x <= 0 <
tanh y / y, and on (pi, 3 pi/2) tan x / x increases while tanh y / y
decreases.  So each threshold is a bisection on a fixed bracket followed by
a closed-form map from x back to lambda.  This module computes both, the
eigenvalue nearest a coefficient range, and the constants delta1 and delta2
used by the contraction and uniqueness bounds.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import RootSearchError
from .fields import Grid, Interval, require_p

__all__ = [
    "SpectralData",
    "lambda_k",
    "lambda2",
    "lambda3",
    "delta1",
    "delta2",
    "nearest_mode",
]

_SQRT_MAX = math.sqrt(sys.float_info.max)


def _overflow(what: str, p: float, interval: Interval) -> ValueError:
    return ValueError(
        f"{what} overflows float64 at p = {p} on an interval of length L = {interval.length!r}"
    )


def _finite(what: str, p: float, interval: Interval, compute) -> float:
    """``compute()`` when it is a finite float, else the ValueError of :func:`_overflow`.

    On very short intervals the thresholds scale like L**-4 (and delta1 like
    L**-3) and leave float64: a float power raises OverflowError, a product
    or quotient turns inf, and L**3 may underflow to zero.
    """
    try:
        value = compute()
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    if not math.isfinite(value):
        raise _overflow(what, p, interval)
    return value


def _discrete_top(p: float, grid: Grid) -> float:
    """(4/h^2) (4/h^2 + p), h = ``grid.spacing``, above every eigenvalue of L^2 + p L.

    L is the Dirichlet second-difference matrix on the grid.  On very short
    intervals this leaves float64 before the continuous thresholds do, and
    the ValueError of :func:`_overflow` names the discrete operator.
    """
    h = grid.spacing
    return _finite(
        "the discrete operator", p, grid.interval, lambda: (2.0 / h) ** 2 * ((2.0 / h) ** 2 + p)
    )


def _discrete_beta(p: float, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """mu_k and beta_k = mu_k^2 + p mu_k, k = 1 .. n - 1, the eigenvalues of L and L^2 + p L.

    mu_k = (2 sin(k pi / 2n) / h)^2 with h = ``grid.spacing``, and the DST-I
    diagonalises both matrices: their k-th eigenvector is sin(i k pi / n).
    Both sequences increase with k.  Each mu_k is within gamma_15 of its
    exact value, relative, when no step underflows (u = 2**-53, gamma_k =
    k u / (1 - k u)): the argument takes three roundings (pi, the division
    and the product), which move sin by about as much relative, since
    x cot x <= 1 on (0, pi/2); numpy's float64 sin is validated to 1 ulp of
    the rounded result, at most 3 u relative; then 2 s / h takes one
    rounding, and the square doubles the seven and adds one.
    """
    _discrete_top(p, grid)
    n = grid.n
    mu = (2.0 * np.sin(np.arange(1, n) * (np.pi / (2 * n))) / grid.spacing) ** 2
    return mu, mu * (mu + p)


def _dst1(x: np.ndarray) -> np.ndarray:
    """The DST-I sum_i x[i - 1] sin(i k pi / n), k = 1 .. n - 1, of the n - 1 entries of ``x``.

    Taken as one ``rfft`` of the odd extension (0, x, 0, -x reversed), of
    length 2n, whose k-th coefficient is -2i times the sum.  The DST-I is
    its own inverse up to the factor 2 / n.  ``numpy.fft`` loads at the
    first call, not at import.
    """
    n = len(x) + 1
    ext = np.zeros(2 * n)
    ext[1:n] = x
    ext[n + 1 :] = -x[::-1]
    return np.fft.rfft(ext).imag[1:n] * -0.5


def lambda_k(p: float, interval: Interval, k: int) -> float:
    """k-th eigenvalue (k pi/L)^4 + p (k pi/L)^2 of the hinged operator."""
    require_p(p)
    if k < 1:
        raise ValueError(f"mode number k must be a positive integer, got {k}")
    w = k * np.pi / interval.length
    return _finite(f"lambda_{k}", p, interval, lambda: float(w**4 + p * w**2))


# ---------------------------------------------------------------------------
# the transcendental thresholds


def _tan_tanh_root(s: float, what: str) -> float:
    """The root x in (pi, 3 pi/2) of tan x / x = tanh y / y, y = sqrt(x^2 + s).

    Bisects the pole-free form g(x) = y sin x - x tanh(y) cos x, positive at
    pi and negative at 3 pi/2, to floating-point exhaustion, then confirms
    the sign change across the final bracket.
    """

    def g(x: float) -> float:
        y = math.sqrt(x * x + s)
        return y * math.sin(x) - x * math.tanh(y) * math.cos(x)

    lo, hi = math.pi, 1.5 * math.pi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    if not (hi - lo <= 4.0 * math.ulp(hi) and g(lo) > 0.0 >= g(hi)):
        raise RootSearchError(f"{what}: no sign change across the final bracket [{lo!r}, {hi!r}]")
    return hi


def lambda2(p: float, interval: Interval) -> float:
    """Negative positivity threshold.

    Returns minus the least positive root lam (with 2 sqrt(lam) > p) of

        tan((L/2) q) / q = tanh((L/2) r) / r,
        q = sqrt(2 sqrt(lam) - p),  r = sqrt(2 sqrt(lam) + p).

    With x = (L/2) q and y = (L/2) r = sqrt(x^2 + p L^2 / 2) this reads
    tan x / x = tanh y / y, whose least positive root is the only one in
    (pi, 3 pi/2) (see the module docstring); lam = ((q^2 + p) / 2)^2.
    """
    require_p(p)
    L = interval.length
    x = _tan_tanh_root(0.5 * p * L * L, "lambda2")
    q = 2.0 * x / L
    if not 0.5 * q * q <= _SQRT_MAX:  # the interval alone overflows, whatever p is
        raise _overflow("lambda2", p, interval)
    try:
        return -(0.5 * (q * q + p)) ** 2
    except OverflowError:
        raise ValueError(f"lambda2 overflows float64 at p = {p}") from None


def lambda3(p: float, interval: Interval) -> float:
    """Positive negativity threshold.

    Returns the least positive root lam of

        tan(L q / sqrt(2)) / q = tanh(L r / sqrt(2)) / r,
        q = sqrt(sqrt(p^2 + 4 lam) - p),  r = sqrt(sqrt(p^2 + 4 lam) + p).

    With x = L q / sqrt(2) and y = L r / sqrt(2) = sqrt(x^2 + p L^2) this
    reads tan x / x = tanh y / y, whose least positive root is the only one
    in (pi, 3 pi/2) (see the module docstring); lam = q^2 (q^2 + 2 p) / 4.
    """
    require_p(p)
    L = interval.length
    x = _tan_tanh_root(p * L * L, "lambda3")

    def lam() -> float:
        q2 = 2.0 * (x / L) ** 2
        return 0.25 * q2 * (q2 + 2.0 * p)

    return _finite("lambda3", p, interval, lam)


# ---------------------------------------------------------------------------
# contraction constants


def delta1(p: float, interval: Interval) -> float:
    """Contraction threshold max{ 4 p / L, 4 pi^2 / L^3 }."""
    require_p(p)
    L = interval.length
    return _finite("delta1", p, interval, lambda: max(4.0 * p / L, 4.0 * np.pi**2 / L**3))


def delta2(p: float, interval: Interval, c_m: float) -> float:
    """Uniqueness margin min{ -1 - c_m/lambda_1, 1 + c_m/lambda_1' }.

    Requires -lambda_1' < c_m < -lambda_1 (strictly), where lambda_1' is the
    second eigenvalue; the result then lies in (0, 1).
    """
    lam1 = lambda_k(p, interval, 1)
    lam1p = lambda_k(p, interval, 2)
    if not (-lam1p < c_m < -lam1):
        raise ValueError(
            f"c_m = {c_m} outside the window (-lambda_1', -lambda_1) = ({-lam1p}, {-lam1})"
        )
    return float(min(-1.0 - c_m / lam1, 1.0 + c_m / lam1p))


def nearest_mode(p: float, interval: Interval, c_min: float, c_max: float) -> tuple[int, float]:
    """Mode k whose -lambda_k is nearest the range [c_min, c_max], and that distance.

    The distance is 0.0 when -lambda_k lies in the range; ties go to the
    smaller k.  As lambda_k increases with k, the nearest mode neighbours a
    real solution of lambda(k) = -c_max or lambda(k) = -c_min, which is the
    quadratic w^4 + p w^2 = -c in w^2 = (k pi / L)^2.
    """
    candidates = {1}
    for t in (-c_max, -c_min):
        if t > 0.0:
            w2 = t / (0.5 * p + math.hypot(0.5 * p, math.sqrt(t)))
            k = int(interval.length * math.sqrt(w2) / math.pi)
            candidates.update(range(max(k - 1, 1), k + 3))
    best_k, best_gap = 1, math.inf
    for k in sorted(candidates):
        neg = -lambda_k(p, interval, k)
        gap = 0.0 if c_min <= neg <= c_max else min(abs(neg - c_min), abs(neg - c_max))
        if gap < best_gap:
            best_k, best_gap = k, gap
    return best_k, best_gap


@dataclass(frozen=True)
class SpectralData:
    """All spectral thresholds of the operator for one (p, interval) pair."""

    p: float
    interval: Interval
    lambda1: float
    lambda1_prime: float
    lambda2: float
    lambda3: float
    delta1: float

    @classmethod
    def compute(cls, p: float, interval: Interval) -> "SpectralData":
        """The thresholds of (p, interval), computed once and kept for later calls.

        The last 256 distinct (p, interval) pairs are kept, and every later
        call with an equal pair returns the same instance.  Pairs that are
        equal but differ in the type or the sign of a zero of p, a or b are
        kept apart, so ``repr`` of the result shows the arguments as given.
        Errors are not kept: a pair whose thresholds raise raises again at
        every call.
        """
        key = tuple((type(x), math.copysign(1.0, x)) for x in (p, interval.a, interval.b))
        return _spectral_data(cls, p, interval, key)

    def __post_init__(self):
        # ordering sanity: 0 < lambda1 < lambda3 <= -lambda2 and lambda1 < lambda1'
        if not (0.0 < self.lambda1 < self.lambda3 < -self.lambda2):
            raise ValueError("spectral thresholds violate their ordering")
        if not self.lambda1 < self.lambda1_prime:
            raise ValueError("spectral thresholds violate their ordering")


# a round of the corpus benchmark visits 60 (p, L) pairs; an LRU smaller than
# its working set would miss on most of them
@functools.lru_cache(maxsize=256)
def _spectral_data(cls, p: float, interval: Interval, key: tuple) -> SpectralData:
    # ``key`` holds the types and zero signs of p, a and b, which == and hash ignore
    return cls(
        p=float(p),
        interval=interval,
        lambda1=lambda_k(p, interval, 1),
        lambda1_prime=lambda_k(p, interval, 2),
        lambda2=lambda2(p, interval),
        lambda3=lambda3(p, interval),
        delta1=delta1(p, interval),
    )
