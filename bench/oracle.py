"""Reference values the benchmark checks the package against.

Nothing here calls into ``beamsign``: the thresholds, eigenvalues and
residuals are computed from the closed forms and the documented stencil, so
a defect in the package cannot hide in its own check.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import eig_banded, eigvals_banded
from scipy.optimize import brentq

# relative agreement required between a package threshold and the oracle
THRESHOLD_RTOL = 1e-8


def lambda_k(p: float, length: float, k: int) -> float:
    """k-th eigenvalue (k pi/L)^4 + p (k pi/L)^2 of the hinged operator."""
    w = k * math.pi / length
    return w**4 + p * w**2


def _threshold_root(p: float, length: float, kind: str) -> float:
    # Substituting x = (L/2) q (lambda2) or x = L q / sqrt(2) (lambda3) turns
    # tan(x)/q = tanh(.)/r into a root on x in (pi, 3 pi/2): on (0, pi/2)
    # tan x / x > 1 > tanh y / y and on (pi/2, pi] tan x <= 0.  Multiplying by
    # q r cos x removes the pole, so brentq sees a continuous function.
    if kind == "lambda2":
        def parts(x):
            q = 2.0 * x / length
            r = math.sqrt(q * q + 2.0 * p)
            return q, r, math.tanh(0.5 * length * r)
    else:
        def parts(x):
            q = math.sqrt(2.0) * x / length
            r = math.sqrt(q * q + 2.0 * p)
            return q, r, math.tanh(length * r / math.sqrt(2.0))

    def g(x):
        q, r, t = parts(x)
        return r * math.sin(x) - q * t * math.cos(x)

    x = brentq(g, math.pi, 1.5 * math.pi, xtol=1e-300, rtol=4 * np.finfo(float).eps, maxiter=200)
    q, _, _ = parts(x)
    if kind == "lambda2":
        return ((q * q + p) / 2.0) ** 2
    return q * q * (q * q + 2.0 * p) / 4.0


def thresholds(p: float, length: float) -> tuple[float, float]:
    """(lambda2, lambda3) as least roots: lambda2 < 0 < lambda3."""
    return -_threshold_root(p, length, "lambda2"), _threshold_root(p, length, "lambda3")


def threshold_mismatch(pair, lam2: float, lam3: float) -> str | None:
    """Name the threshold that disagrees with the pair's least roots, or None."""
    for name, got, ref in (("lambda2", lam2, pair.lam2), ("lambda3", lam3, pair.lam3)):
        if not abs(got - ref) <= THRESHOLD_RTOL * abs(ref):
            return f"{name} = {got!r}, least root {ref!r}"
    return None


def nearest_resonance_gap(p: float, length: float, c_min: float, c_max: float) -> float:
    """Distance from [c_min, c_max] to the nearest -lambda_k (0 when one lies inside)."""
    best = math.inf
    k = 1
    while True:
        neg = -lambda_k(p, length, k)
        if c_min <= neg <= c_max:
            return 0.0
        best = min(best, abs(neg - c_min), abs(neg - c_max))
        if neg < c_min:
            return best
        k += 1


# ---------------------------------------------------------------------------
# the discrete operator, assembled from the documented stencil


def band(p: float, c_values, length: float, n: int) -> np.ndarray:
    """Banded (2, 2) storage of the hinged five-point operator, ghost rows folded in."""
    dx = length / n
    inv4, inv2 = dx**-4, dx**-2
    cv = np.asarray(c_values, dtype=np.float64)
    ab = np.zeros((5, n + 1))
    ab[2, 1:n] = 6.0 * inv4 + 2.0 * p * inv2 + cv[1:n]
    ab[2, 1] -= inv4
    ab[2, n - 1] -= inv4
    ab[1, 2:] = -4.0 * inv4 - p * inv2
    ab[1, n] = -2.0 * inv4 - p * inv2
    ab[3, : n - 1] = -4.0 * inv4 - p * inv2
    ab[3, 0] = -2.0 * inv4 - p * inv2
    ab[0, 3:] = inv4
    ab[4, : n - 2] = inv4
    ab[2, 0] = ab[2, n] = 1.0
    return ab


def rhs(h_values, d1: float, d2: float, length: float, n: int) -> np.ndarray:
    b = np.array(h_values, dtype=np.float64)
    b[0] = b[-1] = 0.0
    inv2 = (length / n) ** -2
    b[1] -= d1 * inv2
    b[-2] -= d2 * inv2
    return b


def _matvec(ab: np.ndarray, u: np.ndarray) -> np.ndarray:
    out = ab[2] * u
    out[:-1] += ab[1, 1:] * u[1:]
    out[1:] += ab[3, :-1] * u[:-1]
    out[:-2] += ab[0, 2:] * u[2:]
    out[2:] += ab[4, :-2] * u[:-2]
    return out


def backward_error(ab: np.ndarray, u, b) -> float:
    """Normwise (Rigal-Gaches) backward error ||A u - b|| / (||A|| ||u|| + ||b||), inf-norms."""
    ul = np.asarray(u, dtype=np.longdouble)
    bl = np.asarray(b, dtype=np.longdouble)
    r = np.asarray(_matvec(ab.astype(np.longdouble), ul) - bl, dtype=np.float64)
    norm_a = float(np.max(np.sum(np.abs(_dense_rows(ab)), axis=0)))
    denom = norm_a * float(np.max(np.abs(np.asarray(u, dtype=np.float64)))) + float(
        np.max(np.abs(np.asarray(b, dtype=np.float64)))
    )
    return float(np.max(np.abs(r)) / denom)


def _dense_rows(ab: np.ndarray) -> np.ndarray:
    # absolute row sums need A[i, i + k] lined up per row: shift each diagonal
    m = ab.shape[1]
    rows = np.zeros((5, m))
    for d in range(5):
        k = 2 - d  # superdiagonal offset
        if k >= 0:
            rows[d, : m - k] = ab[d, k:]
        else:
            rows[d, -k:] = ab[d, : m + k]
    return rows


def solve_tolerance(n: int) -> float:
    """Backward error a stable banded solve must reach: 10 n machine epsilons."""
    return 10.0 * n * float(np.finfo(np.float64).eps)


def smallest_eigenvalue(p: float, c_values, length: float, n: int) -> tuple[float, float]:
    """Eigenvalue of least magnitude of the interior block, and its accuracy.

    A float64 eigensolver is only accurate to about eps * ||A||, which at
    n = 1000 is far coarser than the eigenvalue itself.  So the eigenvector
    from ``eig_banded`` is fed to a Rayleigh quotient in extended precision,
    whose error is quadratic in the vector's; what is left is rounding in
    the quotient, returned as the second value.
    """
    ab = band(p, c_values, length, n)
    # the interior block (rows/columns 1..n-1) is symmetric: lower band storage
    lower = np.zeros((3, n - 1))
    lower[0] = ab[2, 1:n]
    lower[1, : n - 2] = ab[3, 1 : n - 1]
    lower[2, : n - 3] = ab[4, 1 : n - 2]
    k = int(np.argmin(np.abs(eigvals_banded(lower, lower=True))))
    _, vec = eig_banded(lower, lower=True, select="i", select_range=(k, k))
    v = np.zeros(n + 1, dtype=np.longdouble)
    v[1:n] = vec[:, 0]
    av = _matvec(ab.astype(np.longdouble), v)
    quotient = float(v[1:n] @ av[1:n] / (v[1:n] @ v[1:n]))
    norm_a = float(np.max(np.sum(np.abs(_dense_rows(ab)), axis=0)))
    return quotient, 8.0 * float(np.finfo(np.longdouble).eps) * norm_a
