"""Green's kernels of the hinged operator and sign scans over them.

Two constructions are provided: a sine-series kernel for constant
coefficients, where the eigenfunctions are explicit, and a discrete kernel
for variable coefficients obtained by solving against scaled unit loads so
that u(t_i) = sum_j w_j G[i, j] h(t_j) reproduces solutions with uniform
nodal weights w_j equal to the grid spacing.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import ResonanceError
from .fields import Grid, ScalarField, require_p
from .solver import (
    _float64_residual_certified,
    _resolve_grid,
    _resonance_error,
    _solve_refined,
    assemble,
)

__all__ = [
    "GreensMatrix",
    "GreensSignReport",
    "char_roots",
    "greens_constant",
    "greens_discrete",
    "y_boundary",
    "sign_scan",
]


@dataclass(eq=False)
class GreensMatrix:
    """Kernel samples G[i, j] ~ g(t_i, s_j) on a shared grid.

    Rows and columns at the boundary nodes are identically zero.  For the
    series construction ``tail_bound`` carries a bound on the truncated
    remainder at the returned entries.  ``values`` is float64, except for a
    discrete kernel that needed extended-precision refinement to meet its
    residual bound (see :func:`greens_discrete`), which is long double.
    """

    grid: Grid
    values: np.ndarray
    tail_bound: float | None = None

    def __post_init__(self):
        m = self.grid.n + 1
        if np.asarray(self.values).shape != (m, m):
            raise ValueError(f"kernel matrix must be {m} x {m}")


@dataclass(frozen=True)
class GreensSignReport:
    """Outcome of a sign scan of a kernel matrix."""

    interior_sign: str  # positive | negative | mixed
    min_abs_interior: float
    boundary_slope_a: float
    boundary_slope_b: float
    conclusion: str  # strongly_inverse_positive | strongly_inverse_negative | inconclusive


def char_roots(p: float, m: float) -> tuple[complex, complex, complex, complex]:
    """The four roots of r^4 - p r^2 + m = 0, via the quadratic in r^2."""
    half = p / 2.0
    disc = cmath.sqrt(complex(half * half - m))
    roots = []
    for z in (half + disc, half - disc):
        r = cmath.sqrt(z)
        roots.extend((r, -r))
    return tuple(roots)


def greens_constant(p: float, m: float, grid: Grid, terms: int = 2000) -> GreensMatrix:
    """Series kernel (2/L) sum_k sin(k pi x/L) sin(k pi y/L) / (lambda_k + m).

    Requires at least 50 terms and a truncation order past the last sign
    change of the modal denominators.  A denominator within 1e-9 of zero is
    reported as resonance.
    """
    require_p(p)
    if terms < 50:
        raise ValueError(f"the series needs at least 50 terms, got {terms}")
    L = grid.interval.length
    k = np.arange(1, terms + 1, dtype=np.float64)
    w = k * np.pi / L
    lam = w**4 + p * w**2
    denom = lam + m
    j = int(np.argmin(np.abs(denom)))
    if abs(denom[j]) < 1e-9:
        raise ResonanceError(
            f"m = {m} is resonant: lambda_{j + 1} + m = {denom[j]:.3e}",
            nearest_eigenvalue=-float(lam[j]),
            index=j + 1,
        )
    if denom[-1] <= 0.0:
        raise ValueError(
            f"terms = {terms} truncates before the modal denominators turn positive; increase it"
        )
    # On the grid, x_i = i pi / n and sin(k x_i) sin(k x_j) is half of
    # cos(k (i - j) pi / n) - cos(k (i + j) pi / n), so G[i, j] =
    # (S[|i - j|] - S[i + j]) / L with S[d] = sum_k cos(k d pi / n) / denom_k.
    # cos(k d pi / n) has period 2n in k: fold the weights mod 2n, one FFT.
    # S[2n - d] = S[d] holds exactly, so rows and columns 0 and n are exactly 0.
    n = grid.n
    folded = np.bincount(np.arange(1, terms + 1) % (2 * n), weights=1.0 / denom, minlength=2 * n)
    S = np.fft.rfft(folded).real
    S = np.concatenate((S, S[-2::-1]))  # d = 0 .. 2n
    i = np.arange(n + 1)
    vals = (S[np.abs(i[:, None] - i)] - S[i[:, None] + i]) / L
    # tail: remaining modes are summed crudely and then bounded by the integral test
    k_ext = np.arange(terms + 1, terms + 2001, dtype=np.float64)
    w_ext = k_ext * np.pi / L
    tail = float(np.sum(1.0 / (w_ext**4 + p * w_ext**2 + m)))
    tail += float((L / np.pi) ** 4 / (3.0 * (terms + 2000) ** 3))
    return GreensMatrix(grid, vals, tail_bound=(2.0 / L) * tail)


def greens_discrete(p: float, c: ScalarField, grid: Grid | None = None) -> GreensMatrix:
    """Discrete kernel from unit loads: column j solves T g = e_j / spacing.

    The 1/spacing scaling makes sum_j spacing * G[i, j] h(t_j) the discrete
    superposition identity, and keeps the matrix symmetric because the
    interior block of the operator is.

    The returned kernel meets max interior |A G - I / spacing| <= 1e-8 *
    (1 / spacing + 1).  One float64 solve on the operator's factors gives all
    columns; when the a-posteriori bound on that kernel's float64 residual,
    rounding included (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., 2002, sections 3.1 and 12.1), proves the contract,
    ``values`` is that float64 kernel and nothing is computed in extended
    precision.  Otherwise, as for large n or c near resonance, the kernel is
    refined with extended-precision residuals and ``values`` is long double.
    Raises :class:`~beamsign.errors.ResonanceError` when the refined kernel
    still misses the bound or the solve breaks down.
    """
    grid = _resolve_grid(c.grid, grid)
    op = assemble(p, c, grid)
    n = grid.n
    load = 1.0 / grid.spacing
    rhs = np.zeros((n + 1, n + 1))  # columns 0 and n stay zero, and so do theirs in G
    rhs[np.arange(1, n), np.arange(1, n)] = load
    bound = 1e-8 * (load + 1.0)
    x = np.zeros_like(rhs)
    x[1:-1] = op._solve_interior(rhs[1:-1])
    if _float64_residual_certified(op, x, rhs, bound):
        return GreensMatrix(grid, x)
    vals, res = _solve_refined(op, rhs, bound, start=x)
    if not np.isfinite(res) or res > bound:
        raise _resonance_error(op)
    return GreensMatrix(grid, vals)


def y_boundary(p: float, c: ScalarField, grid: Grid | None, side: str) -> ScalarField:
    """Moment response: the solution of T y = 0 with u''(side) = 1, other data zero.

    The end moments enter the discrete right-hand side through the ghost rows,
    so a unit moment at a puts -1/spacing^2 at the first interior node.
    """
    if side not in ("a", "b"):
        raise ValueError(f"side must be 'a' or 'b', got {side!r}")
    grid = _resolve_grid(c.grid, grid)
    op = assemble(p, c, grid)
    rhs = np.zeros(grid.n + 1)
    rhs[1 if side == "a" else -2] = -grid.spacing**-2
    bound = 2e-8
    y, res = _solve_refined(op, rhs, bound)
    if not np.isfinite(res) or res > bound:
        raise _resonance_error(op)
    return ScalarField(grid, y)


def sign_scan(G: GreensMatrix, grid: Grid | None = None, tol: float | None = None) -> GreensSignReport:
    """Scan a kernel for strict interior sign and correct boundary slopes.

    The slopes are one-sided differences of each interior column at the two
    ends; strongly_inverse_positive needs every interior entry above ``tol``,
    every column entering with positive slope at a and leaving with negative
    slope at b.  The default tolerance is 1e-9 * max|G|.
    """
    grid = _resolve_grid(G.grid, grid)
    vals = np.asarray(G.values, dtype=np.float64)
    scale = float(np.max(np.abs(vals)))
    if tol is None:
        tol = 1e-9 * scale
    if tol < 0:
        raise ValueError(f"tol must be nonnegative, got {tol}")
    interior = vals[1:-1, 1:-1]
    dx = grid.spacing
    cols = slice(1, grid.n)
    slopes_a = (-3.0 * vals[0, cols] + 4.0 * vals[1, cols] - vals[2, cols]) / (2.0 * dx)
    slopes_b = (3.0 * vals[-1, cols] - 4.0 * vals[-2, cols] + vals[-3, cols]) / (2.0 * dx)
    if np.all(interior > tol):
        sign = "positive"
        slope_a = float(np.min(slopes_a))
        slope_b = float(np.max(slopes_b))
        ok = slope_a > 0.0 and slope_b < 0.0
        conclusion = "strongly_inverse_positive" if ok else "inconclusive"
    elif np.all(interior < -tol):
        sign = "negative"
        slope_a = float(np.max(slopes_a))
        slope_b = float(np.min(slopes_b))
        ok = slope_a < 0.0 and slope_b > 0.0
        conclusion = "strongly_inverse_negative" if ok else "inconclusive"
    else:
        sign = "mixed"
        slope_a = float(np.min(slopes_a))
        slope_b = float(np.max(slopes_b))
        conclusion = "inconclusive"
    return GreensSignReport(
        interior_sign=sign,
        min_abs_interior=float(np.min(np.abs(interior))),
        boundary_slope_a=slope_a,
        boundary_slope_b=slope_b,
        conclusion=conclusion,
    )
