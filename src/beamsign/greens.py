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
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ResonanceError
from .fields import Grid, ScalarField, require_p
from .solver import _resolve_grid, _resonance_error, _solve_refined, assemble

__all__ = [
    "GreensMatrix",
    "GreensSignReport",
    "char_roots",
    "greens_constant",
    "greens_discrete",
    "y_boundary",
    "sign_scan",
]

# largest forward-error bound, relative to max|G|, that greens_discrete accepts:
# on [0, 1] and p in {0, 5, 50} the bound stays below 2e-4 up to n = 2000 for
# c >= -97, 0.4 from -lambda_1, while c on the split operator's own first
# eigenvalue -(mu_1^2 + p mu_1) gives 1e5 or more
_KERNEL_RTOL = 1e-3
# kernel columns per trailing solve in greens_discrete: 48 and 64 tie as the
# fastest at n = 250 and n = 1000, while 32 and 96 are up to 5 % slower
_KERNEL_BLOCK = 48


@dataclass(eq=False)
class GreensMatrix:
    """Kernel samples G[i, j] ~ g(t_i, s_j) on a shared grid.

    Rows and columns at the boundary nodes are identically zero.  For the
    series construction ``tail_bound`` carries a bound on the truncated
    remainder at the returned entries; for the discrete one
    ``forward_error_bound`` bounds max|G - G_exact| / max|G| against the
    exact kernel of the discrete operator (see :func:`greens_discrete`).
    That bound can differ in its last digit between calls on identical
    factors, because LAPACK ``gbcon`` is not bit-reproducible (at n = 200,
    p = 5, c = 0 it returned rcond 4.999812507030961e-05 on some calls and
    4.9998125070309596e-05 on others).
    """

    grid: Grid
    values: np.ndarray
    tail_bound: float | None = None
    forward_error_bound: float | None = None

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


def _max_abs(a: np.ndarray) -> float:
    # max|a| without an |a| temporary
    return max(float(np.max(a)), -float(np.min(a)))


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
    S = np.fft.rfft(folded).real  # d = 0 .. n
    # S[|i - j|] and S[i + j] as strided views: windows of S[n], .., S[1], S[0], .., S[n]
    # read bottom-up, and windows of S[0], .., S[n], .., S[0]
    toeplitz = sliding_window_view(np.concatenate((S[:0:-1], S)), n + 1)[::-1]
    hankel = sliding_window_view(np.concatenate((S, S[-2::-1])), n + 1)
    vals = toeplitz - hankel
    vals /= L
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

    The columns are solved in float64 with the split matrix M of
    L u - v = 0, L v + p v + c u = f (see :mod:`beamsign.solver`): its
    transpose, with the loads in the u-rows, returns G in the v-rows.  So G
    is the kernel of L**2 + p L + C itself, not of its rounded band.  Only
    the lower triangle is solved, in blocks of ``_KERNEL_BLOCK`` columns:
    the block from column j0 on takes one transposed solve on the trailing
    factors of M from row 2 j0 - 2, whose rows from 2 j0 on equal those of a
    full solve bit for bit.  The kernel is that triangle plus its transpose,
    with the diagonal halved, so G equals G.T exactly.

    The returned ``forward_error_bound`` bounds max|G - G_exact| / max|G|; it
    is read from the LU factors and a condition estimate, and no residual of
    G is formed.  Every block solve is a transposed solve with a Schur
    complement of M, so the bound of the full solve covers it, with max|y|
    taken over the rows the block returns (the argument is in
    ``OperatorMatrix._solve_split_transposed``).  Raises
    :class:`~beamsign.errors.ResonanceError`, with the bound in its message,
    when the bound exceeds ``_KERNEL_RTOL`` = 1e-3.
    """
    grid = _resolve_grid(c.grid, grid)
    op = assemble(p, c, grid)
    m = grid.n - 1
    lower = np.zeros((m, m))  # G[i, j] for i >= j, interior nodes numbered from 0
    top = 0.0  # max|y| over every row the solves return
    keep = np.tri(_KERNEL_BLOCK)  # ones on and below the diagonal
    for j0 in range(0, m, _KERNEL_BLOCK):
        j1 = min(j0 + _KERNEL_BLOCK, m)
        width = j1 - j0
        # column j loads u-row 2 j; rows from 2 j0 on are exact from this start
        start = max(2 * j0 - 2, 0)
        loads = np.zeros((2 * m - start, width), order="F")
        loads[2 * j0 - start + 2 * np.arange(width), np.arange(width)] = 1.0 / grid.spacing
        y, error = op._solve_split_transposed(loads, start)
        top = max(top, _max_abs(y))
        kernel = y[2 * j0 - start + 1 :: 2]  # the v-rows hold A^-1 e_j / spacing
        # the upper triangle comes from the mirror
        np.multiply(kernel[:width], keep[:width, :width], out=lower[j0:j1, j0:j1])
        lower[j1:, j0:j1] = kernel[width:]
    scale = _max_abs(lower)
    lower.flat[:: m + 1] *= 0.5
    vals = np.zeros((m + 2, m + 2))  # rows and columns 0 and n stay zero
    np.add(lower, lower.T, out=vals[1:-1, 1:-1])
    # the bound per max|y| becomes one per max|G|; the u-rows hold (L + p) G
    bound = error * top / scale if np.isfinite(error) else np.inf
    if not bound <= _KERNEL_RTOL:
        raise _resonance_error(
            op, f"the kernel's forward-error bound {bound:.3e} exceeds {_KERNEL_RTOL:g}; "
        )
    return GreensMatrix(grid, vals, forward_error_bound=bound)


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
    if tol is None:
        tol = 1e-9 * _max_abs(vals)
    if tol < 0:
        raise ValueError(f"tol must be nonnegative, got {tol}")
    interior = vals[1:-1, 1:-1]
    lowest, highest = float(np.min(interior)), float(np.max(interior))
    dx = grid.spacing
    cols = slice(1, grid.n)
    slopes_a = (-3.0 * vals[0, cols] + 4.0 * vals[1, cols] - vals[2, cols]) / (2.0 * dx)
    slopes_b = (3.0 * vals[-1, cols] - 4.0 * vals[-2, cols] + vals[-3, cols]) / (2.0 * dx)
    if lowest > tol:
        sign = "positive"
        min_abs = lowest
        slope_a = float(np.min(slopes_a))
        slope_b = float(np.max(slopes_b))
        ok = slope_a > 0.0 and slope_b < 0.0
        conclusion = "strongly_inverse_positive" if ok else "inconclusive"
    elif highest < -tol:
        sign = "negative"
        min_abs = -highest
        slope_a = float(np.max(slopes_a))
        slope_b = float(np.min(slopes_b))
        ok = slope_a < 0.0 and slope_b > 0.0
        conclusion = "strongly_inverse_negative" if ok else "inconclusive"
    else:
        sign = "mixed"
        min_abs = float(np.min(np.abs(interior)))
        slope_a = float(np.min(slopes_a))
        slope_b = float(np.max(slopes_b))
        conclusion = "inconclusive"
    return GreensSignReport(
        interior_sign=sign,
        min_abs_interior=min_abs,
        boundary_slope_a=slope_a,
        boundary_slope_b=slope_b,
        conclusion=conclusion,
    )
