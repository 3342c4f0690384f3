"""Green's kernels of the hinged operator and sign scans over them.

Two constructions are provided: a sine-series kernel for constant
coefficients, where the eigenfunctions are explicit, and the discrete kernel
of the operator, scaled so that u(t_i) = sum_j w_j G[i, j] h(t_j)
reproduces solutions with uniform nodal weights w_j equal to the grid
spacing.  The discrete kernel is a sine transform in closed form when c is
constant on the interior nodes, and otherwise comes from solves against
scaled unit loads.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ResonanceError
from .fields import Grid, ScalarField, require_p
from .solver import (
    _GAMMA3,
    _GAMMA36,
    _KERNEL_RTOL,
    _TINY,
    _U,
    OperatorMatrix,
    _max_abs,
    _modal_error,
    _mode_error,
    _resolve_grid,
    _solve_vector,
    _split_scale,
    _split_solve_error,
    assemble,
)
from .spectrum import _finite

__all__ = [
    "GreensMatrix",
    "GreensSignReport",
    "char_roots",
    "greens_constant",
    "greens_discrete",
    "y_boundary",
    "sign_scan",
]

# kernel columns per trailing split solve in _split_kernel: 48 and 64 tie as
# the fastest at n = 250 and n = 1000, while 32 and 96 are up to 5 % slower
_KERNEL_BLOCK = 48


@dataclass(eq=False)
class GreensMatrix:
    """Kernel samples G[i, j] ~ g(t_i, s_j) on a shared grid.

    Rows and columns at the boundary nodes are identically zero.  For the
    series construction ``tail_bound`` carries a bound on the truncated
    remainder at the returned entries; for the discrete one
    ``forward_error_bound`` bounds max|G - G_exact| / max|G| against the
    exact kernel of the discrete operator (see :func:`greens_discrete`).
    For c constant on the interior nodes that bound is an a-priori rounding
    bound of the closed form, the same on every call.  For variable c it
    comes from LAPACK's condition estimate ``gbcon`` and can differ in its
    last digit between calls on identical factors, because ``gbcon`` is not
    bit-reproducible (at n = 200, p = 5, c = 0 it returned rcond
    6.103515624999969e-05 on some calls and 6.1035156249999675e-05 on
    others).
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


def char_roots(p: float, m: float) -> tuple[complex, complex, complex, complex]:
    """The four roots of r^4 - p r^2 + m = 0, via the quadratic in r^2."""
    half = p / 2.0
    disc = cmath.sqrt(complex(half * half - m))
    roots = []
    for z in (half + disc, half - disc):
        r = cmath.sqrt(z)
        roots.extend((r, -r))
    return tuple(roots)


def _cosine_kernel(folded: np.ndarray, L: float) -> np.ndarray:
    """The (n + 1) x (n + 1) matrix (S[|i - j|] - S[i + j]) / L, S = Re rfft(``folded``).

    ``folded`` holds 2n weights w_k, so S[d] = sum_k w_k cos(k d pi / n).
    With sin(k i pi / n) sin(k j pi / n) half of cos(k (i - j) pi / n) -
    cos(k (i + j) pi / n), this is the sine series (2 / L) sum_k w_k
    sin(k i pi / n) sin(k j pi / n) at the grid nodes, in one FFT.
    S[2n - d] = S[d] holds exactly, so the result is exactly symmetric and
    its rows and columns 0 and n are exactly 0.
    """
    n = len(folded) // 2
    S = np.fft.rfft(folded).real  # d = 0 .. n
    # S[|i - j|] and S[i + j] as strided views: windows of S[n], .., S[1], S[0], .., S[n]
    # read bottom-up, and windows of S[0], .., S[n], .., S[0]
    toeplitz = sliding_window_view(np.concatenate((S[:0:-1], S)), n + 1)[::-1]
    hankel = sliding_window_view(np.concatenate((S, S[-2::-1])), n + 1)
    vals = toeplitz - hankel
    vals /= L
    return vals


def greens_constant(p: float, m: float, grid: Grid, terms: int = 2000) -> GreensMatrix:
    """Series kernel (2/L) sum_k sin(k pi x/L) sin(k pi y/L) / (lambda_k + m).

    Requires at least 50 terms and a truncation order past the last sign
    change of the modal denominators.  A denominator lambda_k + m within
    gamma_36 (lambda_k + |m|) of zero, the slack of the discrete kernel's
    beta_k + c, is reported as resonance.
    """
    require_p(p)
    if terms < 50:
        raise ValueError(f"the series needs at least 50 terms, got {terms}")
    L = grid.interval.length
    k = np.arange(1, terms + 1, dtype=np.float64)
    w = k * np.pi / L
    lam = w**4 + p * w**2
    denom = lam + m
    resonant = np.abs(denom) <= _GAMMA36 * (lam + abs(m))  # the slack of beta_k + c
    if np.any(resonant):
        j = int(np.argmax(resonant))
        raise ResonanceError(
            f"m = {m} is resonant: lambda_{j + 1} + m = {denom[j]:.3e}",
            nearest_eigenvalue=-float(lam[j]),
            index=j + 1,
        )
    if denom[-1] <= 0.0:
        raise ValueError(
            f"terms = {terms} truncates before the modal denominators turn positive; increase it"
        )
    # cos(k d pi / n) has period 2n in k: fold the weights mod 2n
    n = grid.n
    folded = np.bincount(np.arange(1, terms + 1) % (2 * n), weights=1.0 / denom, minlength=2 * n)
    vals = _cosine_kernel(folded, L)
    # tail: remaining modes are summed crudely and then bounded by the integral test
    k_ext = np.arange(terms + 1, terms + 2001, dtype=np.float64)
    w_ext = k_ext * np.pi / L
    tail = float(np.sum(1.0 / (w_ext**4 + p * w_ext**2 + m)))
    tail += float((L / np.pi) ** 4 / (3.0 * (terms + 2000) ** 3))
    return GreensMatrix(grid, vals, tail_bound=(2.0 / L) * tail)


def greens_discrete(p: float, c: ScalarField, grid: Grid | None = None) -> GreensMatrix:
    """The kernel of the discrete operator A = L**2 + p L + C, scaled by 1/spacing.

    L is the Dirichlet second-difference matrix and C = diag(c) on the
    interior nodes, so column j of G solves A g = e_j / spacing.  The
    1/spacing scaling makes sum_j spacing * G[i, j] h(t_j) the discrete
    superposition identity, and G is symmetric because A is.  Rows and
    columns 0 and n are exactly zero, and G equals G.T exactly.

    When c is constant on the interior nodes (its end values never enter
    A), the DST-I diagonalises A and G is its sine transform in closed form
    (:func:`_closed_form_kernel`): one FFT, no factorization.  Otherwise,
    and on intervals too long for the closed form's bound (see
    ``OperatorMatrix._modes``), the columns are solved on the split system
    (:func:`_split_kernel`).

    The returned ``forward_error_bound`` bounds max|G - G_exact| / max|G|
    against the exact kernel of A with h = ``grid.spacing``.  When it
    exceeds ``_KERNEL_RTOL`` = 1e-3 the kernel raises
    :class:`~beamsign.errors.ResonanceError`, with the bound in its message.
    A ValueError reports an interval so short that A leaves float64.
    """
    op = assemble(p, c, grid)
    modes = op._modes("kernel")
    if modes is not None:
        return _closed_form_kernel(op, *modes)
    return _split_kernel(op)


def _closed_form_kernel(op: OperatorMatrix, denom: np.ndarray, slack: np.ndarray) -> GreensMatrix:
    """G[i, j] = (S[|i - j|] - S[i + j]) / L with S[d] = sum_k cos(k d pi / n) / (beta_k + c).

    Here L is the interval length.  A = Q diag(beta_k + c) Q with Q[i, k] =
    sqrt(2 / n) sin(i k pi / n), so G = A^-1 / h is the sine series
    (2 / L) sum_k sin(k i pi / n) sin(k j pi / n) / (beta_k + c) that
    :func:`_cosine_kernel` sums, with c the interior value and ``denom``
    the computed d_k = beta_k + c and ``slack`` its bound e_k from
    ``OperatorMatrix._modes``, which has already raised where e_k >= |d_k|.

    The forward-error bound is a-priori, evaluated in float64: the weights
    w_k = fl(1 / d_k) and the FFT that sums them move every S[d] by at most
    sigma = ``solver._modal_error``, and the difference, the division by L
    and L = n h (1 + delta), |delta| <= u = 2**-53, for h = fl(L / n) are
    three relative roundings, so G computed is within gamma_3 / (1 - gamma_3)
    max|G| plus 2 sigma / (L (1 - u)) of G exact.
    """
    grid = op.grid
    n = grid.n
    L = grid.interval.length
    # every weight, and so every sum of them, stays finite
    _finite("the discrete kernel", op.p, grid.interval, lambda: 4.0 * n / float(np.min(np.abs(denom))))
    folded = np.zeros(2 * n)
    w = folded[1:n]
    np.divide(1.0, denom, out=w)
    vals = _cosine_kernel(folded, L)
    sigma = _modal_error(w, denom, slack)
    top = _max_abs(vals)
    error = 2.0 * sigma / (L * (1.0 - _U)) + _TINY
    bound = _GAMMA3 / (1.0 - _GAMMA3) + error / top if top > 0.0 else np.inf
    if not bound <= _KERNEL_RTOL:
        raise _mode_error(op, denom, slack, bound, "kernel")
    return GreensMatrix(grid, vals, forward_error_bound=bound)


def _split_kernel(op: OperatorMatrix) -> GreensMatrix:
    """The kernel of ``op`` from unit loads: column j solves A g = e_j / spacing.

    The columns are solved in float64 with the split matrix M of
    L u - v = 0, L v + p v + c u = f (see :mod:`beamsign.solver`): its
    transpose, with the loads in the u-rows, returns G in the v-rows, and M
    is that of the unit interval, so loads and G are each scaled by L**2
    (``solver._split_scale``).  The factors are those of M with its columns
    scaled by powers of two D, so each load is also multiplied by its
    u-column's entry of D, which moves no bit of G unless a rounding
    underflows (see the module docstring of :mod:`beamsign.solver`).  So G is
    the kernel of L**2 + p L + C itself, not of its rounded band.  Only the
    lower triangle is solved, in blocks of ``_KERNEL_BLOCK`` columns: the
    block from column j0 on takes one transposed solve on the trailing
    factors from row 2 j0 - 2, whose rows from 2 j0 on equal those of a
    full solve bit for bit.  Each block goes straight into the kernel, with
    its transpose in the rows above it and its diagonal block mirrored, so
    G equals G.T exactly.

    The returned ``forward_error_bound`` bounds max|G - G_exact| / max|G|; it
    is read from the scaled LU factors and one condition estimate, and no
    residual of G is formed.  Every block solve is a transposed solve with a
    Schur complement of M D, so the bound of the full solve covers it, with
    max|y| taken over the rows the block returns (the argument is in
    ``OperatorMatrix._solve_split_transposed``).  Raises
    :class:`~beamsign.errors.ResonanceError`, with the bound in its message,
    when it exceeds ``_KERNEL_RTOL`` = 1e-3.  The vector solves share this
    bound (``solver._split_solve_error``).
    """
    grid = op.grid
    m = grid.n - 1
    vals = np.zeros((m + 2, m + 2))  # rows and columns 0 and n stay zero
    inner = vals[1:-1, 1:-1]  # interior nodes numbered from 0
    top = 0.0  # max|y| over every row the solves return
    scale = 0.0  # max|G| over the solved lower triangle
    keep = np.tri(_KERNEL_BLOCK, dtype=bool)  # on and below the diagonal
    load = _split_scale(op, 1.0 / grid.spacing)
    load_scale = op._split_factors()[2][0::2]  # D on the u-columns, node by node
    for j0 in range(0, m, _KERNEL_BLOCK):
        j1 = min(j0 + _KERNEL_BLOCK, m)
        width = j1 - j0
        # column j loads u-row 2 j; rows from 2 j0 on are exact from this start
        start = max(2 * j0 - 2, 0)
        loads = np.zeros((2 * m - start, width), order="F")
        loads[2 * j0 - start + 2 * np.arange(width), np.arange(width)] = load * load_scale[j0:j1]
        y = op._solve_split_transposed(loads, start)
        top = max(top, _max_abs(y))
        kernel = y[2 * j0 - start + 1 :: 2]  # the v-rows hold A^-1 e_j / spacing, rows j0 on
        block = kernel[:width]
        # the diagonal block keeps its lower triangle, mirrored above the diagonal
        inner[j0:j1, j0:j1] = np.where(keep[:width, :width], block, block.T)
        inner[j1:, j0:j1] = kernel[width:]
        inner[j0:j1, j1:] = kernel[width:].T
        scale = max(scale, _max_abs(inner[j0:, j0:j1]))
    # the bound per max|y| becomes one per max|G|; the u-rows hold (L + p) G
    bound = _split_solve_error(op, top, scale, "kernel")
    return GreensMatrix(grid, _split_scale(op, vals), forward_error_bound=bound)


def y_boundary(p: float, c: ScalarField, grid: Grid | None, side: str) -> ScalarField:
    """Moment response: the solution of T y = 0 with u''(side) = 1, other data zero.

    The end moments enter the discrete right-hand side through the ghost rows,
    so a unit moment at a puts -1/spacing^2 at the first interior node.  It
    is one vector solve on the path of :func:`~beamsign.solver.direct_solve`
    and raises :class:`~beamsign.errors.ResonanceError` where that does.
    """
    if side not in ("a", "b"):
        raise ValueError(f"side must be 'a' or 'b', got {side!r}")
    grid = _resolve_grid(c.grid, grid)
    rhs = np.zeros(grid.n + 1)
    rhs[1 if side == "a" else -2] = -grid.spacing**-2
    return ScalarField(grid, _solve_vector(assemble(p, c, grid), rhs)[0])


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
