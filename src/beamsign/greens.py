"""Green's kernels of the hinged operator and sign scans over them.

Two constructions are provided: a sine-series kernel for constant
coefficients, where the eigenfunctions are explicit, and the discrete kernel
of the operator, scaled so that u(t_i) = sum_j w_j G[i, j] h(t_j)
reproduces solutions with uniform nodal weights w_j equal to the grid
spacing.  The discrete kernel is a sine transform in closed form when c is
constant on the interior nodes, and otherwise comes from solves against
scaled unit loads; both are built by the operator's solve path (see
:mod:`beamsign.solver`), and this module checks their bound and wraps them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._sine import _cosine_kernel, _max_abs, _slack
from .errors import ResonanceError
from .fields import Grid, ScalarField, require_p
from .solver import _checked, _solve_vector, assemble

__all__ = [
    "GreensMatrix",
    "GreensSignReport",
    "greens_constant",
    "greens_discrete",
    "y_boundary",
    "sign_scan",
]


@dataclass(eq=False)
class GreensMatrix:
    """Kernel samples G[i, j] ~ g(t_i, s_j) on a shared grid.

    Rows and columns at the boundary nodes are identically zero.  For the
    series construction (:func:`greens_constant`, 2000 modes) ``tail_bound``
    bounds the modes left out at every entry; for the discrete one
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


def greens_constant(p: float, m: float, grid: Grid) -> GreensMatrix:
    """Series kernel (2/L) sum_k sin(k pi x/L) sin(k pi y/L) / (lambda_k + m) over 2000 modes.

    ``tail_bound`` bounds the modes left out.  A ValueError reports an m at
    or below -lambda_2000, where the series would stop before the modal
    denominators turn positive.  A denominator lambda_k + m within
    gamma_36 (lambda_k + |m|) of zero, the slack of the discrete kernel's
    beta_k + c, is reported as resonance.
    """
    require_p(p)
    terms = 2000  # the modes summed; tail_bound covers the rest
    L = grid.interval.length
    k = np.arange(1, terms + 1, dtype=np.float64)
    w = k * np.pi / L
    lam = w**4 + p * w**2
    denom = lam + m
    resonant = np.abs(denom) <= _slack(lam, m)  # the slack of beta_k + c
    if np.any(resonant):
        j = int(np.argmax(resonant))
        raise ResonanceError(
            f"m = {m} is resonant: lambda_{j + 1} + m = {denom[j]:.3e}",
            nearest_eigenvalue=-float(lam[j]),
            index=j + 1,
        )
    if denom[-1] <= 0.0:
        raise ValueError(
            f"m = {m} leaves lambda_{terms} + m = {denom[-1]:.3e} <= 0: the {terms}-term series "
            "stops before the modal denominators turn positive"
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

    G comes from the path the operator takes (``OperatorMatrix._path``).
    When c is constant on the interior nodes (its end values never enter
    A), the DST-I diagonalises A and G is its sine transform in closed form
    (``_sine._Modes.kernel``): one FFT, no factorization.  Otherwise, and
    on intervals too long for the closed form's bound (see
    ``_sine._modal_path``), the columns are solved on the split system
    (``solver._Split.kernel``).

    The returned ``forward_error_bound`` bounds max|G - G_exact| / max|G|
    against the exact kernel of A with h = ``grid.spacing``.  When it
    exceeds ``_KERNEL_RTOL`` = 1e-3 the kernel raises
    :class:`~beamsign.errors.ResonanceError`, with the bound in its message.
    A ValueError reports an interval so short that A leaves float64.
    """
    op = assemble(p, c, grid)
    vals, bound = op._path.kernel()
    return GreensMatrix(op.grid, vals, forward_error_bound=_checked(op, bound, "kernel"))


def y_boundary(p: float, c: ScalarField, grid: Grid | None, side: str) -> ScalarField:
    """Moment response: the solution of T y = 0 with u''(side) = 1, other data zero.

    The end moments enter the discrete right-hand side through the ghost rows,
    so a unit moment at a puts -1/spacing^2 at the first interior node.  It
    is one vector solve on the path of :func:`~beamsign.solver.direct_solve`
    and raises :class:`~beamsign.errors.ResonanceError` where that does.
    """
    if side not in ("a", "b"):
        raise ValueError(f"side must be 'a' or 'b', got {side!r}")
    op = assemble(p, c, grid)
    rhs = np.zeros(op.grid.n + 1)
    rhs[1 if side == "a" else -2] = -op.grid.spacing**-2
    return ScalarField(op.grid, _solve_vector(op, rhs)[0])


def sign_scan(G: GreensMatrix) -> GreensSignReport:
    """Scan a kernel for strict interior sign and correct boundary slopes.

    The slopes are one-sided differences of each interior column at the two
    ends; strongly_inverse_positive needs every interior entry above
    1e-9 * max|G|, every column entering with positive slope at a and
    leaving with negative slope at b.
    """
    grid = G.grid
    vals = np.asarray(G.values, dtype=np.float64)
    tol = 1e-9 * _max_abs(vals)
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
