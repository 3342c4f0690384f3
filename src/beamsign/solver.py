"""Finite-difference solves of u'''' - p u'' + c(t) u = h with hinged ends.

The operator is discretized on a uniform grid with the classical pentadiagonal
stencil for u'''' and the three-point stencil for u''.  The end conditions
u(a) = u(b) = 0 occupy the first and last matrix rows; the moment conditions
u''(a) = d1 and u''(b) = d2 are folded into the rows next to them by ghost-node
elimination, which keeps the matrix pentadiagonal and, for d1 = d2 = 0, keeps
the interior block symmetric.

Every right-hand side built here vanishes in rows 0 and n, so the end values
are exactly zero and only the interior block (rows and columns 1 .. n-1) is
factored: once per operator, by LAPACK's banded LU (``gbtrf``), and reused by
every solve against that operator (``gbtrs``).  Because the stencil entries
scale like spacing**-4, a plain float64 solve leaves interior residuals around
1e-6 at n = 400.  Each solve is therefore followed by one iterative-refinement
correction with the residual accumulated in extended precision, and by more
(up to three in all) only while the residual still misses the caller's bound.
That brings the residual into the 1e-10 range and keeps the strict residual
contract checkable.  The superposition solve forms its kernel and moment
responses in float64, sums them, refines only that sum, and checks that the
sum agrees with the refined solution, so its extended-precision work is on
one vector, never on the n x n kernel.

The discrete kernel (``greens.greens_discrete``) is not solved on that band.
Its entries 6/spacing**4 + 2 p/spacing**2 + c round c away at large n, so a
kernel refined against them converges to the rounded band, not to the
operator A = L**2 + p L + C (L the Dirichlet second-difference matrix).  The
kernel comes from the split system M instead: with v = L u, each interior
equation is L u - v = 0 and L v + p v + c u = f, the unknowns are interleaved
as (u_1, v_1, u_2, v_2, ...), and M is again a (2, 2) band, on 2 (n - 1)
rows, in which c never meets a spacing**-4 term.  Its LU factors come with a
forward-error bound computed once per factorization, in O(n), without a
residual: the backward error of a solve is bounded by |P L| |U| (Higham,
Accuracy and Stability of Numerical Algorithms, 2nd ed., 2002, sections
3.1, 8.1 and 9.3) and multiplied by LAPACK's condition estimate (``gbcon``).
Solves run with M^T, whose backward error takes the column sums of
|P L| |U|, since partial pivoting leaves every column of L with three
entries but lets a row collect hundreds (see ``_lu_column_sums``).  As A is
symmetric, M^T y = (e_j, 0) gives A^-1 e_j in the v-rows of y.  The kernel
is symmetric too, so only its lower triangle is solved: a block of columns
starting at j needs only the rows from 2 j on, and those come from the
trailing part of the same factors (see ``_solve_split_transposed``), bit for
bit as a full solve would give them.  Nothing is computed in extended
precision there.

LAPACK comes from scipy's compiled ``scipy.linalg._flapack`` extension, which
is loaded directly at the first factorization (see ``_lapack``).  Importing
``scipy.linalg`` would load the same extension and, with it, a few hundred
milliseconds of unrelated modules (scipy's array-API layer pulls in
``numpy.f2py``, ``numpy.testing``, ``numpy.ma`` and ``numpy.random``), most of
a command-line call; code that never solves loads neither.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, ResonanceError
from .fields import Grid, ProblemSpec, ScalarField, diff, extrema, integrate, require_p, sup_norm
from .spectrum import SpectralData, delta1, lambda_k, nearest_mode

__all__ = [
    "OperatorMatrix",
    "SolutionField",
    "FixedPointRun",
    "SignCertificate",
    "assemble",
    "direct_solve",
    "superposition_solve",
    "fixed_point_solve",
    "sign_certificate",
    "operator_norm_bound",
    "rhs_norm_bound",
    "smallest_eigenvalue",
]

_REFINE_STEPS = 3
# gamma_13 = 13 u / (1 - 13 u) with the unit roundoff u = 2**-53 (Higham 2002, Lemma 3.1)
_GAMMA13 = 13 * 2.0**-53 / (1.0 - 13 * 2.0**-53)
# largest gap, relative to sup|u|, allowed between the float64 kernel sum and
# the refined solution: rounding gives up to 7e-9 at n = 250 and 2.3e-7 at
# n = 1000, while at n = 200 a zeroed or shifted load column, all load columns
# scaled by 1.001, or the two moment columns swapped move the sum by 6e-5 or more
_SUPERPOSITION_RTOL = 1e-5


def _resolve_grid(own: Grid, given: Grid | None) -> Grid:
    if given is None:
        return own
    if given != own:
        raise ValueError("explicit grid does not match the grid the fields are sampled on")
    return own


def _lapack():
    """scipy's compiled LAPACK wrappers, the module behind ``scipy.linalg.lapack``.

    Returns the module from ``sys.modules`` once it is loaded, by this
    function or by ``scipy.linalg``; otherwise finds the extension in scipy's
    ``linalg`` directory and executes it on its own, registered under its
    own name, so a later ``import scipy.linalg`` shares the same module.
    ``import scipy`` comes first: it is cheap and sets up the shared-library
    path that scipy's extensions need on some platforms.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    import scipy

    directory = os.path.join(os.path.dirname(scipy.__file__), "linalg")
    finder = importlib.machinery.FileFinder(
        directory,
        (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES),
    )
    spec = finder.find_spec(name)
    if spec is None:
        raise ImportError(f"cannot find {name} in {directory}", name=name)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


# ---------------------------------------------------------------------------
# assembly


@dataclass(eq=False)
class OperatorMatrix:
    """Pentadiagonal matrix of the discrete operator in banded (2, 2) storage.

    ``band[2 + i - j, j]`` holds the matrix entry A[i, j].  Rows 0 and n are
    the boundary value conditions; rows 1 and n - 1 carry the ghost-eliminated
    stencils encoding the end moment conditions (their d1/d2 data lands on the
    right-hand side, not in the matrix).  The LU factors of the interior block
    are computed at the first solve and kept for every later one, and so are
    those of the split system (see the module docstring) at the first split
    solve.
    """

    grid: Grid
    p: float
    c: ScalarField
    band: np.ndarray
    _band_ld: np.ndarray | None = field(default=None, repr=False)
    _lu: tuple | None = field(default=None, repr=False)
    _split: tuple | None = field(default=None, repr=False)

    def band_extended(self) -> np.ndarray:
        if self._band_ld is None:
            self._band_ld = self.band.astype(np.longdouble)
        return self._band_ld

    def _solve_interior(self, rhs: np.ndarray) -> np.ndarray:
        """Interior-block solve in float64; ``rhs`` has n - 1 rows.

        A matrix of right-hand sides is solved with the transposed factors,
        which sweep Fortran-ordered columns faster, and is overwritten when
        it is Fortran-ordered.  That solves the same system, since the
        interior block equals its transpose exactly (``assemble`` writes the
        same expression on both off-diagonals), with different rounding.  A
        vector takes the plain solve.
        """
        lapack = _lapack()  # loaded at the first solve, without scipy.linalg
        if self._lu is None:
            ab = np.zeros((7, self.grid.n - 1), order="F")
            ab[2:] = self.band[:, 1:-1]  # gbtrf keeps two extra rows for fill-in
            lu, piv, info = lapack.dgbtrf(ab, 2, 2, overwrite_ab=1)
            if info != 0:
                raise _resonance_error(self)
            self._lu = (lu, piv)
        lu, piv = self._lu
        if rhs.ndim == 2:
            return lapack.dgbtrs(lu, 2, 2, rhs, piv, trans=1, overwrite_b=1)[0]
        return lapack.dgbtrs(lu, 2, 2, rhs, piv)[0]

    def _solve_split_transposed(self, rhs: np.ndarray, start: int = 0) -> tuple[np.ndarray, float]:
        """Solve M^T y = rhs for the split matrix M, in float64, with a forward-error bound.

        ``rhs`` holds rows ``start`` .. 2 (n - 1) - 1 of the right-hand side,
        interleaved as the columns of :func:`_split_band`, and is overwritten
        when it is Fortran-ordered.  Each column y of the result meets
        max|y - y_exact| <= bound * max|y|; the bound is inf when M is
        singular.  M is factored at the first call.

        With ``start`` = r > 0 only the trailing factors are used,
        ``lu[:, r:]`` with the pivots ``piv[r:] - r``.  When the full
        right-hand side vanishes in rows 0 .. r - 1, rows r + 2 and below of
        the result equal those of the full solve bit for bit: the transposed
        solve runs U^T forward, which keeps rows 0 .. r - 1 exactly zero, then
        L^T backward, and of the steps 0 .. r - 1 it leaves out only r - 2
        and r - 1 reach past row r - 1, swapping into rows r and r + 1 at
        most.  The bound holds as well.  After r elimination
        steps the factors left are those of the Schur complement S of the
        row-permuted M, so this solve is a transposed solve with S: its
        backward error is bounded by trailing column sums of |P L| |U|, none
        above the full ones, and S^-1 is a block of (P M)^-1, so
        ||S^-1||_1 <= ||M^-1||_1.  Rows r and r + 1 hold values that the
        full solve swaps to earlier rows unchanged, so max|y| over the
        returned rows is at most that of the full solve.
        """
        lapack = _lapack()
        if self._split is None:
            ab = _split_band(self)
            norm = float(np.max(np.sum(np.abs(ab[2:]), axis=0)))  # max column sum of |M|
            lu, piv, info = lapack.dgbtrf(ab, 2, 2, overwrite_ab=1)
            bound = np.inf if info != 0 else _split_error(lapack, lu, piv, norm)
            self._split = (lu, piv, bound)
        lu, piv, bound = self._split
        if start:
            lu, piv = lu[:, start:], piv[start:] - start
        return lapack.dgbtrs(lu, 2, 2, rhs, piv, trans=1, overwrite_b=1)[0], bound

    def apply(self, values) -> np.ndarray:
        """A @ values in the dtype of ``values`` (rows 0 and n return u(a), u(b))."""
        u = np.asarray(values)
        if u.dtype.kind != "f":
            u = u.astype(np.float64)
        if u.shape[0] != self.grid.n + 1:
            raise ValueError(f"expected {self.grid.n + 1} samples, got {u.shape[0]}")
        band = self.band_extended() if u.dtype == np.longdouble else self.band
        return _band_matvec(band, u)


def assemble(p: float, c: ScalarField, grid: Grid | None = None) -> OperatorMatrix:
    """Banded matrix of u'''' - p u'' + c(t) u with the hinged end rows."""
    grid = _resolve_grid(c.grid, grid)
    require_p(p)
    n = grid.n
    dx = grid.spacing
    inv4 = dx**-4
    inv2 = dx**-2
    cv = np.asarray(c.values, dtype=np.float64)

    band = np.zeros((5, n + 1))
    band[2, 1:n] = 6.0 * inv4 + 2.0 * p * inv2 + cv[1:n]
    band[2, 1] -= inv4
    band[2, n - 1] -= inv4
    band[1, 2 : n + 1] = -4.0 * inv4 - p * inv2   # A[i, i+1], i = 1 .. n-1
    band[1, n] = -2.0 * inv4 - p * inv2           # A[n-1, n] after ghost elimination
    band[3, 0 : n - 1] = -4.0 * inv4 - p * inv2   # A[i, i-1], i = 1 .. n-1
    band[3, 0] = -2.0 * inv4 - p * inv2           # A[1, 0] after ghost elimination
    band[0, 3 : n + 1] = inv4                     # A[i, i+2], i = 1 .. n-2
    band[4, 0 : n - 2] = inv4                     # A[i, i-2], i = 2 .. n-1
    band[2, 0] = 1.0
    band[2, n] = 1.0
    return OperatorMatrix(grid=grid, p=float(p), c=c, band=band)


def _split_band(op: OperatorMatrix) -> np.ndarray:
    """The split matrix M of ``op`` in ``gbtrf`` storage: M[r, s] at [4 + r - s, s].

    Row 2 (i - 1) is L u - v = 0 and row 2 (i - 1) + 1 is L v + p v + c u = f
    at interior node i, with u_i and v_i in the columns of the same numbers;
    rows 0 and 1 are left free for the fill-in of the factorization.
    """
    inv2 = op.grid.spacing**-2
    size = 2 * (op.grid.n - 1)
    ab = np.zeros((7, size), order="F")
    ab[2, 2:] = -inv2                   # u_{i+1} in u-rows, v_{i+1} in v-rows
    ab[3, 1::2] = -1.0                  # v_i in the u-row of node i
    ab[4, 0::2] = 2.0 * inv2
    ab[4, 1::2] = 2.0 * inv2 + op.p
    ab[5, 0::2] = np.asarray(op.c.values, dtype=np.float64)[1:-1]   # c_i u_i in v-rows
    ab[6, :-2] = -inv2                  # u_{i-1} in u-rows, v_{i-1} in v-rows
    return ab


def _lu_column_sums(lu: np.ndarray) -> np.ndarray:
    """Column sums of |P L| |U| for ``gbtrf`` factors with two sub- and two superdiagonals.

    U[i, j] sits at lu[4 + i - j, j], and column k of P L holds 1 and the
    multipliers lu[5, k], lu[6, k] of step k: the row interchanges of later
    steps move them to other rows, never to another column.  So with c_k =
    1 + |lu[5, k]| + |lu[6, k]| the sums are (|U|^T c)_j.  (The row sums are
    another matter: a row that loses the pivot step after step collects a
    multiplier at each, hundreds of them when c < 0.)
    """
    c = np.ones(lu.shape[1])
    c[:-1] += np.abs(lu[5, :-1])  # the last steps have fewer rows below them
    c[:-2] += np.abs(lu[6, :-2])
    u_abs = np.abs(lu[:5])
    sums = u_abs[4] * c
    for d in range(1, 5):  # U[j - d, j] at lu[4 - d, j]
        sums[d:] += u_abs[4 - d, d:] * c[:-d]
    return sums


def _split_error(lapack, lu: np.ndarray, piv: np.ndarray, norm: float) -> float:
    """The bound on max|y - y_exact| / max|y| for every transposed solve on these factors.

    ``gbtrs`` computes y with (M + F)^T y = b and |F| <= gamma_13 |P L| |U|:
    at most 5 terms in each entry of the factorization and in each row of
    U^T, and 3 in each row of L^T (Higham 2002, Theorems 8.5 and 9.3).  So
    max|y - y_exact| = max|M^-T F^T y| <= ||M^-1||_1 ||F||_1 max|y|, with
    ||F||_1 from :func:`_lu_column_sums` and ||M^-1||_1 from LAPACK's
    condition estimate (``gbcon``; ``norm`` is ||M||_1).
    """
    rcond, info = lapack.dgbcon(2, 2, lu, piv, norm, norm="1")
    if info != 0 or not rcond > 0.0:
        return np.inf
    return _GAMMA13 * float(np.max(_lu_column_sums(lu))) / (rcond * norm)


def _band_matvec(band: np.ndarray, u: np.ndarray) -> np.ndarray:
    # A @ u from the five stored diagonals; u may be a matrix of columns
    def w(d):
        return d if u.ndim == 1 else d[:, None]

    out = w(band[2]) * u
    out[:-1] += w(band[1, 1:]) * u[1:]
    out[1:] += w(band[3, :-1]) * u[:-1]
    out[:-2] += w(band[0, 2:]) * u[2:]
    out[2:] += w(band[4, :-2]) * u[:-2]
    return out


# ---------------------------------------------------------------------------
# resonance reporting


def _resonance_error(op: OperatorMatrix, cause: str = "") -> ResonanceError:
    c_m, c_sup = extrema(op.c)
    k, _ = nearest_mode(op.p, op.grid.interval, c_m, c_sup)
    val = -lambda_k(op.p, op.grid.interval, k)
    return ResonanceError(
        f"{cause}discrete operator is singular or near resonance: the coefficient range "
        f"[{c_m:.6g}, {c_sup:.6g}] sits nearest -lambda_{k} = {val:.10g}",
        nearest_eigenvalue=val,
        index=k,
    )


# ---------------------------------------------------------------------------
# solves


def _solve_refined(
    op: OperatorMatrix, rhs, bound: float, start=None
) -> tuple[np.ndarray, float]:
    """Solve A x = rhs on the cached factors, refining in extended precision.

    ``rhs`` (a vector or a matrix of columns) must vanish in rows 0 and n,
    so the end components of x are exactly zero.  ``start``, an approximate
    solution of the same shape, replaces the first float64 solve (its rows
    0 and n are ignored); the correction leaves no trace of it beyond
    rounding, so a caller that needs ``start`` to be right checks it against
    the result.  One correction always runs; more run, up to
    ``_REFINE_STEPS`` in all, while the largest interior residual exceeds
    ``bound``.  Returns x in extended precision and that residual (NaN or inf
    when the solve broke down).
    """
    b = np.asarray(rhs, dtype=np.float64)
    if np.any(b[0]) or np.any(b[-1]):
        raise ValueError("right-hand side must vanish in the boundary rows")
    band_ld = op.band_extended()[:, 1:-1]
    b_ld = b[1:-1].astype(np.longdouble)

    def residual(x_ld):
        r = _band_matvec(band_ld, x_ld)
        r -= b_ld
        return r.astype(np.float64)

    first = op._solve_interior(b[1:-1]) if start is None else np.asarray(start)[1:-1]
    if not np.all(np.isfinite(first)):
        raise _resonance_error(op)
    x = np.zeros(b.shape, dtype=np.longdouble)
    x_ld = x[1:-1]  # a view: the corrections below land in x
    x_ld[...] = first
    r = residual(x_ld)
    res = float(np.max(np.abs(r)))
    for _ in range(_REFINE_STEPS):
        if not np.isfinite(res):
            break
        x_ld -= op._solve_interior(r)
        r = residual(x_ld)
        res = float(np.max(np.abs(r)))
        if res <= bound:
            break
    return x, res


def _rhs_vector(op: OperatorMatrix, problem: ProblemSpec) -> np.ndarray:
    b = np.array(problem.h.values, dtype=np.float64)
    b[0] = 0.0
    b[-1] = 0.0
    inv2 = op.grid.spacing**-2
    b[1] -= problem.d1 * inv2
    b[-2] -= problem.d2 * inv2
    return b


def _interior_residual(op: OperatorMatrix, x_ld: np.ndarray, rhs) -> float:
    r = _band_matvec(op.band_extended(), np.asarray(x_ld, dtype=np.longdouble))
    r -= np.asarray(rhs, dtype=np.longdouble)
    return float(np.max(np.abs(r[1:-1])))


def _residual_bound(problem: ProblemSpec) -> float:
    return 1e-8 * (sup_norm(problem.h) + abs(problem.d1) + abs(problem.d2) + 1.0)


@dataclass(eq=False)
class SolutionField:
    """A solve result: samples, achieved interior residual, and provenance."""

    u: ScalarField
    residual_norm: float
    method: str  # direct | superposition | fixed_point
    iterations: int


def direct_solve(problem: ProblemSpec, grid: Grid | None = None) -> SolutionField:
    """Solve the boundary value problem by one banded LU factorization.

    Raises :class:`~beamsign.errors.ResonanceError`, naming the nearest
    -lambda_k, when the matrix is singular or the refined residual still
    exceeds 1e-8 * (sup|h| + |d1| + |d2| + 1).
    """
    grid = _resolve_grid(problem.grid, grid)
    op = assemble(problem.p, problem.c, grid)
    bound = _residual_bound(problem)
    x, res = _solve_refined(op, _rhs_vector(op, problem), bound)
    if not np.isfinite(res) or res > bound:
        raise _resonance_error(op)
    return SolutionField(ScalarField(grid, x), res, "direct", 0)


def superposition_solve(problem: ProblemSpec, grid: Grid | None = None) -> SolutionField:
    """Solve through the discrete kernel: u = G (h w) + d1 y_a + d2 y_b.

    One float64 solve on the operator's single factorization gives the
    interior block of the kernel G (columns for the scaled unit loads
    e_j / spacing) and the two moment responses y_a, y_b; their
    superposition, with the nodal weights w = spacing, is one matrix-vector
    product.  That sum is then refined as a solution of the operator, so
    extended precision touches only the returned vector.  Refinement would
    correct any start, so the sum must also agree with the refined u to
    ``_SUPERPOSITION_RTOL`` * sup|u|: that check is what makes G answer for
    the result.  Raises :class:`~beamsign.errors.ResonanceError` when the
    check fails or under the same residual bound as :func:`direct_solve`.
    """
    grid = _resolve_grid(problem.grid, grid)
    op = assemble(problem.p, problem.c, grid)
    n = grid.n
    dx = grid.spacing
    # columns 0 .. n-2: unit loads at nodes 1 .. n-1; columns n-1, n: unit moments at a, b
    loads = np.zeros((n - 1, n + 1), order="F")  # the layout LAPACK reads without a copy
    np.fill_diagonal(loads, 1.0 / dx)
    loads[0, n - 1] = -(dx**-2)
    loads[-1, n] = -(dx**-2)
    responses = op._solve_interior(loads)
    hv = np.asarray(problem.h.values, dtype=np.float64)
    weights = np.concatenate((hv[1:-1] * dx, (problem.d1, problem.d2)))
    u0 = np.zeros(n + 1)
    u0[1:-1] = responses @ weights
    bound = _residual_bound(problem)
    u, res = _solve_refined(op, _rhs_vector(op, problem), bound, start=u0)
    if not np.isfinite(res) or res > bound:
        raise _resonance_error(op)
    uf = np.asarray(u, dtype=np.float64)
    gap = float(np.max(np.abs(u0 - uf)))
    scale = float(np.max(np.abs(uf)))
    if not gap <= _SUPERPOSITION_RTOL * scale:
        raise _resonance_error(
            op,
            f"the kernel sum G (h w) + d1 y_a + d2 y_b misses the refined solution by "
            f"{gap:.3e} > {_SUPERPOSITION_RTOL:g} * sup|u| = {_SUPERPOSITION_RTOL * scale:.3e}; ",
        )
    return SolutionField(ScalarField(grid, u), res, "superposition", 0)


@dataclass(eq=False)
class FixedPointRun:
    """A fixed-point solve plus its full iterate history."""

    solution: SolutionField
    iterates: list
    diffs: list
    contraction_ratio: float


def fixed_point_solve(
    problem: ProblemSpec,
    grid: Grid | None = None,
    mode: str = "positive",
    tol: float = 1e-10,
    max_iter: int = 200,
    check_hypotheses: bool = True,
) -> FixedPointRun:
    """Iterate u_{k+1} = T[p, d]^{-1} (h - (c - d) u_k) from u_0 = 0.

    In ``positive`` mode the frozen coefficient is d = min{c, -lambda2}, in
    ``negative`` mode d = max{c, -lambda3}, which keeps every iterate on the
    sign-definite side while the correction term c - d contracts.  The
    iteration stops once the sup-norm step is below ``tol`` and the residual
    against the true operator meets the bound of :func:`direct_solve`, and
    reports the largest observed step ratio as the contraction ratio.  It
    raises :class:`~beamsign.errors.ConvergenceError`, with the residual and
    the bound in the message, when ``max_iter`` steps do not get there.

    Only homogeneous end moments are supported (d1 = d2 = 0).  By default the
    matching amplified-load hypotheses are verified first and a ValueError is
    raised when they fail; pass ``check_hypotheses=False`` to iterate anyway.
    """
    grid = _resolve_grid(problem.grid, grid)
    if problem.d1 != 0.0 or problem.d2 != 0.0:
        raise ValueError("fixed-point iteration supports homogeneous end moments only (d1 = d2 = 0)")
    if mode not in ("positive", "negative"):
        raise ValueError(f"mode must be 'positive' or 'negative', got {mode!r}")
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")

    sd = SpectralData.compute(problem.p, grid.interval)
    if check_hypotheses:
        from .principles import check_amp_negative_h, check_amp_positive_h

        check = check_amp_positive_h if mode == "positive" else check_amp_negative_h
        rule = "Thm6_1_pos_h" if mode == "positive" else "Thm6_2_neg_h"
        if check(problem.c, problem.h, problem.p, grid.interval, sd) is None:
            raise ValueError(
                f"hypotheses of the {rule} rule do not hold for this problem; "
                "pass check_hypotheses=False to iterate anyway"
            )

    cv = np.asarray(problem.c.values, dtype=np.float64)
    if mode == "positive":
        frozen = np.minimum(cv, -sd.lambda2)
    else:
        frozen = np.maximum(cv, -sd.lambda3)
    op = assemble(problem.p, ScalarField(grid, frozen), grid)
    op_true = assemble(problem.p, problem.c, grid)
    # c - d taken as the difference of the two assembled diagonals: these round
    # c to about 1e-5 at n = 400, and with c - d itself the iterates would
    # converge to the solution of a slightly different operator
    correction = op_true.band[2] - op.band[2]
    hv = np.asarray(problem.h.values, dtype=np.float64)
    rhs_true = _rhs_vector(op_true, problem)
    static_rhs = not np.any(correction)

    bound = _residual_bound(problem)
    u = np.zeros(grid.n + 1, dtype=np.longdouble)
    iterates: list[ScalarField] = []
    diffs: list[float] = []
    res = None  # true-operator residual, taken once the steps have settled
    for _ in range(max_iter):
        rhs = hv - correction * np.asarray(u, dtype=np.float64)
        rhs[0] = 0.0
        rhs[-1] = 0.0
        x, _ = _solve_refined(op, rhs, bound)
        step = float(np.max(np.abs(np.asarray(x - u, dtype=np.float64))))
        iterates.append(ScalarField(grid, x))
        diffs.append(step)
        u = x
        settled = static_rhs or step < tol
        res = _interior_residual(op_true, u, rhs_true) if settled else None
        # a static right-hand side would only repeat the same solve
        if settled and (res <= bound or static_rhs):
            break
    ratios = [b / a for a, b in zip(diffs, diffs[1:]) if a > 0.0]
    ratio = max(ratios) if ratios else 0.0
    last_ratio = ratios[-1] if ratios else None
    if res is None:
        raise ConvergenceError(
            f"fixed-point iteration did not reach tol = {tol} within {max_iter} steps",
            last_ratio=last_ratio,
        )
    if not res <= bound:
        raise ConvergenceError(
            f"fixed-point iteration stopped after {len(iterates)} steps with residual "
            f"{res:.3e}, which exceeds the bound {bound:.3e}",
            last_ratio=last_ratio,
        )
    sol = SolutionField(ScalarField(grid, u), res, "fixed_point", len(iterates))
    return FixedPointRun(solution=sol, iterates=iterates, diffs=diffs, contraction_ratio=ratio)


# ---------------------------------------------------------------------------
# certificates and a-priori bounds


@dataclass(frozen=True)
class SignCertificate:
    """Numerical sign check of one solution field."""

    interior_sign: str  # positive | negative | mixed
    min_abs_interior: float
    slope_a: float
    slope_b: float
    verdict: str  # strongly_positive | strongly_negative | fails


def sign_certificate(u, tol: float | None = None) -> SignCertificate:
    """Classify the sign of a solution, endpoint slopes included.

    ``strongly_positive`` requires every interior sample above ``tol``, an
    inward slope at a (u'(a) > tol) and an outward one at b (u'(b) < -tol);
    ``strongly_negative`` mirrors that.  The default tolerance is
    1e-7 * sup|u|, so the zero field always fails.
    """
    fld = u.u if isinstance(u, SolutionField) else u
    vals = np.asarray(fld.values, dtype=np.float64)
    if tol is None:
        tol = 1e-7 * float(np.max(np.abs(vals)))
    if tol < 0:
        raise ValueError(f"tol must be nonnegative, got {tol}")
    interior = vals[1:-1]
    du = np.asarray(diff(fld, 1).values, dtype=np.float64)
    slope_a = float(du[0])
    slope_b = float(du[-1])
    if np.all(interior > tol):
        sign = "positive"
    elif np.all(interior < -tol):
        sign = "negative"
    else:
        sign = "mixed"
    if sign == "positive" and slope_a > tol and slope_b < -tol:
        verdict = "strongly_positive"
    elif sign == "negative" and slope_a < -tol and slope_b > tol:
        verdict = "strongly_negative"
    else:
        verdict = "fails"
    return SignCertificate(sign, float(np.min(np.abs(interior))), slope_a, slope_b, verdict)


def operator_norm_bound(f: ScalarField, p: float, interval) -> float:
    """Bound integrate(|f|) / delta1 on the norm of u -> T[p, 0]^{-1}(f u)."""
    if f.grid.interval != interval:
        raise ValueError("f is not sampled on the given interval")
    absf = ScalarField(f.grid, np.abs(np.asarray(f.values, dtype=np.float64)))
    return integrate(absf) / delta1(p, interval)


def rhs_norm_bound(h: ScalarField, p: float, interval, r_min: float = 0.0) -> float:
    """Bound sqrt(L / (lambda_1 + r_min)) * sup|h| on the solution sup-norm."""
    if h.grid.interval != interval:
        raise ValueError("h is not sampled on the given interval")
    lam1 = lambda_k(p, interval, 1)
    denom = lam1 + r_min
    if denom <= 0:
        raise ValueError(f"lambda_1 + r_min must be positive, got {denom}")
    return float(np.sqrt(interval.length / denom) * sup_norm(h))


def smallest_eigenvalue(op: OperatorMatrix, tol: float = 1e-12, max_iter: int = 500) -> float:
    """Smallest eigenvalue of the interior block by inverse power iteration.

    The Rayleigh quotient is accumulated in extended precision because the
    matrix norm grows like spacing**-4 and float64 products would drown the
    update in rounding noise.  The iteration returns either when the update
    drops below ``tol`` or when it stops shrinking, whichever comes first.
    """
    rng = np.random.default_rng(7)
    v = rng.standard_normal(op.grid.n + 1)[1:-1]  # the end components are zero
    v /= np.linalg.norm(v)
    band_ld = op.band_extended()[:, 1:-1]
    lam = None
    prev_delta = np.inf
    for it in range(max_iter):
        w = op._solve_interior(v)
        norm = np.linalg.norm(w)
        if norm == 0.0 or not np.isfinite(norm):
            raise ConvergenceError("inverse power iteration broke down")
        w /= norm
        w_ld = w.astype(np.longdouble)
        new = float(w_ld @ _band_matvec(band_ld, w_ld))  # Rayleigh quotient
        if lam is not None:
            delta = abs(new - lam)
            if delta <= tol * max(1.0, abs(new)):
                return new
            if it >= 3 and delta >= prev_delta:
                return new  # update stopped shrinking: at the rounding floor
            prev_delta = delta
        lam = new
        v = w
    raise ConvergenceError(f"inverse power iteration did not settle within {max_iter} steps")
