"""Finite-difference solves of u'''' - p u'' + c(t) u = h with hinged ends.

The operator is discretized on a uniform grid with the classical pentadiagonal
stencil for u'''' and the three-point stencil for u''.  The end conditions
u(a) = u(b) = 0 occupy the first and last matrix rows; the moment conditions
u''(a) = d1 and u''(b) = d2 are folded into the rows next to them by ghost-node
elimination, which keeps the matrix pentadiagonal and, for d1 = d2 = 0, keeps
the interior block symmetric.  Every right-hand side built here vanishes in
rows 0 and n, so the end values are exactly zero and only the interior block
A = L**2 + p L + C matters (L the Dirichlet second-difference matrix, C =
diag(c)).  ``assemble`` stores the operator as a float64 band, which
``OperatorMatrix.apply`` and the inverse iteration of ``smallest_eigenvalue``
use.  Its diagonal 6/spacing**4 + 2 p/spacing**2 + c rounds c away at large
n, by up to u 6/spacing**4 (1.1e-2 at n = 2000 on [0, 1], u = 2**-53), so a
solve on it converges to the rounded band, not to A.

Every other solve takes one of two paths, by the kind of c, and neither
touches the band.  For c constant on the interior nodes the DST-I S
diagonalises A, with eigenvalues beta_k + c (``_constant_modes``): a kernel
is a sine transform (``greens._closed_form_kernel``) and a vector solve is
u = (2 / n) S diag(1 / (beta_k + c)) S rhs (``_closed_form_vector``), with
a-priori bounds from ``_modal_error``; neither factors or loads LAPACK.

For variable c the solves run on the split system M: with v = L u, each
interior equation is L u - v = 0 and L v + p v + c u = f, the unknowns are
interleaved as (u_1, v_1, u_2, v_2, ...), and M is a (2, 2) band on
2 (n - 1) rows in which c never meets a spacing**-4 term.  M is built for
the unit interval (spacing 1/n, p L**2 and c L**4 for an interval of length
L), whose operator is L**4 A: loads and results are each scaled by L**2,
so the entries of M do not grow or shrink with the interval.  As A is
symmetric, the transposed solve M^T y = (b, 0) gives A^-1 b in the v-rows
of y: with b = e_j a kernel column (``greens._split_kernel``), with b a
right-hand side the solution of a vector solve (``_split_vector``).  Each
is a float64 ``gbtrs`` on factors computed once per operator, with no
refinement and nothing in extended precision.

The factors come with a forward-error bound, computed in O(n) at its first
read and without a residual: the backward error of a solve is bounded by
|P L| |U| (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
2002, sections 3.1, 8.1 and 9.3) and multiplied by LAPACK's condition
estimate (``gbcon``), which estimates ||M^-1||_1 and can fall short of it.
Solves run with M^T, whose backward error takes the column sums of
|P L| |U|, since partial pivoting leaves every column of L with three
entries but lets a row collect hundreds (see ``_lu_column_sums``).  Kernels
and vectors alike report their bound relative to the largest entry of their
result and raise ``ResonanceError`` above ``_KERNEL_RTOL`` = 1e-3, on both
paths (see ``_split_solve_error`` and ``_mode_error``).  The kernel is
symmetric too, so only its lower triangle is solved: a block of columns
starting at j needs only the rows from 2 j on, and those come from the
trailing part of the same factors (see ``_solve_split_transposed``), bit for
bit as a full solve would give them.

LAPACK comes from scipy's compiled ``scipy.linalg._flapack`` extension, which
is loaded directly at the first factorization (see ``_lapack``).  Importing
``scipy.linalg`` would load the same extension and, with it, a few hundred
milliseconds of unrelated modules (scipy's array-API layer pulls in
``numpy.f2py``, ``numpy.testing``, ``numpy.ma`` and ``numpy.random``), most of
a command-line call; code that never factors loads neither.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConvergenceError, ResonanceError
from .fields import Grid, ProblemSpec, ScalarField, extrema, integrate, require_p, sup_norm
from .spectrum import (
    SpectralData,
    _discrete_beta,
    _discrete_top,
    _dst1,
    _finite,
    delta1,
    lambda_k,
    nearest_mode,
)

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

# the unit roundoff u and gamma_k = k u / (1 - k u) (Higham 2002, Lemma 3.1)
_U = 2.0**-53
_GAMMA2 = 2 * _U / (1.0 - 2 * _U)
_GAMMA3 = 3 * _U / (1.0 - 3 * _U)
_GAMMA4 = 4 * _U / (1.0 - 4 * _U)
_GAMMA13 = 13 * _U / (1.0 - 13 * _U)
_GAMMA36 = 36 * _U / (1.0 - 36 * _U)
# the smallest subnormal, a bound on the absolute error of a rounding that underflows
_TINY = 2.0**-1074
# mu_1 at least this keeps every mu_k^2 and beta_k normal, as the closed-form bounds assume
_MU_MIN = 2.0**-511
# largest forward-error bound, relative to the largest entry of the result,
# that a solve accepts, for kernels and vectors alike: on [0, 1] and p in
# {0, 5, 50} the split bound stays below 2e-4 up to n = 2000 for c >= -97,
# 0.4 from -lambda_1, while c on the split operator's own first eigenvalue
# -(mu_1^2 + p mu_1) gives 1e5 or more
_KERNEL_RTOL = 1e-3


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
    right-hand side, not in the matrix).  The LU factors of the split system
    (see the module docstring) are computed at the first split solve and
    kept for every later one, and so are both their forward-error bounds at
    their first read; those of the band's interior block, which only
    :func:`smallest_eigenvalue` solves with, at its first step.
    """

    grid: Grid
    p: float
    c: ScalarField
    band: np.ndarray
    _band_ld: np.ndarray | None = field(default=None, repr=False)
    _lu: tuple | None = field(default=None, repr=False)
    _split: tuple | None = field(default=None, repr=False)
    _split_bound: float | None = field(default=None, repr=False)
    _split_bound_equilibrated: float | None = field(default=None, repr=False)

    def band_extended(self) -> np.ndarray:
        if self._band_ld is None:
            self._band_ld = self.band.astype(np.longdouble)
        return self._band_ld

    def _solve_interior(self, rhs: np.ndarray) -> np.ndarray:
        """Solve of a vector ``rhs`` of n - 1 rows with the band's interior block, in float64."""
        lapack = _lapack()  # loaded at the first solve, without scipy.linalg
        if self._lu is None:
            ab = np.zeros((7, self.grid.n - 1), order="F")
            ab[2:] = self.band[:, 1:-1]  # gbtrf keeps two extra rows for fill-in
            lu, piv, info = lapack.dgbtrf(ab, 2, 2, overwrite_ab=1)
            if info != 0:
                raise _resonance_error(self)
            self._lu = (lu, piv)
        lu, piv = self._lu
        return lapack.dgbtrs(lu, 2, 2, rhs, piv)[0]

    def _split_factors(self) -> tuple:
        # (lu, piv, ||M||_1, info) of the split matrix M, factored at the first call
        if self._split is None:
            ab = _split_band(self)
            # max column sum of |M|, inf or nan when M left float64; row by row,
            # as an axis-0 sum over ab's few rows takes twice as long
            sums = sum(np.abs(ab[2:]))
            norm = float(_finite("the discrete operator", self.p, self.grid.interval, sums.max))
            lu, piv, info = _lapack().dgbtrf(ab, 2, 2, overwrite_ab=1)
            self._split = (lu, piv, norm, info)
        return self._split

    def _split_error_bound(self) -> float:
        """The forward-error bound of every solve by :meth:`_solve_split_transposed`.

        Each column y of a result meets max|y - y_exact| <= bound * max|y|;
        the bound is inf when M is singular.  It is computed at its first
        read (:func:`_split_error`) and kept, so solves whose caller never
        reads it skip the condition estimate.
        """
        if self._split_bound is None:
            lu, piv, norm, info = self._split_factors()
            self._split_bound = np.inf if info != 0 else _split_error(_lapack(), lu, piv, norm)
        return self._split_bound

    def _solve_split_transposed(self, rhs: np.ndarray, start: int = 0) -> np.ndarray:
        """Solve M^T y = rhs for the split matrix M, in float64.

        ``rhs`` (a vector or a matrix of columns) holds rows ``start`` ..
        2 (n - 1) - 1 of the right-hand side, interleaved as the columns of
        :func:`_split_band`, and is overwritten when it is Fortran-ordered.
        M is factored at the first call; :meth:`_split_error_bound` bounds
        the error of the result.

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
        lu, piv = self._split_factors()[:2]
        if start:
            lu, piv = lu[:, start:], piv[start:] - start
        return _lapack().dgbtrs(lu, 2, 2, rhs, piv, trans=1, overwrite_b=1)[0]

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
    """Banded matrix of u'''' - p u'' + c(t) u with the hinged end rows.

    Raises ValueError when the interval is so short that the operator leaves float64.
    """
    grid = _resolve_grid(c.grid, grid)
    require_p(p)
    _discrete_top(p, grid)
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
    rows 0 and 1 are left free for the fill-in of the factorization.  M is
    that of the unit interval: spacing 1/n, p L**2 and c L**4 for an interval
    of length L, so its operator is L**4 A (see :func:`_split_scale`).  On
    [0, 1] these are ``op``'s own entries.  A p L**2 or c L**4 beyond
    float64 is left in M, for :meth:`OperatorMatrix._split_factors` to report.
    """
    length = op.grid.interval.length
    l2 = length * length
    with np.errstate(over="ignore", invalid="ignore"):
        p = op.p * l2
        c = np.asarray(op.c.values, dtype=np.float64)[1:-1] * l2 * l2
    inv2 = (1.0 / op.grid.n) ** -2
    size = 2 * (op.grid.n - 1)
    ab = np.zeros((7, size), order="F")
    ab[2, 2:] = -inv2                   # u_{i+1} in u-rows, v_{i+1} in v-rows
    ab[3, 1::2] = -1.0                  # v_i in the u-row of node i
    ab[4, 0::2] = 2.0 * inv2
    ab[4, 1::2] = 2.0 * inv2 + p
    ab[5, 0::2] = c                     # c_i u_i in v-rows
    ab[6, :-2] = -inv2                  # u_{i-1} in u-rows, v_{i-1} in v-rows
    return ab


def _split_scale(op: OperatorMatrix, x):
    """``x`` times L**2, in place for an array (on [0, 1] exactly ``x``).

    The split M has the operator L**4 A, so A^-1 b = L**2 (L**4 A)^-1 (L**2 b):
    loads and results each take one factor L**2, which keeps both in
    float64 wherever the result is.
    """
    x *= op.grid.interval.length * op.grid.interval.length
    return x


def _lu_column_sums(lu: np.ndarray) -> np.ndarray:
    """Column sums of |P L| |U| for ``gbtrf`` factors with two sub- and two superdiagonals.

    U[i, j] sits at lu[4 + i - j, j], and column k of P L holds 1 and the
    multipliers lu[5, k], lu[6, k] of step k: the row interchanges of later
    steps move them to other rows, never to another column.  So with c_k =
    1 + |lu[5, k]| + |lu[6, k]| the sums are (|U|^T c)_j.  (The row sums are
    another matter: a row that loses the pivot step after step collects a
    multiplier at each, hundreds of them when c < 0.)
    """
    lu_abs = np.abs(lu)
    c = np.ones(lu.shape[1])
    c[:-1] += lu_abs[5, :-1]  # the last steps have fewer rows below them
    c[:-2] += lu_abs[6, :-2]
    sums = lu_abs[4] * c
    for d in range(1, 5):  # U[j - d, j] at lu[4 - d, j]
        sums[d:] += lu_abs[4 - d, d:] * c[:-d]
    return sums


def _split_error(
    lapack, lu: np.ndarray, piv: np.ndarray, norm: float, scale: np.ndarray | None = None
) -> float:
    """The bound on max|y - y_exact| / max|y| for every transposed solve on these factors.

    ``gbtrs`` computes y with (M + F)^T y = b and |F| <= gamma_13 |P L| |U|:
    at most 5 terms in each entry of the factorization and in each row of
    U^T, and 3 in each row of L^T (Higham 2002, Theorems 8.5 and 9.3).  So
    max|y - y_exact| = max|M^-T F^T y| <= ||M^-1||_1 ||F||_1 max|y|, with
    ||F||_1 from :func:`_lu_column_sums` and ||M^-1||_1 from LAPACK's
    condition estimate (``gbcon``; ``norm`` is ||M||_1).

    With ``scale``, a positive vector d of column scales, the same holds
    with M D and F D in place of M and F, because M^-T F^T = (M D)^-T
    (F D)^T: ``norm`` is then ||M D||_1, the condition estimate runs on the
    factors P L (U D) of M D, and ||F D||_1 <= gamma_13 max_j d_j
    colsum_j(|P L| |U|).  Column equilibration (d_j = 1 / max_i |M[i, j]|)
    keeps a large c from inflating both factors at once.
    """
    sums = _lu_column_sums(lu)
    if scale is not None:
        lu = lu.copy(order="F")
        lu[:5] *= scale  # U D: rows 0 .. 4 hold the columns of U
        sums *= scale
    rcond, info = lapack.dgbcon(2, 2, lu, piv, norm, norm="1")
    if info != 0 or not rcond > 0.0:
        return np.inf
    return _GAMMA13 * float(np.max(sums)) / (rcond * norm)


def _equilibrated_split_error(op: OperatorMatrix) -> float:
    """:func:`_split_error` of ``op``'s split factors after column equilibration of M.

    An estimated bound like the plain one, since ``gbcon`` estimates
    ||M^-1||_1 and can fall short of it, and often far below it when the
    entries of M differ in size by many orders, as with c = 1e8; it costs
    one more ``gbcon`` call, so callers take it only when the plain bound
    misses, and it is kept on ``op`` at its first call, as the plain one is.
    ``op``'s split system must be factored.
    """
    if op._split_bound_equilibrated is None:
        lu, piv = op._split[:2]
        m_abs = np.abs(_split_band(op)[2:])  # |M| in its five diagonals, by column
        scale = 1.0 / np.max(m_abs, axis=0)
        norm = float(np.max(np.sum(m_abs, axis=0) * scale))
        op._split_bound_equilibrated = _split_error(_lapack(), lu, piv, norm, scale)
    return op._split_bound_equilibrated


def _max_abs(a: np.ndarray) -> float:
    # max|a| without an |a| temporary; the methods skip np.max's dispatch
    return max(float(a.max()), -float(a.min()))


def _norm2(a: np.ndarray) -> float:
    # ||a||_2 scaled by max|a|, so the squares neither overflow nor underflow
    top = _max_abs(a)
    return top * float(np.linalg.norm(a / top)) if top > 0.0 else 0.0


def _split_solve_error(op: OperatorMatrix, top: float, scale: float, subject: str) -> float:
    """The forward-error bound of split solves, relative to the largest entry of their result.

    ``top`` is max|y| over the rows the solves returned and ``scale`` the
    largest entry read from them, both before :func:`_split_scale`.  Each
    row is within ``op._split_error_bound()`` max|y| of exact, so the bound
    is that times ``top`` / ``scale``, or, when smaller and the first exceeds
    ``_KERNEL_RTOL``, the same on column-equilibrated factors.  Raises
    :class:`~beamsign.errors.ResonanceError`, naming ``subject``, when the
    bound exceeds ``_KERNEL_RTOL`` or y is not finite.
    """
    error = op._split_error_bound()
    valid = np.isfinite(error) and np.isfinite(top) and scale > 0.0
    bound = error * top / scale if valid else np.inf
    if valid and not bound <= _KERNEL_RTOL:
        bound = min(bound, _equilibrated_split_error(op) * top / scale)
    if not bound <= _KERNEL_RTOL:
        raise _resonance_error(
            op, f"the {subject}'s forward-error bound {bound:.3e} exceeds {_KERNEL_RTOL:g}; "
        )
    return bound


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


def _constant_modes(
    p: float, c: ScalarField, grid: Grid, subject: str
) -> tuple[np.ndarray, np.ndarray] | None:
    """The modal denominators d_k = beta_k + c and their slack, when the sine transform applies.

    The DST-I diagonalises the interior block A = L**2 + p L + c I when c is
    constant on the interior nodes (its end values never enter A), with
    eigenvalues d_k = beta_k + c, k = 1 .. n - 1, from
    :func:`~beamsign.spectrum._discrete_beta`.  Returns None when c varies
    there, or when mu_1 < 2**-511 (intervals longer than about 2.5e77),
    where the closed-form bounds would meet underflow.

    Otherwise returns d_k and the slack e_k = gamma_36 (beta_k + |c|), which
    bounds the rounding of the computed d_k: mu_k is within gamma_15,
    beta_k = mu_k (mu_k + p) within gamma_32 (p >= 0) and d_k within
    gamma_33 (beta_k + |c|).  Raises the ResonanceError of
    :func:`_mode_error`, naming ``subject``, when e_k >= |d_k| for some k.
    """
    inner = np.asarray(c.values, dtype=np.float64)[1:-1]
    if not np.all(inner == inner[0]):
        return None
    mu, beta = _discrete_beta(p, grid)
    if mu[0] < _MU_MIN:
        return None
    cv = float(inner[0])
    # beta_k + |c|, and with it beta_k + c, stays finite
    _finite("the discrete kernel", p, grid.interval, lambda: float(beta[-1]) + abs(cv))
    denom = beta + cv
    slack = _GAMMA36 * (beta + abs(cv))
    if not np.all(np.abs(denom) > slack):
        raise _mode_error(p, c, grid, denom, slack, np.inf, subject)
    return denom, slack


def _mode_error(
    p: float, c: ScalarField, grid: Grid, denom: np.ndarray, slack: np.ndarray, bound: float,
    subject: str,
) -> ResonanceError:
    # a closed-form bound missed: name the mode nearest its own rounding
    k = int(np.argmin(np.abs(denom) / slack))
    return _resonance_error(
        assemble(p, c, grid),
        f"the {subject}'s forward-error bound {bound:.3e} exceeds {_KERNEL_RTOL:g} "
        f"(discrete mode k = {k + 1}: beta_k + c = {denom[k]:.3e}); ",
    )


def _fft_error(n: int, norm: float) -> float:
    """A bound on ||fl(F x) - F x||_2, F the FFT of length N = 2n and ``norm`` = ||x||_2.

    t eta / (1 - t eta) sqrt(N) ||x||_2, t = ceil(log2 N) stages and
    eta = mu + gamma_4 (sqrt(2) + mu) for twiddle factors within mu = 2u
    (Higham 2002, Theorem 24.2, for radix 2; pocketfft mixes radices), plus
    2 N t 2**-1074 for roundings that underflow.
    """
    stages = (2 * n - 1).bit_length()  # ceil(log2 N)
    eta = 2 * _U + _GAMMA4 * (math.sqrt(2.0) + 2 * _U)
    return stages * eta / (1.0 - stages * eta) * math.sqrt(2 * n) * norm + 4 * n * stages * _TINY


def _modal_error(w: np.ndarray, denom: np.ndarray, slack: np.ndarray) -> float:
    """A bound on each entry's error of sum_k w_k phi_k, |phi_k| <= 1, taken by one FFT.

    The weights w_k = fl(y_k / d_k) divide by the modal denominators of
    :func:`_constant_modes` (y_k = 1 for a kernel).  As |d_k - d_k exact|
    <= e_k < |d_k|, each is within rho_k |w_k|, rho_k = (e_k / (|d_k| - e_k)
    + u) / (1 - u), or 2**-1074 where it underflows, of y_k / d_k exact; the
    FFT of length 2n that sums them adds :func:`_fft_error` of ||w||_2,
    which also covers a sine sum: half the FFT of an odd extension of
    2-norm sqrt(2) ||w||_2.
    """
    n = len(w) + 1
    rho = (slack / (np.abs(denom) - slack) + _U) / (1.0 - _U)
    return float(rho @ np.abs(w)) + n * _TINY + _fft_error(n, _norm2(w))


# ---------------------------------------------------------------------------
# solves


def _rhs_vector(op: OperatorMatrix, problem: ProblemSpec) -> np.ndarray:
    b = np.array(problem.h.values, dtype=np.float64)
    b[0] = 0.0
    b[-1] = 0.0
    inv2 = op.grid.spacing**-2
    b[1] -= problem.d1 * inv2
    b[-2] -= problem.d2 * inv2
    return b


def _solve_vector(
    op: OperatorMatrix, rhs: np.ndarray, bounded: bool = True
) -> tuple[np.ndarray, float | None]:
    """A^-1 rhs on nodes 0 .. n and its bound on max|u - u_exact| / max|u|, by the kind of c.

    Rows 0 and n of ``rhs`` are not read, and those of u are zero.  Constant
    c takes :func:`_closed_form_vector`, variable c :func:`_split_vector`.
    A zero ``rhs`` returns u = 0, bound 0.  With ``bounded`` false the bound
    reads None and only a breakdown, or a modal denominator within its
    rounding, raises ResonanceError.
    """
    if not np.any(np.asarray(rhs, dtype=np.float64)[1:-1]):
        return np.zeros(op.grid.n + 1), 0.0
    modes = _constant_modes(op.p, op.c, op.grid, "solve")
    if modes is None:
        return _split_vector(op, rhs, bounded)
    return _closed_form_vector(op, rhs, *modes, bounded)


def _closed_form_vector(
    op: OperatorMatrix, rhs: np.ndarray, denom: np.ndarray, slack: np.ndarray, bounded: bool
) -> tuple[np.ndarray, float | None]:
    """u = A^-1 rhs = (2 / n) S diag(1 / d_k) S rhs, S the DST-I, and its a-priori bound.

    d_k and e_k come from :func:`_constant_modes`, and each S is one FFT of
    length 2n (``spectrum._dst1``).  y = S rhs is within
    sigma_1 = _fft_error(n, ||rhs||_2) of exact in the 2-norm, so, by
    Cauchy-Schwarz and |d_k exact| >= |d_k| - e_k, the weights z = y / d
    take at most sigma_1 ||1 / (|d_k| - e_k)||_2 in the 1-norm; fl(y / d)
    and S z add :func:`_modal_error`, and the rounded factor 2 / n two
    roundings.  So max|u - u_exact| <= (2 / n) sigma + gamma_2 / (1 - gamma_2)
    max|u|, sigma the sum of the first two parts.  A bound above
    ``_KERNEL_RTOL`` raises the ResonanceError of :func:`_mode_error`.
    """
    n = op.grid.n
    inner = np.asarray(rhs, dtype=np.float64)[1:-1]
    z = _dst1(inner) / denom
    u = np.zeros(n + 1)
    u[1:-1] = _dst1(z) * (2.0 / n)
    top = _max_abs(u)
    if not bounded:
        if not np.isfinite(top):
            raise _resonance_error(op, "the solve breaks down; ")
        return u, None
    spread = _norm2(1.0 / (np.abs(denom) - slack))
    sigma = _fft_error(n, _norm2(inner)) * spread + _modal_error(z, denom, slack)
    error = 2.0 * sigma / n + _TINY
    bound = _GAMMA2 / (1.0 - _GAMMA2) + error / top if top > 0.0 else np.inf
    if not bound <= _KERNEL_RTOL:
        raise _mode_error(op.p, op.c, op.grid, denom, slack, bound, "solve")
    return u, bound


def _split_vector(
    op: OperatorMatrix, rhs: np.ndarray, bounded: bool = True
) -> tuple[np.ndarray, float | None]:
    """A^-1 rhs on nodes 0 .. n by one transposed split solve, and its forward-error bound.

    M^T y = (rhs, 0), with rhs in the u-rows, leaves A^-1 rhs in the
    v-rows.  The bound, on max|u - u_exact| / max|u|, and its ResonanceError
    are those of :func:`_split_solve_error`.  With ``bounded`` false the
    condition estimate is skipped and the bound reads None; ResonanceError
    is then raised only when M is singular or u is not finite.
    """
    u = np.zeros(op.grid.n + 1)
    loads = np.zeros(2 * (op.grid.n - 1))
    loads[0::2] = np.asarray(rhs, dtype=np.float64)[1:-1]
    y = op._solve_split_transposed(_split_scale(op, loads))
    u[1:-1] = y[1::2]
    if bounded:
        bound = _split_solve_error(op, _max_abs(y), _max_abs(u), "solve")
    elif op._split_factors()[3] != 0 or not np.isfinite(_max_abs(y)):
        raise _resonance_error(op, "the solve breaks down; ")
    else:
        bound = None
    return _split_scale(op, u), bound


@dataclass(eq=False)
class SolutionField:
    """A solve result: samples, forward-error bound and provenance.

    ``forward_error_bound`` bounds max|u - u_exact| / max|u| against the
    discrete operator L**2 + p L + C itself, as ``GreensMatrix``'s does for
    kernels: a-priori for constant c, resting on a condition estimate otherwise.
    """

    u: ScalarField
    forward_error_bound: float
    method: str  # direct | superposition | fixed_point
    iterations: int


def direct_solve(problem: ProblemSpec, grid: Grid | None = None) -> SolutionField:
    """Solve the boundary value problem: the sine transform for constant c, else the split solve.

    Raises :class:`~beamsign.errors.ResonanceError`, naming the nearest
    -lambda_k (and for constant c the discrete mode k), when the solve's
    forward-error bound exceeds 1e-3 or the solve breaks down.
    """
    grid = _resolve_grid(problem.grid, grid)
    op = assemble(problem.p, problem.c, grid)
    u, bound = _solve_vector(op, _rhs_vector(op, problem))
    return SolutionField(ScalarField(grid, u), bound, "direct", 0)


def superposition_solve(problem: ProblemSpec, grid: Grid | None = None) -> SolutionField:
    """Solve through the discrete kernel: u = G (h w) + d1 y_a + d2 y_b.

    G is the kernel of the interior block (columns for the scaled unit loads
    e_j / spacing), w = spacing the nodal weights, and y_a, y_b the moment
    responses.  For the discrete operator y_a = -G e_1 / spacing and
    y_b = -G e_{n-1} / spacing exactly, so the end moments fold into the
    weights: u = G w' with w' = spacing times the right-hand side of
    :func:`direct_solve`.  As G = A^-1 / spacing, G w' = A^-1 rhs exactly:
    the sum is the direct solve, with its u, its bound and its errors,
    under the method label ``superposition``.
    """
    return replace(direct_solve(problem, grid), method="superposition")


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
    sign-definite side while the correction term c - d contracts.  Each step
    is one solve with T[p, d] on the path of :func:`direct_solve`, which
    never rounds c - d against a spacing**-4 term, so the iterates converge
    to the solution of the discrete operator with c itself.

    The iteration stops once the sup-norm step is below ``tol`` and the
    forward-error bound of u_k is within 1e-3 of sup|u_k|; when d = c the
    one solve is the answer, with the bound of :func:`direct_solve`.
    Otherwise, as step ratios can sit below the contraction, the bound comes
    from one more solve, with c itself, at the first step below ``tol``:
    max|u_k - u_c| plus that solve's bound.  That solve takes the run's one
    condition estimate, none for constant c; the steps with T[p, d] take
    none.  The largest observed step ratio is the contraction ratio.  It raises
    :class:`~beamsign.errors.ConvergenceError`, with the bound in the
    message when the steps met ``tol``, when ``max_iter`` steps do not get
    there, and ResonanceError where :func:`direct_solve` would with c, and
    when T[p, d] is singular or a step is not finite.  An ill-conditioned
    but nonsingular T[p, d] raises nothing itself: the bound from the solve
    with c answers for the result, or ConvergenceError ends the run.

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
    correction = cv - frozen
    hv = np.asarray(problem.h.values, dtype=np.float64)
    static_rhs = not np.any(correction[1:-1])

    u = np.zeros(grid.n + 1)
    iterates: list[ScalarField] = []
    diffs: list[float] = []
    reference = None  # (u_c, its bound), solved at the first step below tol
    settled = False
    for _ in range(max_iter):
        x, bound = _solve_vector(op, hv - correction * u, bounded=static_rhs)
        step = _max_abs(x - u)
        iterates.append(ScalarField(grid, x))
        diffs.append(step)
        u = x
        scale = _max_abs(u)
        if static_rhs:
            # a static right-hand side would only repeat the same solve
            error = bound * scale
            settled = True
            break
        if step < tol:
            if reference is None:
                reference = _solve_vector(assemble(problem.p, problem.c, grid), hv)
            u_c, bound_c = reference
            error = _max_abs(u - u_c) + bound_c * _max_abs(u_c)
            if error <= _KERNEL_RTOL * scale:
                settled = True
                break
    ratios = [b / a for a, b in zip(diffs, diffs[1:]) if a > 0.0]
    ratio = max(ratios) if ratios else 0.0
    last_ratio = ratios[-1] if ratios else None
    if not settled:
        if step < tol:
            raise ConvergenceError(
                f"fixed-point iteration stopped after {len(iterates)} steps with an error bound "
                f"of {error:.3e}, above {_KERNEL_RTOL:g} * sup|u| = {_KERNEL_RTOL * scale:.3e}",
                last_ratio=last_ratio,
            )
        raise ConvergenceError(
            f"fixed-point iteration did not reach tol = {tol} within {max_iter} steps",
            last_ratio=last_ratio,
        )
    sol = SolutionField(
        ScalarField(grid, u), error / scale if scale > 0.0 else 0.0, "fixed_point", len(iterates)
    )
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
    # the end formulas of np.gradient(vals, spacing, edge_order=2), as diff(fld, 1) takes them
    dx = fld.grid.spacing
    slope_a = float((-1.5 / dx) * vals[0] + (2.0 / dx) * vals[1] + (-0.5 / dx) * vals[2])
    slope_b = float((0.5 / dx) * vals[-3] + (-2.0 / dx) * vals[-2] + (1.5 / dx) * vals[-1])
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
    """A bound K sup|h| on sup|u| for T[p, c] u = h with hinged ends and c >= r_min.

    K = (L**2 / sqrt(48)) / sqrt(lambda_1 + r_min) for r_min >= 0, and
    (L**2 / sqrt(48)) sqrt(lambda_1) / (lambda_1 + r_min) for
    -lambda_1 < r_min < 0, L the interval length.  Testing the equation
    with u gives ||u''||_2 <= ||h||_2 / sqrt(lambda_1 + r_min), or
    ||h||_2 sqrt(lambda_1) / (lambda_1 + r_min) when r_min < 0, with
    ||h||_2 <= sqrt(L) sup|h|; and sup|u| <= sqrt(L**3 / 48) ||u''||_2,
    from the Green's function of -d**2/dt**2 with u(a) = u(b) = 0.  At
    p = 0, c = 0 and h = 1 the exact sup|u| is 5 L**4 / 384, 0.89 times
    the bound.
    """
    if h.grid.interval != interval:
        raise ValueError("h is not sampled on the given interval")
    lam1 = lambda_k(p, interval, 1)
    denom = lam1 + r_min
    if denom <= 0:
        raise ValueError(f"lambda_1 + r_min must be positive, got {denom}")
    energy = (1.0 / math.sqrt(denom) if r_min >= 0 else math.sqrt(lam1) / denom) / math.sqrt(48.0)
    return _finite("rhs_norm_bound", p, interval, lambda: interval.length**2 * energy * sup_norm(h))


def smallest_eigenvalue(op: OperatorMatrix, tol: float = 1e-12, max_iter: int = 500) -> float:
    """Smallest eigenvalue of the interior block by inverse power iteration.

    Each step solves w = A^-1 v for the unit vector v on the cached factors.
    Until the vector has settled the estimate is theta = 1 / (v . w), taken
    in float64.  Once theta's relative change drops to ``tol``, or stops
    shrinking after the third step, the estimate becomes the Rayleigh
    quotient of w / |w|, accumulated in extended precision because the
    matrix norm grows like spacing**-4 and float64 products would drown the
    update in rounding noise.  The iteration returns that quotient when its
    update drops below ``tol`` or stops shrinking, whichever comes first.
    """
    rng = np.random.default_rng(7)
    v = rng.standard_normal(op.grid.n + 1)[1:-1]  # the end components are zero
    v /= np.linalg.norm(v)
    band_ld = None  # the extended-precision band, once theta has settled
    lam = None
    prev_delta = np.inf
    for it in range(max_iter):
        w = op._solve_interior(v)
        norm = np.linalg.norm(w)
        if norm == 0.0 or not np.isfinite(norm):
            raise ConvergenceError("inverse power iteration broke down")
        vw = float(v @ w)  # v . A^-1 v
        w /= norm
        if band_ld is None:
            new = 1.0 / vw if vw else np.inf  # theta
        else:
            new = _rayleigh_quotient(band_ld, w)
        if lam is not None:
            delta = abs(new - lam)
            if delta <= tol * max(1.0, abs(new)) or (it >= 3 and delta >= prev_delta):
                if band_ld is not None:
                    return new  # settled, or at the rounding floor
                band_ld = op.band_extended()[:, 1:-1]
                new = _rayleigh_quotient(band_ld, w)
                delta = np.inf
            prev_delta = delta
        lam = new
        v = w
    raise ConvergenceError(f"inverse power iteration did not settle within {max_iter} steps")


def _rayleigh_quotient(band_ld: np.ndarray, w: np.ndarray) -> float:
    # w . A w in extended precision for a unit vector w
    w_ld = w.astype(np.longdouble)
    return float(w_ld @ _band_matvec(band_ld, w_ld))
