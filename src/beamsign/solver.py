"""Finite-difference solves of u'''' - p u'' + c(t) u = h with hinged ends.

The operator is discretized on a uniform grid with the classical pentadiagonal
stencil for u'''' and the three-point stencil for u''.  The end conditions
u(a) = u(b) = 0 occupy the first and last matrix rows; the moment conditions
u''(a) = d1 and u''(b) = d2 are folded into the rows next to them by ghost-node
elimination, which keeps the matrix pentadiagonal and, for d1 = d2 = 0, keeps
the interior block symmetric.  Every right-hand side built here vanishes in
rows 0 and n, so the end values are exactly zero and only the interior block
A = L**2 + p L + C matters (L the Dirichlet second-difference matrix, C =
diag(c)).  ``assemble`` only validates and records (p, c, grid).

Every solve takes one of two paths, decided once per operator at its first
solve (``OperatorMatrix._path``) and kept: the sine transform of
:mod:`beamsign._sine` for c constant on the interior nodes, else the split
system below (:class:`_Split`).  Each path solves vectors and kernels and
returns a forward-error bound with each result, relative to its largest
entry; :func:`_checked` raises ``ResonanceError`` above ``_KERNEL_RTOL`` =
1e-3, for both paths and both kinds of result.

The split system M: with v = L u, each interior equation is L u - v = 0
and L v + p v + c u = f, the unknowns are interleaved as (u_1, v_1, u_2,
v_2, ...), and M is a (2, 2) band on 2 (n - 1) rows in which c never meets
a spacing**-4 term.  M is built for the unit interval (spacing 1/n,
p L**2 and c L**4 for an interval of length L), whose operator is L**4 A:
loads and results are each scaled by L**2, so the entries of M do not grow
or shrink with the interval.  As A is symmetric, the transposed solve
M^T y = (b, 0) gives A^-1 b in the v-rows of y: with b = e_j a kernel
column (``_Split.kernel``), with b a right-hand side the solution of a
vector solve (``_Split.vector``).  Each is a float64 ``gbtrs`` on factors
computed once per operator, with no refinement and nothing in extended
precision.  What is factored is M D, D the powers of two that bring the
largest entry of each column of M into [1/2, 1) (``_split_band``), and the
loads are multiplied by D, since (M D)^T y = D b has the y of M^T y = b.
D is exact, so partial pivoting picks M's pivots and every rounding that
does not underflow scales exactly: y is bit for bit that of the unscaled
solve, except in entries near the underflow threshold (over 2000 random
kernels, only entries below 2**-1019 moved, by less than 2**-1060).

The factors come with a forward-error bound, computed in O(n) at its first
read and without a residual: the backward error of a solve is bounded by
|P L| |U| (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
2002, sections 3.1, 8.1 and 9.3) and multiplied by LAPACK's condition
estimate (``gbcon``), which estimates ||(M D)^-1||_1 and can fall short of
it.  As M D is column-equilibrated (van der Sluis, Numer. Math. 14, 1969;
Higham 2002, section 7.3), a c whose entries dwarf the 2 n**2 ones does
not inflate that bound.  Solves run with (M D)^T, whose backward error
takes the column sums of |P L| |U|, since partial pivoting leaves every
column of L with three entries but lets a row collect hundreds (see
``_lu_column_sums``).  The kernel is symmetric too, so only its lower
triangle is solved (see ``_Split.kernel``).

Only ``smallest_eigenvalue`` reads the rounded pentadiagonal band of A, which
it builds per call (``_interior_band``); its diagonal 6/spacing**4 +
2 p/spacing**2 + c loses up to u 6/spacing**4 of c (1.1e-2 at n = 2000 on
[0, 1], u = 2**-53).

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
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from ._sine import _U, _Modes, _max_abs, _modal_path
from .errors import ConvergenceError, ResonanceError
from .fields import Grid, ProblemSpec, ScalarField, extrema, integrate, require_p, sup_norm
from .spectrum import (
    SpectralData,
    _discrete_top,
    _finite,
    _overflow,
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

# gamma_13 = 13 u / (1 - 13 u), u the unit roundoff (Higham 2002, Lemma 3.1)
_GAMMA13 = 13 * _U / (1.0 - 13 * _U)
# kernel columns per trailing split solve in _Split.kernel: 48 and 64 tie as
# the fastest at n = 250 and n = 1000, while 32 and 96 are up to 5 % slower
_KERNEL_BLOCK = 48
# largest forward-error bound, relative to the largest entry of the result,
# that a solve accepts, for kernels and vectors alike: on [0, 1] and p in
# {0, 5, 50} the split bound stays below 2e-4 up to n = 2000 for c >= -97,
# 0.4 from -lambda_1, while c on the split operator's own first eigenvalue
# -(mu_1^2 + p mu_1) gives 1e5 or more
_KERNEL_RTOL = 1e-3


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
    """The discrete operator of u'''' - p u'' + c(t) u on ``grid``, and the solve path it keeps."""

    grid: Grid
    p: float
    c: ScalarField

    @cached_property
    def _path(self) -> _Modes | _Split:
        """The solve path of this operator, decided at the first read and kept.

        The sine transform where :func:`~beamsign._sine._modal_path` applies,
        else the split system (:class:`_Split`), factored here; a path that
        raises while it is built is not kept.
        """
        return _modal_path(self.p, self.grid, self.c) or _Split(self)


def assemble(p: float, c: ScalarField, grid: Grid | None = None) -> OperatorMatrix:
    """Check and record the discrete operator of u'''' - p u'' + c(t) u with hinged ends.

    Raises ValueError when the interval is so short that the operator leaves float64.
    """
    if grid is not None and grid != c.grid:
        raise ValueError("explicit grid does not match the grid the fields are sampled on")
    require_p(p)
    _discrete_top(p, c.grid)
    return OperatorMatrix(grid=c.grid, p=float(p), c=c)


def _split_band(op: OperatorMatrix) -> tuple[np.ndarray, np.ndarray]:
    """M D in ``gbtrf`` storage, (M D)[r, s] at [4 + r - s, s], and the column scales D.

    M is the split matrix of ``op``: row 2 (i - 1) is L u - v = 0 and row
    2 (i - 1) + 1 is L v + p v + c u = f at interior node i, with u_i and
    v_i in the columns of the same numbers; rows 0 and 1 are left free for
    the fill-in of the factorization.  M is that of the unit interval:
    spacing 1/n, p L**2 and c L**4 for an interval of length L, so its
    operator is L**4 A (see :meth:`_Split._scale`).  On [0, 1] these are
    ``op``'s own entries.  D holds the powers of two that bring each
    column's largest entry, max(2 n**2, |c_i| L**4) for u_i and
    2 n**2 + p L**2 for v_i, into [1/2, 1).  Raises the "overflows float64"
    ValueError when an entry of M is not finite.
    """
    length = op.grid.interval.length
    l2 = length * length
    with np.errstate(over="ignore", invalid="ignore"):
        p = op.p * l2
        c = np.asarray(op.c.values, dtype=np.float64)[1:-1] * l2 * l2
    inv2 = (1.0 / op.grid.n) ** -2
    size = 2 * (op.grid.n - 1)
    top = np.empty(size)  # the largest entry of each column of M
    top[0::2] = np.maximum(np.abs(c), 2.0 * inv2)
    top[1::2] = 2.0 * inv2 + p
    _finite("the discrete operator", op.p, op.grid.interval, lambda: float(top.max()))
    scale = np.ldexp(1.0, -np.frexp(top)[1])
    # each entry of M times its column's scale, written row by row: scaling
    # ab in one product over its strided rows takes twice as long
    ab = np.zeros((7, size), order="F")
    ab[2, 2:] = -inv2 * scale[2:]       # u_{i+1} in u-rows, v_{i+1} in v-rows
    ab[3, 1::2] = -scale[1::2]          # v_i in the u-row of node i
    ab[4, 0::2] = 2.0 * inv2 * scale[0::2]
    ab[4, 1::2] = top[1::2] * scale[1::2]
    ab[5, 0::2] = c * scale[0::2]       # c_i u_i in v-rows
    ab[6, :-2] = -inv2 * scale[:-2]     # u_{i-1} in u-rows, v_{i-1} in v-rows
    return ab, scale


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


def _split_error(lapack, lu: np.ndarray, piv: np.ndarray) -> float:
    """The bound on max|y - y_exact| / max|y| for every transposed solve on these factors.

    With B = M D the factored matrix, ``gbtrs`` computes y with
    (B + F)^T y = D b and |F| <= gamma_13 |P L| |U|: at most 5 terms in each
    entry of the factorization and in each row of U^T, and 3 in each row of
    L^T (Higham 2002, Theorems 8.5 and 9.3).  So max|y - y_exact| =
    max|B^-T F^T y| <= ||B^-1||_1 ||F||_1 max|y|, with ||F||_1 from
    :func:`_lu_column_sums` and ||B^-1||_1 from LAPACK's condition estimate
    (``gbcon``).  ``gbcon`` returns 1 / (anorm * its estimate of
    ||B^-1||_1), so with anorm = 1 it returns the estimate's inverse and
    ||B||_1 is never needed.
    """
    sums = _lu_column_sums(lu)
    rcond, info = lapack.dgbcon(2, 2, lu, piv, 1.0, norm="1")
    if info != 0 or not rcond > 0.0:
        return np.inf
    return _GAMMA13 * float(np.max(sums)) / rcond


class _Split:
    """The split-system path of one operator (see the module docstring).

    ``lu``, ``piv`` and ``info`` are those of ``gbtrf`` on the M D of
    :func:`_split_band` (``info`` nonzero when M D is singular), and ``scale`` is D.
    """

    # the split system has no closed-form spectrum: a bound that missed names no mode
    note = ""

    def __init__(self, op: OperatorMatrix):
        ab, self.scale = _split_band(op)
        self.lu, self.piv, self.info = _lapack().dgbtrf(ab, 2, 2, overwrite_ab=1)
        self.grid = op.grid

    @cached_property
    def error_bound(self) -> float:
        """The forward-error bound of every solve by :meth:`_solve_transposed`.

        Each column y of a result meets max|y - y_exact| <= bound * max|y|;
        the bound is inf when M is singular.  It is computed at its first
        read (:func:`_split_error`) and kept, so solves whose caller never
        reads it skip the condition estimate.
        """
        return np.inf if self.info != 0 else _split_error(_lapack(), self.lu, self.piv)

    def _scale(self, x):
        """``x`` times L**2, in place for an array (on [0, 1] exactly ``x``).

        The split M has the operator L**4 A, so A^-1 b = L**2 (L**4 A)^-1 (L**2 b):
        loads and results each take one factor L**2, which keeps both in
        float64 wherever the result is.
        """
        x *= self.grid.interval.length * self.grid.interval.length
        return x

    def _solve_transposed(self, rhs: np.ndarray, start: int = 0) -> np.ndarray:
        """Solve (M D)^T y = rhs for the scaled split matrix M D, in float64.

        ``rhs`` (a vector or a matrix of columns) holds rows ``start`` ..
        2 (n - 1) - 1 of the right-hand side D b, interleaved as the columns
        of :func:`_split_band`, and is overwritten when it is Fortran-ordered;
        y solves M^T y = b.  :meth:`error_bound` bounds the error of the result.

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
        lu, piv = self.lu, self.piv
        if start:
            lu, piv = lu[:, start:], piv[start:] - start
        return _lapack().dgbtrs(lu, 2, 2, rhs, piv, trans=1, overwrite_b=1)[0]

    def _bound(self, top: float, scale: float) -> float:
        """The forward-error bound of split solves, relative to the largest entry of their result.

        ``top`` is max|y| over the rows the solves returned and ``scale`` the
        largest entry read from them, both before :meth:`_scale`.  Each
        row is within :meth:`error_bound` max|y| of exact, so the bound is
        that times ``top`` / ``scale``; it is inf when y is not finite.
        """
        error = self.error_bound
        valid = np.isfinite(error) and np.isfinite(top) and scale > 0.0
        return error * top / scale if valid else np.inf

    def vector(self, load: np.ndarray, bounded: bool) -> tuple[np.ndarray, float | None]:
        """A^-1 b on the interior nodes by one transposed split solve, and its forward-error bound.

        b is the interior ``load``, put into the u-rows times their scales.
        The bound, that of :meth:`_bound`, reads None when ``bounded`` is
        false, which skips the condition estimate.
        """
        loads = np.zeros(2 * (self.grid.n - 1))
        loads[0::2] = load * self.scale[0::2]
        y = self._solve_transposed(self._scale(loads))
        u = y[1::2]
        bound = self._bound(_max_abs(y), _max_abs(u)) if bounded else None
        return self._scale(u), bound

    def kernel(self) -> tuple[np.ndarray, float]:
        """The kernel from unit loads: column j solves A g = e_j / spacing, and its bound.

        G is the kernel of L**2 + p L + C itself, not of its rounded band.
        Only the lower triangle is solved, in blocks of ``_KERNEL_BLOCK``
        columns: the block from column j0 on takes one transposed solve on the
        trailing factors from row 2 j0 - 2, whose rows from 2 j0 on equal
        those of a full solve bit for bit.  Each block goes straight into the kernel, with
        its transpose in the rows above it and its diagonal block mirrored, so
        G equals G.T exactly.

        The bound, on max|G - G_exact| / max|G|, is read from the scaled LU
        factors and one condition estimate, and no residual of G is formed.
        Every block solve is a transposed solve with a Schur complement of
        M D, so the bound of the full solve covers it, with max|y| taken over
        the rows the block returns (the argument is in
        :meth:`_solve_transposed`).  The vector solves share this bound.
        """
        grid = self.grid
        m = grid.n - 1
        vals = np.zeros((m + 2, m + 2))  # rows and columns 0 and n stay zero
        inner = vals[1:-1, 1:-1]  # interior nodes numbered from 0
        top = 0.0  # max|y| over every row the solves return
        scale = 0.0  # max|G| over the solved lower triangle
        keep = np.tri(_KERNEL_BLOCK, dtype=bool)  # on and below the diagonal
        load = self._scale(1.0 / grid.spacing)
        load_scale = self.scale[0::2]  # D on the u-columns, node by node
        for j0 in range(0, m, _KERNEL_BLOCK):
            j1 = min(j0 + _KERNEL_BLOCK, m)
            width = j1 - j0
            # column j loads u-row 2 j; rows from 2 j0 on are exact from this start
            start = max(2 * j0 - 2, 0)
            loads = np.zeros((2 * m - start, width), order="F")
            loads[2 * j0 - start + 2 * np.arange(width), np.arange(width)] = load * load_scale[j0:j1]
            y = self._solve_transposed(loads, start)
            top = max(top, _max_abs(y))
            kernel = y[2 * j0 - start + 1 :: 2]  # the v-rows hold A^-1 e_j / spacing, rows j0 on
            block = kernel[:width]
            # the diagonal block keeps its lower triangle, mirrored above the diagonal
            inner[j0:j1, j0:j1] = np.where(keep[:width, :width], block, block.T)
            inner[j1:, j0:j1] = kernel[width:]
            inner[j0:j1, j1:] = kernel[width:].T
            scale = max(scale, _max_abs(inner[j0:, j0:j1]))
        # the bound per max|y| becomes one per max|G|; the u-rows hold (L + p) G
        return self._scale(vals), self._bound(top, scale)


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


def _checked(op: OperatorMatrix, bound: float, subject: str) -> float:
    """``bound`` when it is at most ``_KERNEL_RTOL``, else the ResonanceError that reports it.

    The one check of every forward-error bound, kernels and vectors on both
    paths; the path's ``note`` names the sine transform's nearest mode.
    """
    if not bound <= _KERNEL_RTOL:
        note = op._path.note
        raise _resonance_error(
            op, f"the {subject}'s forward-error bound {bound:.3e} exceeds {_KERNEL_RTOL:g}{note}; "
        )
    return bound


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
    """A^-1 rhs on nodes 0 .. n and its bound on max|u - u_exact| / max|u|, on ``op``'s path.

    Rows 0 and n of ``rhs`` are not read, and those of u are zero.  The load
    is solved scaled by a power of two to max|rhs| in [1/2, 1), which moves
    no bit of a solve that neither overflows nor underflows, and u is scaled
    back; a u beyond float64 is the "overflows float64" ValueError.  A zero
    ``rhs`` returns u = 0, bound 0.  A bound above ``_KERNEL_RTOL`` raises
    the ResonanceError of :func:`_checked`.  With ``bounded`` false the
    bound reads None; ResonanceError is then raised for a modal denominator
    within its rounding, and for a u beyond float64 whose x is not finite
    or whose bound, taken then, misses ``_KERNEL_RTOL`` (a breakdown).
    """
    inner = np.asarray(rhs, dtype=np.float64)[1:-1]
    top = _max_abs(inner)
    u = np.zeros(op.grid.n + 1)
    if top == 0.0:
        return u, 0.0
    exponent = math.frexp(top)[1]  # 0 for an inf or nan load, which is left as it is
    load = np.ldexp(inner, -exponent)
    x, bound = op._path.vector(load, bounded)
    if bound is not None:
        _checked(op, bound, "solve")
    with np.errstate(over="ignore"):
        u[1:-1] = np.ldexp(x, exponent)
    if np.isfinite(_max_abs(u)):
        return u, bound
    # without its bound a solve cannot tell a u beyond float64 from a
    # breakdown: a finite x is the former when the bound, taken now, holds
    if bound is None and not (
        np.isfinite(_max_abs(x)) and op._path.vector(load, True)[1] <= _KERNEL_RTOL
    ):
        raise _resonance_error(op, "the solve breaks down; ")
    raise _overflow("the solution", op.p, op.grid.interval)


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


def direct_solve(problem: ProblemSpec) -> SolutionField:
    """Solve the boundary value problem: the sine transform for constant c, else the split solve.

    Raises :class:`~beamsign.errors.ResonanceError`, naming the nearest
    -lambda_k (and for constant c the discrete mode k), when the solve's
    forward-error bound exceeds 1e-3 or the solve breaks down.
    """
    op = assemble(problem.p, problem.c)
    u, bound = _solve_vector(op, _rhs_vector(op, problem))
    return SolutionField(ScalarField(op.grid, u), bound, "direct", 0)


def superposition_solve(problem: ProblemSpec) -> SolutionField:
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
    return replace(direct_solve(problem), method="superposition")


@dataclass(eq=False)
class FixedPointRun:
    """A fixed-point solve plus its full iterate history."""

    solution: SolutionField
    iterates: list
    diffs: list
    contraction_ratio: float


def fixed_point_solve(
    problem: ProblemSpec,
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
    when T[p, d] is singular.  A load or iterate beyond float64 is
    ConvergenceError once a step ratio has reached 1 (the run diverges), and
    before that the "overflows float64" ValueError.  An ill-conditioned but
    nonsingular T[p, d] raises nothing itself: the bound from the solve with
    c answers for the result, or ConvergenceError ends the run.

    Only homogeneous end moments are supported (d1 = d2 = 0).  By default the
    matching amplified-load hypotheses are verified first and a ValueError is
    raised when they fail; pass ``check_hypotheses=False`` to iterate anyway.
    """
    grid = problem.grid
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
        from .principles import _Scan, _amp_negative, _amp_positive

        # the verdict's amplified-load evaluators; each names its rule in every record
        evaluate = _amp_positive if mode == "positive" else _amp_negative
        recs, _, hits = evaluate(_Scan(problem.c, problem.h), sd)
        if not hits:
            raise ValueError(
                f"hypotheses of the {recs[0].rule} rule do not hold for this problem; "
                "pass check_hypotheses=False to iterate anyway"
            )

    cv = np.asarray(problem.c.values, dtype=np.float64)
    if mode == "positive":
        frozen = np.minimum(cv, -sd.lambda2)
    else:
        frozen = np.maximum(cv, -sd.lambda3)
    op = assemble(problem.p, ScalarField(grid, frozen))
    correction = cv - frozen
    hv = np.asarray(problem.h.values, dtype=np.float64)
    static_rhs = not np.any(correction[1:-1])

    u = np.zeros(grid.n + 1)
    iterates: list[ScalarField] = []
    diffs: list[float] = []
    reference = None  # (u_c, its bound), solved at the first step below tol
    settled = False
    for _ in range(max_iter):
        with np.errstate(over="ignore"):
            load = hv - correction * u
        try:
            if not np.isfinite(_max_abs(load)):
                raise _overflow("the load", problem.p, grid.interval)
            x, bound = _solve_vector(op, load, bounded=static_rhs)
        except ValueError as exc:  # beyond float64: divergence once the steps grew
            ratios = [b / a for a, b in zip(diffs, diffs[1:]) if a > 0.0]
            if not ratios or max(ratios) < 1.0:
                raise
            raise ConvergenceError(
                f"fixed-point iteration diverges: step {len(diffs) + 1} leaves float64 "
                f"after a step ratio of {max(ratios):.3g}",
                last_ratio=ratios[-1],
            ) from exc
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
                reference = _solve_vector(assemble(problem.p, problem.c), hv)
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


def sign_certificate(u) -> SignCertificate:
    """Classify the sign of a solution, endpoint slopes included.

    With tol = 1e-7 * sup|u|, ``strongly_positive`` requires every interior
    sample above tol, an inward slope at a (u'(a) > tol) and an outward one
    at b (u'(b) < -tol); ``strongly_negative`` mirrors that.  So the zero
    field always fails.
    """
    fld = u.u if isinstance(u, SolutionField) else u
    vals = np.asarray(fld.values, dtype=np.float64)
    tol = 1e-7 * float(np.max(np.abs(vals)))
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


def _interior_band(op: OperatorMatrix) -> np.ndarray:
    """The rounded interior block of A in ``gbtrf`` storage, A[i, j] at [4 + i - j, j].

    Rows 0 and 1 are left free for the factorization's fill-in.  A's first
    and last rows carry the ghost-eliminated stencils of the end moments.
    """
    inv4, inv2 = op.grid.spacing**-4, op.grid.spacing**-2
    ab = np.zeros((7, op.grid.n - 1), order="F")
    ab[4] = 6.0 * inv4 + 2.0 * op.p * inv2 + np.asarray(op.c.values, dtype=np.float64)[1:-1]
    ab[4, 0] -= inv4
    ab[4, -1] -= inv4
    ab[3, 1:] = ab[5, :-1] = -4.0 * inv4 - op.p * inv2  # A[i, i + 1], A[i, i - 1]
    ab[2, 2:] = ab[6, :-2] = inv4  # A[i, i + 2], A[i, i - 2]
    return ab


def smallest_eigenvalue(op: OperatorMatrix) -> float:
    """Smallest eigenvalue of the rounded band's interior block by inverse power iteration.

    Each step solves w = A^-1 v for the unit vector v on the factors of the
    rounded band (``_interior_band``), built and factored per call.  Until
    the vector has settled the estimate is theta = 1 / (v . w), taken in
    float64.  Once theta's relative change drops to 1e-12, or stops
    shrinking after the third step, the estimate becomes the Rayleigh
    quotient of w / |w|, accumulated in extended precision because the
    matrix norm grows like spacing**-4 and float64 products would drown the
    update in rounding noise.  The iteration returns that quotient when its
    update drops below 1e-12 or stops shrinking, whichever comes first, and
    raises ConvergenceError when 500 steps do neither.
    """
    ab = _interior_band(op)
    lapack = _lapack()  # loaded here, without scipy.linalg
    lu, piv, info = lapack.dgbtrf(ab, 2, 2)  # on a copy: ab keeps the band
    if info != 0:
        raise _resonance_error(op)
    rng = np.random.default_rng(7)
    v = rng.standard_normal(op.grid.n + 1)[1:-1]  # the end components are zero
    v /= np.linalg.norm(v)
    band_ld = None  # the extended-precision band, once theta has settled
    lam = None
    prev_delta = np.inf
    for it in range(500):
        w = lapack.dgbtrs(lu, 2, 2, v, piv)[0]
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
            if delta <= 1e-12 * max(1.0, abs(new)) or (it >= 3 and delta >= prev_delta):
                if band_ld is not None:
                    return new  # settled, or at the rounding floor
                band_ld = ab[2:].astype(np.longdouble)
                new = _rayleigh_quotient(band_ld, w)
                delta = np.inf
            prev_delta = delta
        lam = new
        v = w
    raise ConvergenceError("inverse power iteration did not settle within 500 steps")


def _band_matvec(band: np.ndarray, u: np.ndarray) -> np.ndarray:
    # A @ u from the five diagonals of a (2, 2) band, A[i, j] at band[2 + i - j, j]
    out = band[2] * u
    out[:-1] += band[1, 1:] * u[1:]
    out[1:] += band[3, :-1] * u[:-1]
    out[:-2] += band[0, 2:] * u[2:]
    out[2:] += band[4, :-2] * u[:-2]
    return out


def _rayleigh_quotient(band_ld: np.ndarray, w: np.ndarray) -> float:
    # w . A w in extended precision for a unit vector w
    w_ld = w.astype(np.longdouble)
    return float(w_ld @ _band_matvec(band_ld, w_ld))
