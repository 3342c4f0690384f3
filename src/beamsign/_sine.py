"""The sine-transform solve path: c constant on the interior nodes.

The interior block A = L**2 + p L + c I (L the Dirichlet second-difference
matrix) is diagonalised by the DST-I S when c is constant on the interior
nodes, whatever its end values, with eigenvalues beta_k + c
(:func:`_discrete_beta`).  So a vector solve is u = (2 / n) S diag(1 /
(beta_k + c)) S rhs, two FFTs of length 2n (:func:`_dst1`), and a kernel is
one cosine sum (:func:`_cosine_kernel`).  Neither factors a matrix or loads
LAPACK; ``numpy.fft`` loads at the first transform, not at import.  Both
come with a-priori forward-error bounds built from the same rounding terms:
the denominators' slack (:func:`_slack`), the FFT's error (:func:`_fft_error`)
and the modal weights' rounding (:func:`_modal_error`).

:class:`_Modes` is this path for one operator.  The module imports nothing
from ``solver`` or ``greens``: the solver checks the bounds it returns.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .fields import Grid, ScalarField
from .spectrum import _discrete_top, _finite

# the unit roundoff u and gamma_k = k u / (1 - k u) (Higham 2002, Lemma 3.1)
_U = 2.0**-53
_GAMMA2 = 2 * _U / (1.0 - 2 * _U)
_GAMMA3 = 3 * _U / (1.0 - 3 * _U)
_GAMMA4 = 4 * _U / (1.0 - 4 * _U)
_GAMMA36 = 36 * _U / (1.0 - 36 * _U)
# the smallest subnormal, a bound on the absolute error of a rounding that underflows
_TINY = 2.0**-1074
# mu_1 at least this keeps every mu_k^2 and beta_k normal, as the closed-form bounds assume
_MU_MIN = 2.0**-511


def _max_abs(a: np.ndarray) -> float:
    # max|a| without an |a| temporary; the methods skip np.max's dispatch
    return max(float(a.max()), -float(a.min()))


def _norm2(a: np.ndarray) -> float:
    # ||a||_2 scaled by max|a|, so the squares neither overflow nor underflow
    top = _max_abs(a)
    return top * float(np.linalg.norm(a / top)) if top > 0.0 else 0.0


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


def _slack(beta, c: float):
    """gamma_36 (beta_k + |c|), a bound on the rounding of a computed beta_k + c.

    mu_k is within gamma_15, beta_k = mu_k (mu_k + p) within gamma_32
    (p >= 0) and beta_k + c within gamma_33 (beta_k + |c|).  The continuous
    series of ``greens.greens_constant`` takes the same slack for lambda_k + m.
    """
    return _GAMMA36 * (beta + abs(c))


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
    :class:`_Modes` (y_k = 1 for a kernel).  As |d_k - d_k exact|
    <= e_k < |d_k|, each is within rho_k |w_k|, rho_k = (e_k / (|d_k| - e_k)
    + u) / (1 - u), or 2**-1074 where it underflows, of y_k / d_k exact; the
    FFT of length 2n that sums them adds :func:`_fft_error` of ||w||_2,
    which also covers a sine sum: half the FFT of an odd extension of
    2-norm sqrt(2) ||w||_2.
    """
    n = len(w) + 1
    rho = (slack / (np.abs(denom) - slack) + _U) / (1.0 - _U)
    return float(rho @ np.abs(w)) + n * _TINY + _fft_error(n, _norm2(w))


def _modal_path(p: float, grid: Grid, c: ScalarField) -> _Modes | None:
    """The sine-transform path of T[p, c] on ``grid``, or None where the split system solves.

    The DST-I diagonalises A when c is constant on the interior nodes (its
    end values never enter A).  A c that varies there, or mu_1 < 2**-511
    (intervals above about 2.5e77, where the closed-form bounds would meet
    underflow), is left to the split system.
    """
    inner = np.asarray(c.values, dtype=np.float64)[1:-1]
    if not np.all(inner == inner[0]):
        return None
    mu, beta = _discrete_beta(p, grid)
    if not mu[0] >= _MU_MIN:
        return None
    return _Modes(p, grid, float(inner[0]), beta)


class _Modes:
    """The sine-transform path of one operator: d_k = beta_k + c and their slack e_k.

    e_k = :func:`_slack` bounds the rounding of d_k.  ``resonant`` marks a
    d_k within its slack (e_k >= |d_k|): every vector and kernel then
    returns the bound inf before dividing by it, and :attr:`note` names the
    mode for the solver's ResonanceError.  Raises the "overflows float64"
    ValueError when beta_k + |c| leaves float64.
    """

    def __init__(self, p: float, grid: Grid, c: float, beta: np.ndarray):
        self.p, self.grid = p, grid
        # beta_k + |c|, and with it beta_k + c, stays finite
        _finite("the discrete kernel", p, grid.interval, lambda: float(beta[-1]) + abs(c))
        self.denom, self.slack = beta + c, _slack(beta, c)
        self.resonant = not np.all(np.abs(self.denom) > self.slack)

    @property
    def note(self) -> str:
        """The mode nearest its own rounding, for a message whose bound missed."""
        k = int(np.argmin(np.abs(self.denom) / self.slack))
        return f" (discrete mode k = {k + 1}: beta_k + c = {self.denom[k]:.3e})"

    def vector(self, load: np.ndarray, bounded: bool) -> tuple[np.ndarray | None, float | None]:
        """u = A^-1 b = (2 / n) S diag(1 / d_k) S b on the interior nodes, and its a-priori bound.

        b is the interior ``load`` and S the DST-I, one FFT of length 2n
        (:func:`_dst1`).  y = S b is within sigma_1 = _fft_error(n, ||b||_2)
        of exact in the 2-norm, so, by Cauchy-Schwarz and |d_k exact| >=
        |d_k| - e_k, the weights z = y / d take at most sigma_1 ||1 / (|d_k|
        - e_k)||_2 in the 1-norm; fl(y / d) and S z add :func:`_modal_error`,
        and the rounded factor 2 / n two roundings.  So max|u - u_exact| <=
        (2 / n) sigma + gamma_2 / (1 - gamma_2) max|u|, sigma the sum of the
        first two parts; the bound is that over max|u|.  With ``bounded``
        false the bound reads None; when resonant, u is None and the bound inf.
        """
        if self.resonant:
            return None, np.inf
        denom, slack = self.denom, self.slack
        n = self.grid.n
        z = _dst1(load) / denom
        u = _dst1(z) * (2.0 / n)
        if not bounded:
            return u, None
        top = _max_abs(u)
        spread = _norm2(1.0 / (np.abs(denom) - slack))
        sigma = _fft_error(n, _norm2(load)) * spread + _modal_error(z, denom, slack)
        error = 2.0 * sigma / n + _TINY
        bound = _GAMMA2 / (1.0 - _GAMMA2) + error / top if top > 0.0 else np.inf
        return u, bound

    def kernel(self) -> tuple[np.ndarray | None, float]:
        """G[i, j] = (S[|i - j|] - S[i + j]) / L with S[d] = sum_k cos(k d pi / n) / (beta_k + c).

        Here L is the interval length.  A = Q diag(beta_k + c) Q with Q[i, k] =
        sqrt(2 / n) sin(i k pi / n), so G = A^-1 / h is the sine series
        (2 / L) sum_k sin(k i pi / n) sin(k j pi / n) / (beta_k + c) that
        :func:`_cosine_kernel` sums, with c the interior value.

        The forward-error bound is a-priori, evaluated in float64: the weights
        w_k = fl(1 / d_k) and the FFT that sums them move every S[d] by at most
        sigma = :func:`_modal_error`, and the difference, the division by L
        and L = n h (1 + delta), |delta| <= u = 2**-53, for h = fl(L / n) are
        three relative roundings, so G computed is within gamma_3 / (1 - gamma_3)
        max|G| plus 2 sigma / (L (1 - u)) of G exact.  When resonant, G is
        None and the bound inf.
        """
        if self.resonant:
            return None, np.inf
        denom, slack = self.denom, self.slack
        grid = self.grid
        n = grid.n
        L = grid.interval.length
        # every weight, and so every sum of them, stays finite
        _finite("the discrete kernel", self.p, grid.interval, lambda: 4.0 * n / float(np.min(np.abs(denom))))
        folded = np.zeros(2 * n)
        w = folded[1:n]
        np.divide(1.0, denom, out=w)
        vals = _cosine_kernel(folded, L)
        sigma = _modal_error(w, denom, slack)
        top = _max_abs(vals)
        error = 2.0 * sigma / (L * (1.0 - _U)) + _TINY
        bound = _GAMMA3 / (1.0 - _GAMMA3) + error / top if top > 0.0 else np.inf
        return vals, bound
