"""Closed-form references for constant c, written independently of the package.

For constant c the interior block of the discrete operator is
A = L^2 + p L + c I, L the Dirichlet second-difference matrix with spacing h.
The DST-I diagonalises it: A = S diag(lambda_k) S * 2 / n with S[i, k] =
sin(i k pi / n) and lambda_k = mu_k^2 + p mu_k + c, mu_k = (4 / h^2)
sin^2(k pi / 2n).  The sums over k are DST-Is, taken as the FFT of the odd
extension.
"""

import numpy as np


def dst1(x: np.ndarray) -> np.ndarray:
    """sum_j x[j - 1] sin(j k pi / n), k = 1 .. n - 1, along axis 0 (n - 1 rows)."""
    n = x.shape[0] + 1
    ext = np.zeros((2 * n,) + x.shape[1:])
    ext[1:n] = x
    ext[n + 1 :] = -x[::-1]
    return -0.5 * np.fft.fft(ext, axis=0).imag[1:n]


def modal_denominators(p: float, c: float, n: int, h: float) -> np.ndarray:
    """lambda_k = mu_k^2 + p mu_k + c, k = 1 .. n - 1, in float64."""
    k = np.arange(1, n)
    mu = (4.0 / h**2) * np.sin(k * np.pi / (2 * n)) ** 2
    return mu**2 + p * mu + c


def mpmath_denominators(p: float, c: float, n: int, h: float) -> np.ndarray:
    """lambda_k as above, evaluated in mpmath at 50 digits and rounded once to float64."""
    import mpmath

    with mpmath.workdps(50):
        out = []
        for k in range(1, n):
            mu = 4 / mpmath.mpf(h) ** 2 * mpmath.sin(k * mpmath.pi / (2 * n)) ** 2
            out.append(float(mu**2 + p * mu + mpmath.mpf(c)))
    return np.array(out)


def sine_transform_kernel(p: float, c: float, n: int, cols, denominators=None) -> np.ndarray:
    """Columns ``cols`` (rows 0 .. n) of the exact kernel A^-1 / h on [0, 1], h = 1 / n."""
    h = 1.0 / n
    lam = modal_denominators(p, c, n, h) if denominators is None else denominators
    k = np.arange(1, n)
    w = np.sin(np.outer(k, cols) * np.pi / n) / lam[:, None]
    g = np.zeros((n + 1, len(cols)))
    g[1:n] = dst1(w)
    return g * (2.0 / (n * h))


def sine_transform_solve(p: float, c: float, n: int, h: float, rhs: np.ndarray) -> np.ndarray:
    """A^-1 rhs for the interior block, ``rhs`` and the result on nodes 0 .. n (ends zero)."""
    u = np.zeros(n + 1)
    u[1:n] = dst1(dst1(np.asarray(rhs, dtype=np.float64)[1:n]) / modal_denominators(p, c, n, h))
    return u * (2.0 / n)
