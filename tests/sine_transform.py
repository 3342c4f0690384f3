"""References for the discrete operator, written independently of the package.

For constant c the interior block of the discrete operator is
A = L^2 + p L + c I, L the Dirichlet second-difference matrix with spacing h.
The DST-I diagonalises it: A = S diag(lambda_k) S * 2 / n with S[i, k] =
sin(i k pi / n) and lambda_k = mu_k^2 + p mu_k + c, mu_k = (4 / h^2)
sin^2(k pi / 2n).  The sums over k are DST-Is, taken as the FFT of the odd
extension, and :func:`mpmath_sine_transform_solve` takes them at 50 digits.
For variable c, :func:`mpmath_inverse` inverts L^2 + p L + diag(c) densely
at 50 digits, :func:`mpmath_band_solve` solves a (2, 2) band at 40 digits,
and :func:`mpmath_split_solve` solves L^2 + p L + diag(c) with it, in O(n),
through the split form v = L u.
"""

import numpy as np

# coefficients that vary on the interior of [0, 1], each with its p: one
# positive, one that crosses zero, and one past -lambda_1, where A is indefinite
VARIABLE_COEFFICIENTS = [
    (0.0, lambda t: 40.0 + 30.0 * np.sin(np.pi * t)),
    (5.0, lambda t: -60.0 + 40.0 * np.cos(2.0 * t)),
    (2.0, lambda t: -250.0 + 30.0 * np.sin(np.pi * t)),
]


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


def mpmath_sine_transform_solve(p: float, c: float, n: int, rhs: np.ndarray) -> np.ndarray:
    """A^-1 rhs for constant ``c`` on [0, 1], by the sine transform at 50 digits, rounded once.

    The spacing is the rounded 1 / n, as in :func:`mpmath_split_solve`;
    ``rhs`` and the result are on nodes 0 .. n with the ends zero.  O(n^2).
    """
    import mpmath

    with mpmath.workdps(50):
        inv2 = mpmath.mpf((1.0 / n) ** -2)
        sines = [mpmath.sin(j * mpmath.pi / n) for j in range(2 * n)]  # sin(j pi / n), j mod 2n
        b = [mpmath.mpf(float(x)) for x in rhs]
        modes = []
        for k in range(1, n):
            mu = 4 * inv2 * mpmath.sin(k * mpmath.pi / (2 * n)) ** 2
            weight = mpmath.fsum(b[i] * sines[i * k % (2 * n)] for i in range(1, n))
            modes.append(weight / (mu**2 + p * mu + c))
        u = np.zeros(n + 1)
        u[1:n] = [
            float(2 * mpmath.fsum(modes[k - 1] * sines[i * k % (2 * n)] for k in range(1, n)) / n)
            for i in range(1, n)
        ]
    return u


def mpmath_inverse(p: float, c: np.ndarray, h: float) -> np.ndarray:
    """A^-1 for A = L^2 + p L + diag(``c``) on the interior nodes, at 50 digits, rounded once.

    ``c`` holds the n - 1 interior values; slow, so only for small n.
    """
    import mpmath

    m = len(c)
    with mpmath.workdps(50):
        T = mpmath.matrix(m)
        for i in range(m):
            T[i, i] = 2 / mpmath.mpf(h) ** 2
            if i:
                T[i, i - 1] = T[i - 1, i] = -1 / mpmath.mpf(h) ** 2
        A = T * T + p * T
        for i in range(m):
            A[i, i] += mpmath.mpf(float(c[i]))
        inverse = A**-1
        return np.array([[float(inverse[i, j]) for j in range(m)] for i in range(m)])


def mpmath_band_solve(band: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """The interior solution of a (2, 2) band on nodes 0 .. n, at 40 digits, rounded once.

    ``band[2 + i - j, j]`` holds A[i, j], the storage of the assembled
    operator, whose entries, float64 or mpmath numbers, are taken exactly;
    ``rhs`` and the result
    are on nodes 0 .. n with the ends zero.  Gaussian elimination with
    partial pivoting over the band of rows 1 .. n - 1, in O(n).
    """
    import mpmath

    m = band.shape[1] - 2
    with mpmath.workdps(40):
        rows = [
            {j: mpmath.mpf(band[2 + i - j, j]) for j in range(max(1, i - 2), min(m, i + 2) + 1)}
            for i in range(1, m + 1)
        ]
        b = [mpmath.mpf(float(x)) for x in rhs[1 : m + 1]]
        for k in range(m):
            top = max(range(k, min(m, k + 3)), key=lambda i: abs(rows[i].get(k + 1, 0)))
            rows[k], rows[top] = rows[top], rows[k]
            b[k], b[top] = b[top], b[k]
            for i in range(k + 1, min(m, k + 3)):
                f = rows[i].pop(k + 1, 0) / rows[k][k + 1]
                for j, v in rows[k].items():
                    if j > k + 1:
                        rows[i][j] = rows[i].get(j, 0) - f * v
                b[i] -= f * b[k]
        x = [mpmath.mpf(0)] * m
        for k in reversed(range(m)):
            s = b[k] - mpmath.fsum(v * x[j - 1] for j, v in rows[k].items() if j > k + 1)
            x[k] = s / rows[k][k + 1]
        out = np.zeros(len(rhs))
        out[1 : m + 1] = [float(v) for v in x]
        return out


def mpmath_split_solve(p: float, c: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """A^-1 rhs for A = L^2 + p L + diag(c) on [0, 1], at 40 digits, rounded once.

    ``c`` and ``rhs`` hold nodes 0 .. n, and only their interior entries are
    read; the result is on nodes 0 .. n with the ends zero.  The system is
    written in the split form L u - v = 0, L v + p v + c u = rhs with the
    unknowns interleaved as (u_1, v_1, u_2, v_2, ...), a (2, 2) band whose
    entries (n^2, 2 n^2, 2 n^2 + p, c and -1) are all exact: 2 n^2 + p, which
    float64 may round, is formed in mpmath.  It is solved by
    :func:`mpmath_band_solve`.
    """
    import mpmath

    n = len(rhs) - 1
    size = 2 * (n - 1)
    inv2 = (1.0 / n) ** -2  # 1 / spacing^2, as the spacing of [0, 1] is rounded
    with mpmath.workdps(40):
        # exact while p and 2 n^2 lie within a factor 2^79 of each other, or p is 0
        v_diagonal = 2 * mpmath.mpf(inv2) + p
    # M[r, s] at band[2 + r - s, s + 1]: rows and columns 1 .. size, as mpmath_band_solve reads them
    band = np.zeros((5, size + 2), dtype=object)
    band[0, 3 : size + 1] = -inv2  # u_{i+1} in u-rows, v_{i+1} in v-rows
    band[1, 2 : size + 1 : 2] = -1.0  # -v_i in the u-row of node i
    band[2, 1 : size + 1 : 2] = 2.0 * inv2
    band[2, 2 : size + 1 : 2] = v_diagonal
    band[3, 1 : size + 1 : 2] = np.asarray(c, dtype=np.float64)[1:n]  # c_i u_i in v-rows
    band[4, 1 : size - 1] = -inv2  # u_{i-1} in u-rows, v_{i-1} in v-rows
    b = np.zeros(size + 2)
    b[2 : size + 1 : 2] = np.asarray(rhs, dtype=np.float64)[1:n]
    y = mpmath_band_solve(band, b)
    u = np.zeros(n + 1)
    u[1:n] = y[1 : size + 1 : 2]
    return u
