import numpy as np
import pytest

from beamsign import Grid, Interval, ProblemSpec, ScalarField, direct_solve, sup_norm
from beamsign.errors import ResonanceError
from beamsign.greens import (
    GreensMatrix,
    char_roots,
    greens_constant,
    greens_discrete,
    sign_scan,
    y_boundary,
)
from beamsign.solver import assemble, smallest_eigenvalue
from beamsign.spectrum import lambda_k

UNIT = Interval(0.0, 1.0)


def test_char_roots_examples():
    assert all(r == 0 for r in char_roots(0.0, 0.0))
    roots = sorted(char_roots(5.0, 4.0), key=lambda z: z.real)
    assert np.allclose(roots, [-2.0, -1.0, 1.0, 2.0], atol=1e-12)
    roots = char_roots(0.0, -4.0)
    reals = sorted(r.real for r in roots if abs(r.imag) < 1e-12)
    imags = sorted(r.imag for r in roots if abs(r.imag) >= 1e-12)
    assert np.allclose(reals, [-np.sqrt(2.0), np.sqrt(2.0)])
    assert np.allclose(imags, [-np.sqrt(2.0), np.sqrt(2.0)])


def test_char_roots_vieta_identities():
    rng = np.random.default_rng(3)
    for _ in range(50):
        p = float(rng.uniform(0.0, 10.0))
        m = float(rng.uniform(-1e3, 1e3))
        r = char_roots(p, m)
        e1 = sum(r)
        e2 = sum(r[i] * r[j] for i in range(4) for j in range(i + 1, 4))
        e4 = r[0] * r[1] * r[2] * r[3]
        scale = 1.0 + abs(p) + abs(m)
        assert abs(e1) < 1e-10 * scale
        assert abs(e2 + p) < 1e-10 * scale
        assert abs(e4 - m) < 1e-10 * scale


def test_greens_constant_center_value_and_symmetry():
    grid = Grid(UNIT, 200)
    G = greens_constant(0.0, 0.0, grid, terms=2000)
    vals = np.asarray(G.values, dtype=np.float64)
    assert abs(vals[100, 100] - 1.0 / 48.0) < 1e-6
    # node 60 is t = 0.3, node 140 is t = 0.7
    assert abs(vals[60, 140] - vals[140, 60]) < 1e-12
    assert np.all(vals[0, :] == 0.0)
    assert np.all(vals[:, -1] == 0.0)
    assert 0.0 < G.tail_bound < 1e-9


def test_greens_constant_validation():
    grid = Grid(UNIT, 64)
    with pytest.raises(ValueError):
        greens_constant(0.0, 0.0, grid, terms=10)
    with pytest.raises(ResonanceError) as info:
        greens_constant(0.0, -np.pi**4, grid)
    assert info.value.index == 1
    assert abs(info.value.nearest_eigenvalue + np.pi**4) < 1e-6
    # truncation ends while the modal denominators are still negative
    with pytest.raises(ValueError):
        greens_constant(0.0, -(lambda_k(0.0, UNIT, 60) + 0.5), grid, terms=50)


def test_greens_discrete_matches_oracle_and_series():
    grid = Grid(UNIT, 200)
    c0 = ScalarField.constant(grid, 0.0)
    G = greens_discrete(0.0, c0, grid)
    vals = np.asarray(G.values, dtype=np.float64)
    assert abs(vals[100, 100] - 1.0 / 48.0) < 2e-4
    assert np.max(np.abs(vals - vals.T)) < 1e-8 * np.max(np.abs(vals))
    errs = []
    for n in (100, 200):
        g = Grid(UNIT, n)
        c = ScalarField.constant(g, 0.0)
        dv = np.asarray(greens_discrete(0.0, c, g).values, dtype=np.float64)
        sv = np.asarray(greens_constant(0.0, 0.0, g, terms=2000).values, dtype=np.float64)
        errs.append(np.max(np.abs(dv - sv)))
    assert errs[1] < 1e-5
    assert 3.0 < errs[0] / errs[1] < 5.0


def test_greens_discrete_resonance():
    # the discrete operator is singular at its own smallest eigenvalue, which
    # sits a truncation error away from pi^4
    grid = Grid(UNIT, 100)
    zero = ScalarField.constant(grid, 0.0)
    lam1 = smallest_eigenvalue(assemble(0.0, zero, grid))
    with pytest.raises(ResonanceError) as info:
        greens_discrete(0.0, ScalarField.constant(grid, -lam1), grid)
    assert info.value.index == 1


def _sine_transform_kernel(p: float, c: float, n: int, cols) -> np.ndarray:
    # columns of the exact kernel of L^2 + p L + c on [0, 1], L the Dirichlet
    # second-difference matrix: G = S diag(1 / lambda_k) S * 2 / (n h), S[i, k] =
    # sin(i k pi / n), lambda_k = mu_k^2 + p mu_k + c, mu_k = (4 / h^2) sin^2(k pi / 2n);
    # the sum over k is a DST-I, taken as the FFT of the odd extension
    h = 1.0 / n
    k = np.arange(1, n)
    mu = (4.0 / h**2) * np.sin(k * np.pi / (2 * n)) ** 2
    lam = mu**2 + p * mu + c
    w = np.sin(np.outer(k, cols) * np.pi / n) / lam[:, None]
    ext = np.zeros((2 * n, len(cols)))
    ext[1:n] = w
    ext[n + 1:] = -w[::-1]
    g = -0.5 * np.fft.fft(ext, axis=0).imag[: n + 1]
    g[[0, n]] = 0.0
    return g * (2.0 / (n * h))


def test_greens_discrete_matches_the_sine_transform_kernel():
    # the kernel solves the operator itself: a kernel of its rounded band
    # (6/h^4 + 2p/h^2 + c stored in float64) misses these references by up to 1e-5 of max|G|
    for n in (200, 400, 1000, 2000):
        grid = Grid(UNIT, n)
        cols = np.arange(1, n) if n <= 1000 else np.array([1, 300, 1000, 1001, 1999])
        for p in (0.0, 5.0, 50.0):
            for cv in (0.0, -80.0, 3000.0):
                G = greens_discrete(p, ScalarField.constant(grid, cv), grid)
                assert G.values.dtype == np.float64
                ref = _sine_transform_kernel(p, cv, n, cols)
                err = np.max(np.abs(G.values[:, cols] - ref))
                assert err <= 1e-10 * np.max(np.abs(ref))
                assert 0.0 < G.forward_error_bound <= 1e-3


def test_greens_discrete_is_within_its_own_bound_near_resonance():
    # c = -97 sits 0.4 from -lambda_1: there the error is largest and the bound
    # still holds (2.0e-11 against 6.1e-6 at n = 400)
    for n in (400, 1000):
        grid = Grid(UNIT, n)
        G = greens_discrete(0.0, ScalarField.constant(grid, -97.0), grid)
        cols = np.arange(1, n)
        ref = _sine_transform_kernel(0.0, -97.0, n, cols)
        err = np.max(np.abs(G.values[:, cols] - ref)) / np.max(np.abs(ref))
        assert err <= G.forward_error_bound <= 1e-3


@pytest.mark.xfail(
    raises=ResonanceError,
    strict=True,
    reason="false ResonanceError: at n = 200 and c = 1e8, far from every -lambda_k, the "
    "normwise forward-error bound reads 1.8e-3 > 1e-3, while the float64 kernel matches "
    "the DST-I closed form to 3.6e-15 of max|G|; a column-scaled bound is the open fix",
)
def test_greens_discrete_accepts_a_large_coefficient():
    n = 200
    grid = Grid(UNIT, n)
    G = greens_discrete(0.0, ScalarField.constant(grid, 1e8), grid)
    cols = np.arange(1, n)
    ref = _sine_transform_kernel(0.0, 1e8, n, cols)
    assert np.max(np.abs(G.values[:, cols] - ref)) <= 1e-10 * np.max(np.abs(ref))


def _record_operators(monkeypatch) -> list:
    # the operators greens_discrete assembles, with the factors it cached
    from beamsign import greens

    ops = []
    build = greens.assemble

    def recording(*args):
        ops.append(build(*args))
        return ops[-1]

    monkeypatch.setattr(greens, "assemble", recording)
    return ops


@pytest.mark.parametrize("n", [8, 10, 96, 98, 100, 200, 1000])
def test_greens_discrete_mirrors_the_lower_triangle_of_one_full_solve(monkeypatch, n):
    # every column block is solved on the trailing split factors only; the
    # rows it keeps must be those of one full transposed solve on the same
    # factors bit for bit, and the upper triangle their exact mirror
    ops = _record_operators(monkeypatch)
    grid = Grid(UNIT, n)
    t = grid.nodes
    m = n - 1
    cases = [
        (0.0, np.zeros(n + 1)),
        (5.0, np.full(n + 1, -97.0)),
        (2.0, -250.0 + 30.0 * np.sin(np.pi * t)),  # past -lambda_1: M pivots
        (50.0, 3000.0 * np.cos(3.0 * t)),
    ]
    pivoted = False
    for p, cv in cases:
        G = greens_discrete(p, ScalarField(grid, cv), grid)
        op = ops[-1]
        loads = np.zeros((2 * m, m), order="F")
        loads[np.arange(0, 2 * m, 2), np.arange(m)] = 1.0 / grid.spacing
        y, error = op._solve_split_transposed(loads)
        inner = G.values[1:-1, 1:-1]
        lower = np.tril_indices(m)
        assert np.array_equal(inner[lower], y[1::2][lower])
        assert np.array_equal(G.values, G.values.T)
        # the full solve's bound for this kernel: the rows the blocks return
        # hold no value larger than max|y| of the full solve
        assert G.forward_error_bound <= error * np.max(np.abs(y)) / np.max(np.abs(inner))
        pivoted |= bool(np.any(op._split[1] != np.arange(2 * m)))
    assert pivoted


def test_greens_discrete_resonance_of_the_split_operator():
    # c on the split operator's own first eigenvalue -(mu_1^2 + p mu_1)
    for n in (100, 400, 2000):
        grid = Grid(UNIT, n)
        h = grid.spacing
        mu1 = (4.0 / h**2) * np.sin(np.pi / (2 * n)) ** 2
        for p in (0.0, 5.0):
            c = ScalarField.constant(grid, -(mu1**2 + p * mu1))
            with pytest.raises(ResonanceError, match="forward-error bound") as info:
                greens_discrete(p, c, grid)
            assert info.value.index == 1
            bound = float(info.value.args[0].split("forward-error bound ")[1].split()[0])
            assert bound > 1e-3


def test_greens_discrete_reproduces_direct_solutions():
    rng = np.random.default_rng(5)
    grid = Grid(UNIT, 200)
    c = ScalarField(grid, 100.0 * np.sin(np.pi * grid.nodes))
    G = np.asarray(greens_discrete(2.0, c, grid).values, dtype=np.float64)
    for _ in range(5):
        hv = np.zeros(grid.n + 1)
        for k, a in enumerate(rng.uniform(-2.0, 2.0, 6), start=1):
            hv += a * np.sin(k * np.pi * grid.nodes)
        h = ScalarField(grid, hv)
        sol = direct_solve(ProblemSpec(UNIT, 2.0, c, h))
        u = G[:, 1:-1] @ (grid.spacing * hv[1:-1])
        gap = np.max(np.abs(u - np.asarray(sol.u.values, dtype=np.float64)))
        assert gap < 1e-8 * (1.0 + sup_norm(sol.u))


def test_y_boundary_oracles():
    grid = Grid(UNIT, 400)
    c0 = ScalarField.constant(grid, 0.0)
    ya = np.asarray(y_boundary(0.0, c0, grid, "a").values, dtype=np.float64)
    yb = np.asarray(y_boundary(0.0, c0, grid, "b").values, dtype=np.float64)
    t = grid.nodes
    exact = t**2 / 2.0 - t**3 / 6.0 - t / 3.0
    assert np.max(np.abs(ya - exact)) < 1e-6
    assert abs(ya[200] + 1.0 / 16.0) < 1e-6
    assert abs(yb[200] + 1.0 / 16.0) < 1e-6
    assert np.max(np.abs(yb - ya[::-1])) < 1e-9
    with pytest.raises(ValueError):
        y_boundary(0.0, c0, grid, "c")


def test_y_boundary_negative_in_inverse_positive_range():
    grid = Grid(UNIT, 200)
    c = ScalarField.constant(grid, 500.0)
    ya = np.asarray(y_boundary(0.0, c, grid, "a").values, dtype=np.float64)
    yb = np.asarray(y_boundary(0.0, c, grid, "b").values, dtype=np.float64)
    assert np.all(ya[1:-1] < 0.0)
    assert np.all(yb[1:-1] < 0.0)


def test_sign_scan_conclusions():
    grid = Grid(UNIT, 200)
    pos = sign_scan(greens_discrete(0.0, ScalarField.constant(grid, 0.0), grid))
    assert pos.interior_sign == "positive"
    assert pos.conclusion == "strongly_inverse_positive"
    assert pos.boundary_slope_a > 0.0
    assert pos.boundary_slope_b < 0.0
    neg = sign_scan(greens_discrete(0.0, ScalarField.constant(grid, -200.0), grid))
    assert neg.interior_sign == "negative"
    assert neg.conclusion == "strongly_inverse_negative"
    zero = sign_scan(GreensMatrix(grid, np.zeros((grid.n + 1, grid.n + 1))))
    assert zero.interior_sign == "mixed"
    assert zero.conclusion == "inconclusive"
    with pytest.raises(ValueError):
        sign_scan(greens_discrete(0.0, ScalarField.constant(grid, 0.0), grid), tol=-1.0)


def test_inverse_positive_scan_implies_nonpositive_moment_responses():
    grid = Grid(UNIT, 128)
    samples = [
        ScalarField.constant(grid, 0.0),
        ScalarField.constant(grid, 500.0),
        ScalarField.constant(grid, 900.0),
        ScalarField(grid, 400.0 * np.sin(np.pi * grid.nodes) ** 2),
    ]
    for c in samples:
        report = sign_scan(greens_discrete(0.0, c, grid))
        assert report.conclusion == "strongly_inverse_positive"
        ya = np.asarray(y_boundary(0.0, c, grid, "a").values, dtype=np.float64)
        yb = np.asarray(y_boundary(0.0, c, grid, "b").values, dtype=np.float64)
        assert np.all(ya[1:-1] < 0.0)
        assert np.all(yb[1:-1] < 0.0)


def test_greens_matrix_shape_validation():
    grid = Grid(UNIT, 8)
    with pytest.raises(ValueError):
        GreensMatrix(grid, np.zeros((4, 4)))


def test_greens_constant_matches_the_explicit_double_sum():
    # the FFT summation against the plain sum over modes of sin * sin / (lambda_k + m)
    interval = Interval(0.5, 2.0)
    L = interval.length
    grid = Grid(interval, 100)
    x = (grid.nodes - interval.a) * (np.pi / L)
    terms = 2000
    k = np.arange(1, terms + 1, dtype=np.float64)
    w = k * np.pi / L
    for p in (0.0, 50.0):
        lam1 = lambda_k(p, interval, 1)
        lam2 = lambda_k(p, interval, 2)
        for m in (-0.5 * (lam1 + lam2), -0.5 * lam1, 3.0 * lam1):
            G = np.asarray(greens_constant(p, m, grid, terms=terms).values)
            assert np.array_equal(G, G.T)
            assert np.all(G[[0, -1], :] == 0.0)
            phi = np.sin(np.outer(x, k))
            ref = (phi * (2.0 / (L * (w**4 + p * w**2 + m)))) @ phi.T
            ref[[0, -1], :] = 0.0
            ref[:, [0, -1]] = 0.0
            assert np.max(np.abs(G - ref)) <= 1e-13 * np.max(np.abs(ref))
