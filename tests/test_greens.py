from unittest import mock

import numpy as np
import pytest

from beamsign import Grid, Interval, ProblemSpec, ScalarField, direct_solve, solver, sup_norm
from beamsign._sine import _discrete_beta
from beamsign.errors import ResonanceError
from beamsign.greens import (
    GreensMatrix,
    greens_constant,
    greens_discrete,
    sign_scan,
    y_boundary,
)
from beamsign.solver import assemble, smallest_eigenvalue
from beamsign.spectrum import lambda_k
from sine_transform import (
    VARIABLE_COEFFICIENTS,
    mpmath_denominators,
    mpmath_inverse,
    modal_denominators,
    sine_transform_kernel,
)

UNIT = Interval(0.0, 1.0)


def _split(p, c, grid):
    # greens_discrete on the split path, whatever c is; the closed-form reference
    # checks below run on it and on greens_discrete, which takes the closed form
    # for constant c
    with mock.patch.object(solver, "_modal_path", return_value=None):
        return greens_discrete(p, c, grid)


def test_greens_constant_center_value_and_symmetry():
    grid = Grid(UNIT, 200)
    G = greens_constant(0.0, 0.0, grid)
    vals = np.asarray(G.values, dtype=np.float64)
    assert abs(vals[100, 100] - 1.0 / 48.0) < 1e-6
    # node 60 is t = 0.3, node 140 is t = 0.7
    assert abs(vals[60, 140] - vals[140, 60]) < 1e-12
    assert np.all(vals[0, :] == 0.0)
    assert np.all(vals[:, -1] == 0.0)
    assert 0.0 < G.tail_bound < 1e-9


def test_greens_constant_validation():
    grid = Grid(UNIT, 64)
    with pytest.raises(ResonanceError) as info:
        greens_constant(0.0, -np.pi**4, grid)
    assert info.value.index == 1
    assert abs(info.value.nearest_eigenvalue + np.pi**4) < 1e-6
    # the 2000 modes end while the modal denominators are still negative
    with pytest.raises(ValueError, match=r"lambda_2000 \+ m"):
        greens_constant(0.0, -lambda_k(0.0, UNIT, 2001), grid)


def test_greens_constant_resonance_is_relative():
    # on [0, 1000] lambda_1 = 9.7e-11, which an absolute test took for
    # resonance at m = 0; with p = 0 and m = 0 both kernels scale by L^3, so
    # the series meets the discrete kernel as closely as on [0, 1]
    errors = []
    for length in (1.0, 1000.0):
        grid = Grid(Interval(0.0, length), 100)
        series = greens_constant(0.0, 0.0, grid).values / length**3
        discrete = greens_discrete(0.0, ScalarField.constant(grid, 0.0), grid).values / length**3
        errors.append(np.max(np.abs(series - discrete)))
    assert errors[1] == pytest.approx(errors[0], rel=1e-9)
    assert errors[0] < 1e-5


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
        sv = np.asarray(greens_constant(0.0, 0.0, g).values, dtype=np.float64)
        errs.append(np.max(np.abs(dv - sv)))
    assert errs[1] < 1e-5
    assert 3.0 < errs[0] / errs[1] < 5.0


def test_greens_discrete_resonance():
    # the discrete operator is singular at its own smallest eigenvalue, which
    # sits a truncation error away from pi^4; the split path cannot tell the
    # 3e-8 left between this c and the exact operator's from singularity
    grid = Grid(UNIT, 100)
    zero = ScalarField.constant(grid, 0.0)
    lam1 = smallest_eigenvalue(assemble(0.0, zero, grid))
    with pytest.raises(ResonanceError) as info:
        _split(0.0, ScalarField.constant(grid, -lam1), grid)
    assert info.value.index == 1


def test_the_closed_form_resolves_the_kernel_the_split_path_rejects():
    # the same c as above: the closed form knows beta_1 + c to about 1e-12 and
    # returns the kernel, with a bound near 3e-5, against a reference whose
    # denominators come from mpmath (in float64, beta_1 + c would lose every digit)
    pytest.importorskip("mpmath")
    n = 100
    grid = Grid(UNIT, n)
    lam1 = smallest_eigenvalue(assemble(0.0, ScalarField.constant(grid, 0.0), grid))
    G = greens_discrete(0.0, ScalarField.constant(grid, -lam1), grid)
    cols = np.arange(1, n)
    ref = sine_transform_kernel(0.0, -lam1, n, cols, mpmath_denominators(0.0, -lam1, n, grid.spacing))
    err = np.max(np.abs(G.values[:, cols] - ref)) / np.max(np.abs(ref))
    assert err <= G.forward_error_bound <= 1e-4


def _check_sine_transform_kernel(build):
    # the kernel solves the operator itself: a kernel of its rounded band
    # (6/h^4 + 2p/h^2 + c stored in float64) misses these references by up to 1e-5 of max|G|
    for n in (200, 400, 1000, 2000):
        grid = Grid(UNIT, n)
        cols = np.arange(1, n) if n <= 1000 else np.array([1, 300, 1000, 1001, 1999])
        for p in (0.0, 5.0, 50.0):
            for cv in (0.0, -80.0, 3000.0):
                G = build(p, ScalarField.constant(grid, cv), grid)
                assert G.values.dtype == np.float64
                ref = sine_transform_kernel(p, cv, n, cols)
                err = np.max(np.abs(G.values[:, cols] - ref))
                assert err <= 1e-10 * np.max(np.abs(ref))
                assert 0.0 < G.forward_error_bound <= 1e-3


def test_greens_discrete_matches_the_sine_transform_kernel():
    _check_sine_transform_kernel(greens_discrete)


def test_the_split_kernel_matches_the_sine_transform_kernel():
    _check_sine_transform_kernel(_split)


def _check_bound_near_resonance(build):
    # c = -97 sits 0.4 from -lambda_1: there the error is largest and the bound
    # still holds (2.0e-11 against 6.1e-6 at n = 400 on the split path)
    for n in (400, 1000):
        grid = Grid(UNIT, n)
        G = build(0.0, ScalarField.constant(grid, -97.0), grid)
        cols = np.arange(1, n)
        ref = sine_transform_kernel(0.0, -97.0, n, cols)
        err = np.max(np.abs(G.values[:, cols] - ref)) / np.max(np.abs(ref))
        assert err <= G.forward_error_bound <= 1e-3


def test_greens_discrete_is_within_its_own_bound_near_resonance():
    _check_bound_near_resonance(greens_discrete)


def test_the_split_kernel_is_within_its_own_bound_near_resonance():
    _check_bound_near_resonance(_split)


def _check_large_coefficient(build):
    # far from every -lambda_k the split path's normwise bound missed 1e-3 here
    # (1.8e-3 at n = 200 and c = 1e8), while the kernel matches the closed form
    # to 3.6e-15; the column-equilibrated bound is below 1e-4 and still holds
    for n in (100, 200, 400):
        grid = Grid(UNIT, n)
        cols = np.arange(1, n)
        for cv in (1e8, 1e9):
            G = build(0.0, ScalarField.constant(grid, cv), grid)
            ref = sine_transform_kernel(0.0, cv, n, cols)
            err = np.max(np.abs(G.values[:, cols] - ref)) / np.max(np.abs(ref))
            assert err <= 1e-10
            assert err <= G.forward_error_bound <= 1e-4


def test_greens_discrete_accepts_a_large_coefficient():
    _check_large_coefficient(greens_discrete)


def test_the_split_kernel_accepts_a_large_coefficient():
    _check_large_coefficient(_split)


def test_the_scaled_factors_bound_coefficients_that_dwarf_the_stencil():
    # c L^4 far above 2 n^2 = 8e4: the unscaled factors' bound was 4.4e-4 at
    # c = 1e8 t on [0, 1] and 1.4e265 per max|y| on [0, 1e78], c = 1e-110 t
    # (c L^4 up to 1e280), where a second, equilibrated estimate gave 4.6e-5;
    # the one estimate on the scaled factors gives 1.2e-6 and 6.2e-5
    for interval, c_of, most in (
        (UNIT, lambda t: 1e8 * t, 1e-5),
        (Interval(0.0, 1e78), lambda t: 1e-110 * t, 1e-4),
    ):
        grid = Grid(interval, 200)
        G = greens_discrete(0.0, ScalarField(grid, c_of(grid.nodes)), grid)
        assert 0.0 < G.forward_error_bound <= most


def test_each_factorization_takes_one_condition_estimate(monkeypatch):
    # one condition estimate per factorization, on the column-scaled factors,
    # at c = 1e8 as on the common path: no second estimate is taken
    lapack = solver._lapack()
    estimate = lapack.dgbcon
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return estimate(*args, **kwargs)

    monkeypatch.setattr(lapack, "dgbcon", counting)
    grid = Grid(UNIT, 200)
    for cv in (0.0, -97.0, 3000.0, 1e8):
        calls.clear()
        _split(5.0, ScalarField.constant(grid, cv), grid)
        assert len(calls) == 1


@pytest.mark.parametrize("n", [8, 10, 96, 98, 100, 200, 1000])
def test_greens_discrete_mirrors_the_lower_triangle_of_one_full_solve(n):
    # every column block is solved on the trailing split factors only; the
    # rows it keeps must be those of one full transposed solve on the same
    # factors bit for bit, and the upper triangle their exact mirror; the
    # factors are those of M D, so each load takes its column's scale
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
        split = solver._Split(assemble(p, ScalarField(grid, cv), grid))  # constant c too
        values, bound = split.kernel()
        loads = np.zeros((2 * m, m), order="F")
        loads[np.arange(0, 2 * m, 2), np.arange(m)] = (1.0 / grid.spacing) * split.scale[0::2]
        y = split._solve_transposed(loads)
        error = split.error_bound
        inner = values[1:-1, 1:-1]
        lower = np.tril_indices(m)
        assert np.array_equal(inner[lower], y[1::2][lower])
        assert np.array_equal(values, values.T)
        # the full solve's bound for this kernel: the rows the blocks return
        # hold no value larger than max|y| of the full solve
        assert bound <= error * np.max(np.abs(y)) / np.max(np.abs(inner))
        pivoted |= bool(np.any(split.piv != np.arange(2 * m)))
    assert pivoted


def _check_split_operator_resonance(build):
    # c on the split operator's own first eigenvalue -(mu_1^2 + p mu_1)
    for n in (100, 400, 2000):
        grid = Grid(UNIT, n)
        h = grid.spacing
        mu1 = (4.0 / h**2) * np.sin(np.pi / (2 * n)) ** 2
        for p in (0.0, 5.0):
            c = ScalarField.constant(grid, -(mu1**2 + p * mu1))
            with pytest.raises(ResonanceError, match="forward-error bound") as info:
                build(p, c, grid)
            assert info.value.index == 1
            bound = float(info.value.args[0].split("forward-error bound ")[1].split()[0])
            assert bound > 1e-3


def test_greens_discrete_resonance_of_the_split_operator():
    _check_split_operator_resonance(greens_discrete)


def test_the_split_kernel_resonance_of_the_split_operator():
    _check_split_operator_resonance(_split)


def test_the_closed_form_is_exactly_symmetric_and_within_its_bound():
    for n in (200, 400, 1000, 2000):
        grid = Grid(UNIT, n)
        cols = np.arange(1, n) if n <= 1000 else np.array([1, 300, 1000, 1001, 1999])
        for p in (0.0, 5.0, 50.0):
            for cv in (0.0, -80.0, -97.0, 3000.0, 1e8):
                G = greens_discrete(p, ScalarField.constant(grid, cv), grid)
                assert np.array_equal(G.values, G.values.T)
                assert not np.any(G.values[[0, -1], :])
                ref = sine_transform_kernel(p, cv, n, cols)
                err = np.max(np.abs(G.values[:, cols] - ref)) / np.max(np.abs(ref))
                assert err <= G.forward_error_bound <= 1e-3


@pytest.mark.parametrize("n", [8, 16, 32])
def test_the_closed_form_matches_an_mpmath_inverse_next_to_resonance(n):
    # c within 1e-6 of -beta_1, on either side: the kernel is then within its
    # bound of A^-1 / h, with A = L^2 + p L + c I inverted at 50 digits
    pytest.importorskip("mpmath")
    grid = Grid(UNIT, n)
    h = grid.spacing
    for p in (0.0, 5.0):
        beta1 = modal_denominators(p, 0.0, n, h)[0]
        for cv in (-beta1 * (1.0 - 1e-6), -beta1 * (1.0 + 1e-6)):
            G = greens_discrete(p, ScalarField.constant(grid, cv), grid)
            ref = mpmath_inverse(p, np.full(n - 1, cv), h) / h
            err = np.max(np.abs(G.values[1:-1, 1:-1] - ref)) / np.max(np.abs(ref))
            assert err <= G.forward_error_bound <= 1e-3


@pytest.mark.parametrize("n", [8, 16, 32])
def test_the_split_kernel_matches_an_mpmath_inverse(n):
    # variable c, where no closed form exists: A^-1 / h inverted at 50 digits
    pytest.importorskip("mpmath")
    grid = Grid(UNIT, n)
    for p, c_of in VARIABLE_COEFFICIENTS:
        cv = c_of(grid.nodes)
        G = greens_discrete(p, ScalarField(grid, cv), grid)
        ref = mpmath_inverse(p, cv[1:-1], grid.spacing) / grid.spacing
        err = np.max(np.abs(G.values[1:-1, 1:-1] - ref)) / np.max(np.abs(ref))
        assert err <= 1e-10
        assert err <= G.forward_error_bound


def test_interior_constant_c_takes_the_closed_form(monkeypatch):
    # the end values of c never enter the interior block; one interior node
    # off by one ulp is variable c and takes the split path
    from beamsign import _sine

    taken = []
    for path in (_sine._Modes, solver._Split):
        def recording(self, _path=path, _build=path.kernel):
            taken.append(_path)
            return _build(self)

        monkeypatch.setattr(path, "kernel", recording)
    n = 200
    grid = Grid(UNIT, n)
    cols = np.arange(1, n)
    ref = sine_transform_kernel(5.0, -80.0, n, cols)
    cv = np.full(n + 1, -80.0)
    cv[[0, -1]] = (7.0, -300.0)
    perturbed = cv.copy()
    perturbed[57] = np.nextafter(-80.0, 0.0)
    for values, path in ((cv, _sine._Modes), (perturbed, solver._Split)):
        G = greens_discrete(5.0, ScalarField(grid, values), grid)
        assert taken[-1] == path
        err = np.max(np.abs(G.values[:, cols] - ref)) / np.max(np.abs(ref))
        assert err <= 1e-10
        assert err <= G.forward_error_bound <= 1e-3


def test_the_closed_form_resonance_names_the_discrete_mode():
    # on beta_k itself the denominator is exactly zero, which must raise before
    # any division; just off beta_1 the bound is finite and still too large
    grid = Grid(UNIT, 200)
    for p in (0.0, 5.0):
        _, beta = _discrete_beta(p, grid)
        for k in (1, 3):
            with pytest.raises(ResonanceError) as info:
                greens_discrete(p, ScalarField.constant(grid, -beta[k - 1]), grid)
            assert (
                "the kernel's forward-error bound inf exceeds 0.001 "
                f"(discrete mode k = {k}: beta_k + c = 0.000e+00); "
            ) in info.value.args[0]
            assert info.value.index == k
            assert info.value.nearest_eigenvalue == -lambda_k(p, UNIT, k)
        cv = -beta[0] * (1.0 - 3e-12)
        with pytest.raises(ResonanceError) as info:
            greens_discrete(p, ScalarField.constant(grid, cv), grid)
        message = info.value.args[0]
        bound = float(message.split("forward-error bound ")[1].split()[0])
        assert 1e-3 < bound < np.inf
        assert f"(discrete mode k = 1: beta_k + c = {beta[0] + cv:.3e}); " in message


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
            G = np.asarray(greens_constant(p, m, grid).values)
            assert np.array_equal(G, G.T)
            assert np.all(G[[0, -1], :] == 0.0)
            phi = np.sin(np.outer(x, k))
            ref = (phi * (2.0 / (L * (w**4 + p * w**2 + m)))) @ phi.T
            ref[[0, -1], :] = 0.0
            ref[:, [0, -1]] = 0.0
            assert np.max(np.abs(G - ref)) <= 1e-13 * np.max(np.abs(ref))
