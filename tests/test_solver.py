import numpy as np
import pytest

from beamsign import (
    Grid,
    Interval,
    ProblemSpec,
    ScalarField,
    direct_solve,
    fixed_point_solve,
    greens_discrete,
    parse_expression,
    sign_certificate,
    sup_norm,
    superposition_solve,
    y_boundary,
)
from beamsign.errors import ConvergenceError, ResonanceError
from beamsign.solver import (
    assemble,
    operator_norm_bound,
    rhs_norm_bound,
    smallest_eigenvalue,
)
from sine_transform import mpmath_split_solve, sine_transform_solve

UNIT = Interval(0.0, 1.0)


def unit_problem(n, c_value, h_value=1.0, p=0.0, d1=0.0, d2=0.0):
    grid = Grid(UNIT, n)
    c = ScalarField.constant(grid, c_value)
    h = ScalarField.constant(grid, h_value)
    return ProblemSpec(UNIT, p, c, h, d1=d1, d2=d2)


def quartic(t):
    return (t**4 - 2.0 * t**3 + t) / 24.0


def relative_error(sol, ref) -> float:
    # max|u - ref| / max|ref| of a solve's samples
    return float(np.max(np.abs(np.asarray(sol.u.values) - ref)) / np.max(np.abs(ref)))


def test_assemble_acts_like_the_operator_on_eigenfunctions():
    grid = Grid(UNIT, 400)
    c0 = ScalarField.constant(grid, 0.0)
    op = assemble(0.0, c0, grid)
    u = np.sin(np.pi * grid.nodes)
    out = np.asarray(op.apply(u), dtype=np.float64)
    target = np.pi**4 * u
    interior = slice(1, grid.n)
    assert np.max(np.abs(out[interior] - target[interior])) < 0.005 * np.pi**4
    assert np.all(op.apply(np.zeros(grid.n + 1)) == 0.0)
    op1 = assemble(1.0, c0, grid)
    u2 = np.sin(2.0 * np.pi * grid.nodes)
    lam = 16.0 * np.pi**4 + 4.0 * np.pi**2
    out2 = np.asarray(op1.apply(u2), dtype=np.float64)
    assert np.max(np.abs(out2[interior] - lam * u2[interior])) < 0.005 * lam


def test_assemble_interior_block_is_symmetric():
    grid = Grid(UNIT, 8)
    op = assemble(2.0, ScalarField.constant(grid, 5.0), grid)
    dense = np.column_stack(
        [np.asarray(op.apply(col), dtype=np.float64) for col in np.eye(grid.n + 1)]
    )
    inner = dense[1:-1, 1:-1]
    assert np.max(np.abs(inner - inner.T)) == 0.0
    with pytest.raises(ValueError):
        assemble(-1.0, ScalarField.constant(grid, 0.0), grid)


def test_direct_solve_quartic_oracle():
    problem = unit_problem(400, 0.0)
    sol = direct_solve(problem)
    exact = quartic(problem.grid.nodes)
    assert np.max(np.abs(np.asarray(sol.u.values, dtype=np.float64) - exact)) < 1e-7
    assert abs(float(sol.u.values[200]) - 5.0 / 384.0) < 1e-7
    assert sol.method == "direct"
    assert sol.iterations == 0
    # the error against the exact discrete solution stays within the bound, and both are small
    ref = sine_transform_solve(0.0, 0.0, 400, problem.grid.spacing, problem.h.values)
    error = relative_error(sol, ref)
    assert error <= 1e-12
    assert error <= sol.forward_error_bound <= 1e-8


def test_direct_solve_unit_moment_matches_boundary_response():
    problem = unit_problem(400, 0.0, h_value=0.0, d1=-1.0)
    sol = direct_solve(problem)
    t = problem.grid.nodes
    exact = -(t**2 / 2.0 - t**3 / 6.0 - t / 3.0)
    assert np.max(np.abs(np.asarray(sol.u.values, dtype=np.float64) - exact)) < 1e-6
    assert abs(float(sol.u.values[200]) - 0.0625) < 1e-6


def test_direct_solve_zero_data_gives_zero():
    sol = direct_solve(unit_problem(200, 0.0, h_value=0.0))
    assert np.all(np.asarray(sol.u.values) == 0.0)


def test_direct_solve_convergence_order():
    errs = []
    for n in (100, 200, 400):
        sol = direct_solve(unit_problem(n, 0.0))
        exact = quartic(Grid(UNIT, n).nodes)
        errs.append(np.max(np.abs(np.asarray(sol.u.values, dtype=np.float64) - exact)))
    assert 3.0 < errs[0] / errs[1] < 5.0
    assert 3.0 < errs[1] / errs[2] < 5.0


def test_constant_c_bound_holds_at_the_ends_of_the_float64_range():
    # the closed form's bound takes 2-norms of the load and of the weights
    # scaled by their largest entry: unscaled, |h| = 1e300 overflows the sum
    # of squares and the solve raises, and |h| = 1e-300 underflows it and
    # drops the FFT term
    base = direct_solve(unit_problem(200, -60.0))
    for scale in (1e-300, 1e300):
        sol = direct_solve(unit_problem(200, -60.0, h_value=scale))
        assert sol.forward_error_bound == pytest.approx(base.forward_error_bound, rel=1e-6)
        assert sup_norm(sol.u) == pytest.approx(scale * sup_norm(base.u), rel=1e-12)


def test_direct_solve_resonance_is_reported():
    # on the discrete eigenvalue -beta_1 the modal denominator beta_1 + c is
    # exactly zero: the discrete-mode error, as the closed-form kernel's
    from beamsign import solver
    from beamsign.spectrum import _discrete_beta

    _, beta = _discrete_beta(0.0, Grid(UNIT, 200))
    with pytest.raises(ResonanceError) as info:
        direct_solve(unit_problem(200, -beta[0]))
    assert info.value.index == 1
    assert abs(info.value.nearest_eigenvalue + np.pi**4) < 1e-6
    assert "lambda_1" in str(info.value)
    assert (
        "the solve's forward-error bound inf exceeds 0.001 "
        "(discrete mode k = 1: beta_k + c = 0.000e+00); "
    ) in str(info.value)
    # the continuous eigenvalue -pi^4 lies 4e-3 from the discrete one, and the
    # solve there is resolved: the sine transform's bound reads 1.9e-10, where
    # the split solve of the same problem reads 1.6e-4
    problem = unit_problem(200, -np.pi**4)
    sol = direct_solve(problem)
    assert 1e-10 < sol.forward_error_bound < 1e-9
    op = assemble(0.0, problem.c)
    assert 1e-5 < solver._split_vector(op, solver._rhs_vector(op, problem))[1] < 1e-3


@pytest.mark.parametrize("length", [1e5, 1e20])
def test_split_solves_on_long_intervals(length):
    # the split system is built on the unit interval, so its entries and its
    # bound do not follow 1/spacing**2 down to 1e-36; built on the interval
    # itself, the kernel's bound read 3.0e-2 on [0, 1e5] and 3.0e28 on
    # [0, 1e20] and raised.  c = 1e-110 t varies, so both take the split
    # path, and the reference is the sine transform with c = 0, from which
    # c moves the solution by less than 1e-30
    interval = Interval(0.0, length)
    grid = Grid(interval, 200)
    c = ScalarField(grid, 1e-110 * grid.nodes)
    hv = 1.0 + 0.5 * np.sin(np.pi * grid.nodes / length)
    ref = sine_transform_solve(0.0, 0.0, 200, grid.spacing, hv)
    scale = np.max(np.abs(ref))
    sol = direct_solve(ProblemSpec(interval, 0.0, c, ScalarField(grid, hv)))
    assert np.max(np.abs(np.asarray(sol.u.values) - ref)) <= 1e-8 * scale
    assert sol.forward_error_bound <= 1e-8
    G = greens_discrete(0.0, c, grid)
    assert G.forward_error_bound <= 1e-8
    assert np.max(np.abs(np.asarray(G.values) @ (hv * grid.spacing) - ref)) <= 1e-8 * scale


def test_grid_argument_must_match():
    problem = unit_problem(200, 0.0)
    with pytest.raises(ValueError):
        direct_solve(problem, Grid(UNIT, 400))


def test_superposition_oracle_and_agreement():
    problem = unit_problem(200, 0.0, d1=-1.0, d2=-1.0)
    sup = superposition_solve(problem)
    assert sup.method == "superposition"
    assert abs(float(sup.u.values[100]) - 53.0 / 384.0) < 1e-5
    d = direct_solve(problem)
    gap = np.max(np.abs(np.asarray(sup.u.values - d.u.values, dtype=np.float64)))
    assert gap < 5e-4
    assert gap < 1e-8  # both paths factor the same discrete operator


def test_methods_agree_on_random_problems():
    from beamsign import solver

    rng = np.random.default_rng(9)
    grid = Grid(UNIT, 200)
    solved = []
    for _ in range(5):
        p = float(rng.uniform(0.0, 10.0))
        c = ScalarField(grid, rng.uniform(-80.0, 80.0) + 10.0 * np.sin(np.pi * grid.nodes))
        hv = np.zeros(grid.n + 1)
        for k, a in enumerate(rng.uniform(-2.0, 2.0, 5), start=1):
            hv += a * np.sin(k * np.pi * grid.nodes)
        problem = ProblemSpec(UNIT, p, c, ScalarField(grid, hv), d1=float(-rng.uniform(0, 1)))
        d = direct_solve(problem)
        s = superposition_solve(problem)
        gap = np.max(np.abs(np.asarray(d.u.values - s.u.values, dtype=np.float64)))
        assert gap < 1e-8 * (1.0 + sup_norm(d.u))
        solved.append((problem, d, s))
    # each is within its bound of the operator's solution, solved at 40 digits
    pytest.importorskip("mpmath")
    for problem, d, s in solved:
        p, c = problem.p, problem.c
        ref = mpmath_split_solve(p, c.values, solver._rhs_vector(assemble(p, c), problem))
        for sol in (d, s):
            error = relative_error(sol, ref)
            assert error <= min(sol.forward_error_bound, 1e-10)


def test_fixed_point_static_case_converges_in_one_step():
    # c <= -lambda2 everywhere, so the frozen coefficient equals c
    problem = unit_problem(200, 900.0)
    run = fixed_point_solve(problem, mode="positive")
    assert run.solution.iterations == 1
    assert run.contraction_ratio == 0.0
    d = direct_solve(problem)
    gap = np.max(np.abs(np.asarray(run.solution.u.values - d.u.values, dtype=np.float64)))
    assert gap < 1e-9


def test_fixed_point_negative_mode():
    problem = unit_problem(200, -250.0)
    run = fixed_point_solve(problem, mode="negative", tol=1e-10)
    assert run.solution.method == "fixed_point"
    assert run.solution.iterations >= 2
    assert 0.0 < run.contraction_ratio < 1.0
    assert len(run.iterates) == len(run.diffs) == run.solution.iterations
    cert = sign_certificate(run.solution)
    assert cert.verdict == "strongly_negative"
    d = direct_solve(problem)
    gap = np.max(np.abs(np.asarray(run.solution.u.values - d.u.values, dtype=np.float64)))
    assert gap < 10.0 * 1e-10


def test_fixed_point_checks_hypotheses_and_arguments():
    problem = unit_problem(200, -120.0)
    with pytest.raises(ValueError):
        fixed_point_solve(problem, mode="positive")
    run = fixed_point_solve(problem, mode="positive", check_hypotheses=False)
    assert run.solution.iterations == 1
    with pytest.raises(ValueError):
        fixed_point_solve(unit_problem(200, 0.0, d1=-1.0))
    with pytest.raises(ValueError):
        fixed_point_solve(unit_problem(200, 0.0), mode="sideways")
    with pytest.raises(ValueError):
        fixed_point_solve(unit_problem(200, 0.0), tol=0.0)
    with pytest.raises(ValueError):
        fixed_point_solve(unit_problem(200, 0.0), max_iter=0)


def test_fixed_point_iteration_limit():
    grid = Grid(UNIT, 200)
    c = ScalarField(grid, 1000.0 * np.sin(np.pi * grid.nodes) ** 2)
    problem = ProblemSpec(UNIT, 0.0, c, ScalarField.constant(grid, 1.0))
    with pytest.raises(ConvergenceError) as info:
        fixed_point_solve(problem, tol=1e-14, max_iter=2)
    assert 0.0 < info.value.last_ratio < 1.0


def test_sign_certificate_examples():
    grid = Grid(UNIT, 400)
    u = ScalarField(grid, quartic(grid.nodes))
    cert = sign_certificate(u)
    assert cert.verdict == "strongly_positive"
    assert cert.interior_sign == "positive"
    assert abs(cert.slope_a - 1.0 / 24.0) < 1e-5
    assert abs(cert.slope_b + 1.0 / 24.0) < 1e-5
    zero = sign_certificate(ScalarField.constant(grid, 0.0))
    assert zero.verdict == "fails"
    assert zero.min_abs_interior == 0.0
    neg = sign_certificate(ScalarField(grid, -np.sin(np.pi * grid.nodes)))
    assert neg.verdict == "strongly_negative"
    assert abs(neg.slope_a + np.pi) < 1e-3
    assert abs(neg.slope_b - np.pi) < 1e-3
    with pytest.raises(ValueError):
        sign_certificate(u, tol=-1.0)


def test_sign_certificate_accepts_solution_fields():
    sol = direct_solve(unit_problem(200, 0.0))
    assert sign_certificate(sol).verdict == "strongly_positive"


def test_operator_norm_bound_examples():
    grid = Grid(UNIT, 200)
    zero = ScalarField.constant(grid, 0.0)
    assert operator_norm_bound(zero, 0.0, UNIT) == 0.0
    sin = ScalarField.from_function(grid, lambda t: np.sin(np.pi * t))
    target = (2.0 / np.pi) / (4.0 * np.pi**2)
    assert abs(operator_norm_bound(sin, 0.0, UNIT) - target) < 1e-8
    flat = operator_norm_bound(ScalarField.constant(grid, 39.0), 0.0, UNIT)
    assert abs(flat - 39.0 / (4.0 * np.pi**2)) < 1e-12
    assert flat < 1.0
    with pytest.raises(ValueError):
        operator_norm_bound(sin, 0.0, Interval(0.0, 2.0))


def test_rhs_norm_bound_examples():
    # K = (L^2 / sqrt(48)) / sqrt(lambda_1 + r_min) for r_min >= 0 and
    # (L^2 / sqrt(48)) sqrt(lambda_1) / (lambda_1 + r_min) below 0
    grid = Grid(UNIT, 200)
    one = ScalarField.constant(grid, 1.0)
    assert rhs_norm_bound(one, 0.0, UNIT) == pytest.approx(1.0 / (np.sqrt(48.0) * np.pi**2), rel=1e-12)
    assert rhs_norm_bound(ScalarField.constant(grid, 0.0), 0.0, UNIT) == 0.0
    two = ScalarField.constant(grid, 2.0)
    target = 2.0 / (np.sqrt(48.0) * np.sqrt(2.0 * np.pi**4))
    assert rhs_norm_bound(two, 0.0, UNIT, r_min=np.pi**4) == pytest.approx(target, rel=1e-12)
    target = np.pi**2 / (np.sqrt(48.0) * 0.5 * np.pi**4)
    assert rhs_norm_bound(one, 0.0, UNIT, r_min=-0.5 * np.pi**4) == pytest.approx(target, rel=1e-12)
    with pytest.raises(ValueError):
        rhs_norm_bound(one, 0.0, UNIT, r_min=-200.0)


def test_rhs_norm_bound_covers_the_solution_on_long_intervals():
    # p = 0, c = 0, h = 1: sup|u| = 5 L^4 / 384 = 130.2 at L = 10, where the
    # bound sqrt(L / lambda_1) sup|h| read 32.04
    interval = Interval(0.0, 10.0)
    grid = Grid(interval, 800)
    h = ScalarField.constant(grid, 1.0)
    sol = direct_solve(ProblemSpec(interval, 0.0, ScalarField.constant(grid, 0.0), h))
    assert sup_norm(sol.u) == pytest.approx(5.0 * 10.0**4 / 384.0, rel=1e-4)
    assert sup_norm(sol.u) <= rhs_norm_bound(h, 0.0, interval)


@pytest.mark.parametrize("length", [0.1, 1.0, 4.0, 30.0])
@pytest.mark.parametrize("p", [0.0, 3.0])
def test_rhs_norm_bound_holds_for_every_interval_and_coefficient(length, p):
    # c >= r_min with r_min = 0.5 lambda_1, 0 or -0.5 lambda_1, constant or
    # with a bump above r_min; loads of one sign and oscillating ones
    from beamsign.spectrum import lambda_k

    interval = Interval(0.0, length)
    grid = Grid(interval, 800)
    s = grid.nodes / length
    lam1 = lambda_k(p, interval, 1)
    loads = (np.ones_like(s), np.sin(np.pi * s), np.sin(5.0 * np.pi * s) + 0.3)
    for r_min in (0.5 * lam1, 0.0, -0.5 * lam1):
        for bump in (0.0, 2.0 * lam1 * np.exp(-40.0 * (s - 0.3) ** 2)):
            c = ScalarField(grid, np.full_like(s, r_min) + bump)
            for hv in loads:
                h = ScalarField(grid, hv)
                sol = direct_solve(ProblemSpec(interval, p, c, h))
                assert sup_norm(sol.u) <= rhs_norm_bound(h, p, interval, r_min=r_min)


def test_a_priori_bound_inside_the_uniqueness_window():
    # -lambda1 < c_m < 0: sup|u| <= pi/(2 (lambda1 + c_m)) sup|h|
    rng = np.random.default_rng(11)
    grid = Grid(UNIT, 200)
    c = ScalarField.constant(grid, -50.0)
    factor = np.pi / (2.0 * (np.pi**4 - 50.0))
    for _ in range(10):
        hv = np.zeros(grid.n + 1)
        for k, a in enumerate(rng.uniform(-2.0, 2.0, 6), start=1):
            hv += a * np.sin(k * np.pi * grid.nodes)
        h = ScalarField(grid, hv)
        sol = direct_solve(ProblemSpec(UNIT, 0.0, c, h))
        assert sup_norm(sol.u) <= factor * sup_norm(h) * 1.01


def test_smallest_eigenvalue_tracks_the_spectrum():
    grid = Grid(UNIT, 200)
    c0 = ScalarField.constant(grid, 0.0)
    e0 = smallest_eigenvalue(assemble(0.0, c0, grid))
    assert abs(e0 - np.pi**4) < 0.005 * np.pi**4
    lam = np.pi**4 + np.pi**2
    e1 = smallest_eigenvalue(assemble(1.0, c0, grid))
    assert abs(e1 - lam) < 0.005 * lam
    # adding a constant to c shifts the whole discrete spectrum exactly
    e_shift = smallest_eigenvalue(assemble(0.0, ScalarField.constant(grid, 100.0), grid))
    assert abs(e_shift - e0 - 100.0) < 1e-2


def test_direct_solve_large_n_meets_the_unchanged_bound():
    # factoring the full matrix let pivoting mix the identity end rows into the
    # interior and raised a false ResonanceError here
    interval = Interval(-1.35043, 1.35043)
    grid = Grid(interval, 2000)
    expr = parse_expression("28.1206 + 6.46487*(exp(0 - (t + 1.35043)/2.70086) - 0.367879)")
    c = ScalarField(grid, expr(grid.nodes))
    problem = ProblemSpec(interval, 1.0, c, ScalarField.constant(grid, 4.89435))
    sol = direct_solve(problem)
    assert sol.forward_error_bound <= 1e-5  # 4.5e-7 on x86_64
    assert sign_certificate(sol).verdict == "strongly_positive"


def test_every_solve_vanishes_exactly_at_the_ends():
    grid = Grid(UNIT, 200)
    c = ScalarField(grid, -250.0 + 30.0 * np.sin(np.pi * grid.nodes))
    problem = ProblemSpec(UNIT, 2.0, c, ScalarField.constant(grid, 1.0), d1=-0.5, d2=-1.5)
    homogeneous = ProblemSpec(UNIT, 2.0, c, ScalarField.constant(grid, 1.0))
    fields = [
        direct_solve(problem).u,
        superposition_solve(problem).u,
        fixed_point_solve(homogeneous, mode="negative", check_hypotheses=False).solution.u,
        y_boundary(2.0, c, grid, "a"),
        y_boundary(2.0, c, grid, "b"),
    ]
    for fld in fields:
        assert fld.values[0] == 0.0
        assert fld.values[-1] == 0.0
    G = np.asarray(greens_discrete(2.0, c, grid).values)
    assert np.all(G[[0, -1], :] == 0.0)
    assert np.all(G[:, [0, -1]] == 0.0)


def _count_factorizations(monkeypatch):
    # patch the LAPACK module the solver calls, which is scipy.linalg's own
    # once scipy.linalg is imported
    import scipy.linalg

    from beamsign import solver

    lapack = solver._lapack()
    assert lapack.dgbtrf is scipy.linalg.lapack.dgbtrf
    calls = []
    factor = lapack.dgbtrf

    def counting(ab, *args, **kwargs):
        calls.append(ab.shape[1])  # the order of the factored matrix
        return factor(ab, *args, **kwargs)

    monkeypatch.setattr(lapack, "dgbtrf", counting)
    return calls


def test_each_operator_is_factored_once(monkeypatch):
    calls = _count_factorizations(monkeypatch)
    run = fixed_point_solve(_fixed_point_problem(), mode="negative", tol=1e-10)
    assert run.solution.iterations >= 2
    assert len(calls) == 2  # the frozen operator, and the one with c for the bound
    calls.clear()
    grid = Grid(UNIT, 200)
    c = ScalarField(grid, 40.0 + 30.0 * np.sin(np.pi * grid.nodes))
    varying = ProblemSpec(UNIT, 0.0, c, ScalarField.constant(grid, 1.0), d1=-1.0, d2=-0.5)
    superposition_solve(varying)
    assert len(calls) == 1  # kernel and both moment responses share it
    calls.clear()
    op = assemble(0.0, ScalarField.constant(Grid(UNIT, 200), 0.0))
    smallest_eigenvalue(op)
    smallest_eigenvalue(op)
    assert len(calls) == 1
    calls.clear()
    direct_solve(varying)
    assert len(calls) == 1
    # constant c factors nothing: every vector solve takes the sine transform,
    # the frozen operator with d = -lambda3 and the solve with c included
    calls.clear()
    run = fixed_point_solve(unit_problem(200, -250.0), mode="negative", tol=1e-10)
    assert run.solution.iterations >= 2
    superposition_solve(unit_problem(200, 40.0, d1=-1.0, d2=-0.5))
    direct_solve(unit_problem(200, 0.0))
    y_boundary(0.0, ScalarField.constant(grid, 40.0), grid, "a")
    assert calls == []
    # the split kernel and every variable-c vector solve: one factorization, of
    # the split system, and nothing in extended precision, at n = 200 and at
    # n = 400 alike
    from beamsign import greens, solver

    def no_extended(self):
        raise AssertionError("extended-precision work in a split solve")

    for n in (200, 400):
        grid = Grid(UNIT, n)
        c = ScalarField(grid, -60.0 + 40.0 * np.cos(2.0 * grid.nodes))
        problem = ProblemSpec(UNIT, 5.0, c, ScalarField.constant(grid, 1.0))
        solves = [
            lambda: greens._split_kernel(assemble(0.0, ScalarField.constant(grid, 0.0), grid)),
            lambda: direct_solve(problem),
            lambda: superposition_solve(ProblemSpec(UNIT, 5.0, c, problem.h, d1=-1.0)),
            lambda: fixed_point_solve(problem, mode="negative", check_hypotheses=False),
            lambda: y_boundary(5.0, c, grid, "b"),
        ]
        for solve in solves:
            calls.clear()
            with monkeypatch.context() as patch:
                patch.setattr(solver.OperatorMatrix, "band_extended", no_extended)
                solve()
            assert calls == [2 * (n - 1)]
        G = greens._split_kernel(assemble(0.0, ScalarField.constant(grid, 0.0), grid))
        assert G.values.dtype == np.float64
        # greens_discrete takes the closed form for constant c: no factorization at all
        calls.clear()
        greens_discrete(0.0, ScalarField.constant(grid, 0.0), grid)
        assert calls == []


def test_lu_column_sums_match_the_dense_factors():
    # the column sums of |P L| |U| against scipy's dense LU (A = P L U), on
    # banded matrices that pivot often, where some row of L outgrows the band
    import scipy.linalg

    from beamsign import solver

    rng = np.random.default_rng(11)
    size = 40
    longest = 0
    for _ in range(20):
        ab = np.zeros((7, size), order="F")
        ab[2:] = rng.standard_normal((5, size))
        dense = np.zeros((size, size))
        for d in range(-2, 3):  # A[r, s] at ab[4 + r - s, s]
            s = np.arange(max(0, -d), min(size, size - d))
            dense[s + d, s] = ab[4 + d, s]
        lu, piv, info = solver._lapack().dgbtrf(ab, 2, 2)
        assert info == 0
        P, L, U = scipy.linalg.lu(dense)
        expected = (np.abs(P @ L) @ np.abs(U)).sum(axis=0)
        assert np.allclose(solver._lu_column_sums(lu), expected, rtol=1e-13)
        longest = max(longest, int(np.max(np.count_nonzero(L, axis=1))))
    assert longest > 3


def test_forward_error_bound_covers_the_error_of_the_returned_solution():
    # against the operator L^2 + p L + C itself, solved at 40 digits; the
    # fixed-point iteration freezes d = max(c, -lambda3) and takes steps here
    from beamsign import solver

    grid = Grid(UNIT, 200)
    c = ScalarField(grid, -250.0 + 30.0 * np.sin(np.pi * grid.nodes))
    h = ScalarField(grid, 1.0 + 0.5 * np.cos(3.0 * grid.nodes))
    problem = ProblemSpec(UNIT, 0.0, c, h, d1=-0.5, d2=-1.5)
    homogeneous = ProblemSpec(UNIT, 0.0, c, h)
    run = fixed_point_solve(homogeneous, mode="negative", check_hypotheses=False)
    assert run.solution.iterations >= 3
    sols = [direct_solve(problem), superposition_solve(problem), run.solution]
    pytest.importorskip("mpmath")
    for prob, sol in zip((problem, problem, homogeneous), sols):
        ref = mpmath_split_solve(0.0, c.values, solver._rhs_vector(assemble(0.0, c), prob))
        error = relative_error(sol, ref)
        assert error <= 1e-12
        assert error <= sol.forward_error_bound <= 1e-6


def test_superposition_meets_the_bound_at_large_n():
    # the sine-transform sum is returned, within its bound of the exact solution
    grid = Grid(UNIT, 600)
    c = ScalarField.constant(grid, -662.566)
    h = ScalarField(grid, 3.3351 * (1.0 + 0.5 * np.sin(np.pi * grid.nodes)))
    problem = ProblemSpec(UNIT, 50.0, c, h)
    sup = superposition_solve(problem)
    ref = sine_transform_solve(50.0, -662.566, 600, grid.spacing, h.values)
    error = relative_error(sup, ref)
    assert error <= 1e-12
    assert error <= sup.forward_error_bound <= 1e-3
    d = direct_solve(problem)
    gap = np.max(np.abs(np.asarray(sup.u.values - d.u.values, dtype=np.float64)))
    assert gap < 1e-8 * sup_norm(d.u)


def test_vector_solves_take_nothing_from_the_band(monkeypatch):
    # no vector solve multiplies by the rounded band or solves with it: each
    # is one split solve, with no refinement
    from beamsign import solver

    used = []

    def recording(name, function):
        def wrapped(*args):
            used.append(name)
            return function(*args)

        return wrapped

    monkeypatch.setattr(solver, "_band_matvec", recording("matvec", solver._band_matvec))
    solve = recording("solve", solver.OperatorMatrix._solve_interior)
    monkeypatch.setattr(solver.OperatorMatrix, "_solve_interior", solve)
    grid = Grid(UNIT, 200)
    c = ScalarField(grid, -250.0 + 30.0 * np.sin(np.pi * grid.nodes))
    problem = ProblemSpec(UNIT, 0.0, c, ScalarField.constant(grid, 1.0), d1=-0.5, d2=-1.5)
    homogeneous = ProblemSpec(UNIT, 0.0, c, ScalarField.constant(grid, 1.0))
    direct_solve(problem)
    superposition_solve(problem)
    superposition_solve(unit_problem(200, 40.0, d1=-0.5, d2=-1.5))
    run = fixed_point_solve(homogeneous, mode="negative", check_hypotheses=False)
    assert run.solution.iterations > 1
    y_boundary(0.0, c, grid, "a")
    assert used == []
    smallest_eigenvalue(assemble(0.0, c))  # which still iterates on the band
    assert "solve" in used


def test_superposition_is_the_sum_of_kernel_and_moment_responses():
    grid = Grid(UNIT, 200)
    p = 5.0
    c = ScalarField(grid, -60.0 + 40.0 * np.cos(2.0 * grid.nodes))
    h = ScalarField(grid, 1.0 + 0.5 * np.sin(3.0 * np.pi * grid.nodes))
    problem = ProblemSpec(UNIT, p, c, h, d1=-0.7, d2=-1.3)
    G = np.asarray(greens_discrete(p, c, grid).values, dtype=np.float64)
    y_a = np.asarray(y_boundary(p, c, grid, "a").values, dtype=np.float64)
    y_b = np.asarray(y_boundary(p, c, grid, "b").values, dtype=np.float64)
    hw = np.asarray(h.values, dtype=np.float64) * grid.spacing
    expected = G @ hw - 0.7 * y_a - 1.3 * y_b
    u = np.asarray(superposition_solve(problem).u.values, dtype=np.float64)
    assert np.max(np.abs(u - expected)) <= 1e-8 * np.max(np.abs(expected))


def test_superposition_resonance_names_the_discrete_mode():
    # on beta_k itself the modal denominator is exactly zero: every vector
    # solve raises the closed-form kernel's error, naming the solve, before
    # any division
    from beamsign.spectrum import _discrete_beta, lambda_k

    grid = Grid(UNIT, 200)
    h = ScalarField.constant(grid, 1.0)
    for p in (0.0, 5.0):
        _, beta = _discrete_beta(p, grid)
        for k in (1, 3):
            problem = ProblemSpec(UNIT, p, ScalarField.constant(grid, -beta[k - 1]), h)
            for solve in (superposition_solve, direct_solve):
                with pytest.raises(ResonanceError) as info:
                    solve(problem)
                assert (
                    "the solve's forward-error bound inf exceeds 0.001 "
                    f"(discrete mode k = {k}: beta_k + c = 0.000e+00); "
                ) in info.value.args[0]
                assert info.value.index == k
                assert info.value.nearest_eigenvalue == -lambda_k(p, UNIT, k)


def test_superposition_makes_no_matrix_solve(monkeypatch):
    # no n x n work: for variable c the kernel sum is one vector solve on the
    # split factors, which takes one condition estimate, for its bound; constant
    # c takes the sine transform, which solves and estimates nothing, and
    # nothing touches the band
    from beamsign import solver

    split, interior, estimates = [], [], []
    solve_split = solver.OperatorMatrix._solve_split_transposed
    solve_interior = solver.OperatorMatrix._solve_interior
    split_error = solver._split_error

    def recording_split(self, rhs, start=0):
        split.append(rhs.ndim)
        return solve_split(self, rhs, start)

    def recording_interior(self, rhs):
        interior.append(rhs.ndim)
        return solve_interior(self, rhs)

    def recording_error(*args):
        estimates.append(1)
        return split_error(*args)

    monkeypatch.setattr(solver.OperatorMatrix, "_solve_split_transposed", recording_split)
    monkeypatch.setattr(solver.OperatorMatrix, "_solve_interior", recording_interior)
    monkeypatch.setattr(solver, "_split_error", recording_error)
    for n in (8, 200, 600):
        grid = Grid(UNIT, n)
        c = ScalarField(grid, 40.0 + 30.0 * np.sin(np.pi * grid.nodes))
        problems = (
            (ProblemSpec(UNIT, 0.0, c, ScalarField.constant(grid, 1.0), d1=-1.0, d2=-0.5), [1]),
            (unit_problem(n, 40.0, d1=-1.0, d2=-0.5), []),
        )
        for problem, expected in problems:
            split.clear()
            estimates.clear()
            superposition_solve(problem)
            assert split == expected
            assert estimates == expected
        assert interior == []


def test_only_a_matrix_of_loads_takes_the_transposed_sweep():
    # no solve on the interior block takes the transposed factors: a vector
    # takes the plain solve, which keeps smallest_eigenvalue bit for bit as it
    # was
    from beamsign import solver

    grid = Grid(UNIT, 200)
    op = assemble(2.0, ScalarField(grid, -250.0 + 30.0 * np.sin(np.pi * grid.nodes)), grid)
    rhs = np.random.default_rng(2).standard_normal(grid.n - 1)
    x = op._solve_interior(rhs.copy())
    lu, piv = op._lu
    assert np.any(piv != np.arange(grid.n - 1))  # the factorization pivots
    assert np.array_equal(x, solver._lapack().dgbtrs(lu, 2, 2, rhs, piv)[0])


def test_superposition_agrees_with_the_untransposed_kernel_solve():
    # for variable c the reference is the untransposed split solve M x =
    # (0, rhs) on the same factors, which has A^-1 rhs in its u-rows, so it
    # checks the transposed one's v-rows.  For constant c the sum is the sine
    # transform instead: it must match the independent one of the test helpers
    from beamsign import solver

    cases = [
        (200, 5.0, lambda t: -60.0 + 40.0 * np.cos(2.0 * t)),
        (250, 0.0, lambda t: np.full(t.shape, -250.0)),
        (250, 50.0, lambda t: 900.0 * np.sin(np.pi * t)),
        (600, 2.0, lambda t: np.full(t.shape, -80.0)),
        (1000, 50.0, lambda t: 900.0 * np.sin(np.pi * t)),
        (1000, 5.0, lambda t: 300.0 + 100.0 * np.cos(2.0 * t)),
    ]
    for n, p, c_of in cases:
        grid = Grid(UNIT, n)
        t = grid.nodes
        h = ScalarField(grid, 1.0 + 0.5 * np.sin(3.0 * np.pi * t))
        problem = ProblemSpec(UNIT, p, ScalarField(grid, c_of(t)), h, d1=-0.7, d2=-1.3)
        u = np.asarray(superposition_solve(problem).u.values, dtype=np.float64)

        op = assemble(p, problem.c, grid)
        rhs = solver._rhs_vector(op, problem)
        cv = problem.c.values
        if np.all(cv == cv[0]):
            expected = sine_transform_solve(p, cv[0], n, grid.spacing, rhs)
            assert np.max(np.abs(u - expected)) <= 1e-12 * np.max(np.abs(expected))
            continue
        lu, piv = op._split_factors()[:2]
        b = np.zeros(2 * (n - 1))
        b[1::2] = rhs[1:-1]
        x = solver._lapack().dgbtrs(lu, 2, 2, b, piv)[0]
        expected = np.zeros(n + 1)
        expected[1:-1] = x[0::2]
        assert np.max(np.abs(u - expected)) <= 1e-10 * np.max(np.abs(expected))


def _constant_c_problem(n, p, c, d1=-0.7, d2=-1.3):
    grid = Grid(UNIT, n)
    h = ScalarField(grid, 1.0 + 0.5 * np.sin(3.0 * np.pi * grid.nodes))
    return ProblemSpec(UNIT, p, ScalarField.constant(grid, c), h, d1=d1, d2=d2)


@pytest.mark.parametrize("n, p, c", [(250, 0.0, -250.0), (600, 2.0, -80.0)])
def test_constant_c_superposition_matches_the_band_solved_in_mpmath(n, p, c):
    # the band is the split system of L^2 + p L + c I, solved at 40 digits, so
    # the reference is the operator's own solution; superposition and
    # direct_solve meet it to 2.0e-15 and 7.5e-14 of sup|u| at n = 250 and to
    # 4.5e-15 and 3.2e-13 at n = 600
    pytest.importorskip("mpmath")
    problem = _constant_c_problem(n, p, c)
    op = assemble(p, problem.c, problem.c.grid)
    from beamsign import solver

    ref = mpmath_split_solve(p, problem.c.values, solver._rhs_vector(op, problem))
    for solve in (superposition_solve, direct_solve):
        u = np.asarray(solve(problem).u.values, dtype=np.float64)
        assert np.max(np.abs(u - ref)) <= 1e-12 * np.max(np.abs(ref))


def _exact_operator_residual(p, c, n, rhs, u):
    # rhs - (L^2 + p L + c I) u on nodes 0 .. n (ends zero), in long double
    # through v = L u, with the 1 / h^2 that mpmath_split_solve takes
    inv2 = np.longdouble((1.0 / n) ** -2)

    def lap(w):
        out = np.zeros_like(w)
        out[1:-1] = (w[:-2] - 2 * w[1:-1] + w[2:]) * -inv2
        return out

    x = np.asarray(u, dtype=np.longdouble)
    v = lap(x)
    r = np.asarray(rhs, dtype=np.longdouble) - (lap(v) + np.longdouble(p) * v + np.longdouble(c) * x)
    r[0] = r[-1] = 0
    return r


@pytest.mark.parametrize("n, p, c", [(250, 0.0, -250.0), (600, 2.0, -80.0)])
def test_constant_c_superposition_agrees_with_the_independent_sum_refined(n, p, c):
    # the sine-transform sum of the test helpers, refined by one step against
    # the exact operator, its residual taken in long double: the step shrinks
    # the residual, and superposition meets the refined sum
    from beamsign import solver

    problem = _constant_c_problem(n, p, c)
    op = assemble(p, problem.c, problem.c.grid)
    rhs = solver._rhs_vector(op, problem)
    h = problem.c.grid.spacing
    start = sine_transform_solve(p, c, n, h, rhs)
    r0 = _exact_operator_residual(p, c, n, rhs, start)
    ref = start + sine_transform_solve(p, c, n, h, r0.astype(np.float64))
    r1 = _exact_operator_residual(p, c, n, rhs, ref)
    assert np.max(np.abs(r1)) <= np.max(np.abs(r0))
    u = np.asarray(superposition_solve(problem).u.values, dtype=np.float64)
    assert np.max(np.abs(u - ref)) <= 1e-10 * np.max(np.abs(ref))


def test_constant_c_superposition_agrees_with_the_split_solve_at_large_n():
    # both the sine-transform sum and the split solve are of the exact
    # operator: at n = 1280, p = 50, c = -97 they agree to 4.7e-13 of sup|u|,
    # and at n = 1000, p = 0, c = -80, where refinement against the rounded
    # band used to miss its residual bound and raise, to 2.1e-12
    from beamsign import solver

    for n, p, cv in ((1280, 50.0, -97.0), (1000, 0.0, -80.0)):
        problem = _constant_c_problem(n, p, cv, d1=-0.5, d2=-0.25)
        u = np.asarray(superposition_solve(problem).u.values, dtype=np.float64)
        op = assemble(p, problem.c)
        ref = solver._split_vector(op, solver._rhs_vector(op, problem))[0]
        assert np.max(np.abs(u - ref)) <= 1e-10 * np.max(np.abs(ref))


def test_superposition_is_the_direct_solve():
    # G w' = A^-1 rhs exactly, so the two return the same u bit for bit and
    # the same bound, for constant and variable c; the variable-c bound rests
    # on gbcon, which is not bit-reproducible, so there it is compared to
    # rounding
    for n, p, cv in ((200, 5.0, None), (250, 0.0, -250.0), (600, 2.0, -80.0), (1000, 50.0, None)):
        grid = Grid(UNIT, n)
        t = grid.nodes
        c = ScalarField(grid, 900.0 * np.sin(np.pi * t) if cv is None else np.full_like(t, cv))
        h = ScalarField(grid, 1.0 + 0.5 * np.sin(3.0 * np.pi * t))
        problem = ProblemSpec(UNIT, p, c, h, d1=-0.7, d2=-1.3)
        sup, direct = superposition_solve(problem), direct_solve(problem)
        assert np.array_equal(sup.u.values, direct.u.values)
        if cv is None:
            assert sup.forward_error_bound == pytest.approx(direct.forward_error_bound, rel=1e-12)
        else:
            assert sup.forward_error_bound == direct.forward_error_bound
        assert (sup.method, direct.method) == ("superposition", "direct")
        assert sup.iterations == direct.iterations == 0


def _fixed_point_problem():
    # negative mode freezes d = max(c, -lambda3), lambda3 = 237.7, so c - d
    # reaches -12.3 and the iteration takes steps
    grid = Grid(UNIT, 400)
    c = ScalarField(grid, -250.0 + 20.0 * np.sin(np.pi * grid.nodes))
    return ProblemSpec(UNIT, 0.0, c, ScalarField.constant(grid, 1.0))


def test_fixed_point_meets_the_forward_error_bound():
    # the iterates converge to the solution with c itself, solved at 40 digits,
    # and the bound covers the distance left to it, also with a loose tol,
    # which stops early with a bound that says so: 5.4e-6 against an error of 5.3e-6
    from beamsign import solver

    problem = _fixed_point_problem()
    run = fixed_point_solve(problem, mode="negative", tol=1e-10)
    loose = fixed_point_solve(problem, mode="negative", tol=1.0)
    assert loose.solution.iterations >= 2
    assert run.solution.forward_error_bound <= 1e-6
    assert loose.solution.forward_error_bound <= 1e-3
    pytest.importorskip("mpmath")
    c = problem.c
    ref = mpmath_split_solve(0.0, c.values, solver._rhs_vector(assemble(0.0, c), problem))
    for fixed_point in (run, loose):
        assert relative_error(fixed_point.solution, ref) <= fixed_point.solution.forward_error_bound
    assert relative_error(run.solution, ref) <= 1e-12


def test_fixed_point_reports_a_missed_forward_error_bound():
    # the first step meets tol = 1 but lies 2.3e-3 of sup|u| from the solve
    # with c itself, and max_iter = 1 leaves no second step
    problem = _fixed_point_problem()
    with pytest.raises(ConvergenceError) as info:
        fixed_point_solve(problem, mode="negative", tol=1.0, max_iter=1)
    message = str(info.value)
    assert "stopped after 1 steps with an error bound of 2.333e-05" in message
    assert "0.001 * sup|u| = 9.461e-06" in message


def _count_condition_estimates(monkeypatch):
    from beamsign import solver

    lapack = solver._lapack()
    estimate = lapack.dgbcon
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return estimate(*args, **kwargs)

    monkeypatch.setattr(lapack, "dgbcon", counting)
    return calls


def test_each_operator_takes_at_most_two_condition_estimates(monkeypatch):
    # at c = 1e11 every vector solve's plain bound misses 1e-3 and takes the
    # column-equilibrated one; both are kept on the operator, so further
    # solves with it estimate nothing
    from beamsign import solver

    calls = _count_condition_estimates(monkeypatch)
    grid = Grid(UNIT, 200)
    t = grid.nodes
    op = assemble(5.0, ScalarField(grid, 1e11 * (1.0 + 0.1 * t)))
    for k in (1, 2, 3):
        assert solver._solve_vector(op, np.sin(k * np.pi * t))[1] <= 1e-7
    assert len(calls) == 2


def test_a_fixed_point_run_takes_one_condition_estimate(monkeypatch):
    # the steps with the frozen operator take none: the run's one is that of
    # the solve with c itself, which bounds the result
    calls = _count_condition_estimates(monkeypatch)
    run = fixed_point_solve(_fixed_point_problem(), mode="negative", tol=1e-10)
    assert run.solution.iterations >= 3
    assert run.solution.forward_error_bound <= 1e-6
    assert len(calls) == 1
    # with d = c the one solve is the answer, and takes the one estimate; a
    # constant c takes the sine transform, which needs none
    calls.clear()
    grid = Grid(UNIT, 200)
    c = ScalarField(grid, 900.0 + 10.0 * np.sin(np.pi * grid.nodes))
    static = ProblemSpec(UNIT, 0.0, c, ScalarField.constant(grid, 1.0))
    assert fixed_point_solve(static, mode="positive").solution.iterations == 1
    assert len(calls) == 1
    calls.clear()
    assert fixed_point_solve(unit_problem(200, 900.0), mode="positive").solution.iterations == 1
    assert calls == []


def test_a_singular_frozen_operator_still_raises_resonance():
    # positive mode clamps c = 2000 to -lambda2 at the middle node and keeps
    # c = -411.81287039424393 elsewhere, which makes T[p, d] singular to
    # working precision (its last pivot is 5.6e-14, against entries of
    # 4096): the iterates grow about 1e13-fold a step until they leave float64
    grid = Grid(UNIT, 8)
    cv = np.full(9, -411.81287039424393)
    cv[4] = 2000.0
    problem = ProblemSpec(UNIT, 0.0, ScalarField(grid, cv), ScalarField.constant(grid, 1.0))
    with pytest.raises(ResonanceError, match="the solve breaks down"):
        fixed_point_solve(problem, mode="positive", check_hypotheses=False)


def test_fixed_point_bound_holds_where_the_first_step_ratio_misleads():
    # a localized c and an oscillating load: the first step ratio is 0.008,
    # the later ones 0.041, so a distance estimated from the step ratio
    # would read 6.7e-5 of sup|u| at the second iterate, which lies 3.5e-4
    # from the solution; the solve with c itself bounds it
    grid = Grid(UNIT, 200)
    t = grid.nodes
    c = ScalarField(grid, -250.0 + 100.0 * np.exp(-50.0 * (t - 0.3) ** 2))
    problem = ProblemSpec(UNIT, 0.0, c, ScalarField(grid, np.sin(7.0 * np.pi * t)))
    run = fixed_point_solve(problem, mode="negative", tol=1.0, check_hypotheses=False)
    assert run.solution.iterations == 2
    u = np.asarray(run.solution.u.values)
    ref = np.asarray(direct_solve(problem).u.values)
    error = np.max(np.abs(u - ref)) / np.max(np.abs(u))
    assert 3e-4 < error <= run.solution.forward_error_bound <= 1e-3


def _eigenvalue_with_a_quotient_at_every_step(op, tol=1e-12, max_iter=500):
    # inverse iteration that takes the extended-precision Rayleigh quotient at
    # every step and stops when its update is below tol or stops shrinking
    from beamsign import solver

    v = np.random.default_rng(7).standard_normal(op.grid.n + 1)[1:-1]
    v /= np.linalg.norm(v)
    band_ld = op.band_extended()[:, 1:-1]
    lam, prev_delta = None, np.inf
    for it in range(max_iter):
        w = op._solve_interior(v)
        w /= np.linalg.norm(w)
        w_ld = w.astype(np.longdouble)
        new = float(w_ld @ solver._band_matvec(band_ld, w_ld))
        if lam is not None:
            delta = abs(new - lam)
            if delta <= tol * max(1.0, abs(new)) or (it >= 3 and delta >= prev_delta):
                return new
            prev_delta = delta
        lam = new
        v = w
    raise AssertionError("the reference iteration did not settle")


@pytest.mark.parametrize(
    "n, p, c_value",
    [(250, 50.0, 5000.0), (250, 0.0, -300.0), (1000, 0.0, -300.0), (1000, 50.0, 5000.0)],
)
def test_smallest_eigenvalue_agrees_with_a_quotient_at_every_step(n, p, c_value):
    grid = Grid(UNIT, n)
    op = assemble(p, ScalarField.constant(grid, c_value), grid)
    ref = _eigenvalue_with_a_quotient_at_every_step(op)
    assert abs(smallest_eigenvalue(op) - ref) <= 1e-9 * abs(ref)


def test_smallest_eigenvalue_takes_the_extended_quotient_only_at_the_end(monkeypatch):
    # about 25 steps here; the float64 estimate carries all but the last few
    from beamsign import solver

    grid = Grid(UNIT, 250)
    op = assemble(50.0, ScalarField.constant(grid, 5000.0), grid)
    steps, extended = [], []
    solve, matvec = solver.OperatorMatrix._solve_interior, solver._band_matvec

    def counting_solve(self, rhs):
        steps.append(1)
        return solve(self, rhs)

    def counting_matvec(band, u):
        if u.dtype == np.longdouble:
            extended.append(1)
        return matvec(band, u)

    monkeypatch.setattr(solver.OperatorMatrix, "_solve_interior", counting_solve)
    monkeypatch.setattr(solver, "_band_matvec", counting_matvec)
    solver.smallest_eigenvalue(op)
    assert len(steps) >= 20
    assert 1 <= len(extended) <= 4


@pytest.mark.parametrize("n", [8, 200, 2000])
def test_sign_certificate_slopes_are_the_derivative_field_end_values(n):
    from beamsign.fields import diff

    rng = np.random.default_rng(n)
    for interval in (UNIT, Interval(-1.35043, 1.35043), Interval(0.5, 2.0)):
        grid = Grid(interval, n)
        for _ in range(20):
            fld = ScalarField(grid, rng.standard_normal(n + 1) * 10.0 ** rng.uniform(-8.0, 8.0))
            cert = sign_certificate(fld)
            du = diff(fld, 1).values
            assert cert.slope_a == du[0]
            assert cert.slope_b == du[-1]
