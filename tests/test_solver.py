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

UNIT = Interval(0.0, 1.0)


def unit_problem(n, c_value, h_value=1.0, p=0.0, d1=0.0, d2=0.0):
    grid = Grid(UNIT, n)
    c = ScalarField.constant(grid, c_value)
    h = ScalarField.constant(grid, h_value)
    return ProblemSpec(UNIT, p, c, h, d1=d1, d2=d2)


def quartic(t):
    return (t**4 - 2.0 * t**3 + t) / 24.0


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
    assert sol.residual_norm <= 1e-8 * (1.0 + 1.0)


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


def test_direct_solve_resonance_is_reported():
    with pytest.raises(ResonanceError) as info:
        direct_solve(unit_problem(200, -np.pi**4))
    assert info.value.index == 1
    assert abs(info.value.nearest_eigenvalue + np.pi**4) < 1e-6
    assert "lambda_1" in str(info.value)


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
    rng = np.random.default_rng(9)
    grid = Grid(UNIT, 200)
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
        bound = 1e-8 * (sup_norm(problem.h) + abs(problem.d1) + abs(problem.d2) + 1.0)
        assert d.residual_norm <= bound
        assert s.residual_norm <= bound


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
    grid = Grid(UNIT, 200)
    one = ScalarField.constant(grid, 1.0)
    assert abs(rhs_norm_bound(one, 0.0, UNIT) - 1.0 / np.pi**2) < 1e-12
    assert rhs_norm_bound(ScalarField.constant(grid, 0.0), 0.0, UNIT) == 0.0
    two = ScalarField.constant(grid, 2.0)
    target = 2.0 / np.sqrt(2.0 * np.pi**4)
    assert abs(rhs_norm_bound(two, 0.0, UNIT, r_min=np.pi**4) - target) < 1e-12
    with pytest.raises(ValueError):
        rhs_norm_bound(one, 0.0, UNIT, r_min=-200.0)


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
    assert sol.residual_norm <= 1e-8 * (4.89435 + 1.0)
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
    run = fixed_point_solve(unit_problem(200, -250.0), mode="negative", tol=1e-10)
    assert run.solution.iterations >= 2
    assert len(calls) == 1
    calls.clear()
    superposition_solve(unit_problem(200, 40.0, d1=-1.0, d2=-0.5))
    assert len(calls) == 1  # kernel, both moment responses and the check share it
    calls.clear()
    op = assemble(0.0, ScalarField.constant(Grid(UNIT, 200), 0.0))
    smallest_eigenvalue(op)
    smallest_eigenvalue(op)
    assert len(calls) == 1
    calls.clear()
    direct_solve(unit_problem(200, 0.0))
    assert len(calls) == 1
    # greens_discrete: one factorization, of the split system, and nothing in
    # extended precision, at n = 200 and at n = 400 alike
    from beamsign import solver

    def no_extended(self):
        raise AssertionError("extended-precision work in the kernel")

    for n in (200, 400):
        calls.clear()
        grid = Grid(UNIT, n)
        with monkeypatch.context() as patch:
            patch.setattr(solver.OperatorMatrix, "band_extended", no_extended)
            G = greens_discrete(0.0, ScalarField.constant(grid, 0.0), grid)
        assert calls == [2 * (n - 1)]
        assert G.values.dtype == np.float64


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


def _independent_residual(problem: ProblemSpec, u) -> tuple[float, float]:
    # the hinged stencil written out row by row, ghost nodes eliminated by hand;
    # returns the largest interior residual and the size of one extended-precision
    # rounding of the largest row sum, which bounds how far two summation orders differ
    n = problem.grid.n
    dx = problem.grid.spacing
    inv4, inv2 = dx**-4, dx**-2
    cv = np.asarray(problem.c.values, dtype=np.float64)
    A = np.zeros((n + 1, n + 1))
    for i in range(1, n):
        for j, coef in ((i - 2, inv4), (i - 1, -4.0 * inv4 - problem.p * inv2),
                        (i + 1, -4.0 * inv4 - problem.p * inv2), (i + 2, inv4)):
            if 0 <= j <= n:
                A[i, j] = coef
        A[i, i] = 6.0 * inv4 + 2.0 * problem.p * inv2 + cv[i]
    A[1, 1] -= inv4  # ghost u_{-1} = -u_1 + dx^2 d1
    A[n - 1, n - 1] -= inv4
    b = np.array(problem.h.values, dtype=np.float64)
    b[1] -= problem.d1 * inv2
    b[n - 1] -= problem.d2 * inv2
    ul = np.asarray(u, dtype=np.longdouble)
    r = A[1:n].astype(np.longdouble) @ ul - b[1:n].astype(np.longdouble)
    floor = float(np.finfo(np.longdouble).eps) * float(np.max(np.abs(A[1:n]) @ np.abs(ul)))
    return float(np.max(np.abs(r))), floor


def test_residual_norm_is_the_residual_of_the_returned_solution():
    grid = Grid(UNIT, 200)
    c = ScalarField(grid, -250.0 + 30.0 * np.sin(np.pi * grid.nodes))
    h = ScalarField(grid, 1.0 + 0.5 * np.cos(3.0 * grid.nodes))
    problem = ProblemSpec(UNIT, 2.0, c, h, d1=-0.5, d2=-1.5)
    homogeneous = ProblemSpec(UNIT, 2.0, c, h)
    sols = [
        direct_solve(problem),
        superposition_solve(problem),
        fixed_point_solve(homogeneous, mode="negative", check_hypotheses=False).solution,
    ]
    for prob, sol in zip((problem, problem, homogeneous), sols):
        res, floor = _independent_residual(prob, sol.u.values)
        assert floor < 1e-9  # far below the residual of u rounded to float64 (~1e-7)
        assert abs(sol.residual_norm - res) <= floor


def test_superposition_meets_the_bound_at_large_n():
    # at this size the rounding of the kernel sum G (h w) alone puts the residual
    # past the bound; refining the sum against the operator brings it back below
    grid = Grid(UNIT, 600)
    c = ScalarField.constant(grid, -662.566)
    h = ScalarField(grid, 3.3351 * (1.0 + 0.5 * np.sin(np.pi * grid.nodes)))
    problem = ProblemSpec(UNIT, 50.0, c, h)
    sup = superposition_solve(problem)
    assert sup.residual_norm <= 1e-8 * (sup_norm(h) + 1.0)
    d = direct_solve(problem)
    gap = np.max(np.abs(np.asarray(sup.u.values - d.u.values, dtype=np.float64)))
    assert gap < 1e-8 * sup_norm(d.u)


def test_superposition_refines_only_vectors_in_extended_precision(monkeypatch):
    from beamsign import solver

    shapes = []
    matvec = solver._band_matvec

    def recording(band, u):
        shapes.append(u.ndim)
        return matvec(band, u)

    monkeypatch.setattr(solver, "_band_matvec", recording)
    grid = Grid(UNIT, 200)
    c = ScalarField(grid, 40.0 + 30.0 * np.sin(np.pi * grid.nodes))
    problem = ProblemSpec(UNIT, 5.0, c, ScalarField.constant(grid, 1.0), d1=-0.5, d2=-1.5)
    superposition_solve(problem)
    assert shapes and all(ndim == 1 for ndim in shapes)


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


def _swap_moment_columns(r):
    return r[:, list(range(r.shape[1] - 2)) + [-1, -2]]


def _drop_one_load_column(r):
    r = r.copy()
    r[:, 100] = 0.0
    return r


def _misscale_load_columns(r):
    r = r.copy()
    r[:, :-2] *= 1.001
    return r


def _shift_load_columns(r):
    return np.concatenate((r[:, 1:-2], r[:, :1], r[:, -2:]), axis=1)


@pytest.mark.parametrize(
    "corrupt",
    [_swap_moment_columns, _drop_one_load_column, _misscale_load_columns, _shift_load_columns],
)
def test_superposition_rejects_a_wrong_kernel_column(monkeypatch, corrupt):
    # refinement alone would turn any start into the solution; the kernel sum
    # must still agree with it, so a wrong column cannot go unnoticed
    from beamsign import solver

    solve = solver.OperatorMatrix._solve_interior

    def corrupted(self, rhs):
        out = solve(self, rhs)
        return corrupt(out) if out.ndim == 2 else out

    grid = Grid(UNIT, 200)
    c = ScalarField(grid, -60.0 + 40.0 * np.cos(2.0 * grid.nodes))
    h = ScalarField(grid, 1.0 + 0.5 * np.sin(3.0 * np.pi * grid.nodes))
    problem = ProblemSpec(UNIT, 5.0, c, h, d1=-0.7, d2=-1.3)
    superposition_solve(problem)
    monkeypatch.setattr(solver.OperatorMatrix, "_solve_interior", corrupted)
    with pytest.raises(ResonanceError, match="kernel sum"):
        superposition_solve(problem)


def test_only_a_matrix_of_loads_takes_the_transposed_sweep():
    # the interior block is symmetric, so a matrix of right-hand sides may be
    # solved with the transposed factors; a vector still takes the plain
    # solve, which keeps direct_solve, y_boundary, fixed_point_solve and
    # smallest_eigenvalue bit for bit as they were
    from beamsign import solver

    grid = Grid(UNIT, 200)
    op = assemble(2.0, ScalarField(grid, -250.0 + 30.0 * np.sin(np.pi * grid.nodes)), grid)
    rhs = np.random.default_rng(2).standard_normal((grid.n - 1, 3))
    x = op._solve_interior(rhs[:, 0].copy())
    lu, piv = op._lu
    assert np.any(piv != np.arange(grid.n - 1))  # the factorization pivots
    lapack = solver._lapack()
    assert np.array_equal(x, lapack.dgbtrs(lu, 2, 2, rhs[:, 0], piv)[0])
    block = op._solve_interior(np.asfortranarray(rhs))
    assert np.array_equal(block, lapack.dgbtrs(lu, 2, 2, rhs, piv, trans=1)[0])


def test_superposition_agrees_with_the_untransposed_kernel_solve(monkeypatch):
    from beamsign import solver

    solve = solver.OperatorMatrix._solve_interior

    def untransposed(self, rhs):
        if rhs.ndim == 1:
            return solve(self, rhs)
        solve(self, np.zeros(rhs.shape[0]))  # factors the block at the first call
        lu, piv = self._lu
        return solver._lapack().dgbtrs(lu, 2, 2, rhs, piv)[0]

    cases = [
        (200, 5.0, lambda t: -60.0 + 40.0 * np.cos(2.0 * t)),
        (250, 0.0, lambda t: np.full(t.shape, -250.0)),
        (250, 50.0, lambda t: 900.0 * np.sin(np.pi * t)),
        (600, 2.0, lambda t: np.full(t.shape, -80.0)),
    ]
    problems = []
    for n, p, c_of in cases:
        grid = Grid(UNIT, n)
        t = grid.nodes
        h = ScalarField(grid, 1.0 + 0.5 * np.sin(3.0 * np.pi * t))
        problems.append(ProblemSpec(UNIT, p, ScalarField(grid, c_of(t)), h, d1=-0.7, d2=-1.3))
    swept = [np.asarray(superposition_solve(pr).u.values, dtype=np.float64) for pr in problems]
    monkeypatch.setattr(solver.OperatorMatrix, "_solve_interior", untransposed)
    for problem, u in zip(problems, swept):
        ref = np.asarray(superposition_solve(problem).u.values, dtype=np.float64)
        assert np.max(np.abs(u - ref)) <= 1e-10 * np.max(np.abs(ref))


def _fixed_point_residual_problem():
    # the assembled diagonal rounds c to about 1e-5 here; iterating with the
    # unrounded c - d converged to u with a residual of 8.7e-8 against 2e-8
    grid = Grid(UNIT, 400)
    c = ScalarField(grid, -250.0 + 20.0 * np.sin(np.pi * grid.nodes))
    return ProblemSpec(UNIT, 0.0, c, ScalarField.constant(grid, 1.0))


def test_fixed_point_meets_the_residual_bound():
    problem = _fixed_point_residual_problem()
    run = fixed_point_solve(problem, mode="negative", tol=1e-10)
    bound = 1e-8 * (sup_norm(problem.h) + 1.0)
    assert run.solution.residual_norm <= bound
    res, floor = _independent_residual(problem, run.solution.u.values)
    assert abs(run.solution.residual_norm - res) <= floor
    # a loose tol no longer stops the iteration before the residual is met
    loose = fixed_point_solve(problem, mode="negative", tol=1.0)
    assert loose.solution.residual_norm <= bound
    assert loose.solution.iterations >= 2


def test_fixed_point_reports_a_missed_residual_bound():
    problem = _fixed_point_residual_problem()
    with pytest.raises(ConvergenceError) as info:
        fixed_point_solve(problem, mode="negative", tol=1.0, max_iter=1)
    message = str(info.value)
    assert "residual" in message
    assert "bound 2.000e-08" in message
