"""Forward errors of the vector solves against the sine-transform closed form.

For constant c the exact solution of the discrete problem is a DST-I away
(see ``sine_transform.py``), so these tests measure the error against the
operator L^2 + p L + c itself, which no residual check can see.  The public
vector solves take the package's own sine transform for constant c and
meet 1e-10 everywhere.  The ``split`` cases call the split solve, which
variable c takes, on the same constant c: it never rounds c against a
spacing**-4 term and meets 1e-10 up to n = 400 at c = -97 and up to
n = 2000 at c = 0, but at c = -97, 0.4 from -lambda_1, its own rounding
reaches 2e-10 at n = 1000 and 5.5e-10 at n = 2000.  Those cases are strict
xfails with the error measured on x86_64 in their reason, as are those of
``smallest_eigenvalue``, which still iterates on the pentadiagonal band,
whose diagonal 6/h^4 + 2p/h^2 + c stores c with an error of up to
u * 6/h^4.  A solve that gets more accurate turns its cases into passes,
and strict xfail makes that fail until the mark is removed.  Every vector
solve also stays within its own ``forward_error_bound``.

For variable c the reference is A^-1 inverted densely at 50 digits, so
those cases stay at small n.
"""
import numpy as np
import pytest

from beamsign import Grid, Interval, ProblemSpec, ScalarField, direct_solve, fixed_point_solve
from beamsign import superposition_solve
from beamsign.greens import y_boundary
from beamsign.solver import _rhs_vector, _split_vector, assemble, smallest_eigenvalue
from sine_transform import (
    VARIABLE_COEFFICIENTS,
    modal_denominators,
    mpmath_inverse,
    sine_transform_solve,
)

UNIT = Interval(0.0, 1.0)
RTOL = 1e-10
SIZES = (200, 400, 1000, 2000)

# the measured relative error at each n in SIZES where it misses RTOL, or None where it meets it
MEASURED = {
    ("direct", 0.0): (None, None, None, None),
    ("direct", -97.0): (None, None, None, None),
    ("superposition", 0.0): (None, None, None, None),
    ("superposition", -97.0): (None, None, None, None),
    ("fixed_point", 0.0): (None, None, None, None),
    ("fixed_point", -97.0): (None, None, None, None),
    ("y_boundary", 0.0): (None, None, None, None),
    ("y_boundary", -97.0): (None, None, None, None),
    ("split", 0.0): (None, None, None, None),
    ("split", -97.0): (None, None, 2.1e-10, 5.5e-10),
    ("smallest_eigenvalue", 0.0): (4.9e-9, 7.8e-8, 2.5e-6, 4.0e-5),
    ("smallest_eigenvalue", -97.0): (1.2e-6, 1.9e-5, 6.0e-4, 9.5e-3),
}
# a coefficient that fixed_point_solve iterates on in negative mode: it freezes
# d = max(c, -lambda3) with lambda3 = 237.7, so c - d reaches -12.3
ITERATED = (0.0, lambda t: -250.0 + 30.0 * np.sin(np.pi * t))
VECTOR_SOLVES = ("direct", "superposition", "fixed_point", "y_boundary", "split")


def _cases():
    for (name, cv), outcomes in MEASURED.items():
        for n, outcome in zip(SIZES, outcomes):
            marks = ()
            if outcome is not None:
                why = (
                    "inverse iteration runs on the rounded band"
                    if name == "smallest_eigenvalue"
                    else "the split solve's own rounding, 0.4 from -lambda_1"
                )
                marks = pytest.mark.xfail(
                    strict=True, raises=AssertionError,
                    reason=f"relative forward error {outcome:.1e}: {why}",
                )
            yield pytest.param(name, cv, n, marks=marks, id=f"{name}-c{cv:g}-n{n}")


def _problem(cv, n):
    # p = 0 and h = 1 + sin(pi t) / 2 on [0, 1]
    grid = Grid(UNIT, n)
    hv = 1.0 + 0.5 * np.sin(np.pi * grid.nodes)
    return ProblemSpec(UNIT, 0.0, ScalarField.constant(grid, cv), ScalarField(grid, hv))


def _vector_solve(name, problem, **fixed_point_options):
    """(u, forward_error_bound, the right-hand side it solves for) of one vector solve."""
    if name == "y_boundary":
        grid = problem.grid
        load = np.zeros(grid.n + 1)
        load[1] = -(grid.spacing**-2)
        y = y_boundary(problem.p, problem.c, grid, "a")
        # y_boundary returns no bound; its solve is the one direct_solve makes for this load
        same = ProblemSpec(grid.interval, problem.p, problem.c, ScalarField(grid, load))
        return y.values, direct_solve(same).forward_error_bound, load
    if name == "split":
        # the split solve that variable c takes, called on any c
        op = assemble(problem.p, problem.c, problem.grid)
        return (*_split_vector(op, _rhs_vector(op, problem)), problem.h.values)
    sol = {
        "direct": direct_solve,
        "superposition": superposition_solve,
        "fixed_point": lambda prob: fixed_point_solve(prob, **fixed_point_options).solution,
    }[name](problem)
    return sol.u.values, sol.forward_error_bound, problem.h.values


def _relative_error(values, ref) -> float:
    values = np.asarray(values, dtype=np.float64)
    return float(np.max(np.abs(values - ref)) / np.max(np.abs(ref)))


@pytest.mark.parametrize("name, cv, n", list(_cases()))
def test_forward_error_against_the_sine_transform(name, cv, n):
    problem = _problem(cv, n)
    spacing = problem.grid.spacing
    if name == "smallest_eigenvalue":
        lam = modal_denominators(0.0, cv, n, spacing)
        ref = lam[np.argmin(np.abs(lam))]  # inverse iteration finds the eigenvalue nearest 0
        err = abs(smallest_eigenvalue(assemble(0.0, problem.c, problem.grid)) - ref) / abs(ref)
    else:
        u, _, rhs = _vector_solve(name, problem)
        err = _relative_error(u, sine_transform_solve(0.0, cv, n, spacing, rhs))
    assert err <= RTOL


@pytest.mark.parametrize("name", VECTOR_SOLVES)
def test_every_vector_solve_is_within_its_forward_error_bound(name):
    # against the sine transform for constant c, and against a 50-digit inverse
    # for variable c at small n
    for cv in (0.0, -97.0):
        for n in SIZES:
            problem = _problem(cv, n)
            u, bound, rhs = _vector_solve(name, problem)
            ref = sine_transform_solve(0.0, cv, n, problem.grid.spacing, rhs)
            assert _relative_error(u, ref) <= bound
    pytest.importorskip("mpmath")
    for n in (8, 16, 32):
        grid = Grid(UNIT, n)
        hv = 1.0 + 0.5 * np.sin(3.0 * np.pi * grid.nodes)
        for p, c_of in VARIABLE_COEFFICIENTS + [ITERATED]:
            c = ScalarField(grid, c_of(grid.nodes))
            problem = ProblemSpec(UNIT, p, c, ScalarField(grid, hv))
            u, bound, rhs = _vector_solve(name, problem, mode="negative", check_hypotheses=False)
            ref = np.zeros(n + 1)
            ref[1:n] = mpmath_inverse(p, c.values[1:n], grid.spacing) @ np.asarray(rhs)[1:n]
            assert _relative_error(u, ref) <= bound


def test_the_sine_transform_solve_inverts_the_dense_operator():
    # the reference itself, against A = L^2 + p L + c I assembled densely at a size
    # where float64 solves it to about 1e-13
    n, p, cv = 16, 5.0, -97.0
    spacing = 1.0 / n
    second = (2.0 * np.eye(n - 1) - np.eye(n - 1, k=1) - np.eye(n - 1, k=-1)) / spacing**2
    A = second @ second + p * second + cv * np.eye(n - 1)
    b = np.zeros(n + 1)
    b[1:n] = np.cos(np.arange(1, n))
    u = sine_transform_solve(p, cv, n, spacing, b)
    assert u[0] == u[n] == 0.0
    assert _relative_error(u[1:n], np.linalg.solve(A, b[1:n])) <= 1e-12


@pytest.mark.parametrize("n", [8, 16, 32])
def test_variable_c_solves_match_an_mpmath_inverse(n):
    pytest.importorskip("mpmath")
    grid = Grid(UNIT, n)
    spacing = grid.spacing
    hv = 1.0 + 0.5 * np.sin(3.0 * np.pi * grid.nodes)
    rhs = hv[1:n].copy()  # the end moments enter through the ghost rows
    rhs[0] += 0.7 / spacing**2
    rhs[-1] += 1.3 / spacing**2
    for p, c_of in VARIABLE_COEFFICIENTS:
        cv = c_of(grid.nodes)
        problem = ProblemSpec(UNIT, p, ScalarField(grid, cv), ScalarField(grid, hv), d1=-0.7, d2=-1.3)
        ref = np.zeros(n + 1)
        ref[1:n] = mpmath_inverse(p, cv[1:n], spacing) @ rhs
        for solve in (direct_solve, superposition_solve):
            assert _relative_error(solve(problem).u.values, ref) <= RTOL
