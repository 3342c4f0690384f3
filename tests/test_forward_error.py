"""Forward errors of the vector solves against the sine-transform closed form.

For constant c the exact solution of the discrete problem is a DST-I away
(see ``sine_transform.py``), so these tests measure the error against the
operator L^2 + p L + c itself, which no residual check can see.  Every
vector solve still runs on the pentadiagonal band, whose diagonal
6/h^4 + 2p/h^2 + c stores c with an error of up to u * 6/h^4, and refines
against that band: so today each case misses 1e-10, or raises where the
residual against the band misses its absolute bound.  Each case is a strict
xfail with the error measured on x86_64 in its reason; a solve that moves to
the split factors turns its cases into passes, and strict xfail makes that
fail until the mark is removed.

For variable c the reference is A^-1 inverted densely at 50 digits, so
those cases stay at small n, where the band's rounding is far below 1e-10.
"""

import numpy as np
import pytest

from beamsign import Grid, Interval, ProblemSpec, ScalarField, direct_solve, fixed_point_solve
from beamsign import superposition_solve
from beamsign.errors import ConvergenceError, ResonanceError
from beamsign.greens import y_boundary
from beamsign.solver import assemble, smallest_eigenvalue
from sine_transform import (
    VARIABLE_COEFFICIENTS,
    modal_denominators,
    mpmath_inverse,
    sine_transform_solve,
)

UNIT = Interval(0.0, 1.0)
RTOL = 1e-10
SIZES = (200, 400, 1000, 2000)

# the measured relative error at each n in SIZES, or the exception the solve raises there
MEASURED = {
    ("direct", 0.0): (4.9e-9, 7.9e-8, 2.5e-6, ResonanceError),
    ("direct", -97.0): (1.2e-6, ResonanceError, ResonanceError, ResonanceError),
    ("superposition", 0.0): (4.9e-9, 7.9e-8, 2.5e-6, ResonanceError),
    ("superposition", -97.0): (1.2e-6, ResonanceError, ResonanceError, ResonanceError),
    ("fixed_point", 0.0): (4.9e-9, 7.9e-8, 2.5e-6, ConvergenceError),
    ("fixed_point", -97.0): (1.2e-6, ConvergenceError, ConvergenceError, ConvergenceError),
    ("y_boundary", 0.0): (4.9e-9, 7.9e-8, ResonanceError, ResonanceError),
    ("y_boundary", -97.0): (1.2e-6, ResonanceError, ResonanceError, ResonanceError),
    ("smallest_eigenvalue", 0.0): (4.9e-9, 7.8e-8, 2.5e-6, 4.0e-5),
    ("smallest_eigenvalue", -97.0): (1.2e-6, 1.9e-5, 6.0e-4, 9.5e-3),
}


def _cases():
    for (name, cv), outcomes in MEASURED.items():
        for n, outcome in zip(SIZES, outcomes):
            if isinstance(outcome, float):
                mark = pytest.mark.xfail(
                    strict=True, raises=AssertionError,
                    reason=f"relative forward error {outcome:.1e}: the solve refines against the rounded band",
                )
            else:
                mark = pytest.mark.xfail(
                    strict=True, raises=outcome,
                    reason=f"raises {outcome.__name__}: its check against the rounded band fails",
                )
            yield pytest.param(name, cv, n, marks=mark, id=f"{name}-c{cv:g}-n{n}")


def _relative_error(values, ref) -> float:
    values = np.asarray(values, dtype=np.float64)
    return float(np.max(np.abs(values - ref)) / np.max(np.abs(ref)))


@pytest.mark.parametrize("name, cv, n", list(_cases()))
def test_forward_error_against_the_sine_transform(name, cv, n):
    # p = 0 and h = 1 + sin(pi t) / 2 on [0, 1]; y_boundary takes its moment load
    grid = Grid(UNIT, n)
    spacing = grid.spacing
    c = ScalarField.constant(grid, cv)
    hv = 1.0 + 0.5 * np.sin(np.pi * grid.nodes)
    problem = ProblemSpec(UNIT, 0.0, c, ScalarField(grid, hv))
    if name == "smallest_eigenvalue":
        lam = modal_denominators(0.0, cv, n, spacing)
        ref = lam[np.argmin(np.abs(lam))]  # inverse iteration finds the eigenvalue nearest 0
        err = abs(smallest_eigenvalue(assemble(0.0, c, grid)) - ref) / abs(ref)
    elif name == "y_boundary":
        load = np.zeros(n + 1)
        load[1] = -(spacing**-2)
        ref = sine_transform_solve(0.0, cv, n, spacing, load)
        err = _relative_error(y_boundary(0.0, c, grid, "a").values, ref)
    else:
        solve = {
            "direct": lambda: direct_solve(problem),
            "superposition": lambda: superposition_solve(problem),
            "fixed_point": lambda: fixed_point_solve(problem).solution,
        }[name]
        err = _relative_error(solve().u.values, sine_transform_solve(0.0, cv, n, spacing, hv))
    assert err <= RTOL


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
