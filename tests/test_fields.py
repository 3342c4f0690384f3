import math
import warnings

import numpy as np
import pytest

from beamsign import (
    Grid,
    Interval,
    ProblemSpec,
    ScalarField,
    diff,
    extrema,
    integrate,
    l2_norm,
    split_signs,
    sup_norm,
)

UNIT = Interval(0.0, 1.0)


def sine_series(rng, grid, modes=8):
    L = grid.interval.length
    t = grid.nodes - grid.interval.a
    vals = np.zeros(grid.n + 1)
    for k, a in enumerate(rng.uniform(-2.0, 2.0, modes), start=1):
        vals += a * np.sin(k * np.pi * t / L)
    return ScalarField(grid, vals)


def test_interval_requires_finite_ordered_endpoints():
    assert Interval(-2.0, 3.0).length == 5.0
    with pytest.raises(ValueError):
        Interval(1.0, 1.0)
    with pytest.raises(ValueError):
        Interval(2.0, -1.0)
    with pytest.raises(ValueError):
        Interval(0.0, np.inf)
    with pytest.raises(ValueError):
        Interval(np.nan, 1.0)


def test_grid_shape_and_validation():
    g = Grid(UNIT, 10)
    assert g.spacing == 0.1
    assert g.nodes.shape == (11,)
    assert g.nodes[0] == 0.0
    assert g.nodes[-1] == 1.0
    assert np.allclose(np.diff(g.nodes), 0.1)
    with pytest.raises(ValueError):
        Grid(UNIT, 9)
    with pytest.raises(ValueError):
        Grid(UNIT, 6)


def test_scalar_field_validation_and_dtypes():
    g = Grid(UNIT, 8)
    with pytest.raises(ValueError):
        ScalarField(g, np.zeros(8))
    with pytest.raises(ValueError):
        ScalarField(g, np.full(9, np.nan))
    f = ScalarField(g, np.arange(9))
    assert f.values.dtype == np.float64
    f_ld = ScalarField(g, np.zeros(9, dtype=np.longdouble))
    assert f_ld.values.dtype == np.longdouble
    const = ScalarField.constant(g, -2.5)
    assert np.all(const.values == -2.5)
    fn = ScalarField.from_function(g, lambda t: 2.0)
    assert fn.values.shape == (9,)
    assert np.all(fn.values == 2.0)


def test_problem_spec_validation():
    g = Grid(UNIT, 8)
    c = ScalarField.constant(g, 0.0)
    h = ScalarField.constant(g, 1.0)
    spec = ProblemSpec(UNIT, 0.0, c, h, d1=-1.0, d2=0.0)
    assert spec.grid == g
    with pytest.raises(ValueError):
        ProblemSpec(UNIT, -1.0, c, h)
    with pytest.raises(ValueError):
        ProblemSpec(UNIT, 0.0, c, h, d1=0.5)
    with pytest.raises(ValueError):
        ProblemSpec(UNIT, 0.0, c, ScalarField.constant(Grid(UNIT, 10), 1.0))
    with pytest.raises(ValueError):
        ProblemSpec(Interval(0.0, 2.0), 0.0, c, h)


def test_extrema_examples():
    g = Grid(UNIT, 200)
    assert extrema(ScalarField.constant(g, 0.0)) == (0.0, 0.0)
    assert extrema(ScalarField.constant(g, -250.0)) == (-250.0, -250.0)
    lo, hi = extrema(ScalarField.from_function(g, lambda t: np.sin(np.pi * t)))
    assert lo == 0.0
    assert abs(hi - 1.0) < 1e-4


def test_split_signs_examples_and_reconstruction():
    g = Grid(UNIT, 64)
    plus, minus = split_signs(ScalarField.constant(g, 5.0))
    assert np.all(plus.values == 5.0)
    assert np.all(minus.values == 0.0)
    plus, minus = split_signs(ScalarField.constant(g, -3.0))
    assert np.all(plus.values == 0.0)
    assert np.all(minus.values == 3.0)
    f = ScalarField.from_function(g, lambda t: -np.sin(np.pi * t))
    plus, minus = split_signs(f)
    assert np.all(plus.values == 0.0)
    assert np.allclose(minus.values, np.sin(np.pi * g.nodes))
    rng = np.random.default_rng(42)
    for _ in range(20):
        f = ScalarField(g, rng.uniform(-5.0, 5.0, g.n + 1))
        plus, minus = split_signs(f)
        assert np.all(plus.values >= 0.0)
        assert np.all(minus.values >= 0.0)
        assert np.array_equal(plus.values - minus.values, f.values)
        assert np.all(plus.values * minus.values == 0.0)


def test_integrate_examples():
    g = Grid(UNIT, 200)
    assert abs(integrate(ScalarField.constant(g, 1.0)) - 1.0) < 1e-14
    sin = ScalarField.from_function(g, lambda t: np.sin(np.pi * t))
    assert abs(integrate(sin) - 2.0 / np.pi) < 1e-8
    cubic = ScalarField.from_function(Grid(UNIT, 8), lambda t: t**3)
    assert abs(integrate(cubic) - 0.25) < 1e-15


def test_integrate_matches_scipy_simpson_bit_for_bit():
    from scipy.integrate import simpson

    rng = np.random.default_rng(11)
    for _ in range(200):
        g = Grid(Interval(0.0, float(rng.uniform(0.1, 30.0))), 2 * int(rng.integers(4, 1000)))
        v = rng.standard_normal(g.n + 1) * 10.0 ** rng.uniform(-4.0, 4.0, g.n + 1)
        f = ScalarField(g, v)
        assert integrate(f) == float(simpson(v, dx=g.spacing))
        assert l2_norm(f) == float(np.sqrt(max(simpson(v * v, dx=g.spacing), 0.0)))


def test_integrate_survives_an_overflowing_sum():
    # c = -2e306 on [0, 1e-76]: the grouped Simpson sum leaves float64 although
    # the integral, -2e230, does not
    g = Grid(Interval(0.0, 1e-76), 200)
    f = ScalarField.constant(g, -2e306)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = integrate(f)
        plus, minus = split_signs(f)
        assert integrate(minus) == -value
    assert math.isfinite(value)
    assert abs(value + 2e230) <= 1e-15 * 2e230
    # an integral that is itself past float64 still reads inf
    assert integrate(ScalarField.constant(Grid(Interval(0.0, 1e3), 200), 1e306)) == math.inf


def test_integrate_linear_and_monotone():
    g = Grid(UNIT, 64)
    rng = np.random.default_rng(7)
    for _ in range(20):
        fv = rng.uniform(-3.0, 3.0, g.n + 1)
        gv = rng.uniform(-3.0, 3.0, g.n + 1)
        alpha = rng.uniform(-2.0, 2.0)
        lhs = integrate(ScalarField(g, fv + alpha * gv))
        rhs = integrate(ScalarField(g, fv)) + alpha * integrate(ScalarField(g, gv))
        assert abs(lhs - rhs) < 1e-12
        hi = ScalarField(g, fv + rng.uniform(0.0, 1.0, g.n + 1))
        assert integrate(ScalarField(g, fv)) <= integrate(hi) + 1e-12


def test_norms():
    g = Grid(UNIT, 200)
    two = ScalarField.constant(g, -2.0)
    assert sup_norm(two) == 2.0
    assert abs(l2_norm(two) - 2.0) < 1e-12
    sin = ScalarField.from_function(g, lambda t: np.sin(np.pi * t))
    assert abs(l2_norm(sin) - np.sqrt(0.5)) < 1e-8
    zero = ScalarField.constant(g, 0.0)
    assert sup_norm(zero) == 0.0
    assert l2_norm(zero) == 0.0


def test_diff_exactness_and_accuracy():
    g = Grid(UNIT, 400)
    lin = ScalarField.from_function(g, lambda t: 3.0 * t)
    assert np.allclose(diff(lin, 1).values, 3.0, atol=1e-11)
    quad = ScalarField.from_function(g, lambda t: t**2)
    assert np.allclose(diff(quad, 2).values, 2.0, atol=1e-7)
    sin = ScalarField.from_function(g, lambda t: np.sin(np.pi * t))
    assert abs(diff(sin, 1).values[0] - np.pi) < 1e-3
    with pytest.raises(ValueError):
        diff(sin, 3)


def test_diff_composition_matches_second_derivative():
    g = Grid(UNIT, 400)
    u = ScalarField.from_function(g, lambda t: np.sin(np.pi * t))
    twice = diff(diff(u, 1), 1).values
    second = diff(u, 2).values
    gap = np.max(np.abs(twice[2:-2] - second[2:-2]))
    assert gap < 5e-4 * np.max(np.abs(second))


def test_wirtinger_chain_on_sine_series():
    rng = np.random.default_rng(1)
    for interval in (UNIT, Interval(0.0, 2.0), Interval(-1.0, 1.5)):
        g = Grid(interval, 400)
        factor = interval.length / np.pi
        for _ in range(10):
            u = sine_series(rng, g)
            n0 = l2_norm(u)
            n1 = l2_norm(diff(u, 1))
            n2 = l2_norm(diff(u, 2))
            assert n0 <= factor * n1 * 1.01
            assert factor * n1 <= factor**2 * n2 * 1.01
            assert sup_norm(u) <= 0.5 * np.sqrt(interval.length) * n1 * 1.01
    # the pure first mode saturates the L2 inequality
    g = Grid(UNIT, 400)
    mode1 = ScalarField.from_function(g, lambda t: np.sin(np.pi * t))
    assert l2_norm(mode1) >= (1.0 / np.pi) * l2_norm(diff(mode1, 1)) * 0.99
