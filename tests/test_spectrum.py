import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamsign import Grid, Interval, ProblemSpec, ScalarField, fixed_point_solve, verdict
from beamsign import spectrum
from beamsign.errors import RootSearchError
from beamsign.spectrum import (
    SpectralData,
    delta1,
    delta2,
    lambda2,
    lambda3,
    lambda_k,
    nearest_mode,
)

UNIT = Interval(0.0, 1.0)

# first positive root of tan x = tanh x, from an independent bisection
X1 = 3.926602312047919


def test_lambda_k_closed_forms():
    assert abs(lambda_k(0.0, UNIT, 1) - np.pi**4) < 1e-12 * np.pi**4
    assert abs(lambda_k(0.0, Interval(0.0, np.pi), 1) - 1.0) < 1e-12
    target = 16.0 * np.pi**4 + 4.0 * np.pi**2
    assert abs(lambda_k(1.0, UNIT, 2) - target) < 1e-12 * target
    vals = [lambda_k(3.0, UNIT, k) for k in range(1, 8)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        lambda_k(0.0, UNIT, 0)
    with pytest.raises(ValueError):
        lambda_k(-1.0, UNIT, 1)


def test_lambda2_against_tan_tanh_oracle():
    value = lambda2(0.0, UNIT)
    target = -4.0 * X1**4
    assert abs(value - target) < 1e-8 * abs(target)
    assert abs(value - (-950.8842701244664)) < 1e-6
    # at p = 0 the threshold scales like length**-4
    assert abs(lambda2(0.0, Interval(0.0, 2.0)) - value / 16.0) < 1e-8 * abs(value) / 16.0


def test_lambda2_equation_residual():
    for p in (0.0, 1.0, 5.0, 10.0):
        lam = -lambda2(p, UNIT)
        q = np.sqrt(2.0 * np.sqrt(lam) - p)
        r = np.sqrt(2.0 * np.sqrt(lam) + p)
        assert abs(np.tan(0.5 * q) / q - np.tanh(0.5 * r) / r) < 1e-10


def test_lambda3_against_tan_tanh_oracle():
    value = lambda3(0.0, UNIT)
    assert abs(value - X1**4) < 1e-8 * X1**4
    assert abs(value - 237.72106753111677) < 1e-6
    assert abs(lambda3(0.0, Interval(0.0, 2.0)) - value / 16.0) < 1e-8 * value / 16.0


def test_lambda3_equation_residual():
    for p in (0.0, 1.0, 5.0, 10.0):
        lam = lambda3(p, UNIT)
        w = np.sqrt(p * p + 4.0 * lam)
        q = np.sqrt(w - p)
        r = np.sqrt(w + p)
        assert abs(np.tan(q / np.sqrt(2.0)) / q - np.tanh(r / np.sqrt(2.0)) / r) < 1e-10


def test_threshold_ordering_and_p_monotonicity():
    prev1 = prev1p = 0.0
    for p in (0.0, 1.0, 5.0, 10.0):
        sd = SpectralData.compute(p, UNIT)
        assert 0.0 < sd.lambda1 < sd.lambda3 < -sd.lambda2
        assert sd.lambda1 < sd.lambda1_prime
        assert sd.lambda1 > prev1
        assert sd.lambda1_prime > prev1p
        prev1, prev1p = sd.lambda1, sd.lambda1_prime
    assert lambda2(1.0, UNIT) < lambda2(0.0, UNIT)
    assert lambda3(1.0, UNIT) > lambda3(0.0, UNIT)


def test_spectral_data_rejects_bad_ordering():
    with pytest.raises(ValueError):
        SpectralData(
            p=0.0,
            interval=UNIT,
            lambda1=np.pi**4,
            lambda1_prime=16.0 * np.pi**4,
            lambda2=-50.0,
            lambda3=237.72,
            delta1=4.0 * np.pi**2,
        )


def test_delta1_examples():
    assert abs(delta1(0.0, UNIT) - 4.0 * np.pi**2) < 1e-12
    assert delta1(10.0, UNIT) == 40.0
    two = Interval(0.0, 2.0)
    assert abs(delta1(0.0, two) - 4.0 * np.pi**2 / 8.0) < 1e-12


def test_delta2_values_and_window():
    lam1 = np.pi**4
    lam1p = 16.0 * np.pi**4
    for c_m, expected in (
        (-500.0, 0.6791880545411144),
        (-250.0, 0.8395940272705572),
        (-200.0, 0.8716752218164457),
        (-300.0, 0.8075128327246687),
    ):
        value = delta2(0.0, UNIT, c_m)
        assert abs(value - expected) < 1e-12
        assert abs(value - min(-1.0 - c_m / lam1, 1.0 + c_m / lam1p)) < 1e-14
    for c_m in np.linspace(-lam1p + 1.0, -lam1 - 1.0, 25):
        assert 0.0 < delta2(0.0, UNIT, float(c_m)) < 1.0
    with pytest.raises(ValueError):
        delta2(0.0, UNIT, -lam1)
    with pytest.raises(ValueError):
        delta2(0.0, UNIT, -lam1p)
    with pytest.raises(ValueError):
        delta2(0.0, UNIT, -50.0)


def test_spectral_data_compute_is_consistent():
    sd = SpectralData.compute(2.0, UNIT)
    assert sd.lambda1 == lambda_k(2.0, UNIT, 1)
    assert sd.lambda1_prime == lambda_k(2.0, UNIT, 2)
    assert sd.lambda2 == lambda2(2.0, UNIT)
    assert sd.lambda3 == lambda3(2.0, UNIT)
    assert sd.delta1 == delta1(2.0, UNIT)


def _counting(monkeypatch, name, function=None):
    # calls of the spectrum module's ``name``, each recorded by its arguments
    calls = []
    function = function or getattr(spectrum, name)

    def wrapped(*args):
        calls.append(args)
        return function(*args)

    monkeypatch.setattr(spectrum, name, wrapped)
    spectrum._spectral_data.cache_clear()
    return calls


def test_thresholds_are_computed_once_per_p_and_interval(monkeypatch):
    # verdict and fixed_point_solve share the memo of SpectralData.compute:
    # one root search for lambda2 and one for lambda3, however often they run
    calls = _counting(monkeypatch, "_tan_tanh_root")
    grid = Grid(UNIT, 200)
    c = ScalarField(grid, -250.0 + 20.0 * np.sin(np.pi * grid.nodes))
    problem = ProblemSpec(UNIT, 0.0, c, ScalarField.constant(grid, 1.0))
    for _ in range(3):
        assert verdict(problem).rule == "Thm6_2_neg_h"
        fixed_point_solve(problem, mode="negative")
    assert sorted(what for _, what in calls) == ["lambda2", "lambda3"]
    assert SpectralData.compute(0.0, Interval(0.0, 1.0)) is SpectralData.compute(0.0, UNIT)


def test_the_threshold_memo_keeps_signed_zeros_apart():
    # -0.0 == 0.0 and both hash alike, but ``beamsign spectrum`` prints repr(p)
    plus = SpectralData.compute(0.0, UNIT)
    minus = SpectralData.compute(-0.0, UNIT)
    assert repr(plus.p) == "0.0"
    assert repr(minus.p) == "-0.0"
    assert SpectralData.compute(0.0, UNIT) is plus
    assert repr(SpectralData.compute(0.0, Interval(-0.0, 1.0)).interval.a) == "-0.0"
    # equal values of another type are kept apart too
    assert SpectralData.compute(0, Interval(0, 1)).interval == Interval(0, 1)
    assert repr(SpectralData.compute(0, Interval(0, 1)).interval.b) == "1"


def test_the_threshold_memo_keeps_no_errors(monkeypatch):
    calls = _counting(monkeypatch, "lambda_k")
    for _ in range(2):
        with pytest.raises(ValueError, match="lambda_1 overflows float64"):
            SpectralData.compute(1.0, Interval(0.0, 1e-80))
    assert len(calls) == 2

    def no_root(s, what):
        raise RootSearchError(f"{what}: no sign change")

    calls = _counting(monkeypatch, "_tan_tanh_root", no_root)
    for _ in range(2):
        with pytest.raises(RootSearchError):
            SpectralData.compute(2.0, UNIT)
    assert [what for _, what in calls] == ["lambda2", "lambda2"]


# least roots at large p L^2, from a 50-digit bisection of the original
# tan/tanh equations (mpmath) on the bracket x in (pi, 3 pi/2)
LEAST_ROOTS = (
    (lambda2, 5.0, 25.0, -6.4172744167688036387),
    (lambda2, 100.0, 25.0, -2503.1953213755546111),
    (lambda2, 1e4, 1.0, -25203498.49237372273),
    (lambda2, 1e4, 3.0, -25022145.570200449899),
    (lambda3, 100.0, 25.0, 1.5920977037404476466),
)


@pytest.mark.parametrize("fn, p, length, expected", LEAST_ROOTS)
def test_thresholds_are_least_roots_at_large_p_l2(fn, p, length, expected):
    value = fn(p, Interval(0.0, length))
    assert abs(value - expected) <= 1e-8 * abs(expected)


def _pole_free(which: str, p: float, length: float, q):
    """r sin(a q) - q tanh(a r) cos(a q): zero exactly where the threshold equation holds."""
    a = 0.5 * length if which == "lambda2" else length / np.sqrt(2.0)
    r = np.sqrt(q * q + 2.0 * p)
    return r * np.sin(a * q) - q * np.tanh(a * r) * np.cos(a * q)


def _q_of(which: str, p: float, lam):
    # the paper's substitutions: q^2 = 2 sqrt(lam) - p, resp. sqrt(p^2 + 4 lam) - p
    if which == "lambda2":
        return np.sqrt(2.0 * np.sqrt(lam) - p)
    return np.sqrt(np.sqrt(p * p + 4.0 * lam) - p)


@settings(max_examples=200, deadline=None)
@given(
    p=st.floats(min_value=0.0, max_value=1e4),
    length=st.floats(min_value=1e-2, max_value=50.0),
)
def test_thresholds_solve_their_equation_with_no_earlier_root(p, length):
    interval = Interval(0.0, length)
    for which, lam in (("lambda2", -lambda2(p, interval)), ("lambda3", lambda3(p, interval))):
        # the pole-free form changes sign across lam: lam solves the equation
        below = _pole_free(which, p, length, _q_of(which, p, lam * (1.0 - 1e-9)))
        above = _pole_free(which, p, length, _q_of(which, p, lam * (1.0 + 1e-9)))
        assert below > 0.0 > above, (which, lam, below, above)
        # and it keeps one sign on a dense scan of (0, q*): no smaller root
        q_star = _q_of(which, p, lam)
        scan = np.linspace(0.0, q_star, 4001)[1:-1]
        assert np.all(_pole_free(which, p, length, scan) > 0.0), which


def _nearest_by_scan(p, interval, c_min, c_max):
    # reference: walk k upward until -lambda_k has passed below the range
    best_k, best_gap = 1, math.inf
    k = 1
    while True:
        neg = -lambda_k(p, interval, k)
        gap = 0.0 if c_min <= neg <= c_max else min(abs(neg - c_min), abs(neg - c_max))
        if gap < best_gap:
            best_k, best_gap = k, gap
        if neg < c_min and gap >= best_gap:
            return best_k, best_gap
        k += 1


def test_nearest_mode_matches_the_scan():
    rng = np.random.default_rng(7)
    cases = [(0.0, UNIT, -1e20, -1e20), (3.0, UNIT, 5.0, 50.0), (0.0, UNIT, -np.pi**4, -np.pi**4)]
    for _ in range(400):
        p = float(rng.choice([0.0, 1.0, 37.5, 1e3]))
        interval = Interval(0.0, float(rng.uniform(0.2, 6.0)))
        k0 = int(rng.integers(1, 60))
        centre = -lambda_k(p, interval, k0) * float(rng.uniform(0.7, 1.3))
        half = abs(centre) * float(rng.choice([0.0, 1e-3, 0.05, 0.5]))
        cases.append((p, interval, centre - half, centre + half))
        # ranges that end exactly on an eigenvalue, and constants sitting on one
        neg = -lambda_k(p, interval, k0)
        cases += [(p, interval, neg, neg), (p, interval, neg, neg + half), (p, interval, neg - half, neg)]
    for p, interval, c_min, c_max in cases:
        assert nearest_mode(p, interval, c_min, c_max) == _nearest_by_scan(p, interval, c_min, c_max)


def test_spectral_quantities_name_the_interval_when_they_overflow():
    cases = ((1e-80, (lambda2, lambda3)), (1e-110, (delta1,)),
             (1e-170, (lambda2, lambda3, delta1)))
    for length, quantities in cases:
        interval = Interval(0.0, length)
        with pytest.raises(ValueError, match=f"lambda_1 overflows float64 .* L = {length!r}"):
            lambda_k(1.0, interval, 1)
        for quantity in quantities:
            with pytest.raises(ValueError, match=f"{quantity.__name__} overflows float64 .* L = {length!r}"):
                quantity(1.0, interval)
    # large p alone keeps its own message
    with pytest.raises(ValueError, match=r"^lambda2 overflows float64 at p = 1e\+160$"):
        lambda2(1e160, Interval(0.0, 1.0))


@pytest.mark.parametrize("n", [2, 3, 8, 250])
def test_dst1_matches_the_dense_sine_matrix(n):
    from beamsign._sine import _dst1

    x = np.random.default_rng(n).standard_normal(n - 1)
    k = np.arange(1, n)
    S = np.sin(np.outer(k, k) * np.pi / n)  # S[k - 1, i - 1] = sin(i k pi / n)
    y = _dst1(x)
    assert y.shape == (n - 1,)
    assert np.max(np.abs(y - S @ x)) <= 1e-13 * np.sum(np.abs(x))
    # the DST-I is its own inverse up to 2 / n
    assert np.max(np.abs(_dst1(y) * (2.0 / n) - x)) <= 1e-13 * np.max(np.abs(x))
