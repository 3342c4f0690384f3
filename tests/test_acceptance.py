"""End-to-end acceptance checks, one test per criterion.

Each test prints a single ``criterion N PASS`` line after its asserts, so a
verbose run reads as a checklist.  Tolerances are fixed; do not relax them.
"""

import numpy as np

from beamsign.expressions import parse_expression
from beamsign.fields import Grid, Interval, ProblemSpec, ScalarField, diff, integrate, sup_norm
from beamsign.greens import greens_constant, greens_discrete
from beamsign.principles import verdict
from beamsign.solver import (
    assemble,
    direct_solve,
    fixed_point_solve,
    operator_norm_bound,
    sign_certificate,
    smallest_eigenvalue,
    superposition_solve,
)
from beamsign.spectrum import SpectralData, lambda2, lambda3, lambda_k

UNIT = Interval(0.0, 1.0)


def constant_problem(n, c_value, p=0.0, h_value=1.0, d1=0.0, d2=0.0):
    grid = Grid(UNIT, n)
    return ProblemSpec(
        interval=UNIT,
        p=p,
        c=ScalarField.constant(grid, c_value),
        h=ScalarField.constant(grid, h_value),
        d1=d1,
        d2=d2,
    )


def test_criterion_01_spectral_closed_forms_and_discrete_eigenvalue():
    assert abs(lambda_k(0.0, UNIT, 1) - np.pi**4) <= 1e-12 * np.pi**4
    exact2 = 16.0 * np.pi**4 + 4.0 * np.pi**2
    assert abs(lambda_k(1.0, UNIT, 2) - exact2) <= 1e-12 * exact2
    errors = {}
    for n in (200, 400):
        grid = Grid(UNIT, n)
        op = assemble(0.0, ScalarField.constant(grid, 0.0), grid)
        errors[n] = abs(smallest_eigenvalue(op) - np.pi**4)
    assert errors[200] <= 0.005 * np.pi**4
    assert 3.0 <= errors[200] / errors[400] <= 5.0
    print(
        "criterion 1 PASS: closed forms exact, discrete eigenvalue error"
        f" {errors[200] / np.pi**4:.2e} rel at n=200, drop x{errors[200] / errors[400]:.2f}"
    )


def test_criterion_02_transcendental_thresholds_against_bisection_oracle():
    def equation(x):
        return np.tan(x) - np.tanh(x)

    lo, hi = np.pi + 0.1, 1.5 * np.pi - 1e-9
    flo = equation(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = equation(mid)
        if fm == 0.0:
            lo = hi = mid
            break
        if (fm > 0.0) == (flo > 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    x1 = 0.5 * (lo + hi)

    lam2 = lambda2(0.0, UNIT)
    lam3 = lambda3(0.0, UNIT)
    assert abs(lam2 - (-((2.0 * x1) ** 4) / 4.0)) <= 1e-8 * abs(lam2)
    assert abs(lam3 - x1**4) <= 1e-8 * abs(lam3)
    root2 = (-lam2 / 4.0) ** 0.25
    root3 = lam3**0.25
    assert abs(equation(root2)) < 1e-10
    assert abs(equation(root3)) < 1e-10
    print(f"criterion 2 PASS: lambda2 = {lam2!r}, lambda3 = {lam3!r} match the x1 oracle")


def test_criterion_03_greens_function_center_value_and_symmetry():
    grid = Grid(UNIT, 200)
    series = greens_constant(0.0, 0.0, grid)
    discrete = greens_discrete(0.0, ScalarField.constant(grid, 0.0), grid)
    assert abs(series.values[100, 100] - 1.0 / 48.0) < 1e-6
    assert abs(float(discrete.values[100, 100]) - 1.0 / 48.0) < 2e-4
    for matrix in (series.values, discrete.values):
        m = np.asarray(matrix, dtype=np.float64)
        assert np.max(np.abs(m - m.T)) < 1e-8 * np.max(np.abs(m))
    print("criterion 3 PASS: g(1/2,1/2) = 1/48 from the series and the discrete inverse")


def test_criterion_04_beam_solution_oracle_and_a_priori_bound():
    problem = constant_problem(400, 0.0)
    sol = direct_solve(problem)
    nodes = problem.grid.nodes
    exact = (nodes**4 - 2.0 * nodes**3 + nodes) / 24.0
    assert np.max(np.abs(np.asarray(sol.u.values, dtype=np.float64) - exact)) < 1e-7
    cert = sign_certificate(sol)
    assert cert.verdict == "strongly_positive"
    assert abs(cert.slope_a - 1.0 / 24.0) < 1e-5
    assert abs(cert.slope_b + 1.0 / 24.0) < 1e-5
    v = verdict(problem)
    assert v.r_bound is not None
    assert abs(v.r_bound - 1.0 / (2.0 * np.pi**3)) < 1e-9
    assert v.r_bound * sup_norm(problem.h) >= 5.0 / 384.0
    print("criterion 4 PASS: quartic reproduced, slopes +-1/24, bound 1/(2 pi^3) >= 5/384")


def test_criterion_05_superposition_matches_direct_solve():
    problem = constant_problem(200, 0.0, d1=-1.0, d2=-1.0)
    sup = superposition_solve(problem)
    direct = direct_solve(problem)
    gap = np.max(
        np.abs(
            np.asarray(sup.u.values, dtype=np.float64)
            - np.asarray(direct.u.values, dtype=np.float64)
        )
    )
    assert gap < 5e-4
    center = float(sup.u.values[100])
    assert abs(center - 53.0 / 384.0) < 1e-5
    assert abs(center - 0.1380208) < 1e-5
    print(f"criterion 5 PASS: methods agree (gap {gap:.2e}), u(1/2) = 53/384")


def test_criterion_06_verdict_table_with_certificates():
    expected = {
        0.0: ("Cor2_1_pos", "positive"),
        500.0: ("Cor2_1_pos", "positive"),
        950.0: ("Cor2_1_pos", "positive"),
        -200.0: ("Cor2_1_neg", "negative"),
        -250.0: ("Thm6_2_neg_h", "negative"),
        -300.0: ("Thm5_2_unique", "unique_only"),
        -900.0: ("Thm5_2_unique", "unique_only"),
    }
    for c_value, (rule, sign) in expected.items():
        problem = constant_problem(200, c_value)
        v = verdict(problem)
        assert v.rule == rule, (c_value, v.rule)
        assert v.predicted_sign == sign, (c_value, v.predicted_sign)
        if sign in ("positive", "negative"):
            cert = sign_certificate(direct_solve(problem))
            assert cert.verdict == f"strongly_{sign}", (c_value, cert.verdict)
    print("criterion 6 PASS: all 7 constant-coefficient verdicts and certificates match")


def test_criterion_07_amplified_load_rule_and_positive_iteration():
    grid = Grid(UNIT, 200)
    c = ScalarField(grid, parse_expression("1000*sin(pi*t)^2")(grid.nodes))
    h = ScalarField.constant(grid, 1.0)
    problem = ProblemSpec(interval=UNIT, p=0.0, c=c, h=h)
    v = verdict(problem)
    assert v.rule == "Thm6_1_pos_h"
    assert v.predicted_sign == "positive"
    run = fixed_point_solve(problem, mode="positive")
    assert len(run.iterates) >= 1
    for iterate in run.iterates:
        assert sign_certificate(iterate).verdict == "strongly_positive"
    direct = direct_solve(problem)
    gap = np.max(
        np.abs(
            np.asarray(run.solution.u.values, dtype=np.float64)
            - np.asarray(direct.u.values, dtype=np.float64)
        )
    )
    assert gap < 1e-6
    control = ScalarField(grid, parse_expression("1100*sin(pi*t)^2")(grid.nodes))
    v_control = verdict(ProblemSpec(interval=UNIT, p=0.0, c=control, h=h))
    assert v_control.predicted_sign not in ("positive", "negative")
    print(
        f"criterion 7 PASS: Thm6_1_pos_h, {len(run.iterates)} positive iterates,"
        f" limit gap {gap:.2e}, control case has no sign verdict"
    )


def test_criterion_08_contraction_ratio_below_operator_norm_bound():
    grid = Grid(UNIT, 200)
    c = ScalarField(grid, parse_expression("1000*sin(pi*t)^2")(grid.nodes))
    h = ScalarField.constant(grid, 1.0)
    problem = ProblemSpec(interval=UNIT, p=0.0, c=c, h=h)
    run = fixed_point_solve(problem, mode="positive")
    sd = SpectralData.compute(0.0, UNIT)
    cv = np.asarray(c.values, dtype=np.float64)
    correction = ScalarField(grid, cv - np.minimum(cv, -sd.lambda2))
    bound = operator_norm_bound(correction, 0.0, UNIT)
    assert run.contraction_ratio <= bound * 1.05
    print(
        f"criterion 8 PASS: contraction ratio {run.contraction_ratio:.4f}"
        f" <= bound {bound:.4f}"
    )


def test_criterion_09_wirtinger_energy_suite():
    def l2_norm(f):
        return float(np.sqrt(integrate(ScalarField(f.grid, f.values * f.values))))

    rng = np.random.default_rng(2025)
    grid = Grid(UNIT, 400)
    for _ in range(50):
        coeffs = rng.uniform(-2.0, 2.0, size=8)
        values = np.zeros(grid.n + 1)
        for k, a_k in enumerate(coeffs, start=1):
            values += a_k * np.sin(k * np.pi * grid.nodes)
        u = ScalarField(grid, values)
        du = diff(u, 1)
        d2u = diff(u, 2)
        assert l2_norm(u) <= 1.01 * (1.0 / np.pi) * l2_norm(du)
        assert l2_norm(du) <= 1.01 * (1.0 / np.pi) * l2_norm(d2u)
        assert sup_norm(u) <= 1.01 * 0.5 * l2_norm(du)
    mode1 = ScalarField(grid, np.sin(np.pi * grid.nodes))
    ratio = l2_norm(mode1) / ((1.0 / np.pi) * l2_norm(diff(mode1, 1)))
    assert abs(ratio - 1.0) <= 0.01
    print(f"criterion 9 PASS: 50 fields satisfy both inequalities, mode-1 ratio {ratio:.6f}")


def test_criterion_10_soundness_corpus():
    rng = np.random.default_rng(2026)
    grid = Grid(UNIT, 200)
    nodes = grid.nodes
    templates = [
        "{a}*sin(pi*t)^2 + {b}",
        "{a}*cos(2*pi*t) + {b}",
        "{a}*tanh(3*t) + {b}",
        "{a}*exp(0-t) + {b}",
    ]
    sign_cases = 0
    for i in range(100):
        p = float(rng.uniform(0.0, 10.0))
        if i % 2 == 0:
            c = ScalarField.constant(grid, float(rng.uniform(-1000.0, 1000.0)))
        else:
            source = templates[(i // 2) % len(templates)].format(
                a=repr(float(rng.uniform(-400.0, 400.0))),
                b=repr(float(rng.uniform(-400.0, 400.0))),
            )
            c = ScalarField(grid, parse_expression(source)(nodes))
        if i % 3 == 0:
            h = ScalarField.constant(grid, float(rng.uniform(0.1, 5.0)))
        else:
            h = ScalarField(
                grid, 1.0 + 0.9 * np.sin(np.pi * nodes) + 0.05 * float(rng.uniform(0.0, 1.0))
            )
        problem = ProblemSpec(interval=UNIT, p=p, c=c, h=h)
        v = verdict(problem)
        if v.predicted_sign not in ("positive", "negative"):
            continue
        sign_cases += 1
        cert = sign_certificate(direct_solve(problem))
        expected = f"strongly_{v.predicted_sign}"
        assert cert.verdict == expected, (i, v.rule, v.predicted_sign, cert.verdict)
    assert sign_cases >= 50
    print(f"criterion 10 PASS: {sign_cases} sign verdicts, zero certificate contradictions")
