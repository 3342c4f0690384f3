import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamsign import (
    Grid,
    Interval,
    ProblemSpec,
    ScalarField,
    direct_solve,
    sign_certificate,
    sup_norm,
)
from beamsign.principles import (
    check_amp_negative_h,
    check_amp_positive_h,
    check_corollary,
    check_thm_negative,
    check_thm_positive,
    verdict,
)
from beamsign.expressions import parse_expression
from beamsign.spectrum import SpectralData

UNIT = Interval(0.0, 1.0)
SD0 = SpectralData.compute(0.0, UNIT)


def fields(c_value, h_value=1.0, n=200, interval=UNIT):
    grid = Grid(interval, n)
    return ScalarField.constant(grid, c_value), ScalarField.constant(grid, h_value)


def problem(c, h, p=0.0, d1=0.0, d2=0.0, interval=UNIT):
    return ProblemSpec(interval, p, c, h, d1=d1, d2=d2)


def test_check_corollary_examples():
    c, _ = fields(0.0)
    v = check_corollary(c, SD0)
    assert v.rule == "Cor2_1_pos"
    assert v.predicted_sign == "positive"
    assert v.transfers_to_nonhomogeneous
    c, _ = fields(-200.0)
    v = check_corollary(c, SD0)
    assert v.rule == "Cor2_1_neg"
    assert v.predicted_sign == "negative"
    c, _ = fields(-1000.0)
    assert check_corollary(c, SD0) is None


def test_check_thm_positive_examples():
    c, _ = fields(0.0)
    v = check_thm_positive(c, 0.0, UNIT, SD0)
    assert v.rule == "Thm5_1_pos"
    assert abs(v.r_bound - 1.0 / (2.0 * np.pi**3)) < 1e-12
    assert v.transfers_to_nonhomogeneous
    grid = Grid(UNIT, 200)
    wavy = ScalarField(grid, -np.sin(np.pi * grid.nodes))
    assert check_thm_positive(wavy, 0.0, UNIT, SD0).rule == "Thm5_1_pos"
    c, _ = fields(-50.0)
    assert check_thm_positive(c, 0.0, UNIT, SD0) is None


def test_check_thm_negative_examples():
    c, _ = fields(-200.0)
    v = check_thm_negative(c, 0.0, UNIT, SD0)
    assert v.rule == "Thm5_2_neg"
    assert v.predicted_sign == "negative"
    assert v.r_bound > 0.0
    c, _ = fields(-900.0)
    v = check_thm_negative(c, 0.0, UNIT, SD0)
    assert v.rule == "Thm5_2_unique"
    assert v.predicted_sign == "unique_only"
    c, _ = fields(-50.0)
    assert check_thm_negative(c, 0.0, UNIT, SD0) is None


def test_check_amp_positive_h_thresholds():
    grid = Grid(UNIT, 200)
    h = ScalarField.constant(grid, 1.0)
    c = ScalarField(grid, 1000.0 * np.sin(np.pi * grid.nodes) ** 2)
    v = check_amp_positive_h(c, h, 0.0, UNIT, SD0)
    assert v.rule == "Thm6_1_pos_h"
    assert v.transfers_to_nonhomogeneous
    thr = [rec for rec in v.details if "2/pi" in rec.label]
    assert len(thr) == 1
    assert abs(thr[0].rhs - 1012.8968234850661) < 1e-9
    hot = ScalarField(grid, 1100.0 * np.sin(np.pi * grid.nodes) ** 2)
    assert check_amp_positive_h(hot, h, 0.0, UNIT, SD0) is None
    # the load must be strictly positive
    hsin = ScalarField(grid, np.sin(np.pi * grid.nodes))
    assert check_amp_positive_h(c, hsin, 0.0, UNIT, SD0) is None
    with pytest.raises(ValueError):
        check_amp_positive_h(c, ScalarField.constant(Grid(UNIT, 400), 1.0), 0.0, UNIT, SD0)


def test_check_amp_positive_h_notes_p_dependence():
    sd1 = SpectralData.compute(1.0, UNIT)
    grid = Grid(UNIT, 200)
    c = ScalarField.constant(grid, 0.0)
    h = ScalarField.constant(grid, 1.0)
    v = check_amp_positive_h(c, h, 1.0, UNIT, sd1)
    assert v.rule == "Thm6_1_pos_h"
    assert any("p-dependent" in note for note in v.notes)


def test_check_amp_negative_h_examples():
    c, h = fields(-250.0)
    v = check_amp_negative_h(c, h, 0.0, UNIT, SD0)
    assert v.rule == "Thm6_2_neg_h"
    assert not v.transfers_to_nonhomogeneous
    c, h = fields(-300.0)
    assert check_amp_negative_h(c, h, 0.0, UNIT, SD0) is None
    # a slanted load shrinks the admissible window but keeps -250 inside it
    grid = Grid(UNIT, 200)
    slant = ScalarField(grid, 1.0 + grid.nodes)
    c = ScalarField.constant(grid, -250.0)
    assert check_amp_negative_h(c, slant, 0.0, UNIT, SD0).rule == "Thm6_2_neg_h"


def test_verdict_precedence_table():
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
        c, h = fields(c_value)
        v = verdict(problem(c, h))
        assert v.rule == rule
        assert v.predicted_sign == sign


def test_verdict_records_both_sides_of_each_inequality():
    c, h = fields(0.0)
    v = verdict(problem(c, h))
    recs = {(rec.rule, rec.label): rec for rec in v.details}
    rec = recs[("Cor2_1_pos", "c_max <= -lambda2")]
    assert rec.satisfied
    assert rec.lhs == 0.0
    assert abs(rec.rhs - 950.8842701244664) < 1e-6
    assert rec.relation == "<="


def test_verdict_gates_on_the_load_sign():
    c, h = fields(0.0, h_value=0.0)
    v = verdict(problem(c, h))
    assert v.rule == "Cor2_1_pos"
    assert v.predicted_sign == "unique_only"
    assert any("not of one sign" in note for note in v.notes)
    c, h = fields(0.0, h_value=-1.0)
    v = verdict(problem(c, h))
    assert v.predicted_sign == "negative"
    assert any("flipped" in note for note in v.notes)
    grid = Grid(UNIT, 200)
    mixed = ScalarField(grid, np.sin(2.0 * np.pi * grid.nodes))
    v = verdict(problem(ScalarField.constant(grid, 0.0), mixed))
    assert v.predicted_sign == "unique_only"


def test_verdict_downgrades_nontransferring_rules_for_end_moments():
    c, h = fields(-250.0)
    v = verdict(problem(c, h, d1=-1.0))
    assert v.rule == "Thm5_2_unique"
    assert v.predicted_sign == "unique_only"
    assert v.r_bound is None
    assert any("Thm6_2_neg_h" in note and "downgraded" in note for note in v.notes)
    assert any("r_bound omitted" in note for note in v.notes)


def test_verdict_keeps_transferring_signs_for_end_moments():
    c, h = fields(0.0)
    v = verdict(problem(c, h, d1=-1.0))
    assert v.rule == "Cor2_1_pos"
    assert v.predicted_sign == "positive"
    assert v.transfers_to_nonhomogeneous
    assert v.r_bound is None


def test_verdict_falls_back_to_the_tightest_uniqueness_bound():
    c, h = fields(0.0)
    v = verdict(problem(c, h))
    assert abs(v.r_bound - 1.0 / (2.0 * np.pi**3)) < 1e-12
    assert any("uniqueness estimate" in note for note in v.notes)


def test_verdict_far_negative_constant_keeps_nonresonant_uniqueness():
    c, h = fields(-1800.0)
    v = verdict(problem(c, h))
    assert v.rule == "Prop4_2_unique"
    assert v.predicted_sign == "unique_only"
    assert v.r_bound is None


def test_verdict_none_when_the_range_of_c_spans_an_eigenvalue():
    grid = Grid(UNIT, 200)
    c = ScalarField(grid, -1558.5454 + 400.0 * (grid.nodes - 0.5))
    h = ScalarField.constant(grid, 1.0)
    v = verdict(problem(c, h))
    assert v.rule == "none"
    assert v.predicted_sign == "unknown"
    assert v.r_bound is None
    assert not v.transfers_to_nonhomogeneous


def test_verdict_translation_invariance():
    shifted = Interval(2.5, 3.5)
    for build in (
        lambda t: np.full_like(t, -200.0),
        lambda t: 300.0 * np.sin(np.pi * t) ** 2,
    ):
        g0 = Grid(UNIT, 200)
        g1 = Grid(shifted, 200)
        v0 = verdict(problem(ScalarField(g0, build(g0.nodes)), ScalarField.constant(g0, 1.0)))
        v1 = verdict(
            problem(
                ScalarField(g1, build(g1.nodes - 2.5)),
                ScalarField.constant(g1, 1.0),
                interval=shifted,
            )
        )
        assert v0.rule == v1.rule
        assert v0.predicted_sign == v1.predicted_sign
        if v0.r_bound is None:
            assert v1.r_bound is None
        else:
            assert abs(v0.r_bound - v1.r_bound) < 1e-9 * abs(v0.r_bound)


def test_verdict_is_deterministic():
    grid = Grid(UNIT, 200)
    c = ScalarField(grid, 1000.0 * np.sin(np.pi * grid.nodes) ** 2)
    h = ScalarField.constant(grid, 1.0)
    assert verdict(problem(c, h)) == verdict(problem(c, h))


def test_r_bound_is_respected_by_computed_solutions():
    for c_value in (-200.0, -900.0):
        c, h = fields(c_value)
        v = verdict(problem(c, h))
        assert v.r_bound is not None
        sol = direct_solve(problem(c, h))
        assert sup_norm(sol.u) <= v.r_bound * sup_norm(h) * 1.01
    # -sin(pi t) sits inside the corollary window too, which wins precedence
    grid = Grid(UNIT, 200)
    wavy = ScalarField(grid, -np.sin(np.pi * grid.nodes))
    h = ScalarField.constant(grid, 1.0)
    v = verdict(problem(wavy, h))
    assert v.rule == "Cor2_1_pos"
    sol = direct_solve(problem(wavy, h))
    assert sign_certificate(sol).verdict == "strongly_positive"
    assert sup_norm(sol.u) <= v.r_bound * sup_norm(h) * 1.01


def test_spectral_data_mismatch_is_rejected():
    c, _ = fields(0.0)
    with pytest.raises(ValueError):
        check_thm_positive(c, 1.0, UNIT, SD0)


# (a, b, p, c, h, d1, d2, n): one problem for each branch of the rule scan
RULE_SCAN = [
    (0.0, 1.0, 0.0, "100", "1", 0.0, 0.0, 200),  # Cor2_1_pos; Thm5_2 window fails
    (0.0, 1.0, 0.0, "-200 - 10*t", "1 + t", 0.0, 0.0, 200),  # Cor2_1_neg; Thm5_2 holds
    (0.0, 1.0, 0.0, "-300 + 600*t", "1", 0.0, 0.0, 200),  # window holds, spread fails; none
    (0.0, 1.0, 0.0, "900 - 1000*t", "2 - t", 0.0, 0.0, 200),  # Thm5_1_pos
    (0.0, 1.0, 5.0, "1080 - 1100*t", "1 + t", 0.0, 0.0, 200),  # Thm6_1 first hypothesis, p > 0
    (0.0, 1.0, 0.0, "10 + 950*t", "1 + t", -1.0, 0.0, 200),  # Thm6_1 second only, end moment
    (0.0, 1.0, 0.0, "100", "-1 - t", 0.0, 0.0, 200),  # h < 0: the sign flips
    (0.0, 1.0, 0.0, "100", "t - 0.5", 0.0, 0.0, 200),  # mixed-sign h
    (0.0, 1.0, 5.0, "-305 + 10*t", "1 + t", 0.0, 0.0, 200),  # Thm6_2_neg_h, p > 0
    (0.0, 1.0, 0.0, "-90 + 3000*t*t*t*t*t*t*t*t", "t - 0.5", 0.0, 0.0, 200),  # Prop4_2 with r
    (0.0, 1.0, 0.0, "-2000", "1", 0.0, -0.5, 200),  # Prop4_2 without r, end moment
    (0.0, 5.59e-77, 0.0, "1.78e308", "1", 0.0, 0.0, 200),  # Thm5_1 bound overflows
    (0.0, 1e10, 0.0, "-1.7e308", "1", 0.0, 0.0, 200),  # Thm6_1 threshold overflows
    (0.0, 1e-62, 0.0, "-2e250", "1", 0.0, 0.0, 200),  # Thm6_2 threshold overflows
]


def scan_fields(a, b, c, h, n):
    """The interval and the sampled c and h of one RULE_SCAN row."""
    interval = Interval(a, b)
    grid = Grid(interval, n)
    zero = 0.0 * grid.nodes  # broadcasts a constant expression to every node
    c_field = ScalarField(grid, parse_expression(c)(grid.nodes) + zero)
    h_field = ScalarField(grid, parse_expression(h)(grid.nodes) + zero)
    return interval, c_field, h_field


def repr_or_error(call):
    try:
        return repr(call())
    except ValueError as exc:
        return repr(exc)


def test_the_rule_scan_matches_its_recorded_verdicts():
    # repr of each verdict, or of the error it raised, recorded before the
    # statistics of c and h were shared between the rules: every rule, sign,
    # r_bound, record and note stays bit for bit the same
    recorded = json.loads((Path(__file__).parent / "verdict_reprs.json").read_text())
    assert len(recorded) == len(RULE_SCAN)
    for (a, b, p, c, h, d1, d2, n), expected in zip(RULE_SCAN, recorded):
        interval, c_field, h_field = scan_fields(a, b, c, h, n)
        problem = ProblemSpec(interval, p, c_field, h_field, d1=d1, d2=d2)
        got = repr_or_error(lambda: verdict(problem))
        assert got == expected, (a, b, p, c, h)


def test_the_rule_scan_matches_its_recorded_checks():
    # repr of each single-rule check, or of the error it raised, recorded
    # before the rules shared one evaluator: each check's rule, sign,
    # r_bound, records and notes stay bit for bit the same
    recorded = json.loads((Path(__file__).parent / "check_reprs.json").read_text())
    assert len(recorded) == len(RULE_SCAN)
    for (a, b, p, c, h, d1, d2, n), expected in zip(RULE_SCAN, recorded):
        interval, c_field, h_field = scan_fields(a, b, c, h, n)
        got = {
            "check_corollary": repr_or_error(
                lambda: check_corollary(c_field, SpectralData.compute(p, interval))
            ),
            "check_thm_positive": repr_or_error(lambda: check_thm_positive(c_field, p, interval)),
            "check_thm_negative": repr_or_error(lambda: check_thm_negative(c_field, p, interval)),
            "check_amp_positive_h": repr_or_error(
                lambda: check_amp_positive_h(c_field, h_field, p, interval)
            ),
            "check_amp_negative_h": repr_or_error(
                lambda: check_amp_negative_h(c_field, h_field, p, interval)
            ),
        }
        assert got == expected, (a, b, p, c, h)


def test_the_checks_refuse_fields_sampled_on_another_interval():
    # c = -100 on [0, 2] against the thresholds of [0, 1]: a verdict would mix
    # the integral of c over one interval with the thresholds of the other
    c, h = fields(-100.0, interval=Interval(0.0, 2.0))
    for check in (
        lambda: check_corollary(c, SD0),
        lambda: check_thm_positive(c, 0.0, UNIT),
        lambda: check_thm_negative(c, 0.0, UNIT),
        lambda: check_amp_positive_h(c, h, 0.0, UNIT),
        lambda: check_amp_negative_h(c, h, 0.0, UNIT),
    ):
        with pytest.raises(ValueError, match="c is not sampled on the given interval"):
            check()


@st.composite
def rule_problems(draw, one_signed_load=False):
    """Problems whose range of c is drawn across the thresholds, in units of lambda1."""
    p = draw(st.sampled_from([0.0, 3.0, 40.0]))
    interval = Interval(0.0, draw(st.floats(min_value=0.5, max_value=2.0)))
    lam1 = SpectralData.compute(p, interval).lambda1
    # past -lambda3, the negative windows, (-lambda1, 0], the positive window, near -lambda2
    zones = [(-6.0, -2.5), (-2.5, -1.0), (-1.0, 0.0), (0.0, 8.0), (8.0, 12.0)]
    low, high = draw(st.sampled_from(zones))
    c_min = lam1 * draw(st.floats(min_value=low, max_value=high))
    c_span = lam1 * draw(st.sampled_from([0.0, 0.01, 0.1, 0.5, 2.0, 8.0]))
    grid = Grid(interval, 64)
    s = grid.nodes / interval.length
    shape = draw(st.sampled_from([s, s * s, np.sin(np.pi * s)]))
    if one_signed_load:
        h_min = draw(st.floats(min_value=0.1, max_value=2.0))
    else:
        h_min = draw(st.sampled_from([-1.0, 0.0, 1.0]))
    h_rise = draw(st.floats(min_value=0.0, max_value=3.0))
    moments = 0.0 if one_signed_load else draw(st.sampled_from([0.0, -0.5]))
    c = ScalarField(grid, c_min + c_span * shape)
    h = ScalarField(grid, h_min + h_rise * np.cos(np.pi * s) ** 2)
    return ProblemSpec(interval, p, c, h, d1=moments)


def single_checks(problem):
    """Each single-rule check on the problem, in precedence order."""
    c, h, p, interval = problem.c, problem.h, problem.p, problem.interval
    sd = SpectralData.compute(p, interval)
    return [
        check_corollary(c, sd),
        check_thm_positive(c, p, interval, sd),
        check_thm_negative(c, p, interval, sd),
        check_amp_positive_h(c, h, p, interval, sd),
        check_amp_negative_h(c, h, p, interval, sd),
    ]


@settings(max_examples=100, deadline=None)
@given(rule_problems())
def test_each_check_reports_a_run_of_the_verdicts_records_in_table_order(problem):
    details = verdict(problem).details
    start = 0
    for v in single_checks(problem):
        if v is None:
            continue
        k = len(v.details)
        offsets = [i for i in range(start, len(details) - k + 1) if details[i : i + k] == v.details]
        assert offsets, v.rule
        start = offsets[0] + k


@settings(max_examples=100, deadline=None)
@given(rule_problems(one_signed_load=True))
def test_the_verdict_takes_the_first_check_that_gives_a_sign(problem):
    v = verdict(problem)
    checks = [w for w in single_checks(problem) if w is not None]
    signed = [w for w in checks if w.predicted_sign != "unique_only"]
    if signed:
        assert (v.rule, v.predicted_sign) == (signed[0].rule, signed[0].predicted_sign)
    else:
        assert v.predicted_sign in ("unique_only", "unknown"), v.rule
