"""Sufficient conditions for sign-definite solutions, as checkable verdicts.

Each rule is a sufficient condition on (p, c, h) under which the hinged
problem u'''' - p u'' + c(t) u = h has a unique solution and, in most cases,
a solution of known strict sign:

* ``Cor2_1_pos`` / ``Cor2_1_neg``: the range of c stays inside the
  inverse-positivity window (-lambda1, -lambda2] or the inverse-negativity
  window [-lambda3, -lambda1).
* ``Thm5_1_unique`` / ``Thm5_1_pos``: the negative part of c is small in
  mean, int c_minus < delta1; positivity follows when additionally
  c <= -lambda2 everywhere.
* ``Thm5_2_unique`` / ``Thm5_2_neg``: c_min sits strictly between the first
  two eigenvalue thresholds and the spread int (c - c_min) stays below
  delta1 * delta2; negativity follows when additionally c_min >= -lambda3.
* ``Thm6_1_pos_h`` / ``Thm6_2_neg_h``: amplified-load rules; a strictly
  positive load h buys extra room h_min/h_max beyond -lambda2 (or below
  -lambda3) for the range of c.
* ``Prop4_2_unique``: the range of c avoids every -lambda_k, which already
  pins down a unique solution.

:func:`verdict` evaluates all of them, applies the fixed precedence
corollary > Thm5_1 sign > Thm5_2 sign > Thm6_1 > Thm6_2 > uniqueness-only,
and reports every inequality it looked at with both sides evaluated.
All comparisons are exact floating-point comparisons; borderline data is
decided strictly, with no tolerance band.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fields import Interval, ProblemSpec, ScalarField, extrema, integrate, split_signs
from .spectrum import SpectralData, _finite, delta2, nearest_mode

__all__ = [
    "InequalityRecord",
    "Verdict",
    "check_corollary",
    "check_thm_positive",
    "check_thm_negative",
    "check_amp_positive_h",
    "check_amp_negative_h",
    "verdict",
]

_RELATIONS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


@dataclass(frozen=True)
class InequalityRecord:
    """One evaluated hypothesis inequality, with both sides."""

    rule: str
    label: str
    lhs: float
    relation: str
    rhs: float
    satisfied: bool


@dataclass(frozen=True)
class Verdict:
    """Outcome of the rule scan for one problem."""

    rule: str
    predicted_sign: str  # positive | negative | unique_only | unknown
    r_bound: float | None
    transfers_to_nonhomogeneous: bool
    details: tuple = ()
    notes: tuple = ()


def _rec(rule: str, label: str, lhs: float, relation: str, rhs: float) -> InequalityRecord:
    return InequalityRecord(
        rule=rule,
        label=label,
        lhs=float(lhs),
        relation=relation,
        rhs=float(rhs),
        satisfied=bool(_RELATIONS[relation](lhs, rhs)),
    )


def _resolve_spectral(p: float, interval: Interval, sd: SpectralData | None) -> SpectralData:
    if sd is None:
        return SpectralData.compute(p, interval)
    if sd.p != p or sd.interval != interval:
        raise ValueError("spectral data was computed for a different (p, interval)")
    return sd


# ---------------------------------------------------------------------------
# individual rule evaluations (shared by the public checks and verdict)


class _Scan:
    """The statistics of c and h that the rules read, each taken at most once per scan.

    All but the extrema of c are taken at their first read, so a scan pays
    only for what its rules reach; int (c - c_min), which can overflow, is
    read only where the Thm5_2 and Thm6_2 window holds.
    """

    def __init__(self, c: ScalarField, h: ScalarField | None = None):
        self.c, self.h = c, h
        self.c_min, self.c_max = extrema(c)

    @cached_property
    def h_extrema(self) -> tuple[float, float]:
        return extrema(self.h)

    @cached_property
    def signs(self) -> tuple[ScalarField, ScalarField]:
        """(c_plus, c_minus)."""
        return split_signs(self.c)

    @cached_property
    def int_minus(self) -> float:
        return integrate(self.signs[1])

    @cached_property
    def min_plus(self) -> float:
        return extrema(self.signs[0])[0]

    @cached_property
    def spread(self) -> float:
        """int (c - c_min)."""
        c = self.c
        return integrate(ScalarField(c.grid, np.asarray(c.values, dtype=np.float64) - self.c_min))


def _eval_corollary(s: _Scan, sd: SpectralData):
    c_m, c_sup = s.c_min, s.c_max
    recs = [
        _rec("Cor2_1_pos", "c_min > -lambda1", c_m, ">", -sd.lambda1),
        _rec("Cor2_1_pos", "c_max <= -lambda2", c_sup, "<=", -sd.lambda2),
        _rec("Cor2_1_neg", "c_min >= -lambda3", c_m, ">=", -sd.lambda3),
        _rec("Cor2_1_neg", "c_max < -lambda1", c_sup, "<", -sd.lambda1),
    ]
    pos = recs[0].satisfied and recs[1].satisfied
    neg = recs[2].satisfied and recs[3].satisfied
    return pos, neg, recs


def _eval_thm_positive(s: _Scan, sd: SpectralData):
    int_minus = s.int_minus
    recs = [
        _rec("Thm5_1_unique", "int c_minus < delta1", int_minus, "<", sd.delta1),
        _rec("Thm5_1_pos", "c_max <= -lambda2", s.c_max, "<=", -sd.lambda2),
    ]
    unique_ok = recs[0].satisfied
    r = None
    if unique_ok:
        min_plus = s.min_plus
        # on very short intervals the denominator leaves float64, and r would read 0
        denom = _finite(
            "the Thm5_1 solution bound", sd.p, sd.interval,
            lambda: float(sd.delta1 - int_minus) / math.sqrt(sd.delta1)
            * math.sqrt(sd.lambda1 + min_plus),
        )
        r = float(np.sqrt(sd.interval.length) / denom)
    pos_ok = unique_ok and recs[1].satisfied
    return unique_ok, pos_ok, r, recs


def _eval_thm_negative(s: _Scan, p: float, interval: Interval, sd: SpectralData):
    c_m = s.c_min
    recs = [
        _rec("Thm5_2_unique", "c_min > -lambda1_prime", c_m, ">", -sd.lambda1_prime),
        _rec("Thm5_2_unique", "c_min < -lambda1", c_m, "<", -sd.lambda1),
    ]
    window_ok = recs[0].satisfied and recs[1].satisfied
    unique_ok = False
    r = None
    if window_ok:
        d2v = delta2(p, interval, c_m)
        dev = s.spread
        recs.append(
            _rec("Thm5_2_unique", "int (c - c_min) < delta1 * delta2", dev, "<", sd.delta1 * d2v)
        )
        unique_ok = recs[-1].satisfied
        if unique_ok:
            margin = (sd.delta1 * d2v - dev) / np.sqrt(sd.delta1)
            r = float(np.sqrt(interval.length / sd.lambda1) / margin)
    recs.append(_rec("Thm5_2_neg", "c_min >= -lambda3", c_m, ">=", -sd.lambda3))
    neg_ok = unique_ok and recs[-1].satisfied
    return unique_ok, neg_ok, r, recs


def _eval_amp_positive(s: _Scan, sd: SpectralData):
    h_m, h_sup = s.h_extrema
    recs = [_rec("Thm6_1_pos_h", "h_min > 0", h_m, ">", 0.0)]
    notes: list[str] = []
    if not recs[0].satisfied:
        return False, False, recs, notes
    ratio = h_m / h_sup
    c_m, c_sup = s.c_min, s.c_max
    recs.append(_rec("Thm6_1_pos_h", "c_min > -lambda1", c_m, ">", -sd.lambda1))
    recs.append(_rec("Thm6_1_pos_h", "c_min <= 0", c_m, "<=", 0.0))
    thr1 = -sd.lambda2 + ratio * (2.0 / np.pi) * (sd.lambda1 + c_m)
    recs.append(
        _rec(
            "Thm6_1_pos_h",
            "c_max <= -lambda2 + (h_min/h_max)(2/pi)(lambda1 + c_min)",
            c_sup,
            "<=",
            thr1,
        )
    )
    hyp1 = recs[1].satisfied and recs[2].satisfied and recs[3].satisfied
    int_minus = s.int_minus
    recs.append(_rec("Thm6_1_pos_h", "int c_minus < delta1", int_minus, "<", sd.delta1))
    min_term = min(s.min_plus, -sd.lambda2)
    thr2 = _finite(
        "the Thm6_1_pos_h threshold", sd.p, sd.interval,
        lambda: -sd.lambda2 + ratio * float(sd.delta1 - int_minus) / math.sqrt(sd.delta1)
        * math.sqrt(max(sd.lambda1 + min_term, 0.0)),
    )
    recs.append(
        _rec(
            "Thm6_1_pos_h",
            "c_max <= -lambda2 + (h_min/h_max)(delta1 - int c_minus)"
            " sqrt(lambda1 + min{min c_plus, -lambda2}) / sqrt(delta1)",
            c_sup,
            "<=",
            thr2,
        )
    )
    hyp2 = recs[4].satisfied and recs[5].satisfied
    if sd.p > 0 and (hyp1 or hyp2):
        notes.append(
            "Thm6_1_pos_h keeps the p-dependent factor lambda1 + c_min in its thresholds"
        )
    applies = hyp1 or hyp2
    transfers = hyp1  # only the first hypothesis carries over to nonzero end moments
    return applies, transfers, recs, notes


def _eval_amp_negative(s: _Scan, p: float, interval: Interval, sd: SpectralData):
    h_m, h_sup = s.h_extrema
    recs = [_rec("Thm6_2_neg_h", "h_min > 0", h_m, ">", 0.0)]
    notes: list[str] = []
    if not recs[0].satisfied:
        return False, recs, notes
    ratio = h_m / h_sup
    c_m = s.c_min
    recs.append(_rec("Thm6_2_neg_h", "c_min > -lambda1_prime", c_m, ">", -sd.lambda1_prime))
    recs.append(_rec("Thm6_2_neg_h", "c_min < -lambda1", c_m, "<", -sd.lambda1))
    if not (recs[1].satisfied and recs[2].satisfied):
        return False, recs, notes
    d2v = delta2(p, interval, c_m)
    dev = s.spread
    recs.append(
        _rec("Thm6_2_neg_h", "int (c - c_min) < delta1 * delta2", dev, "<", sd.delta1 * d2v)
    )
    if not recs[-1].satisfied:
        return False, recs, notes
    lower = _finite(
        "the Thm6_2_neg_h threshold", p, interval,
        lambda: -sd.lambda3 - ratio * float(sd.delta1 * d2v - dev) / math.sqrt(sd.delta1)
        * math.sqrt(sd.lambda1 / interval.length),
    )
    recs.append(
        _rec(
            "Thm6_2_neg_h",
            "c_min >= -lambda3 - (h_min/h_max)(delta1 delta2 - int(c - c_min))"
            " sqrt(lambda1/L) / sqrt(delta1)",
            c_m,
            ">=",
            lower,
        )
    )
    if p > 0:
        notes.append("Thm6_2_neg_h window uses the p-dependent upper end -lambda1")
    return recs[-1].satisfied, recs, notes


def _eval_uniqueness_window(s: _Scan, p: float, interval: Interval, sd: SpectralData):
    c_m = s.c_min
    gap = nearest_mode(p, interval, c_m, s.c_max)[1]
    ok = gap > 0.0
    recs = [_rec("Prop4_2_unique", "distance from range of c to nearest -lambda_k", gap, ">", 0.0)]
    r = None
    if ok and -sd.lambda1 < c_m < 0.0:
        r = float(np.pi / (2.0 * (sd.lambda1 + c_m)))
    return ok, r, recs


# ---------------------------------------------------------------------------
# public single-rule checks


def check_corollary(c: ScalarField, sd: SpectralData) -> Verdict | None:
    """Constant-window rule: the range of c inside (-lambda1, -lambda2] or [-lambda3, -lambda1)."""
    pos, neg, recs = _eval_corollary(_Scan(c), sd)
    if pos:
        return Verdict("Cor2_1_pos", "positive", None, True, tuple(recs))
    if neg:
        return Verdict("Cor2_1_neg", "negative", None, True, tuple(recs))
    return None


def check_thm_positive(
    c: ScalarField, p: float, interval: Interval, sd: SpectralData | None = None
) -> Verdict | None:
    """Mean-smallness rule int c_minus < delta1, upgraded to positivity when c <= -lambda2."""
    sd = _resolve_spectral(p, interval, sd)
    unique_ok, pos_ok, r, recs = _eval_thm_positive(_Scan(c), sd)
    if pos_ok:
        return Verdict("Thm5_1_pos", "positive", r, True, tuple(recs))
    if unique_ok:
        return Verdict("Thm5_1_unique", "unique_only", r, True, tuple(recs))
    return None


def check_thm_negative(
    c: ScalarField, p: float, interval: Interval, sd: SpectralData | None = None
) -> Verdict | None:
    """Window-plus-spread rule, upgraded to negativity when c_min >= -lambda3."""
    sd = _resolve_spectral(p, interval, sd)
    unique_ok, neg_ok, r, recs = _eval_thm_negative(_Scan(c), p, interval, sd)
    if neg_ok:
        return Verdict("Thm5_2_neg", "negative", r, True, tuple(recs))
    if unique_ok:
        return Verdict("Thm5_2_unique", "unique_only", r, True, tuple(recs))
    return None


def check_amp_positive_h(
    c: ScalarField,
    h: ScalarField,
    p: float,
    interval: Interval,
    sd: SpectralData | None = None,
) -> Verdict | None:
    """Amplified-load positivity rule; needs a strictly positive load."""
    if c.grid != h.grid:
        raise ValueError("c and h must share a grid")
    sd = _resolve_spectral(p, interval, sd)
    applies, transfers, recs, notes = _eval_amp_positive(_Scan(c, h), sd)
    if applies:
        return Verdict("Thm6_1_pos_h", "positive", None, transfers, tuple(recs), tuple(notes))
    return None


def check_amp_negative_h(
    c: ScalarField,
    h: ScalarField,
    p: float,
    interval: Interval,
    sd: SpectralData | None = None,
) -> Verdict | None:
    """Amplified-load negativity rule; its conclusion never extends to nonzero end moments."""
    if c.grid != h.grid:
        raise ValueError("c and h must share a grid")
    sd = _resolve_spectral(p, interval, sd)
    applies, recs, notes = _eval_amp_negative(_Scan(c, h), p, interval, sd)
    if applies:
        return Verdict("Thm6_2_neg_h", "negative", None, False, tuple(recs), tuple(notes))
    return None


# ---------------------------------------------------------------------------
# the aggregate verdict


def verdict(problem: ProblemSpec) -> Verdict:
    """Evaluate every rule on the problem and pick one by fixed precedence.

    Sign rules are considered in the order corollary, Thm5_1, Thm5_2,
    Thm6_1, Thm6_2; uniqueness-only rules follow.  A sign rule is skipped
    (with an explanatory note) when the problem has nonzero end moments and
    the rule's conclusion does not carry over to them, and its sign
    prediction is withheld when the load is not of one sign.  The reported
    r_bound is the winning rule's solution bound, or failing that the
    tightest applicable uniqueness bound; it is omitted for problems with
    nonzero end moments, where the underlying estimates do not apply.
    """
    p, interval = problem.p, problem.interval
    sd = SpectralData.compute(p, interval)
    scan = _Scan(problem.c, problem.h)
    recs: list[InequalityRecord] = []
    notes: list[str] = []

    cor_pos, cor_neg, r0 = _eval_corollary(scan, sd)
    recs += r0
    t51_unique, t51_pos, t51_r, r1 = _eval_thm_positive(scan, sd)
    recs += r1
    t52_unique, t52_neg, t52_r, r2 = _eval_thm_negative(scan, p, interval, sd)
    recs += r2
    a61_ok, a61_transfers, r3, n3 = _eval_amp_positive(scan, sd)
    recs += r3
    notes += n3
    a62_ok, r4, n4 = _eval_amp_negative(scan, p, interval, sd)
    recs += r4
    notes += n4
    p42_ok, p42_r, r5 = _eval_uniqueness_window(scan, p, interval, sd)
    recs += r5

    nonhomog = problem.d1 < 0.0 or problem.d2 < 0.0
    h_m, h_sup = scan.h_extrema
    sign_applies = h_m >= 0.0 and (h_sup > 0.0 or nonhomog)
    flip = (not sign_applies) and h_sup <= 0.0 and h_m < 0.0 and not nonhomog

    rule = None
    predicted = None
    transfers = False
    r_bound = None
    candidates = [
        ("Cor2_1_pos", cor_pos, "positive", True, None),
        ("Cor2_1_neg", cor_neg, "negative", True, None),
        ("Thm5_1_pos", t51_pos, "positive", True, t51_r),
        ("Thm5_2_neg", t52_neg, "negative", True, t52_r),
        ("Thm6_1_pos_h", a61_ok, "positive", a61_transfers, None),
        ("Thm6_2_neg_h", a62_ok, "negative", False, None),
    ]
    for name, applies, sign, tr, rb in candidates:
        if not applies:
            continue
        if nonhomog and not tr:
            notes.append(
                f"{name} holds, but its sign conclusion does not extend to nonzero"
                " end moments; downgraded to a uniqueness rule"
            )
            continue
        if sign_applies:
            rule, predicted, transfers, r_bound = name, sign, tr, rb
        elif flip:
            flipped = "negative" if sign == "positive" else "positive"
            rule, predicted, transfers, r_bound = name, flipped, tr, rb
            notes.append(f"{name}: the load is nonpositive, so the predicted sign is flipped by linearity")
        else:
            rule, predicted, transfers, r_bound = name, "unique_only", tr, rb
            notes.append(
                f"{name} holds for the operator, but the load is not of one sign;"
                " only uniqueness is concluded"
            )
        break

    if rule is None:
        for name, applies, rb in [
            ("Thm5_1_unique", t51_unique, t51_r),
            ("Thm5_2_unique", t52_unique, t52_r),
            ("Prop4_2_unique", p42_ok, p42_r),
        ]:
            if applies:
                rule, predicted, transfers, r_bound = name, "unique_only", True, rb
                break
    if rule is None:
        rule, predicted, transfers, r_bound = "none", "unknown", False, None

    if nonhomog:
        if r_bound is not None or rule != "none":
            notes.append("a-priori solution bounds cover homogeneous end moments only; r_bound omitted")
        r_bound = None
    elif r_bound is None and rule != "none":
        fallback = [
            r
            for ok, r in [(t51_unique, t51_r), (t52_unique, t52_r), (p42_ok, p42_r)]
            if ok and r is not None
        ]
        if fallback:
            r_bound = min(fallback)
            notes.append("r_bound taken from the tightest applicable uniqueness estimate")

    return Verdict(
        rule=rule,
        predicted_sign=predicted,
        r_bound=r_bound,
        transfers_to_nonhomogeneous=bool(transfers),
        details=tuple(recs),
        notes=tuple(notes),
    )
