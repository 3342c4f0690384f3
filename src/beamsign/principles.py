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

Each rule has one evaluator, ``(scan, sd) -> (records, notes, hits)``,
which lists its conclusions strongest first.  Precedence is the order of
``_RULES``: :func:`verdict` takes the first sign conclusion in that order,
failing that the first uniqueness-only one, and reports every inequality it
looked at with both sides evaluated.  Each single-rule check returns its
rule's strongest conclusion.
All comparisons are exact floating-point comparisons; borderline data is
decided strictly, with no tolerance band.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

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


class _Hit(NamedTuple):
    """A rule that holds: its name, sign (or unique_only), solution bound and transfer."""

    rule: str
    sign: str
    r: float | None
    transfers: bool


def _corollary(s: _Scan, sd: SpectralData):
    c_m, c_sup = s.c_min, s.c_max
    recs = [
        _rec("Cor2_1_pos", "c_min > -lambda1", c_m, ">", -sd.lambda1),
        _rec("Cor2_1_pos", "c_max <= -lambda2", c_sup, "<=", -sd.lambda2),
        _rec("Cor2_1_neg", "c_min >= -lambda3", c_m, ">=", -sd.lambda3),
        _rec("Cor2_1_neg", "c_max < -lambda1", c_sup, "<", -sd.lambda1),
    ]
    hits = []
    if recs[0].satisfied and recs[1].satisfied:
        hits.append(_Hit("Cor2_1_pos", "positive", None, True))
    if recs[2].satisfied and recs[3].satisfied:
        hits.append(_Hit("Cor2_1_neg", "negative", None, True))
    return recs, [], hits


def _thm_positive(s: _Scan, sd: SpectralData):
    int_minus = s.int_minus
    recs = [
        _rec("Thm5_1_unique", "int c_minus < delta1", int_minus, "<", sd.delta1),
        _rec("Thm5_1_pos", "c_max <= -lambda2", s.c_max, "<=", -sd.lambda2),
    ]
    if not recs[0].satisfied:
        return recs, [], []
    min_plus = s.min_plus
    # on very short intervals the denominator leaves float64, and r would read 0
    denom = _finite(
        "the Thm5_1 solution bound", sd.p, sd.interval,
        lambda: float(sd.delta1 - int_minus) / math.sqrt(sd.delta1)
        * math.sqrt(sd.lambda1 + min_plus),
    )
    r = float(np.sqrt(sd.interval.length) / denom)
    pos = [_Hit("Thm5_1_pos", "positive", r, True)] if recs[1].satisfied else []
    return recs, [], pos + [_Hit("Thm5_1_unique", "unique_only", r, True)]


def _thm_negative(s: _Scan, sd: SpectralData):
    c_m = s.c_min
    recs = [
        _rec("Thm5_2_unique", "c_min > -lambda1_prime", c_m, ">", -sd.lambda1_prime),
        _rec("Thm5_2_unique", "c_min < -lambda1", c_m, "<", -sd.lambda1),
    ]
    hits = []
    if recs[0].satisfied and recs[1].satisfied:
        d2v = delta2(sd.p, sd.interval, c_m)
        dev = s.spread
        recs.append(
            _rec("Thm5_2_unique", "int (c - c_min) < delta1 * delta2", dev, "<", sd.delta1 * d2v)
        )
        if recs[-1].satisfied:
            margin = (sd.delta1 * d2v - dev) / np.sqrt(sd.delta1)
            r = float(np.sqrt(sd.interval.length / sd.lambda1) / margin)
            hits.append(_Hit("Thm5_2_unique", "unique_only", r, True))
    recs.append(_rec("Thm5_2_neg", "c_min >= -lambda3", c_m, ">=", -sd.lambda3))
    if hits and recs[-1].satisfied:
        hits.insert(0, _Hit("Thm5_2_neg", "negative", hits[0].r, True))
    return recs, [], hits


def _amp_positive(s: _Scan, sd: SpectralData):
    h_m, h_sup = s.h_extrema
    recs = [_rec("Thm6_1_pos_h", "h_min > 0", h_m, ">", 0.0)]
    if not recs[0].satisfied:
        return recs, [], []
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
    if not (hyp1 or hyp2):
        return recs, [], []
    note = "Thm6_1_pos_h keeps the p-dependent factor lambda1 + c_min in its thresholds"
    # only the first hypothesis carries over to nonzero end moments
    return recs, [note] if sd.p > 0 else [], [_Hit("Thm6_1_pos_h", "positive", None, hyp1)]


def _amp_negative(s: _Scan, sd: SpectralData):
    h_m, h_sup = s.h_extrema
    recs = [_rec("Thm6_2_neg_h", "h_min > 0", h_m, ">", 0.0)]
    if not recs[0].satisfied:
        return recs, [], []
    ratio = h_m / h_sup
    c_m = s.c_min
    recs.append(_rec("Thm6_2_neg_h", "c_min > -lambda1_prime", c_m, ">", -sd.lambda1_prime))
    recs.append(_rec("Thm6_2_neg_h", "c_min < -lambda1", c_m, "<", -sd.lambda1))
    if not (recs[1].satisfied and recs[2].satisfied):
        return recs, [], []
    d2v = delta2(sd.p, sd.interval, c_m)
    dev = s.spread
    recs.append(
        _rec("Thm6_2_neg_h", "int (c - c_min) < delta1 * delta2", dev, "<", sd.delta1 * d2v)
    )
    if not recs[-1].satisfied:
        return recs, [], []
    lower = _finite(
        "the Thm6_2_neg_h threshold", sd.p, sd.interval,
        lambda: -sd.lambda3 - ratio * float(sd.delta1 * d2v - dev) / math.sqrt(sd.delta1)
        * math.sqrt(sd.lambda1 / sd.interval.length),
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
    note = "Thm6_2_neg_h window uses the p-dependent upper end -lambda1"
    # its conclusion never extends to nonzero end moments
    hits = [_Hit("Thm6_2_neg_h", "negative", None, False)] if recs[-1].satisfied else []
    return recs, [note] if sd.p > 0 else [], hits


def _uniqueness_window(s: _Scan, sd: SpectralData):
    c_m = s.c_min
    gap = nearest_mode(sd.p, sd.interval, c_m, s.c_max)[1]
    recs = [_rec("Prop4_2_unique", "distance from range of c to nearest -lambda_k", gap, ">", 0.0)]
    if not gap > 0.0:
        return recs, [], []
    r = float(np.pi / (2.0 * (sd.lambda1 + c_m))) if -sd.lambda1 < c_m < 0.0 else None
    return recs, [], [_Hit("Prop4_2_unique", "unique_only", r, True)]


# the precedence order: the first sign hit wins, and failing that the first
# uniqueness hit; this is the only place the order is written
_RULES = (
    _corollary, _thm_positive, _thm_negative, _amp_positive, _amp_negative, _uniqueness_window,
)


# ---------------------------------------------------------------------------
# public single-rule checks


def _first_hit(evaluate, c: ScalarField, h: ScalarField | None, p: float, interval: Interval,
               sd: SpectralData | None) -> Verdict | None:
    """The strongest conclusion of one rule on (c, h), or None when it does not hold."""
    if h is not None and c.grid != h.grid:
        raise ValueError("c and h must share a grid")
    if sd is None:
        sd = SpectralData.compute(p, interval)
    elif sd.p != p or sd.interval != interval:
        raise ValueError("spectral data was computed for a different (p, interval)")
    if c.grid.interval != sd.interval:
        raise ValueError("c is not sampled on the given interval")
    recs, notes, hits = evaluate(_Scan(c, h), sd)
    return Verdict(*hits[0], tuple(recs), tuple(notes)) if hits else None


def check_corollary(c: ScalarField, sd: SpectralData) -> Verdict | None:
    """Constant-window rule: the range of c inside (-lambda1, -lambda2] or [-lambda3, -lambda1)."""
    return _first_hit(_corollary, c, None, sd.p, sd.interval, sd)


def check_thm_positive(
    c: ScalarField, p: float, interval: Interval, sd: SpectralData | None = None
) -> Verdict | None:
    """Mean-smallness rule int c_minus < delta1, upgraded to positivity when c <= -lambda2."""
    return _first_hit(_thm_positive, c, None, p, interval, sd)


def check_thm_negative(
    c: ScalarField, p: float, interval: Interval, sd: SpectralData | None = None
) -> Verdict | None:
    """Window-plus-spread rule, upgraded to negativity when c_min >= -lambda3."""
    return _first_hit(_thm_negative, c, None, p, interval, sd)


def check_amp_positive_h(
    c: ScalarField,
    h: ScalarField,
    p: float,
    interval: Interval,
    sd: SpectralData | None = None,
) -> Verdict | None:
    """Amplified-load positivity rule; needs a strictly positive load."""
    return _first_hit(_amp_positive, c, h, p, interval, sd)


def check_amp_negative_h(
    c: ScalarField,
    h: ScalarField,
    p: float,
    interval: Interval,
    sd: SpectralData | None = None,
) -> Verdict | None:
    """Amplified-load negativity rule; its conclusion never extends to nonzero end moments."""
    return _first_hit(_amp_negative, c, h, p, interval, sd)


# ---------------------------------------------------------------------------
# the aggregate verdict


def verdict(problem: ProblemSpec) -> Verdict:
    """Evaluate every rule on the problem and pick one by fixed precedence.

    Sign conclusions are considered in the order of ``_RULES``, and
    uniqueness-only conclusions follow in the same order.  A sign rule is
    skipped (with an explanatory note) when the problem has nonzero end
    moments and the rule's conclusion does not carry over to them, and its
    sign prediction is withheld when the load is not of one sign.  The
    reported r_bound is the winning rule's solution bound, or failing that
    the tightest applicable uniqueness bound; it is omitted for problems
    with nonzero end moments, where the underlying estimates do not apply.
    """
    sd = SpectralData.compute(problem.p, problem.interval)
    scan = _Scan(problem.c, problem.h)
    recs: list[InequalityRecord] = []
    notes: list[str] = []
    hits: list[_Hit] = []
    for evaluate in _RULES:
        rule_recs, rule_notes, rule_hits = evaluate(scan, sd)
        recs += rule_recs
        notes += rule_notes
        hits += rule_hits

    nonhomog = problem.d1 < 0.0 or problem.d2 < 0.0
    h_m, h_sup = scan.h_extrema
    sign_applies = h_m >= 0.0 and (h_sup > 0.0 or nonhomog)
    flip = (not sign_applies) and h_sup <= 0.0 and h_m < 0.0 and not nonhomog

    unique = [hit for hit in hits if hit.sign == "unique_only"]
    won = None
    for hit in hits:
        if hit.sign == "unique_only":
            continue
        if nonhomog and not hit.transfers:
            notes.append(
                f"{hit.rule} holds, but its sign conclusion does not extend to nonzero"
                " end moments; downgraded to a uniqueness rule"
            )
            continue
        if flip:
            flipped = "negative" if hit.sign == "positive" else "positive"
            hit = hit._replace(sign=flipped)
            notes.append(f"{hit.rule}: the load is nonpositive, so the predicted sign is flipped by linearity")
        elif not sign_applies:
            hit = hit._replace(sign="unique_only")
            notes.append(
                f"{hit.rule} holds for the operator, but the load is not of one sign;"
                " only uniqueness is concluded"
            )
        won = hit
        break
    if won is None:
        won = unique[0] if unique else _Hit("none", "unknown", None, False)
    r_bound = won.r

    if nonhomog:
        if r_bound is not None or won.rule != "none":
            notes.append("a-priori solution bounds cover homogeneous end moments only; r_bound omitted")
        r_bound = None
    elif r_bound is None and won.rule != "none":
        fallback = [hit.r for hit in unique if hit.r is not None]
        if fallback:
            r_bound = min(fallback)
            notes.append("r_bound taken from the tightest applicable uniqueness estimate")

    return Verdict(
        rule=won.rule,
        predicted_sign=won.sign,
        r_bound=r_bound,
        transfers_to_nonhomogeneous=bool(won.transfers),
        details=tuple(recs),
        notes=tuple(notes),
    )
