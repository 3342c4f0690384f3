"""Uniform grids, sampled scalar fields, and calculus primitives on them.

Everything downstream works with functions sampled at the nodes of a uniform
grid.  The quadrature rule is composite Simpson, which is why grids require an
even number of subintervals; derivatives are second-order central differences
with one-sided stencils of the same order at the endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Interval",
    "Grid",
    "ScalarField",
    "ProblemSpec",
    "extrema",
    "split_signs",
    "integrate",
    "sup_norm",
    "l2_norm",
    "diff",
    "energy_norm",
]


def require_p(p: float) -> None:
    """Raise ValueError unless the coefficient p is finite and nonnegative."""
    if not (np.isfinite(p) and p >= 0):
        raise ValueError(f"p must be finite and nonnegative, got {p}")


@dataclass(frozen=True)
class Interval:
    """Closed interval [a, b] with finite endpoints and a < b."""

    a: float
    b: float

    def __post_init__(self):
        if not (np.isfinite(self.a) and np.isfinite(self.b)):
            raise ValueError("interval endpoints must be finite")
        if not self.a < self.b:
            raise ValueError(f"interval requires a < b, got [{self.a}, {self.b}]")

    @property
    def length(self) -> float:
        return self.b - self.a


@dataclass(frozen=True)
class Grid:
    """Uniform grid over an interval with n subintervals (n even, n >= 8)."""

    interval: Interval
    n: int

    def __post_init__(self):
        if self.n < 8:
            raise ValueError(f"grid needs at least 8 subintervals, got n = {self.n}")
        if self.n % 2 != 0:
            raise ValueError(f"grid needs an even n for the quadrature rule, got n = {self.n}")

    @property
    def spacing(self) -> float:
        return self.interval.length / self.n

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(self.interval.a, self.interval.b, self.n + 1)


@dataclass(eq=False)
class ScalarField:
    """Samples of a real function at the nodes of a uniform grid.

    Values are stored as a float array of length ``grid.n + 1`` and must be
    finite.  Float dtypes are preserved (solves hand back extended-precision
    samples); everything else is cast to float64.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values)
        if arr.dtype.kind != "f":
            arr = arr.astype(np.float64)
        if arr.shape != (self.grid.n + 1,):
            raise ValueError(
                f"expected {self.grid.n + 1} samples on the grid, got shape {arr.shape}"
            )
        if not np.all(np.isfinite(arr.astype(np.float64))):
            raise ValueError("field values must be finite")
        self.values = arr

    @classmethod
    def from_function(cls, grid: Grid, fn) -> "ScalarField":
        vals = np.asarray(fn(grid.nodes), dtype=np.float64)
        return cls(grid, np.broadcast_to(vals, (grid.n + 1,)).copy())

    @classmethod
    def constant(cls, grid: Grid, value: float) -> "ScalarField":
        return cls(grid, np.full(grid.n + 1, float(value)))


@dataclass(eq=False)
class ProblemSpec:
    """Data of u'''' - p u'' + c(t) u = h(t) with hinged ends.

    The boundary conditions are u(a) = u(b) = 0, u''(a) = d1, u''(b) = d2
    with d1, d2 finite and <= 0; d1 = d2 = 0 is the homogeneous (simply
    supported) case.  The fields c and h must be sampled on one and the same
    grid over the problem interval.
    """

    interval: Interval
    p: float
    c: ScalarField
    h: ScalarField
    d1: float = 0.0
    d2: float = 0.0

    def __post_init__(self):
        require_p(self.p)
        if self.d1 > 0 or self.d2 > 0:
            raise ValueError(
                f"end moments must be nonpositive, got d1 = {self.d1}, d2 = {self.d2}"
            )
        if not (np.isfinite(self.d1) and np.isfinite(self.d2)):
            raise ValueError(f"end moments must be finite, got d1 = {self.d1}, d2 = {self.d2}")
        if self.c.grid != self.h.grid:
            raise ValueError("c and h must be sampled on the same grid")
        if self.c.grid.interval != self.interval:
            raise ValueError("fields are not sampled on the problem interval")

    @property
    def grid(self) -> Grid:
        return self.c.grid


# ---------------------------------------------------------------------------
# pointwise operations


def extrema(f: ScalarField) -> tuple[float, float]:
    """Minimum and maximum of the samples, as (f_min, f_max)."""
    v = f.values
    return float(v.min()), float(v.max())


def split_signs(f: ScalarField) -> tuple[ScalarField, ScalarField]:
    """Split into nonnegative parts (f_plus, f_minus) with f = f_plus - f_minus."""
    v = np.asarray(f.values, dtype=np.float64)
    return (
        ScalarField(f.grid, np.maximum(v, 0.0)),
        ScalarField(f.grid, np.maximum(-v, 0.0)),
    )


def sup_norm(f: ScalarField) -> float:
    return float(np.max(np.abs(f.values)))


# ---------------------------------------------------------------------------
# quadrature and norms


def _simpson(y: np.ndarray, dx: float) -> float:
    # composite weights dx/3 [1, 4, 2, ..., 4, 1] on an even number of panels,
    # grouped as scipy.integrate.simpson groups them, so results match it bit for bit
    return float(np.sum(y[0:-1:2] + 4.0 * y[1::2] + y[2::2]) * (dx / 3.0))


def integrate(f: ScalarField) -> float:
    """Composite Simpson integral over the grid interval (exact for cubics)."""
    return _simpson(np.asarray(f.values, dtype=np.float64), f.grid.spacing)


def l2_norm(f: ScalarField) -> float:
    v = np.asarray(f.values, dtype=np.float64)
    val = _simpson(v * v, f.grid.spacing)
    return float(np.sqrt(max(val, 0.0)))


def diff(f: ScalarField, order: int) -> ScalarField:
    """Finite-difference derivative of order 1 or 2, second order accurate.

    Central stencils at interior nodes, one-sided three- or four-point
    stencils at the endpoints so the boundary values are O(h^2) as well.
    """
    v = np.asarray(f.values, dtype=np.float64)
    h = f.grid.spacing
    if order == 1:
        out = np.gradient(v, h, edge_order=2)
    elif order == 2:
        out = np.empty_like(v)
        out[1:-1] = (v[:-2] - 2.0 * v[1:-1] + v[2:]) / h**2
        out[0] = (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) / h**2
        out[-1] = (2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]) / h**2
    else:
        raise ValueError(f"derivative order must be 1 or 2, got {order}")
    return ScalarField(f.grid, out)


def energy_norm(u: ScalarField, p: float, r: ScalarField) -> float:
    """sqrt( int u''^2 + p int u'^2 + int r u^2 ) with p >= 0 and r >= 0."""
    require_p(p)
    if u.grid != r.grid:
        raise ValueError("u and r must share a grid")
    if extrema(r)[0] < 0:
        raise ValueError("weight r must be nonnegative")
    du = np.asarray(diff(u, 1).values, dtype=np.float64)
    d2u = np.asarray(diff(u, 2).values, dtype=np.float64)
    uv = np.asarray(u.values, dtype=np.float64)
    integrand = d2u * d2u + p * du * du + np.asarray(r.values, dtype=np.float64) * uv * uv
    val = _simpson(integrand, u.grid.spacing)
    return float(np.sqrt(max(val, 0.0)))
