"""Positive weight functions and the ball-averaged growth-class test.

A weight enters every norm as the density of the measure d(mu) = w(x) dx.
``Weight.__call__``, which every norm, oscillation and class test reads a
weight through, raises ``InvalidInputError`` when the weight is not positive
and finite at some of the nodes it is evaluated at; ``load_config`` also
checks the configured weights on the domain grid.  A weight vanishing or
singular on a measure-zero set must keep that set off the grid, so the power
weight's default center sits at the irrational fractions sqrt(2) - 1,
sqrt(5) - 2 and sqrt(3) - 1 of the domain's bounding box.

The class test computes, over a ball family,

    sup_B (avg_B w^alpha) * (avg_B w^(-beta))^(gamma / beta),

with averages taken against the ball's own quadrature mass, so a constant
weight scores exactly c^(alpha - gamma) with no grid error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyBallFamilyError, InvalidInputError
from .expressions import BinOp, Call, parse, substitute
from .forms import ConstantField, ExprField, RadialPowerField
from .geometry import Ball, offgrid_center
from .young import LOG_GRID, YoungFunction, _grid_values, _require_positive

__all__ = ["Weight", "constant_weight", "power_weight", "custom_weight",
           "WEIGHT_FAMILIES", "check_a_class", "AClassReport", "check_phi_dominated",
           "PhiDominatedReport"]


class Weight:
    """A positive, finite scalar density with a printable identity."""

    def __init__(self, field, name: str, params: dict | None = None):
        self.field = field
        self.name = name
        self.params = dict(params or {})

    def __call__(self, points):
        with np.errstate(all="ignore"):  # a zero, inf or nan raises below
            vals = np.asarray(self.field(points), dtype=np.float64)
        return _require_positive(vals, self.describe())

    def describe(self) -> str:
        if self.params:
            inner = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
            return f"{self.name}({inner})"
        return self.name

    def validate_positive(self, region, resolution: int = 21) -> None:
        """Require 0 < w < inf at every quadrature node of the region."""
        self(region.quadrature(resolution).points)

    def __repr__(self):
        return f"Weight({self.describe()})"


def constant_weight(value: float) -> Weight:
    if not value > 0:
        raise InvalidInputError(f"constant weight must be positive, got {value}")
    return Weight(ConstantField(float(value)), "constant", {"value": float(value)})


def power_weight(center, exponent: float) -> Weight:
    """w(x) = |x - center|^exponent; keep the center off the quadrature grid."""
    center = np.asarray(center, dtype=np.float64).reshape(-1)
    return Weight(RadialPowerField(center, exponent), "power",
                  {"center": center.tolist(), "exponent": float(exponent)})


def custom_weight(text: str, dims: int) -> Weight:
    """Weight from an expression in x1..xn; ``r`` abbreviates |x|."""
    node = parse(text)
    r2 = parse("x1^2")
    for i in range(2, dims + 1):
        r2 = BinOp("+", r2, parse(f"x{i}^2"))
    node = substitute(node, {"r": Call("sqrt", r2)})
    return Weight(ExprField(node, dims), "custom", {"expr": text})


# name -> (keys, constructor) of each weight family, as ``YOUNG_FAMILIES``; a
# constructor takes the domain first, where a power weight's center defaults
WEIGHT_FAMILIES = {
    "constant": ({"value": float}, lambda domain, value: constant_weight(value)),
    "power": ({"center": list | None, "exponent": float},
              lambda domain, center, exponent: power_weight(
                  offgrid_center(domain) if center is None else center, exponent)),
    "custom": ({"expression": str},
               lambda domain, expression: custom_weight(expression, domain.dims)),
}


@dataclass
class AClassReport:
    alpha: float
    beta: float
    gamma: float
    supremum: float
    argmax_index: int
    entries: list[dict]
    flagged: int

    @property
    def finite(self) -> bool:
        return self.flagged == 0 and math.isfinite(self.supremum)


def check_a_class(weight: Weight, alpha: float, beta: float, gamma: float,
                  balls: list[Ball], resolution: int = 21) -> AClassReport:
    """Empirical supremum of the averaged product over the ball family."""
    if not (alpha > 0 and beta > 0 and gamma > 0):
        raise InvalidInputError(
            f"alpha, beta, gamma must be positive, got {(alpha, beta, gamma)}")
    if not balls:
        raise EmptyBallFamilyError("no balls supplied for the weight-class check")
    entries = []
    best, best_idx, flagged = -math.inf, 0, 0
    for i, ball in enumerate(balls):
        quad = ball.quadrature(resolution)
        w = weight(quad.points)
        mass = float(quad.weights.sum())
        with np.errstate(over="ignore", divide="ignore"):
            avg_pos = float(np.dot(quad.weights, w ** alpha)) / mass
            avg_neg = float(np.dot(quad.weights, w ** (-beta))) / mass
            value = avg_pos * avg_neg ** (gamma / beta)
        entry = {"center": ball.center.tolist(), "radius": ball.radius,
                 "value": value, "flag": ""}
        if not math.isfinite(value):
            entry["flag"] = "overflow"
            flagged += 1
        elif value > best:
            best, best_idx = value, i
        entries.append(entry)
    supremum = best if best > -math.inf else math.inf
    return AClassReport(alpha=float(alpha), beta=float(beta), gamma=float(gamma),
                        supremum=supremum, argmax_index=best_idx,
                        entries=entries, flagged=flagged)


@dataclass
class PhiDominatedReport:
    p: float
    ok: bool
    worst_t: float
    worst_ratio: float


def check_phi_dominated(phi: YoungFunction, p: float) -> PhiDominatedReport:
    """Whether phi(t) <= t^p, to 1e-12, at every node of ``LOG_GRID`` (a gate
    on the grid, not a proof); both sides are formed under ``np.errstate``.
    A node where both underflow to 0 or both overflow to inf says nothing
    about their ratio and is skipped; a NaN value of phi fails."""
    if not (math.isfinite(p) and p >= 1):
        raise InvalidInputError(f"exponent must be a finite number >= 1, got {p}")
    vals = _grid_values(phi)
    with np.errstate(all="ignore"):
        bound = LOG_GRID ** p
        ratios = vals / bound
    known = np.flatnonzero(~((vals == bound) & ((bound == 0.0) | (bound == np.inf))))
    worst = int(known[np.argmax(ratios[known])])
    ok = bool(ratios[worst] <= 1.0 + 1e-12)
    return PhiDominatedReport(p=float(p), ok=ok, worst_t=float(LOG_GRID[worst]),
                              worst_ratio=float(ratios[worst]))
