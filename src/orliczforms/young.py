"""Young functions, Luxemburg norms, and ball-oscillation norms.

The Luxemburg norm of a scalar field f over a region is

    ||f|| = inf { lam > 0 : integral phi(|f| / lam) d(mu) <= 1 },

computed by bisection on log(lam): the integral I(lam) is non-increasing in
lam, so a bracket [lo, hi] with I(lo) > 1 >= I(hi) shrinks geometrically.
The bracket is closed to relative width ``LUX_REL_TOL`` = 1e-10, comfortably
inside the 1e-8 guarantees quoted elsewhere, and the returned value is the
geometric midpoint.  With phi(t) = t^p this reproduces the discrete L^p norm
on the same quadrature grid exactly (up to the bracket width), which is the
main cross-check oracle.

The two oscillation norms share one per-ball profile ||u - u_B||_{phi,B};
only the |B| prefactor differs (|B|^-1 versus |B|^-(n+k)/n), so comparisons
between them are exact to rounding by construction.  Ball volumes in the
prefactors use the closed form, never quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import homotopy
from .errors import (DivergedIntegralError, EmptyBallFamilyError, InvalidInputError,
                     NoConvergenceError)
from .expressions import parse
from .forms import DifferentialForm, pointwise_modulus
from .geometry import Ball, Domain, ball_family

__all__ = [
    "YoungFunction", "power", "power_log", "custom_young", "young_violations",
    "LOG_GRID", "LUX_REL_TOL", "check_g_class", "GClassReport", "luxemburg_norm",
    "lp_norm", "OscillationNormSpec", "OscillationResult", "oscillation_residuals",
    "oscillation_profile", "oscillation_norm", "check_wrh", "WRHReport",
]

LOG_GRID = np.geomspace(1e-6, 1e6, 1000)
LUX_REL_TOL = 1e-10  # relative bracket width that ends luxemburg_norm's bisection


class YoungFunction:
    """Convex increasing phi with phi(0) = 0, evaluated vectorized.

    ``witness_factory(p, q)``, when present, returns a triple ``(g, h, c)``
    of comparison profiles used by the G(p,q,c)-class check.
    """

    def __init__(self, fn, name: str, params: dict | None = None, witness_factory=None):
        self.fn = fn
        self.name = name
        self.params = dict(params or {})
        self._witness_factory = witness_factory

    def __call__(self, t):
        return self.fn(np.asarray(t, dtype=np.float64))

    def witnesses(self, p: float, q: float):
        """(g, h, c) for the G(p,q,c) check; defaults to the tautological pair."""
        if self._witness_factory is not None:
            return self._witness_factory(p, q)
        return (lambda t: self(np.asarray(t) ** (1.0 / p)),
                lambda t: self(np.asarray(t) ** (1.0 / q)),
                1.0)

    def describe(self) -> str:
        if self.params:
            inner = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
            return f"{self.name}({inner})"
        return self.name

    def __repr__(self):
        return f"YoungFunction({self.describe()})"


def power(p: float) -> YoungFunction:
    """phi(t) = t^p, p >= 1.  The Luxemburg norm then equals the L^p norm."""
    if p < 1:
        raise InvalidInputError(f"power exponent must be >= 1, got {p}")
    s = float(p)

    def factory(pp, qq):
        # phi(t^(1/pp)) = t^(s/pp) convex for s >= pp; phi(t^(1/qq)) concave for s <= qq
        return (lambda t: np.asarray(t) ** (s / pp),
                lambda t: np.asarray(t) ** (s / qq),
                1.0)

    return YoungFunction(lambda t: t ** s, "power", {"p": s}, factory)


def power_log(p: float) -> YoungFunction:
    """phi(t) = t^p log(e + t), the standard borderline growth example."""
    if p < 1:
        raise InvalidInputError(f"power_log exponent must be >= 1, got {p}")
    s = float(p)

    def fn(t):
        return t ** s * np.log(math.e + t)

    def factory(pp, qq):
        def g(t):
            t = np.asarray(t, dtype=np.float64)
            return t ** (s / pp) * np.log(math.e + t ** (1.0 / pp))

        def h(t):
            t = np.asarray(t, dtype=np.float64)
            return t ** (s / qq) * np.log(math.e + t ** (1.0 / qq))

        return g, h, 1.0

    return YoungFunction(fn, "power_log", {"p": s}, factory)


def custom_young(text: str) -> YoungFunction:
    """Young function from an expression in the variable t; validated by sampling."""
    node = parse(text)

    def fn(t):
        return np.asarray(node.ev({"t": np.asarray(t, dtype=np.float64)}),
                          dtype=np.float64)

    phi = YoungFunction(fn, "custom", {"expr": text})
    bad = young_violations(phi)
    if bad:
        raise InvalidInputError("not a Young function: " + "; ".join(bad))
    return phi


def young_violations(phi) -> list[str]:
    """Sampled checks of the Young-function axioms; empty list means clean."""
    out = []
    v0 = float(phi(np.array([0.0]))[0])
    if not abs(v0) <= 1e-12:
        out.append(f"phi(0) = {v0!r}, expected 0")
    vals = phi(LOG_GRID)
    if not np.all(np.isfinite(vals)):
        out.append("phi not finite on the sample grid")
    elif not np.all(np.diff(vals) > 0):
        out.append("phi not strictly increasing on the sample grid")
    rng = np.random.default_rng(0)
    s = LOG_GRID[rng.integers(0, LOG_GRID.size, 10000)]
    t = LOG_GRID[rng.integers(0, LOG_GRID.size, 10000)]
    lhs = phi((s + t) / 2.0)
    rhs = (phi(s) + phi(t)) / 2.0
    slack = 1e-12 * np.maximum(1.0, np.abs(rhs))
    if np.isfinite(rhs).all() and not np.all(lhs <= rhs + slack):
        out.append("midpoint convexity fails on sampled pairs")
    return out


def _monotone_inverse_grid(fn, targets: np.ndarray) -> np.ndarray:
    """Solve fn(s) = y for each y in targets; fn increasing on (0, inf)."""
    y = np.asarray(targets, dtype=np.float64)
    lo = np.full(y.shape, 1e-30)
    hi = np.full(y.shape, 1e30)
    # 200 halvings in log space pin s to ~1e-16 relative
    for _ in range(200):
        mid = np.sqrt(lo * hi)
        below = fn(mid) < y
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return np.sqrt(lo * hi)


@dataclass
class GClassReport:
    p: float
    q: float
    c: float
    member: bool
    violations: list[str] = field(default_factory=list)
    ratio_g: tuple[float, float] = (math.nan, math.nan)
    ratio_h: tuple[float, float] = (math.nan, math.nan)
    power_p_bounds: tuple[float, float] = (math.nan, math.nan)
    power_q_bounds: tuple[float, float] = (math.nan, math.nan)


def check_g_class(phi: YoungFunction, p: float, q: float,
                  c: float | None = None) -> GClassReport:
    """Sampled membership check for the G(p, q, c) growth class.

    Verifies, on ``LOG_GRID``, the two ratio sandwiches against the witnesses
    (g convex increasing, h concave increasing) and the derived power bounds
    c1 t^p <= g^-1(phi(t)) <= c2 t^p and likewise with (h, q).  This certifies
    the sampled grid only; it is a report, not a proof.
    """
    if not 1 <= p < q:
        raise InvalidInputError(f"need 1 <= p < q, got p={p}, q={q}")
    g, h, c_wit = phi.witnesses(p, q)
    c_eff = float(c if c is not None else c_wit)
    if c_eff < 1:
        raise InvalidInputError(f"c must be >= 1, got {c_eff}")
    report = GClassReport(p=float(p), q=float(q), c=c_eff, member=True)

    tol = 1e-12

    def record(msg):
        report.violations.append(msg)
        report.member = False

    gv, hv = np.asarray(g(LOG_GRID)), np.asarray(h(LOG_GRID))
    if np.any(np.diff(gv) <= 0):
        record("witness g is not increasing on the grid")
    if np.any(np.diff(hv) <= 0):
        record("witness h is not increasing on the grid")

    rng = np.random.default_rng(0)
    si = LOG_GRID[rng.integers(0, LOG_GRID.size, 10000)]
    ti = LOG_GRID[rng.integers(0, LOG_GRID.size, 10000)]
    mid_g, avg_g = np.asarray(g((si + ti) / 2)), (np.asarray(g(si)) + np.asarray(g(ti))) / 2
    if not np.all(mid_g <= avg_g + tol * np.maximum(1.0, np.abs(avg_g))):
        record("witness g fails midpoint convexity")
    mid_h, avg_h = np.asarray(h((si + ti) / 2)), (np.asarray(h(si)) + np.asarray(h(ti))) / 2
    if not np.all(mid_h >= avg_h - tol * np.maximum(1.0, np.abs(avg_h))):
        record("witness h fails midpoint concavity")

    rg = phi(LOG_GRID ** (1.0 / p)) / gv
    rh = phi(LOG_GRID ** (1.0 / q)) / hv
    report.ratio_g = (float(rg.min()), float(rg.max()))
    report.ratio_h = (float(rh.min()), float(rh.max()))
    slack = 1 + 1e-9
    if rg.max() > c_eff * slack or rg.min() < 1 / (c_eff * slack):
        record(f"ratio phi(t^(1/p))/g(t) leaves [1/c, c]: range {report.ratio_g}")
    if rh.max() > c_eff * slack or rh.min() < 1 / (c_eff * slack):
        record(f"ratio phi(t^(1/q))/h(t) leaves [1/c, c]: range {report.ratio_h}")

    # derived doubling consequences: g^-1(phi(t)) ~ t^p and h^-1(phi(t)) ~ t^q
    sub = LOG_GRID[::10]
    phis = phi(sub)
    ginv = _monotone_inverse_grid(g, phis)
    hinv = _monotone_inverse_grid(h, phis)
    rp = ginv / sub ** p
    rq = hinv / sub ** q
    report.power_p_bounds = (float(rp.min()), float(rp.max()))
    report.power_q_bounds = (float(rq.min()), float(rq.max()))
    if not (np.all(np.isfinite(rp)) and rp.min() > 0):
        record("derived bound g^-1(phi(t)) ~ t^p degenerates on the grid")
    if not (np.all(np.isfinite(rq)) and rq.min() > 0):
        record("derived bound h^-1(phi(t)) ~ t^q degenerates on the grid")
    return report


# --- norms -------------------------------------------------------------------


def _field_values(f, points):
    if isinstance(f, np.ndarray):
        if f.shape != (points.shape[0],):
            raise InvalidInputError(
                f"expected {points.shape[0]} node values, got shape {f.shape}")
        return f
    if isinstance(f, DifferentialForm):
        return f.modulus_values(points)
    return np.asarray(f(points), dtype=np.float64).reshape(points.shape[0])


def _require_positive(vals: np.ndarray, name: str) -> np.ndarray:
    """``vals``, the density ``name`` at quadrature nodes, if every one is
    positive; raises ``InvalidInputError`` otherwise."""
    bad = int(np.count_nonzero(~(vals > 0)))
    if bad:
        raise InvalidInputError(f"weight {name} is not positive at {bad} of "
                                f"{vals.size} quadrature nodes")
    return vals


def _node_measure(quad, weight) -> np.ndarray:
    """The quadrature weights, times the density ``weight`` at the nodes when
    one is given: a ``weights.Weight`` or a bare callable, which must be
    positive at every node."""
    if weight is None:
        return quad.weights
    vals = np.asarray(weight(quad.points), dtype=np.float64)
    return quad.weights * _require_positive(vals, getattr(weight, "__name__", repr(weight)))


def luxemburg_norm(f, region, phi: YoungFunction, weight=None,
                   resolution: int = 41) -> float:
    """inf{lam > 0 : integral phi(|f|/lam) d(mu) <= 1} over the region's grid.

    ``f`` may be a scalar field, a DifferentialForm (its pointwise modulus
    is used) or an array of values at the nodes of
    ``region.quadrature(resolution)``, in node order.  ``weight``, when
    given, multiplies Lebesgue measure.
    """
    quad = region.quadrature(resolution)
    vals = np.abs(_field_values(f, quad.points))
    w = _node_measure(quad, weight)
    keep = w > 0
    vals, w = vals[keep], w[keep]
    if vals.size == 0:
        return 0.0
    vmax = float(vals.max())
    if vmax == 0.0:
        return 0.0

    def integral(lam: float) -> float:
        y = phi(vals / lam) * w
        total = y.sum()
        # a NaN term makes the sum NaN; only then look for one
        if math.isnan(total) and np.isnan(y).any():
            raise DivergedIntegralError(f"integrand not a number at lambda={lam!r}")
        return float(total)

    # phi may overflow or divide by zero at extreme lambda; the field's own
    # evaluation above stays outside this errstate
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        lam = vmax
        val = integral(lam)
        if val > 1.0:
            lo, val_lo = lam, val
            hi = lam
            while True:
                hi *= 4.0
                if hi > 1e12 * vmax:
                    raise NoConvergenceError(
                        f"phi integral stays above 1 up to lambda = 1e12 * max|f| = {hi!r}")
                val_hi = integral(hi)
                if val_hi <= 1.0:
                    break
                lo, val_lo = hi, val_hi
        else:
            hi, val_hi = lam, val
            lo = lam
            while True:
                lo /= 4.0
                val_lo = integral(lo)
                if val_lo > 1.0:
                    break
                hi, val_hi = lo, val_lo
                if lo < vmax * 1e-18:
                    # measure of the support is numerically zero
                    return 0.0

        # invariant: I(lo) > 1 >= I(hi); I is non-increasing in lambda
        for _ in range(300):
            if hi / lo - 1.0 <= LUX_REL_TOL:
                break
            if val_lo < val_hi - 1e-12:
                raise InvalidInputError(
                    "Luxemburg integral is not monotone on this grid; "
                    "phi is not a valid Young function here")
            mid = math.sqrt(lo * hi)
            val_mid = integral(mid)
            if val_mid <= 1.0:
                hi, val_hi = mid, val_mid
            else:
                lo, val_lo = mid, val_mid
        return math.sqrt(lo * hi)


def lp_norm(f, region, p: float, weight=None, resolution: int = 41) -> float:
    """(integral |f|^p d(mu))^(1/p) on the region's quadrature grid."""
    if not p > 0:
        raise InvalidInputError(f"exponent must be positive, got {p}")
    quad = region.quadrature(resolution)
    vals = np.abs(_field_values(f, quad.points))
    w = _node_measure(quad, weight)
    return float(np.sum(w * vals ** p) ** (1.0 / p))


# --- oscillation norms -------------------------------------------------------


@dataclass(frozen=True)
class OscillationNormSpec:
    """Which oscillation norm to take and over which ball family."""

    kind: str  # "bmo" | "lipschitz"
    k: float = 0.5
    sigma: float = 1.1
    ball_count: int = 24
    radius_fraction: float = 0.25

    def __post_init__(self):
        if self.kind not in ("bmo", "lipschitz"):
            raise InvalidInputError(f"kind must be 'bmo' or 'lipschitz', got {self.kind!r}")
        if self.kind == "lipschitz" and not 0 < self.k < 1:
            raise InvalidInputError(f"Lipschitz exponent k must lie in (0,1), got {self.k}")
        if not self.sigma > 1:
            raise InvalidInputError(f"sigma must exceed 1, got {self.sigma}")

    def exponent(self, n: int) -> float:
        if self.kind == "bmo":
            return -1.0
        return -(n + self.k) / n


@dataclass
class OscillationResult:
    value: float
    argmax_ball: Ball
    per_ball: list[float]
    profile: list[float]
    balls: list[Ball]

    def to_dict(self):
        return {"value": self.value, "per_ball": list(self.per_ball),
                "argmax_center": self.argmax_ball.center.tolist(),
                "argmax_radius": self.argmax_ball.radius}


def oscillation_residuals(u: DifferentialForm, balls: list[Ball], *,
                          ball_resolution: int = 15) -> list[np.ndarray]:
    """|u - u_B| at the nodes of ``B.quadrature(ball_resolution)``, per ball.

    u_B is the per-ball closed part.  The values depend on neither the Young
    function nor the weight, so one set serves every (phi, weight) profile.
    u is evaluated once per ball (``homotopy.closed_part_values``).
    """
    out = []
    for ball in balls:
        quad = ball.quadrature(ball_resolution)
        values = u.evaluate(quad.points)
        u_b = homotopy.closed_part_values(u, ball, quad, values,
                                          resolution=ball_resolution)
        out.append(pointwise_modulus(values - u_b))
    return out


def oscillation_profile(u: DifferentialForm, balls: list[Ball], phi: YoungFunction,
                        weight=None, *, ball_resolution: int = 15,
                        residuals: list[np.ndarray] | None = None) -> list[float]:
    """||u - u_B||_{phi,B} for each ball, with u_B the per-ball closed part.

    ``residuals``, when given, are the ``oscillation_residuals`` of ``u`` on
    ``balls`` at ``ball_resolution``, one array per ball; only the Luxemburg
    bisection then runs.
    """
    if residuals is None:
        residuals = oscillation_residuals(u, balls, ball_resolution=ball_resolution)
    _check_per_ball("residuals", residuals, balls)
    return [luxemburg_norm(r, ball, phi, weight=weight, resolution=ball_resolution)
            for ball, r in zip(balls, residuals)]


def oscillation_norm(u: DifferentialForm, domain: Domain, phi: YoungFunction,
                     spec: OscillationNormSpec, weight=None, *,
                     ball_resolution: int = 15, balls: list[Ball] | None = None,
                     profile: list[float] | None = None) -> OscillationResult:
    """sup over the ball family of |B|^e ||u - u_B||_{phi,B}.

    ``balls`` and ``profile`` allow sharing one family (and one set of
    per-ball Luxemburg values) between the two norm kinds, which keeps
    comparisons between them exact; ``profile`` needs one value per ball.
    """
    if balls is None:
        balls = ball_family(domain, spec.ball_count, spec.radius_fraction,
                            expansion=spec.sigma)
    if not balls:
        raise EmptyBallFamilyError("no admissible balls for the oscillation norm")
    if profile is None:
        profile = oscillation_profile(u, balls, phi, weight,
                                      ball_resolution=ball_resolution)
    _check_per_ball("profile", profile, balls)
    e = spec.exponent(domain.dims)
    per = [b.volume() ** e * v for b, v in zip(balls, profile)]
    return OscillationResult(value=float(max(per)),
                             argmax_ball=balls[int(np.argmax(per))], per_ball=per,
                             profile=list(profile), balls=list(balls))


def _check_per_ball(name: str, values, balls) -> None:
    if len(values) != len(balls):
        raise InvalidInputError(
            f"{name} has {len(values)} entries for {len(balls)} balls")


# --- weak reverse Hoelder ----------------------------------------------------


@dataclass
class WRHReport:
    s: float
    t: float
    rho: float
    constant: float
    argmax_index: int
    entries: list[dict]
    degenerate: int

    @property
    def ok(self) -> bool:
        return self.degenerate == 0 and math.isfinite(self.constant)


def check_wrh(u: DifferentialForm, domain: Domain, s: float, t: float, rho: float,
              balls: list[Ball] | None = None, *, ball_count: int = 24,
              radius_fraction: float = 0.25, resolution: int = 21) -> WRHReport:
    """Empirical weak-reverse-Hoelder constant over a ball family.

    For each ball the ratio ||u||_{s,B} / (|B|^((t-s)/(st)) ||u||_{t,rho B})
    is recorded; the report's constant is the max over non-degenerate entries
    (a lower bound on the true constant, never a proof of membership).
    """
    if not (s > 0 and t > 0):
        raise InvalidInputError(f"exponents must be positive, got s={s}, t={t}")
    if not rho > 1:
        raise InvalidInputError(f"rho must exceed 1, got {rho}")
    if balls is None:
        balls = ball_family(domain, ball_count, radius_fraction, expansion=rho)
    if not balls:
        raise EmptyBallFamilyError("no admissible balls for the WRH check")
    eps = 1e-14
    entries = []
    best, best_idx, degenerate = -math.inf, 0, 0
    for i, ball in enumerate(balls):
        lhs = lp_norm(u, ball, s, resolution=resolution)
        rhs_norm = lp_norm(u, ball.scaled(rho), t, resolution=resolution)
        factor = ball.volume() ** ((t - s) / (s * t))
        entry = {"center": ball.center.tolist(), "radius": ball.radius,
                 "lhs": lhs, "rhs": factor * rhs_norm, "ratio": math.nan, "flag": ""}
        if rhs_norm <= eps:
            entry["flag"] = "degenerate" if lhs > eps else "zero"
            degenerate += int(lhs > eps)
        else:
            ratio = lhs / (factor * rhs_norm)
            entry["ratio"] = ratio
            if ratio > best:
                best, best_idx = ratio, i
        entries.append(entry)
    constant = best if best > -math.inf else math.nan
    return WRHReport(s=float(s), t=float(t), rho=float(rho), constant=constant,
                     argmax_index=best_idx, entries=entries, degenerate=degenerate)
