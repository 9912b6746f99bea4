"""Young functions, Luxemburg norms, and ball-oscillation norms.

The Luxemburg norm of a scalar field f over a region is

    ||f|| = inf { lam > 0 : integral phi(|f| / lam) d(mu) <= 1 },

computed by regula falsi on log I against log lam, safeguarded and in its
Illinois variant.  The integral I(lam) is non-increasing in lam, and phi is
convex with phi(0) = 0, so I(c lam) <= I(lam) / c for c >= 1.  One value
I0 = I(max|f|) therefore brackets the root between max|f| and max|f| I0;
that far end, moved out by a relative LUX_REL_TOL / 2, is evaluated once
and gives [lo, hi] with I(lo) > 1 >= I(hi), which every step keeps.  A
secant step evaluates I at lam (1 -+ LUX_REL_TOL / 4) around its estimate
lam, so an estimate that close to the root closes the bracket from both
sides.  A geometric-midpoint step replaces it while I(hi) = 0, and after
three steps that together fail to halve log(hi/lo), which keeps the worst
case within a small factor of bisection.  The bracket is closed to relative
width ``LUX_REL_TOL`` = 1e-10, comfortably inside the 1e-8 guarantees
quoted elsewhere, and the returned value is the secant root through its
final ends (their geometric midpoint when I(hi) = 0).  With phi(t) = t^p,
log I is affine in log lam, so the first secant step lands on the root: the
result is the discrete L^p norm on the same quadrature grid to rounding,
which is the main cross-check oracle.  A root at max|f| itself, as for a
constant field, comes back to rounding.

The Young-function axioms and G(p, q) membership are one shape test of
phi's values on ``LOG_GRID``, 1000 log-spaced t in [1e-6, 1e6]
(``_shape_violations``); it is deterministic and certifies the grid only.
"""

from __future__ import annotations

import math
import sys
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
    "oscillation_profile", "oscillation_sup", "oscillation_norm", "check_wrh", "WRHReport",
]

LOG_GRID = np.geomspace(1e-6, 1e6, 1000)
LUX_REL_TOL = 1e-10  # relative bracket width that ends luxemburg_norm's solve
_STEP = LUX_REL_TOL / 4.0  # a secant step evaluates lam * (1 -+ _STEP)
_WINDOW = 3  # a midpoint step follows this many that fail to halve log(hi/lo)


def _log(x: float) -> float:
    return math.log(x) if x > 0.0 else -math.inf


class YoungFunction:
    """Convex increasing phi with phi(0) = 0, evaluated vectorized."""

    def __init__(self, fn, name: str, params: dict | None = None):
        self.fn = fn
        self.name = name
        self.params = dict(params or {})

    def __call__(self, t):
        return self.fn(np.asarray(t, dtype=np.float64))

    def describe(self) -> str:
        if self.params:
            inner = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
            return f"{self.name}({inner})"
        return self.name

    def __repr__(self):
        return f"YoungFunction({self.describe()})"


def power(p: float) -> YoungFunction:
    """phi(t) = t^p, p >= 1.  The Luxemburg norm then equals the L^p norm."""
    if not (math.isfinite(p) and p >= 1):
        raise InvalidInputError(f"power exponent must be a finite number >= 1, got {p}")
    s = float(p)
    return YoungFunction(lambda t: t ** s, "power", {"p": s})


def power_log(p: float) -> YoungFunction:
    """phi(t) = t^p log(e + t), the standard borderline growth example."""
    if not (math.isfinite(p) and p >= 1):
        raise InvalidInputError(
            f"power_log exponent must be a finite number >= 1, got {p}")
    s = float(p)
    return YoungFunction(lambda t: t ** s * np.log(math.e + t), "power_log", {"p": s})


def custom_young(text: str) -> YoungFunction:
    """Young function from an expression in the variable t; raises
    ``InvalidInputError`` when it fails ``young_violations``."""
    node = parse(text)

    def fn(t):
        t = np.asarray(t, dtype=np.float64)
        # a constant expression evaluates to a scalar; phi takes t's shape
        return np.broadcast_to(np.asarray(node.ev({"t": t}), dtype=np.float64), t.shape)

    phi = YoungFunction(fn, "custom", {"expr": text})
    bad = young_violations(phi)
    if bad:
        raise InvalidInputError("not a Young function: " + "; ".join(bad))
    return phi


# name -> (keys, constructor) of each Young-function family; ``keys`` maps each
# parameter, in the constructor's order, to its kind: float (a finite number),
# str, or list (a length-dims point; ``list | None`` if optional).  A config
# spec is {"name": name, key: value}, a CLI spec name:value.
YOUNG_FAMILIES = {"power": ({"p": float}, power), "power_log": ({"p": float}, power_log),
                  "custom": ({"expression": str}, custom_young)}


def _grid_values(phi, t: np.ndarray = LOG_GRID) -> np.ndarray:
    """phi at the nodes ``t``, by default ``LOG_GRID``, evaluated under
    ``np.errstate``, so an overflow shows up as a value, not a warning."""
    with np.errstate(all="ignore"):
        return phi(t)


def _shape_violations(phi, p: float, q: float | None = None) -> list[str]:
    """The one grid test of phi's shape: the violations of phi finite and
    increasing, convex in s = t^p and, when ``q`` is given, concave in
    s = t^q on ``LOG_GRID``, read as t-nodes.

    Where a fast-growing phi underflows below the smallest normal float at
    the bottom of the grid, or overflows to inf at its top, its values carry
    no shape, so the tests run on the nodes between; those end nodes must
    still be nondecreasing.  Without ``q`` the convexity slopes start at the
    last node of the bottom run, so a phi that jumps from 0 is not convex.
    A NaN, a decrease, or an inf below a finite value fails the first test.
    phi is convex in s exactly when its secant slopes against s between
    neighbouring nodes are nondecreasing, concave exactly when they are
    nonincreasing, to 1e-12 in their logs.  A phi
    concave in t^q with phi(0) = 0 has phi(t) / t^q nonincreasing, so a 0
    next to the kept nodes where that bound is a normal float, or an inf
    where it is finite, fails the concave half too.
    """
    vals = _grid_values(phi)
    tiny, big = np.finfo(float).tiny, np.finfo(float).max
    # the nodes where phi is a finite normal float: past a run of underflows
    # at the bottom, before a run of overflows at the top
    lo = int(np.argmax(~((vals >= 0.0) & (vals < tiny))))
    hi = vals.size - int(np.argmax(vals[::-1] != np.inf))
    # the axioms (no q) start their convexity slopes at the last node of a
    # bottom run, so a jump from 0 is not convex; under G(p, q) the concave
    # bound at q already fails such a jump, and the slopes start past the run
    start = lo - 1 if q is None and lo > 0 else lo
    inner, log_t = vals[start:hi], np.log(LOG_GRID[start:hi])
    if not (hi - lo > 2 and np.all(np.isfinite(inner)) and np.all(np.diff(inner) > 0)
            and np.all(np.diff(vals[:lo + 1]) >= 0)):
        return ["phi is not finite and increasing on the grid"]

    def slope_steps(p):
        # steps of the log secant slopes against s = t^p, log(phi(t_i+1) -
        # phi(t_i)) - p log t_i - log expm1(p log(t_i+1 / t_i)): no power of t
        # is formed and log expm1(x) = x + log(-expm1(-x)), so no q overflows
        x = p * np.diff(log_t)
        return np.diff(np.log(np.diff(inner)) - p * log_t[:-1] - (x + np.log(-np.expm1(-x))))

    out = []
    if np.any(slope_steps(p) < -1e-12):
        out.append("witness g(s) = phi(s^(1/p)) is not convex on the grid")
    if q is not None:
        step = q * math.log(LOG_GRID[1] / LOG_GRID[0])  # log (t_i+1 / t_i)^q
        ends_fit = ((lo == 0 or math.log(inner[0]) - step < math.log(tiny) + 1e-12)
                    and (hi == vals.size or math.log(inner[-1]) + step > math.log(big) - 1e-12))
        if not ends_fit or np.any(slope_steps(q) > 1e-12):
            out.append("witness h(s) = phi(s^(1/q)) is not concave on the grid")
    return out


def young_violations(phi) -> list[str]:
    """The Young-function axioms phi fails; an empty list means clean:
    phi(0) = 0 to 1e-12, and ``_shape_violations`` at p = 1, the test of
    ``check_g_class`` without its concave half."""
    v0 = float(_grid_values(phi, np.zeros(1))[0])
    out = [] if abs(v0) <= 1e-12 else [f"phi(0) = {v0!r}, expected 0"]
    return out + _shape_violations(phi, 1.0)


@dataclass
class GClassReport:
    p: float
    q: float
    member: bool
    violations: list[str] = field(default_factory=list)


def check_g_class(phi: YoungFunction, p: float, q: float) -> GClassReport:
    """Membership of phi in the growth class G(p, q, C) on ``LOG_GRID``.

    phi lies in G(p, q, C) when phi(s^(1/p)) / g(s) and phi(s^(1/q)) / h(s)
    stay in [1/C, C] for some convex increasing g and concave increasing h.
    The witnesses g(s) = phi(s^(1/p)) and h(s) = phi(s^(1/q)) meet that
    sandwich with C = 1, so membership is ``_shape_violations`` at p and q,
    the index test p <= 1 + t phi''(t) / phi'(t) <= q with phi' replaced by
    its secant, so kinks need no derivative.  It is a report, not a proof.
    """
    if not 1 <= p < q:
        raise InvalidInputError(f"need 1 <= p < q, got p={p}, q={q}")
    violations = _shape_violations(phi, p, q)
    return GClassReport(p=float(p), q=float(q), member=not violations,
                        violations=violations)


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
    positive and finite; raises ``InvalidInputError`` otherwise."""
    inf = vals == np.inf
    bad = int(np.count_nonzero(~(vals > 0) | inf))
    if bad:
        finite = " and finite" if inf.any() else ""
        raise InvalidInputError(f"weight {name} is not positive{finite} at {bad} of "
                                f"{vals.size} quadrature nodes")
    return vals


def _node_measure(quad, weight) -> np.ndarray:
    """The quadrature weights, times the density ``weight`` at the nodes when
    one is given: a ``weights.Weight`` or a bare callable, which must be
    positive and finite at every node."""
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
        # phi is convex with phi(0) = 0, so I(c lam) <= I(lam) / c for c >= 1:
        # the root lies between max|f| and max|f| I(max|f|), which is taken
        # into the positive normal floats when it under- or overflows
        val = integral(vmax)
        bound = vmax * val * (1.0 + 2.0 * _STEP if val > 1.0 else 1.0 - 2.0 * _STEP)
        far = min(max(bound, sys.float_info.min), sys.float_info.max)
        (lo, val_lo), (hi, val_hi) = sorted([(vmax, val), (far, integral(far))])
        if not val_lo > 1.0 >= val_hi:
            if far != bound:
                raise NoConvergenceError(
                    f"no finite bracket: I(max|f|) = {val!r} at max|f| = {vmax!r}")
            raise InvalidInputError(
                "Luxemburg integral breaks the convexity bound on this grid; "
                "phi is not a valid Young function here")

        # invariant: I(lo) > 1 >= I(hi); I is non-increasing in lambda.
        # g_lo > 0 >= g_hi are the values of log I that the secant runs on;
        # the Illinois rule halves the one at an end kept two steps running
        g_lo, g_hi = _log(val_lo), _log(val_hi)
        widths = [hi / lo]  # hi/lo before each step
        last = None
        for _ in range(300):
            if hi / lo - 1.0 <= LUX_REL_TOL:
                break
            if val_lo < val_hi - 1e-12:
                raise InvalidInputError(
                    "Luxemburg integral is not monotone on this grid; "
                    "phi is not a valid Young function here")
            # w * w and sqrt(lo) sqrt(hi) stay defined on the widest bracket,
            # from the smallest normal float to the largest
            stalled = (len(widths) > _WINDOW
                       and widths[-1] * widths[-1] > widths[-1 - _WINDOW])
            if stalled or not math.isfinite(g_lo - g_hi):
                points = (math.sqrt(lo) * math.sqrt(hi),)
            else:
                lam = hi * (lo / hi) ** (g_hi / (g_hi - g_lo))
                lam = min(max(lam, lo * (1.0 + 2.0 * _STEP)), hi * (1.0 - 2.0 * _STEP))
                points = (lam * (1.0 - _STEP), lam * (1.0 + _STEP))
            side = None  # the end the step moves: "lo", "hi", or "both"
            for lam in points:
                if not lo < lam < hi:  # the point before it moved past it
                    continue
                val = integral(lam)
                if val <= 1.0:
                    hi, val_hi, g_hi = lam, val, _log(val)
                    side = "hi" if side is None else "both"
                else:
                    lo, val_lo, g_lo, side = lam, val, _log(val), "lo"
            if side == last == "lo":
                g_hi /= 2.0
            elif side == last == "hi":
                g_lo /= 2.0
            last = side
            widths.append(hi / lo)
        # the secant root through the final ends, on their true log I
        g_lo, g_hi = _log(val_lo), _log(val_hi)
        if math.isfinite(g_lo - g_hi):
            return hi * (lo / hi) ** (g_hi / (g_hi - g_lo))
        return math.sqrt(lo) * math.sqrt(hi)


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
    """Which oscillation norm to take, and the ball family to place without one."""

    kind: str  # "bmo" | "lipschitz"
    k: float = 0.5
    sigma: float = 1.1
    ball_count: int = 24
    radius_fraction: float = 0.25

    def __post_init__(self):
        _check_kind(self.kind, self.k)
        if not self.sigma > 1:
            raise InvalidInputError(f"sigma must exceed 1, got {self.sigma}")


def _check_kind(kind: str, k: float) -> None:
    if kind not in ("bmo", "lipschitz"):
        raise InvalidInputError(f"kind must be 'bmo' or 'lipschitz', got {kind!r}")
    if kind == "lipschitz" and not 0 < k < 1:
        raise InvalidInputError(f"Lipschitz exponent k must lie in (0,1), got {k}")


@dataclass
class OscillationResult:
    value: float
    argmax_ball: Ball
    per_ball: list[float]

    def to_dict(self):
        return {"value": self.value, "per_ball": list(self.per_ball),
                "argmax_center": self.argmax_ball.center.tolist(),
                "argmax_radius": self.argmax_ball.radius}


def oscillation_residuals(u: DifferentialForm, balls: list[Ball], *,
                          ball_resolution: int = 15) -> list[np.ndarray]:
    """u - u_B at the nodes of ``B.quadrature(ball_resolution)``, per ball, as
    a (components, nodes) array.

    u_B is the per-ball closed part.  The values depend on neither the Young
    function nor the weight, so one set serves every (phi, weight) profile.
    u is evaluated once for the whole family, on the nodes of every ball in
    turn; each ball's u_B is formed from its own slice of those values
    (``homotopy.closed_part_values``), and the difference is taken once and
    split back per ball.  Evaluation and difference are pointwise, so the
    bits are those of one ball at a time.
    """
    quads = [ball.quadrature(ball_resolution) for ball in balls]
    if not quads:
        return []
    ends = np.cumsum([q.weights.size for q in quads])  # the balls' ragged slices
    values = u.evaluate(np.concatenate([q.points for q in quads]))
    u_b = [homotopy.closed_part_values(u, ball, quad, values[:, b - quad.weights.size:b],
                                       resolution=ball_resolution)
           for ball, quad, b in zip(balls, quads, ends)]
    return np.split(values - np.concatenate(u_b, axis=1), ends[:-1], axis=1)


def oscillation_profile(u: DifferentialForm, balls: list[Ball], phi: YoungFunction,
                        weight=None, *, ball_resolution: int = 15,
                        residuals: list[np.ndarray] | None = None) -> list[float]:
    """||u - u_B||_{phi,B} for each ball, with u_B the per-ball closed part:
    one Luxemburg solve per ball on the pointwise modulus of its residuals.

    ``residuals``, when given, are the ``oscillation_residuals`` of ``u`` on
    ``balls`` at ``ball_resolution``, one array per ball.
    """
    if residuals is None:
        residuals = oscillation_residuals(u, balls, ball_resolution=ball_resolution)
    _check_per_ball("residuals", residuals, balls)
    return [luxemburg_norm(pointwise_modulus(r), ball, phi, weight=weight,
                           resolution=ball_resolution)
            for ball, r in zip(balls, residuals)]


def oscillation_sup(profile: list[float], balls: list[Ball], kind: str,
                    k: float) -> OscillationResult:
    """max over ``balls`` of |B|^e ||u - u_B||_{phi,B} from the per-ball
    ``profile``: e = -1 for the BMO kind, -(n + k)/n for the Lipschitz kind
    with k in (0, 1), and |B| is the closed form.  The kinds differ only in
    e, so on one profile comparisons between them are exact to rounding."""
    _check_kind(kind, k)
    if not balls:
        raise EmptyBallFamilyError("no admissible balls for the oscillation norm")
    _check_per_ball("profile", profile, balls)
    n = balls[0].dims
    e = -1.0 if kind == "bmo" else -(n + k) / n
    per = [b.volume() ** e * v for b, v in zip(balls, profile)]
    return OscillationResult(value=float(max(per)),
                             argmax_ball=balls[int(np.argmax(per))], per_ball=per)


def oscillation_norm(u: DifferentialForm, domain: Domain, phi: YoungFunction,
                     spec: OscillationNormSpec, weight=None, *,
                     ball_resolution: int = 15,
                     balls: list[Ball] | None = None) -> OscillationResult:
    """The ``oscillation_sup`` of u's ``oscillation_profile`` on ``balls``,
    or, when they are None, on the family that ``spec`` places in ``domain``."""
    if balls is None:
        balls = ball_family(domain, spec.ball_count, spec.radius_fraction,
                            expansion=spec.sigma)
    profile = oscillation_profile(u, balls, phi, weight, ball_resolution=ball_resolution)
    return oscillation_sup(profile, balls, spec.kind, spec.k)


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


def check_wrh(u: DifferentialForm, s: float, t: float, rho: float,
              balls: list[Ball], *, resolution: int = 21) -> WRHReport:
    """Empirical weak-reverse-Hoelder constant over a ball family.

    For each ball the ratio ||u||_{s,B} / (|B|^((t-s)/(st)) ||u||_{t,rho B})
    is recorded; the report's constant is the max over non-degenerate entries
    (a lower bound on the true constant, never a proof of membership).
    ``balls`` should have their rho-dilates inside the domain (a family
    built with ``expansion=rho``); ``Ball.scaled`` shares each dilate, so
    checks on one family build the dilates' rules once.
    """
    if not (s > 0 and t > 0):
        raise InvalidInputError(f"exponents must be positive, got s={s}, t={t}")
    if not rho > 1:
        raise InvalidInputError(f"rho must exceed 1, got {rho}")
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
