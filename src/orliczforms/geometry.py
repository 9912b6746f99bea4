"""Bounded convex domains in R^n and the quadrature rules used on them.

Two domain shapes are supported:

* ``Box``: an axis-aligned product of intervals.  Integration uses a
  tensor-product Gauss-Legendre rule, so polynomial integrands of moderate
  per-axis degree are integrated to machine precision.
* ``Ball``: a Euclidean ball.  Integration uses a uniform lattice of nodes
  over the bounding box (``resolution`` points per axis, endpoints included)
  restricted to the closed ball, each node weighted by the cell volume
  ``h^n`` with ``h = side / (resolution - 1)``.

The lattice rule on balls converges like O(h) near the boundary; resolution
201 puts the measure of the unit disk within 1e-3 of pi.  Exact closed forms
(`volume`, `diameter`, `inradius`) are used wherever a formula is available
so prefactors never inherit quadrature error.

A region builds its rule once per resolution and hands the same
``Quadrature`` to every caller (the bump mass, the y-rule of T, the
oscillation nodes and every norm on that region), so its ``points`` and
``weights`` are read-only.  A ball likewise builds its dilate once per
factor, so the rules of the dilate are shared too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyBallFamilyError, InvalidInputError

__all__ = ["Domain", "Box", "Ball", "Quadrature", "ball_volume",
           "ball_family", "ball_inside", "offgrid_center", "DOMAIN_FAMILIES"]


def ball_volume(n: int, radius: float) -> float:
    """Closed-form volume of the n-ball: pi^(n/2) / Gamma(n/2 + 1) * r^n."""
    return math.pi ** (n / 2) / math.gamma(n / 2 + 1) * radius ** n


@dataclass(frozen=True)
class Quadrature:
    """Nodes (m, n) and positive weights (m,) for integration over a region."""

    points: np.ndarray
    weights: np.ndarray

    def integrate(self, values: np.ndarray) -> float:
        return float(np.dot(np.asarray(values, dtype=np.float64), self.weights))


class Domain:
    """Common interface: geometry queries plus a quadrature constructor."""

    dims: int

    def contains(self, points: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def volume(self) -> float:
        raise NotImplementedError

    def diameter(self) -> float:
        raise NotImplementedError

    def inradius(self) -> float:
        raise NotImplementedError

    def centroid(self) -> np.ndarray:
        raise NotImplementedError

    def quadrature(self, resolution: int) -> Quadrature:
        """The rule at ``resolution``, built once per region and resolution
        and shared read-only."""
        cache = self.__dict__.setdefault("_quadratures", {})
        quad = cache.get(resolution)
        if quad is None:
            quad = self._build_quadrature(resolution)
            quad.points.setflags(write=False)
            quad.weights.setflags(write=False)
            cache[resolution] = quad
        return quad

    def _build_quadrature(self, resolution: int) -> Quadrature:
        raise NotImplementedError


def _as_points(points, n):
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts.reshape(1, -1)
    if pts.ndim != 2 or pts.shape[1] != n:
        raise InvalidInputError(f"expected points of shape (m, {n}), got {pts.shape}")
    return pts


class Box(Domain):
    """Axis-aligned box prod_i [lo_i, hi_i]."""

    def __init__(self, lo, hi):
        lo = np.asarray(lo, dtype=np.float64).reshape(-1)
        hi = np.asarray(hi, dtype=np.float64).reshape(-1)
        if lo.shape != hi.shape or lo.size < 1:
            raise InvalidInputError("box bounds must be equal-length nonempty vectors")
        if np.any(hi <= lo):
            raise InvalidInputError("box must have positive side lengths")
        self.lo, self.hi = lo, hi
        self.dims = lo.size

    def contains(self, points):
        pts = _as_points(points, self.dims)
        return np.all((pts >= self.lo) & (pts <= self.hi), axis=1)

    def bounding_box(self):
        return self.lo.copy(), self.hi.copy()

    def volume(self):
        return float(np.prod(self.hi - self.lo))

    def diameter(self):
        return float(np.linalg.norm(self.hi - self.lo))

    def inradius(self):
        return float(np.min(self.hi - self.lo) / 2.0)

    def centroid(self):
        return (self.lo + self.hi) / 2.0

    def _build_quadrature(self, resolution: int) -> Quadrature:
        """Tensor-product Gauss-Legendre with ``resolution`` nodes per axis."""
        if resolution < 1:
            raise InvalidInputError(f"resolution must be >= 1, got {resolution}")
        x1, w1 = np.polynomial.legendre.leggauss(resolution)
        axes, wts = [], []
        for lo, hi in zip(self.lo, self.hi):
            mid, half = (lo + hi) / 2.0, (hi - lo) / 2.0
            axes.append(mid + half * x1)
            wts.append(half * w1)
        grids = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([g.reshape(-1) for g in grids], axis=1)
        wgrids = np.meshgrid(*wts, indexing="ij")
        w = np.prod(np.stack([g.reshape(-1) for g in wgrids], axis=1), axis=1)
        return Quadrature(pts, w)

    def __repr__(self):
        return f"Box(lo={self.lo.tolist()}, hi={self.hi.tolist()})"


class Ball(Domain):
    """Closed Euclidean ball of given center and radius."""

    def __init__(self, center, radius):
        center = np.asarray(center, dtype=np.float64).reshape(-1)
        if center.size < 1:
            raise InvalidInputError("ball center must be a nonempty vector")
        if not radius > 0:
            raise InvalidInputError(f"ball radius must be positive, got {radius}")
        self.center, self.radius = center, float(radius)
        self.dims = center.size

    def contains(self, points):
        pts = _as_points(points, self.dims)
        return np.sum((pts - self.center) ** 2, axis=1) <= self.radius ** 2

    def bounding_box(self):
        return self.center - self.radius, self.center + self.radius

    def volume(self):
        return ball_volume(self.dims, self.radius)

    def diameter(self):
        return 2.0 * self.radius

    def inradius(self):
        return self.radius

    def centroid(self):
        return self.center.copy()

    def _build_quadrature(self, resolution: int) -> Quadrature:
        """Uniform node lattice over the bounding box, clipped to the ball."""
        if resolution < 2:
            raise InvalidInputError(f"resolution must be >= 2, got {resolution}")
        lo, hi = self.bounding_box()
        axes = [np.linspace(lo[i], hi[i], resolution) for i in range(self.dims)]
        h = (hi[0] - lo[0]) / (resolution - 1)
        grids = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([g.reshape(-1) for g in grids], axis=1)
        keep = self.contains(pts)
        pts = pts[keep]
        w = np.full(pts.shape[0], h ** self.dims)
        return Quadrature(pts, w)

    def scaled(self, factor: float) -> "Ball":
        """The concentric ball of radius ``factor * radius``, built once per
        factor and shared, as ``quadrature`` shares rules."""
        dilates = self.__dict__.setdefault("_dilates", {})
        if factor not in dilates:
            dilates[factor] = Ball(self.center, self.radius * factor)
        return dilates[factor]

    def __repr__(self):
        return f"Ball(center={self.center.tolist()}, radius={self.radius})"


# kind -> (keys, constructor) of each domain shape, as ``young.YOUNG_FAMILIES``
DOMAIN_FAMILIES = {"box": ({"lo": list, "hi": list}, Box),
                   "ball": ({"center": list, "radius": float}, Ball)}


def offgrid_center(domain: Domain) -> np.ndarray:
    """The point at irrational fractions of the bounding box, a singular point
    kept off any lattice."""
    fracs = [math.sqrt(2) - 1.0, math.sqrt(5) - 2.0, math.sqrt(3) - 1.0]
    lo, hi = domain.bounding_box()
    f = np.array([fracs[i % len(fracs)] for i in range(domain.dims)])
    return lo + f * (hi - lo)


def ball_family(domain: Domain, count: int, radius_fraction: float = 0.25,
                expansion: float = 1.0) -> list[Ball]:
    """Deterministic family of balls inside ``domain``.

    Centers are taken from a low-discrepancy additive lattice inside the
    bounding box, filtered so that the expanded ball (radius * ``expansion``)
    still lies within the domain; radii step through a fixed geometric ladder
    capped at ``radius_fraction`` of the inradius.  The construction involves
    no randomness, so repeated runs see the same family.
    """
    if count < 1:
        raise InvalidInputError(f"ball count must be >= 1, got {count}")
    if not 0 < radius_fraction <= 1:
        raise InvalidInputError("radius_fraction must lie in (0, 1]")
    n = domain.dims
    lo, hi = domain.bounding_box()
    r_max = radius_fraction * domain.inradius()
    ladder = [r_max, 0.6 * r_max, 0.35 * r_max]

    # Kronecker sequence driven by sqrt of primes: dense, deterministic.
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    alphas = np.array([math.sqrt(p) % 1.0 for p in primes[:n]])

    balls: list[Ball] = []
    i = 0
    attempts = 0
    while len(balls) < count and attempts < 10000:
        frac = (0.5 + (i + 1) * alphas) % 1.0
        i += 1
        attempts += 1
        r = ladder[len(balls) % len(ladder)]
        center = lo + frac * (hi - lo)
        c = domain.centroid()
        # keep the expanded ball inside: pull toward the centroid, then halve
        # the radius -- arbitrarily small balls always fit, so large expansion
        # factors still yield a family
        placed = False
        while not placed and r > 1e-300:
            for pull in (1.0, 0.75, 0.5, 0.25):
                cand = c + pull * (center - c)
                if ball_inside(domain, Ball(cand, r * expansion)):
                    balls.append(Ball(cand, r))
                    placed = True
                    break
            else:
                r *= 0.5
        if not placed:
            # the floor radius pulled to the centroid did not fit, so no
            # center can do better; give up instead of walking the sequence
            break
    if len(balls) < count:
        raise EmptyBallFamilyError(
            f"could not place {count} balls of fraction {radius_fraction} "
            f"(expansion {expansion}) inside {domain!r}"
        )
    return balls


def ball_inside(domain: Domain, ball: Ball) -> bool:
    if isinstance(domain, Box):
        return bool(np.all(ball.center - ball.radius >= domain.lo)
                    and np.all(ball.center + ball.radius <= domain.hi))
    if isinstance(domain, Ball):
        gap = domain.radius - ball.radius
        return gap >= 0 and float(np.linalg.norm(ball.center - domain.center)) <= gap
    corners = ball.center + ball.radius * np.eye(domain.dims)
    corners = np.vstack([corners, ball.center - ball.radius * np.eye(domain.dims)])
    return bool(np.all(domain.contains(corners)))
