"""The averaged cone-contraction operator T and the closed part u_B.

For an l-form u on a convex region, the kernel operator is

    (K_y u)(x) = integral_0^1 t^(l-1) (iota_{x-y} u)(y + t(x - y)) dt,

the contraction of u along the segment from y to x, and T averages K_y over
y against a normalized smooth bump psi:  Tu = integral psi(y) (K_y u) dy.
Then u = d(Tu) + T(du), and the closed part is u_B = u - T(du) = d(Tu) (the
mean, for 0-forms), so closed forms (du = 0) give u_B = u exactly.

Numerical scheme and its one essential property: the y-integral is the
bump's own rule (``BumpFunction.ys``, ``.ws``), the nodes of its region's
quadrature inside the bump's support, weighted by quadrature weight times
bump and renormalized to sum exactly to 1.  Under that normalization the
discrete decomposition d(T^ u) + T^(du) = u holds *identically* in the
y-weights; the residual that ``decomposition_residual`` observes comes only
from the t-quadrature (a fixed ``T_NODES`` = 32-node Gauss-Legendre rule,
negligible for smooth integrands) and from the finite differences it uses to
take d of the quadrature-defined Tu.  The residual therefore shrinks like the
FD step squared, which is what the doubling check measures.

The t-sum precedes the contraction: x - y does not depend on t and iota is
linear, so (K_y u)(x) = iota_{x-y} integral_0^1 t^(l-1) u(y + t(x - y)) dt.
Each coefficient field integrates itself over t, for all y-nodes at once
(``forms._t_integral``): an expression field distributes the t-sum over its
sums, differences and constant factors, so its single-coordinate terms
never form a value per (t, point) pair.  The kernel then contracts the
(C(n,l), Y, m) block of t-integrals with x - y, an (n, Y, m) block, in one
call, and adds the y-nodes' rows into the result in y order, weighted by
the bump, in one einsum that sums each point's column in y order.  This
is exact in arithmetic; in floating point it fixes the rounding, and the
tests pin this order bit for bit against a reference loop over y-nodes on
fresh segment arrays.

The segment points are held as compressed coordinate planes
(``forms.SegmentPoints``): coordinate i of y + t_j (x - y) depends only on
(y_i, t_j, x_i), so a single-coordinate subexpression is evaluated and
t-summed once per pair of a distinct value of x_i and a distinct value of
y_i (the 21 y-nodes of a 2-D ball's bump at resolution 21 take 5 values
per axis), and a product of two of them on coordinates a != b on their
(Y, u_a, u_b) pair box when the box has at most twice as many cells as
the batch has points (a lattice batch).  The other fields of ``forms``
read the planes too, taken to the y-nodes: the spline of a materialized
Tu (``forms.GridField``) takes its basis on them, and the bump and radial
fields of the corpus form their per-coordinate terms on them, so only
fields from outside ``forms`` see the segment points expanded.  What must
be expanded to the points, the spline basis gathered per point included,
runs over parts of the y-nodes or rows that hold at most
``forms.CHUNK_VALUES`` values, so memory grows with the y-nodes only by the
(., Y, m) blocks.  Every t-sum adds its terms in t order whatever the size
of the batch or of the part, so the kernel is pointwise: a point's value
does not depend on the other points of its batch (see ``_TuEvaluator``).

The closed part on a ball does only the work that depends on both the form
and the ball.  du is formed from partial fields that an expression field
builds once per axis (``forms.ExprField.partial``), so a form's du is not
re-derived per ball; the default bump, and with it its y-rule, is built
once per (region, resolution) and shared read-only by every T on that
region, as its quadrature is; that bump keeps the segment geometry
(``forms.SegmentGeometry``) of its rule's own nodes, which depends on the
t-nodes but not on the t-weights, so every form of every degree whose
T(du) is evaluated on those nodes reuses one x-side, one y-side and one
set of planes; and ``closed_part_values``, the one path to u_B's values per
ball and on the domain, forms them from u's values and T(du) for every
component from one kernel call.
"""

from __future__ import annotations

import functools
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import DegreeError, InvalidInputError
from .exterior import CovectorValue, contract_coeffs, num_components
from .forms import (BumpField, ConstantField, DifferentialForm, GridField, SegmentGeometry,
                    SegmentPoints, SegmentSide, _ordered_sum, _pts, _t_integral,
                    pointwise_modulus, x_side, y_side)
from .geometry import Ball, Box, Domain, ball_inside

__all__ = ["BumpFunction", "FD_SCALE", "T_NODES", "apply_Ky", "apply_T", "closed_part",
           "closed_part_values", "decomposition_residual", "materialize"]

# Gauss-Legendre nodes in t.  16 nodes move lemma_closed_part_bound by a
# relative 3.7e-5 at the acceptance config (grid 27, ball 9, 12 balls), and
# at grid resolution 11 they raise bump-1form's decomposition residual to
# 2.9e-3, above the corpus admission gate of 1e-3
T_NODES = 32

# FD step per unit diameter for d of fields without exact partials (the
# quadrature-defined Tu of apply_T, bare callables); the spline Tu of
# materialize has exact partials and takes none
FD_SCALE = 1e-4
# decomposition_residual: test lattice points per axis, and FD step for d(Tu)
# per unit diameter per quadrature node
RESIDUAL_TEST_RESOLUTION = 13
RESIDUAL_FD_COEFFICIENT = 0.05


class BumpFunction:
    """Smooth nonnegative profile supported strictly inside a region, mass 1,
    and the y-rule that T averages against it.

    The profile is exp(-1/(1-|z|^2)) on a support ball (default: centered at
    the region's centroid with radius a quarter of the inradius), scaled so
    its integral over the region's quadrature grid is exactly 1.  The
    profile is evaluated once, on the nodes ``nodes`` of ``region.quadrature
    (resolution)``; the nodes where quadrature weight times bump is positive
    are the y-nodes ``ys`` of T, and those products, normalized to sum to 1,
    are their weights ``ws`` (both read-only).

    As the default bump of ``apply_T`` it also keeps, once formed, the
    y-side of its y-nodes (``yside``) and the segment geometry of the batch
    ``nodes`` (``node_geometry``), which every T evaluated against it
    shares; about 72 kB per ball at resolution 21 in 2-D.
    """

    def __init__(self, region: Domain, center=None, radius: float | None = None,
                 resolution: int = 41):
        center = region.centroid() if center is None else np.asarray(center, float)
        radius = 0.25 * region.inradius() if radius is None else float(radius)
        self.profile = BumpField(center, radius)
        self.support = Ball(center, radius)
        if not ball_inside(region, self.support):
            raise InvalidInputError("bump support must lie strictly inside the region")
        quad = region.quadrature(resolution)
        values = self.profile(quad.points)
        mass = quad.integrate(values)
        if mass <= 0:
            raise InvalidInputError(
                "bump support contains no quadrature node; raise the resolution")
        self.scale = 1.0 / mass
        w = quad.weights * (self.scale * values)
        keep = w > 0
        self.ys, self.ws = quad.points[keep], w[keep] / w[keep].sum()
        self.ys.setflags(write=False)
        self.ws.setflags(write=False)
        self.nodes = quad.points

    def __call__(self, points):
        return self.scale * self.profile(points)

    @functools.cached_property
    def yside(self) -> SegmentSide:
        """The y-side of every T batch against this bump's y-nodes, formed
        on first request and kept."""
        return y_side(self.ys, _t_rule(1)[0])

    @functools.cached_property
    def node_geometry(self) -> SegmentGeometry:
        """The segment geometry of the batch ``nodes``, its rule's own nodes,
        against its y-nodes, formed on first request and kept: its x-side,
        ``yside`` and, once read, its planes."""
        return SegmentGeometry(x_side(np.ascontiguousarray(self.nodes.T), _t_rule(1)[0]),
                               self.yside)


@functools.cache
def _t_rule(l: int):
    """T_NODES Gauss-Legendre nodes on [0,1] with the t^(l-1) factor folded
    in; built once per degree l and shared read-only."""
    tj, tw = np.polynomial.legendre.leggauss(T_NODES)
    tj = 0.5 * (tj + 1.0)
    tw = 0.5 * tw * tj ** (l - 1)
    tj.setflags(write=False)
    tw.setflags(write=False)
    return tj, tw


class _TuEvaluator:
    """Shared evaluation core for all coefficients of Tu.

    ``coeffs`` gives every coefficient at a batch of points, running the
    kernel on each call; the form ``apply_T`` returns evaluates all of its
    components with one call, and a lone component takes its row of one.

    Layout: coordinate i of the segment point y + t_j (x - y) is
    t_j x_i + (1 - t_j) y_i, which depends only on (y_i, t_j, x_i), and both
    the lattice batches that T is evaluated on and the bump's y-nodes repeat
    each coordinate value many times.  So each batch is one
    ``forms.SegmentPoints`` for all y-nodes: a ``forms.SegmentGeometry``,
    which holds the distinct values u_i of every coordinate among the
    points and d_i among the y-nodes (compared by their bits), t_j x_i and
    (1 - t_j) y_i formed once each (the x-side and the y-side), a (Y,) map
    from each y-node to its row, an (m,) map from each point to its column
    and the (d_i, t, u_i) planes that add them, with this evaluator's
    t-weights ``tw``, which carry t^(l-1).  ``_geometry`` picks the
    geometry: with a ``shared`` bump (the default bump of ``apply_T``, whose
    y-nodes ``ys`` are) the bump's kept ``node_geometry`` when the batch is
    its rule's read-only node array itself, as for every closed part on a
    ball, and else the batch's own x-side on the bump's kept ``yside``;
    without one (an explicit bump, ``apply_Ky``) both sides afresh.  The
    geometry has no t-weights, so it serves every form and degree, and its
    bits are those of fresh sides.  A coordinate with no repeated value
    gets m (or Y) sorted values and a permutation for its map, so there is
    one path.

    ``forms._t_integral`` gives each component of u as its t-integral
    sum_j w_j u_c(t_j x + (1 - t_j) y) at every y-node and point, a (Y, m)
    block.  An ``ExprField`` evaluates and t-sums each leaf of its split (a
    maximal subexpression of one coordinate) on the leaf's plane, in parts
    of the plane's rows, and takes the (d_i, u_i) sums to the y-nodes and
    the points through the two maps, adds and subtracts the integrals of its
    terms, scales them by constant factors, t-sums a product of two leaves
    on different coordinates on their (Y', u_a, u_b) pair box when that box
    has at most 2m cells, and any other product of non-constant factors in
    one fused einsum of the factors expanded to (Y', t, m); a
    ``LinearCombinationField`` combines the t-integrals of its terms.  Any
    other field is evaluated at the segment points and t-summed: a
    ``GridField`` (the spline of a materialized Tu, whose closed part on a
    ball runs T on its partials) computes its knot intervals and basis
    values on the planes taken to the y-nodes and gathers them per point; a
    ``BumpField``, a ``RadialPowerField`` and their partials form each
    coordinate's offset from the center and its square on those rows and
    take them to the points; and a ``CallableField``, an ``FDPartialField``
    and fields from outside ``forms`` get the planes expanded into a fresh
    (n, Y', t, m) buffer whose column-major (Y' t m, n) view is the segment
    array, points in (y, t, point) order.  Whatever expands to the points
    runs over parts of Y' consecutive y-nodes whose arrays hold at most
    ``forms.CHUNK_VALUES`` values (at least one y-node).  Each coordinate
    is the sum of the same two rounded products t_j x and (1 - t_j) y
    whatever the layout, and each value goes through the same operations,
    so Tu depends neither on the layout nor on the parts to the last bit.

    The (C(n,l), Y, m) block of t-integrals is then contracted with the
    (n, Y, m) block x - y in one call, and the (C(n,l-1), m) rows of the
    y-nodes, each times its weight, are added in y order by one einsum.
    Every t-sum and the y-node sum is an einsum (no BLAS, so the result
    does not depend on the BLAS thread count) that adds its terms in t or y
    order, one point at a time; a lone column is summed as the first of
    two, because einsum would sum it in another order
    (``forms._ordered_sum``).  So a point's value does not depend on the
    other points of its batch.  The tests hold the kernel bit-equal to a
    reference loop over y-nodes that integrates in this order on fresh
    (t, m, n) segment arrays, for any size of the parts, bit-equal on a
    batch and on its two halves, and close to the contract-then-sum order.
    """

    def __init__(self, u: DifferentialForm, ys: np.ndarray, ws: np.ndarray,
                 shared: BumpFunction | None = None):
        self.u = u
        self.ys = ys
        self.ws = ws
        self.shared = shared
        self.tj, self.tw = _t_rule(u.degree)

    def _geometry(self, pts: np.ndarray, cols: np.ndarray) -> SegmentGeometry:
        """The segment geometry of the batch ``pts`` (see the class
        docstring)."""
        if self.shared is None:
            return SegmentGeometry(x_side(cols, self.tj), y_side(self.ys, self.tj))
        if pts is self.shared.nodes:
            return self.shared.node_geometry
        return SegmentGeometry(x_side(cols, self.tj), self.shared.yside)

    def coeffs(self, pts: np.ndarray) -> np.ndarray:
        pts = np.ascontiguousarray(pts, dtype=np.float64)
        n, l = self.u.dims, self.u.degree
        if pts.ndim != 2 or pts.shape[1] != n:
            raise InvalidInputError(
                f"T of a form on R^{n} takes points of shape (m, {n}), "
                f"got shape {pts.shape}")
        cols = np.ascontiguousarray(pts.T)  # (n, m)
        seg = SegmentPoints(self._geometry(pts, cols), self.tw)
        a = np.empty((len(self.u.components), self.ys.shape[0], pts.shape[0]))
        for r, f in enumerate(self.u.components):
            a[r] = _t_integral(f, seg)
        c = contract_coeffs(n, l, a, cols[:, None, :] - self.ys.T[:, :, None])
        return _ordered_sum("k,ckm->cm", self.ws, c)  # the y-nodes' rows in y order


class _TuComponent:
    def __init__(self, evaluator: _TuEvaluator, rank: int):
        self.evaluator, self.rank = evaluator, rank

    def __call__(self, points):
        return self.evaluator.coeffs(_pts(points))[self.rank]

    def partial(self, k):
        return None


class _TuForm(DifferentialForm):
    """Tu, whose ``evaluate`` runs the kernel once for all components."""

    def evaluate(self, points) -> np.ndarray:
        return self.components[0].evaluator.coeffs(_pts(points))

    def d(self, fd_step: float | None = None) -> DifferentialForm:
        """d(Tu) by central differences of step ``fd_step``, whose
        ``evaluate`` runs the kernel twice per axis (``_FDTuDerivative``)."""
        du = super().d(fd_step)
        return _FDTuDerivative(du.dims, du.degree, du.components, self, fd_step)


@dataclass(frozen=True)
class _FDTuDerivative(DifferentialForm):
    """d(Tu) by central differences, evaluated from Tu at the points shifted
    by -+ the step along each axis: 2n kernel calls, where evaluating each
    component on its own runs two per finite-difference term.  Each
    component combines the rows of those calls as its own terms would, so
    the bits are those of the component-wise evaluation."""

    tu: _TuForm
    step: float

    def evaluate(self, points) -> np.ndarray:
        pts = _pts(points)
        m, n = pts.shape
        slopes = []  # per axis k, the (num_components(Tu), m) differences along it
        for k in range(n):
            h = np.zeros(n)
            h[k] = self.step
            slopes.append((self.tu.evaluate(pts + h) - self.tu.evaluate(pts - h))
                          / (2.0 * self.step))
        return np.stack([f._combine(m, (slopes[g.k - 1][g.base.rank] for _, g in f.terms))
                         for f in self.components])


@dataclass(frozen=True)
class _ClosedPart(DifferentialForm):
    """u - T(du) for 1 <= deg u <= n - 1, evaluated with T(du) from one call."""

    u: DifferentialForm
    tdu: _TuForm

    def evaluate(self, points) -> np.ndarray:
        return (0.0 + self.u.evaluate(points)) - self.tdu.evaluate(points)


def apply_Ky(u: DifferentialForm, y, x):
    """The kernel contraction (K_y u)(x) as a pointwise covector value."""
    if u.degree < 1:
        raise DegreeError("the kernel operator needs degree >= 1")
    y, x = _one_point(u.dims, "y", y), _one_point(u.dims, "x", x)
    ev = _TuEvaluator(u, y, np.array([1.0]))
    return CovectorValue(u.dims, u.degree - 1, ev.coeffs(x)[:, 0])


def _one_point(n: int, name: str, p) -> np.ndarray:
    """A single point of R^n, given as shape (n,) or (1, n), as (1, n)."""
    p = np.asarray(p, dtype=np.float64)
    if p.shape not in ((n,), (1, n)):
        raise InvalidInputError(
            f"{name} must be one point of R^{n}, shape ({n},) or (1, {n}); "
            f"got shape {p.shape}")
    return p.reshape(1, n)


# The default bump per region and resolution: built once, as the region's
# quadrature is, and its y-rule shared read-only by every T on the region.
_DEFAULT_BUMPS = weakref.WeakKeyDictionary()  # region -> {resolution: BumpFunction}


def apply_T(u: DifferentialForm, region: Domain, bump: BumpFunction | None = None,
            resolution: int = 41) -> DifferentialForm:
    """Tu as a degree-(l-1) form whose coefficients are quadrature sums.

    The y-integral is the bump's rule, ``bump.ys`` and ``bump.ws``.
    ``resolution`` only selects the default bump (``BumpFunction(region,
    resolution=resolution)``), which is built once per (region, resolution)
    and shared; an explicit ``bump`` keeps its own rule, and its support
    must lie inside ``region``.  The returned form has no exact partials:
    differentiate it with an explicit finite-difference step
    (``.d(fd_step=...)``).
    """
    if u.degree < 1:
        raise DegreeError("the averaged operator needs degree >= 1")
    shared = None
    if bump is None:
        bumps = _DEFAULT_BUMPS.setdefault(region, {})
        if resolution not in bumps:
            bumps[resolution] = BumpFunction(region, resolution=resolution)
        bump = shared = bumps[resolution]
    elif not ball_inside(region, bump.support):
        raise InvalidInputError("bump support must lie strictly inside the region")
    ev = _TuEvaluator(u, bump.ys, bump.ws, shared)
    comps = tuple(_TuComponent(ev, r) for r in range(num_components(u.dims, u.degree - 1)))
    return _TuForm(u.dims, u.degree - 1, comps)


def closed_part(u: DifferentialForm, region: Domain, bump: BumpFunction | None = None,
                *, resolution: int = 15) -> DifferentialForm:
    """The closed part u_B = u - T(du) (= d(Tu)); the mean for 0-forms, u for
    top-degree forms.  du takes exact partials where a component has them
    (every corpus form and the spline Tu of ``materialize``), else central
    differences of step FD_SCALE * diameter (the quadrature-defined Tu of
    ``apply_T``, bare callables)."""
    if u.degree == 0:
        quad = region.quadrature(resolution)
        mean = closed_part_values(u, region, quad, u.evaluate(quad.points))[0, 0]
        return DifferentialForm(u.dims, 0, (ConstantField(mean),))
    if u.degree == u.dims:
        return u
    du = u.d(fd_step=FD_SCALE * region.diameter())
    tdu = apply_T(du, region, bump, resolution=resolution)
    return _ClosedPart(u.dims, u.degree, (u - tdu).components, u, tdu)


def closed_part_values(u: DifferentialForm, region: Domain, quad, values: np.ndarray,
                       *, resolution: int = 15) -> np.ndarray:
    """u_B at the nodes of ``quad`` from ``values = u.evaluate(quad.points)``:
    the mean over ``quad`` for a 0-form, else the bits of ``closed_part(u,
    region, resolution=resolution).evaluate(quad.points)`` (``values`` for
    a top-degree form), with T(du) from one kernel call."""
    if u.degree == 0:
        return np.full(values.shape, quad.integrate(values[0]) / float(quad.weights.sum()))
    u_b = closed_part(u, region, resolution=resolution)
    if u_b is u:
        return values
    # each component of u - T(du) adds its terms to zeros: (0.0 + u_r) - T(du)_r
    return (0.0 + values) - u_b.tdu.evaluate(quad.points)


def _test_lattice(region: Domain, resolution: int) -> np.ndarray:
    """Deep-interior evaluation lattice (safe for FD stencils near edges)."""
    lo, hi = region.bounding_box()
    n = region.dims
    axes = [lo[i] + (hi[i] - lo[i]) * np.linspace(0.1, 0.9, resolution)
            for i in range(n)]
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.reshape(-1) for g in grids], axis=1)
    if isinstance(region, Box):
        return pts
    c, r = region.centroid(), region.inradius()
    keep = np.sum((pts - c) ** 2, axis=1) <= (0.85 * r) ** 2
    return pts[keep]


def decomposition_residual(u: DifferentialForm, region: Domain,
                           bump: BumpFunction | None = None, *,
                           resolution: int = 41) -> float:
    """max over a test lattice of |u - d(Tu) - T(du)|.

    The FD step for d(Tu) is tied to the quadrature resolution
    (0.05 diam / resolution), so doubling the resolution shrinks the
    dominant error term quadratically; this is the primary self-check of
    the operator stack.  d(Tu) runs the kernel twice per axis and T(du)
    once.
    """
    n, l = u.dims, u.degree
    if not 1 <= l <= n - 1:
        raise DegreeError(f"decomposition needs degree in 1..{n - 1}, got {l}")
    du = u.d(fd_step=FD_SCALE * region.diameter())
    tu = apply_T(u, region, bump, resolution=resolution)
    tdu = apply_T(du, region, bump, resolution=resolution)
    h = RESIDUAL_FD_COEFFICIENT * region.diameter() / resolution
    pts = _test_lattice(region, RESIDUAL_TEST_RESOLUTION)
    # the bits of (u - (tu.d(h) + tdu)).modulus_values(pts), T(du) in one call
    recon = (0.0 + tu.d(fd_step=h).evaluate(pts)) + tdu.evaluate(pts)
    return float(pointwise_modulus((0.0 + u.evaluate(pts)) - recon).max())


def materialize(u: DifferentialForm, box: Box, resolution: int) -> DifferentialForm:
    """Sample a form on a uniform grid over a box and wrap each component in
    its exact interpolating spline (``forms.GridField``).

    Pays the evaluation cost once; downstream norms and per-ball closed parts
    then query the splines, and ``d`` takes their exact partials.  The
    splines take the sampled values to rounding and are linear in them, so
    the materialized form is linear in ``u``.  Intended for
    quadrature-defined forms such as Tu whose direct evaluation is
    expensive.
    """
    if resolution < 4:
        raise InvalidInputError(f"materialization needs resolution >= 4, got {resolution}")
    lo, hi = box.bounding_box()
    axes = [np.linspace(lo[i], hi[i], resolution) for i in range(box.dims)]
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.reshape(-1) for g in grids], axis=1)
    coeffs = u.evaluate(pts)
    shape = tuple(resolution for _ in range(box.dims))
    comps = tuple(GridField(axes, coeffs[r].reshape(shape))
                  for r in range(coeffs.shape[0]))
    return DifferentialForm(u.dims, u.degree, comps)
