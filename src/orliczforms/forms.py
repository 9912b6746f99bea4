"""Scalar fields on R^n and differential forms built from them.

A *scalar field* is anything that maps a batch of points ``(m, n)`` to values
``(m,)`` and can optionally report an exact partial derivative::

    field(points)  -> ndarray (m,)
    field.partial(k) -> field or None     # k is 1-based

``partial`` returning ``None`` means no closed form is available; consumers
fall back to central finite differences with an explicit step.  A field
must return a fresh (m,) array.  A *differential form* of degree l is a
tuple of scalar fields indexed by the lexicographic rank of the ordered
multi-indices (see ``exterior``).

The T kernel does not evaluate fields at its segment points directly: it
asks each field, through ``_t_integral``, for its t-integral
sum_j w_j f(t_j x + (1 - t_j) y) over the t-rule, at every y-node y and
every point x of a batch, as one (Y, m) block.  The segment points arrive
as a ``SegmentPoints``, whose ``SegmentGeometry`` holds coordinate i as one
(d_i, t, u_i) plane over the d_i distinct values of y_i among the y-nodes
and the u_i distinct values of x_i among the points, with a map from each
y-node to its row and from each point to its column; the geometry has no
t-weights, so the kernel can share one, read-only, among the forms and
degrees it evaluates on the same batch against the same y-nodes.  Two
fields of this module integrate themselves, chosen by exact type: a ``LinearCombinationField`` combines the
t-integrals of its terms, and an ``ExprField`` recurses over its
expression, split once when it is built into maximal single-coordinate
subtrees.  Its t-integral distributes over sums, differences and constant
factors; a single-coordinate subtree is evaluated and t-summed on its
coordinate's plane, in parts of the plane's rows of at most
``CHUNK_VALUES`` values (one part on a lattice batch), and the (d_i, u_i)
sums are taken to the y-nodes and the points through the two maps; a
product of two such subtrees on coordinates a != b is t-summed on their
pair box, the (Y', u_a, u_b) t-sums over every pair of their plane
columns, which is then taken to the points, when the box has at most 2m
cells (a lattice batch; on a scattered one it would have m^2); any other
product of non-constant factors is one fused t-sum of the factors expanded
to the points; any other node is evaluated at the segment points and
t-summed.  Every other field is evaluated at the segment points and
t-summed.  Every other field of this module is handed the
``SegmentPoints`` (``_points_for``): a ``GridField`` computes its B-spline
basis on the planes taken to the y-nodes, (Y', t, u_i) rows, a
``BumpField``, a ``RadialPowerField`` and their partials form each
coordinate's offset x_i - c_i (over the radius, for the bump) and its
square on those rows and take them to the points (``_offsets``), and a
``ConstantField`` reads only its size.  A ``CallableField``, an
``FDPartialField`` and any field from outside this module receive the
(Y' t m, n) segment array that ``_pts`` expands.  Whatever is expanded to
the m points runs over consecutive y-nodes in parts of at most
``CHUNK_VALUES`` values per array (``SegmentPoints.chunked``), so no array
but the (Y, m) blocks grows with the number of y-nodes.  Each t-sum adds
its products in t order, whatever the size of the batch or of the part,
so a point's value depends neither on the other points of its batch nor
on the parts.

The exterior derivative reuses the interior-product table: the coefficient of
``dx_K`` in ``du`` is the signed sum of ``d(u_J)/dx_k`` over ways of removing
one index ``k`` from ``K``, which is exactly the transpose of contraction.
Fields are immutable, so an ``ExprField`` differentiates and splits its
expression once per axis and hands the same partial field to every later
caller: ``du`` of one form on many balls derives nothing again.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Protocol, runtime_checkable

import numpy as np

from . import expressions as ex
from .errors import DegreeError, ExpressionError, InvalidInputError, OutOfDomainError
from .exterior import (CovectorValue, MultiIndex, _contraction_table, _star_table,
                       index_rank, num_components)

__all__ = [
    "ScalarField", "ConstantField", "ExprField", "CallableField", "BumpField",
    "RadialPowerField", "GridField", "DifferentialForm", "as_field",
    "codifferential", "evaluate", "check_analytic_partials", "pointwise_modulus",
]


@runtime_checkable
class ScalarField(Protocol):
    def __call__(self, points: np.ndarray) -> np.ndarray: ...

    def partial(self, k: int) -> Optional["ScalarField"]: ...


def _distinct(col: np.ndarray):
    """The distinct values of a 1-D float array, compared by their bits so
    that -0.0 and 0.0 stay apart, and the map from each entry to its value:
    ``np.unique(bits, return_inverse=True)`` in fewer steps."""
    bits = col.view(np.int64)
    ordered = np.sort(bits)
    first = np.empty(ordered.size, dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    values = ordered[first]
    return values.view(np.float64), np.searchsorted(values, bits)


# The most float64 values the T kernel holds in one array that grows with
# the y-nodes, other than its (., Y, m) blocks: a part of a coordinate
# plane's rows and a one-coordinate leaf's values and t-sums on it, a part
# of the y-nodes' planes and leaf values, a pair box, its segment array (per
# coordinate) and product factors, and a GridField's plane values per part
# of its basis and (4^n, P) weights and gathered coefficients.  A part holds
# at least one plane row or y-node (a GridField part at least one row), so
# one row's t values per column (4^n per point) may exceed it.
CHUNK_VALUES = 16384


class SegmentSide(NamedTuple):
    """One side of a T batch's segment geometry, per coordinate i: the
    products of the distinct values of coordinate i with the t-nodes, and
    the map from each point or y-node to its value.

    On the x-side (``x_side``) the products are t_j x_i, shape (t, u_i),
    over the u_i distinct values of x_i among the m points, and the maps
    have shape (m,); on the y-side (``y_side``) they are (1 - t_j) y_i,
    shape (d_i, t), over the d_i distinct values of y_i among the Y
    y-nodes, and the maps have shape (Y,).  Values are compared by their
    bits, so that -0.0 and 0.0 stay apart."""

    products: list
    maps: list


def x_side(cols: np.ndarray, tj: np.ndarray) -> SegmentSide:
    """The x-side of the batch ``cols``, C-contiguous (n, m) coordinate
    rows, for the t-nodes ``tj``."""
    products, maps = [], []
    for col in cols:
        values, inv = _distinct(col)
        products.append(tj[:, None] * values)
        maps.append(inv)
    return SegmentSide(products, maps)


def y_side(ys: np.ndarray, tj: np.ndarray) -> SegmentSide:
    """The y-side of the (Y, n) y-nodes ``ys`` for the t-nodes ``tj``."""
    products, maps = [], []
    for ycol in ys.T:
        values, rows = _distinct(ycol)
        products.append((1.0 - tj) * values[:, None])
        maps.append(rows)
    return SegmentSide(products, maps)


class SegmentGeometry:
    """Where the segment points of a T batch lie, apart from the t-weights:
    the batch's x-side, the y-nodes' y-side and the coordinate planes that
    add them.

    It depends on the t-nodes, which every degree shares, and not on the
    t-weights, which carry t^(l-1): so one geometry serves every form and
    every degree evaluated on the same batch against the same y-nodes.  A
    plane is formed on first request by any ``SegmentPoints`` over the
    geometry and kept in ``planes``, so the others read it again.  Its
    arrays are read-only."""

    def __init__(self, xside: SegmentSide, yside: SegmentSide):
        for a in (*xside.products, *xside.maps, *yside.products, *yside.maps):
            a.setflags(write=False)
        self.xside, self.yside = xside, yside
        self.planes = [None] * len(xside.products)


class SegmentPoints:
    """The segment points t_j x_k + (1 - t_j) y_q of one T-kernel batch of
    points x_k, for all y-nodes y_q at once: a ``SegmentGeometry`` with the
    weights ``tw`` of the t-rule.

    Coordinate i of a segment point depends only on (y_qi, t_j, x_ki), and
    both the batches that T is evaluated on and the y-nodes of a bump's rule
    repeat each coordinate value many times.  So coordinate i is held as a
    plane ``plane(i)`` of shape (d_i, t, u_i) over the d_i distinct values of
    y_i among the y-nodes and the u_i = ``widths[i]`` distinct values of x_i
    among the points (both compared by their bits, so that -0.0 and 0.0 stay
    apart), with the maps ``rows[i]`` of shape (Y,) from each y-node to its
    row and ``inverses[i]`` of shape (m,) from each point to its column.
    t_j x_i and (1 - t_j) y_i are formed once per side (``SegmentSide``)
    and each plane entry adds them: the sum of the same two rounded products
    as in the full segment array, so it has the same bits.  A plane is
    formed on first request and kept in the geometry; ``on_rows`` forms a
    plane that would hold more than ``CHUNK_VALUES`` values only in parts
    of its rows.

    An ``ExprField`` evaluates and t-sums each one-coordinate leaf of its
    split on the leaf's plane, in parts of its rows (``on_rows``), and takes
    the (d_i, u_i) sums to the (Y, m) block through the two maps.  Other
    work on the y-nodes runs over consecutive y-nodes in parts
    (``chunked``), each a ``SegmentPoints`` of its own whose planes have one
    row per y-node, at most ``CHUNK_VALUES`` values in its (Y', t, width)
    arrays (and at least one y-node): the product of two leaves on a
    lattice batch goes in parts sized by its pair box (``_box_integral``),
    and what must be expanded to the m points (another product of several
    coordinates, any field evaluated at the segment points) goes in parts
    of width m.  ``ynode_planes`` takes a part's planes to its y-nodes,
    shape (Y', t, u_i), for the fields that read the planes per y-node.
    ``shape`` is (Y t m, n), the shape of the point array this stands for;
    ``_pts`` expands it into that array, the column-major view of a fresh
    (n, Y, t, m) buffer, points in (y, t, point) order.
    """

    def __init__(self, geometry: SegmentGeometry, tw: np.ndarray):
        """``tw``: the (t,) weights of the t-rule whose nodes ``geometry``
        was formed with."""
        self.geometry = geometry
        self._tx, self.inverses = geometry.xside
        self._ty, self.rows = geometry.yside
        self.widths = [tx.shape[1] for tx in self._tx]
        self.tw = tw
        self.tw_sum = float(tw.sum())  # the t-integral of a constant 1
        self.m = self.inverses[0].size
        self.ynodes = self.rows[0].size
        self.shape = (self.ynodes * tw.size * self.m, len(self._tx))

    def _plane_rows(self, i: int, a: int, b: int) -> np.ndarray:
        """Rows a..b-1 of ``plane(i)``."""
        return self._tx[i] + self._ty[i][a:b, :, None]

    def plane(self, i: int) -> np.ndarray:
        """Coordinate i at the segment points, over its distinct values of
        y_i and x_i: shape (d_i, t, u_i)."""
        planes = self.geometry.planes
        if planes[i] is None:
            planes[i] = self._plane_rows(i, 0, self._ty[i].shape[0])
            planes[i].setflags(write=False)
        return planes[i]

    @property
    def ynode_planes(self) -> list:
        """``plane(i)`` taken to the y-nodes, shape (Y, t, u_i), for every
        coordinate i; the planes themselves for a single y-node."""
        if self.ynodes == 1:
            return [self.plane(i) for i in range(len(self._tx))]
        return [self.plane(i).take(rows, axis=0, mode="clip")
                for i, rows in enumerate(self.rows)]

    def on_rows(self, i: int, fn) -> np.ndarray:
        """``fn(rows)``, shape (d', u_i), for each part of consecutive rows of
        ``plane(i)`` that holds at most ``CHUNK_VALUES`` values (at least one
        row), taken to the (Y, m) block: y-node q and point k read row
        ``rows[i][q]`` and column ``inverses[i][k]``."""
        rows, inv = self.rows[i], self.inverses[i]
        d = self._ty[i].shape[0]
        step = max(1, CHUNK_VALUES // max(1, self._tx[i].size))
        if step >= d:
            return fn(self.plane(i)).take(rows, axis=0, mode="clip").take(
                inv, axis=1, mode="clip")
        out = np.empty((self.ynodes, self.m))
        for a in range(0, d, step):
            q = np.flatnonzero((rows >= a) & (rows < a + step))
            out[q] = fn(self._plane_rows(i, a, a + step)).take(
                rows[q] - a, axis=0, mode="clip").take(inv, axis=1, mode="clip")
        return out

    def _part(self, a: int, b: int) -> "SegmentPoints":
        """The y-nodes a..b-1 of this batch, each with a row of its own in
        the part's planes."""
        if a == 0 and b >= self.ynodes:
            return self
        ty = [ty.take(rows[a:b], axis=0) for ty, rows in zip(self._ty, self.rows)]
        rows = [np.arange(ty[0].shape[0])] * len(ty)
        return SegmentPoints(SegmentGeometry(self.geometry.xside, SegmentSide(ty, rows)),
                             self.tw)

    def chunked(self, fn, width: int) -> np.ndarray:
        """``fn(part)``, shape (part.ynodes, m), for each part of consecutive
        y-nodes in turn whose (Y', t, ``width``) arrays hold at most
        ``CHUNK_VALUES`` values, stacked to (Y, m)."""
        step = max(1, CHUNK_VALUES // max(1, self.tw.size * width))
        out = np.empty((self.ynodes, self.m))
        for a in range(0, self.ynodes, step):
            out[a:a + step] = fn(self._part(a, a + step))
        return out

    def array(self) -> np.ndarray:
        full = np.empty((len(self._tx), self.ynodes, self.tw.size, self.m))
        for plane, inv, row in zip(self.ynode_planes, self.inverses, full):
            plane.take(inv, axis=2, out=row, mode="clip")
        return full.reshape(self.shape[1], -1).T


def _pts(points) -> np.ndarray:
    if isinstance(points, SegmentPoints):
        return points.array()
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts.reshape(1, -1)
    return pts


def _ordered_sum(subscripts: str, w: np.ndarray, *factors: np.ndarray) -> np.ndarray:
    """``np.einsum(subscripts, w, *factors)``: the products of the weights
    ``w`` and the ``factors``, summed over the axis of ``w``, for every
    column of the factors' last axis, which the result keeps last.

    einsum (no BLAS, so the bits do not depend on the BLAS threads) adds the
    products in the order of ``w``, one column at a time, but it sums a lone
    column as a vectorized dot product, in another order; so one column is
    summed as the first of two, and a column's sum depends neither on the
    number of columns nor on the other axes.
    """
    if factors[0].shape[-1] == 1:
        return np.einsum(subscripts, w,
                         *(np.repeat(f, 2, axis=-1) for f in factors))[..., :1]
    return np.einsum(subscripts, w, *factors)


def _t_sum(tw: np.ndarray, *factors: np.ndarray) -> np.ndarray:
    """sum_j tw[j] * f1[q, j] * f2[q, j] ... for every row q and column of
    the (Y, t, k) arrays ``factors``, in j order: shape (Y, k)."""
    return _ordered_sum(",".join(["t"] + ["ytk"] * len(factors)) + "->yk", tw, *factors)


@dataclass(frozen=True)
class ConstantField:
    value: float

    def __call__(self, points):
        pts = points if isinstance(points, SegmentPoints) else _pts(points)
        return np.full(pts.shape[0], float(self.value))

    def partial(self, k):
        return ConstantField(0.0)


@dataclass(frozen=True)
class _OnPlane:
    """Leaf of a split expression: ``node``, whose only free variable is
    ``name`` = x_(axis+1), evaluated on that coordinate's plane of a
    ``SegmentPoints``."""

    axis: int
    name: str
    node: object

    def on_plane(self, points):
        """The leaf on its coordinate's plane, shape (d_axis, t, u_axis)."""
        return self.node.ev({self.name: points.plane(self.axis)})

    def ev(self, points):
        """The leaf at the segment points, shape (Y, t, m)."""
        return self.on_plane(points).take(points.rows[self.axis], axis=0, mode="clip").take(
            points.inverses[self.axis], axis=2, mode="clip")

    def integral(self, points):
        """The leaf's t-integral at the batch points, shape (Y, m): evaluated
        and t-summed on the plane, in parts of its rows, then taken to the
        y-nodes and the points."""
        return points.on_rows(self.axis, lambda plane: _t_sum(
            points.tw, self.node.ev({self.name: plane})))


def _pair_box(left, right, points) -> bool:
    """Whether the product ``left * right`` is t-summed on its coordinate-pair
    box (``_box_integral``): both factors are one-coordinate leaves on
    different axes, each of at least two columns, and the box has at most
    twice as many cells as the batch has points (a lattice batch; a
    scattered one would square its size)."""
    if not (isinstance(left, _OnPlane) and isinstance(right, _OnPlane)
            and left.axis != right.axis):
        return False
    ua, ub = points.widths[left.axis], points.widths[right.axis]
    return min(ua, ub) > 1 and ua * ub <= 2 * points.m


def _box_integral(left: _OnPlane, right: _OnPlane, points) -> np.ndarray:
    """The t-integral of ``left * right``, shape (Y, m), from each leaf on
    its own plane: the (Y', u_a, u_b) box of t-sums over every pair of their
    columns, taken to the points.  The left leaf is multiplied by the
    t-weights on its plane and both leaves are taken to the part's y-nodes,
    so each cell adds (tw_j * a_j) * b_j in t order, as the t-sum of the
    factors expanded to the points does, and the bits are the same; the box
    has at least two columns per axis, so einsum never sums a lone column
    (see ``_ordered_sum``)."""
    ua, ub = points.widths[left.axis], points.widths[right.axis]
    cell = points.inverses[left.axis] * ub + points.inverses[right.axis]

    def part_integral(part):
        a = (part.tw[:, None] * left.on_plane(part)).take(
            part.rows[left.axis], axis=0, mode="clip")
        b = right.on_plane(part).take(part.rows[right.axis], axis=0, mode="clip")
        box = np.einsum("yta,ytb->yab", a, b)
        return box.reshape(part.ynodes, ua * ub).take(cell, axis=1, mode="clip")

    # a part's leaf values and box hold at most CHUNK_VALUES values each
    return points.chunked(part_integral, max(ua, ub, -(-ua * ub // points.tw.size)))


def _split(node):
    """``node`` with each maximal subtree of exactly one free variable
    replaced by an ``_OnPlane`` leaf, and each subtree without one by the
    ``Num`` of its value.  Every ufunc sees the elements it sees on the
    segment array, so the values are bit-equal."""
    names = ex.free_variables(node)
    if not names:
        return node if isinstance(node, ex.Num) else ex.Num(float(node.ev({})))
    if len(names) == 1:
        (name,) = names
        return _OnPlane(int(name[1:]) - 1, name, node)
    if isinstance(node, ex.BinOp):
        return ex.BinOp(node.op, _split(node.left), _split(node.right))
    if isinstance(node, ex.Call):
        return ex.Call(node.fn, _split(node.arg))
    return node


def _integrate(node, points):
    """The t-integral of ``node``, a node of a split expression, at the
    points of a ``SegmentPoints`` batch: shape (Y, m), or a float for a
    constant.  Only a node that combines several coordinates, other than a
    product of two leaves on a small pair box, is expanded to the points,
    one part of the y-nodes at a time."""
    if isinstance(node, ex.Num):
        return node.value * points.tw_sum
    if isinstance(node, _OnPlane):
        return node.integral(points)
    if isinstance(node, ex.BinOp):
        op, left, right = node.op, node.left, node.right
        if op in "+-":
            a, b = _integrate(left, points), _integrate(right, points)
            return a + b if op == "+" else a - b
        if op in "*/" and isinstance(right, ex.Num):
            a = _integrate(left, points)
            return a * right.value if op == "*" else a / right.value
        if op == "*" and isinstance(left, ex.Num):
            return left.value * _integrate(right, points)
        if op == "*" and _pair_box(left, right, points):
            return _box_integral(left, right, points)
        if op == "*":
            return points.chunked(
                lambda part: _t_sum(part.tw, left.ev(part), right.ev(part)), points.m)
    return points.chunked(lambda part: _t_sum(part.tw, node.ev(part)), points.m)


class ExprField:
    """Field defined by an expression in variables x1..xn.

    Partials are exact: the expression is differentiated symbolically, so
    chains of ``partial`` calls never lose accuracy.  Each partial is built
    once per axis and then returned again.  ``_split(node)``, built once
    here, is what the T kernel integrates over t (see ``_integrate``).
    """

    def __init__(self, source, dims: int):
        self.node = ex.parse(source) if isinstance(source, str) else source
        self.dims = dims
        allowed = {f"x{i}" for i in range(1, dims + 1)}
        extra = ex.free_variables(self.node) - allowed
        if extra:
            raise ExpressionError(
                f"unknown variables {sorted(extra)}; expected subset of x1..x{dims}")
        self._split = _split(self.node)
        self._partials = {}

    def __call__(self, points):
        points = _pts(points)
        out = ex.evaluate(self.node, {f"x{i + 1}": points[:, i]
                                      for i in range(self.dims)})
        m = points.shape[0]
        if isinstance(out, np.ndarray) and out.base is None and out.size == m:
            return out.reshape(m)  # a fresh result of the expression's last operation
        # a constant, or a view of an input column
        return np.broadcast_to(np.asarray(out, dtype=np.float64).reshape(-1), (m,)).copy()

    def partial(self, k):
        if not 1 <= k <= self.dims:
            raise InvalidInputError(f"axis {k} outside 1..{self.dims}")
        field = self._partials.get(k)
        if field is None:  # fields are immutable, so one derivative serves every caller
            field = self._partials[k] = ExprField(self.node.diff(f"x{k}"), self.dims)
        return field

    def __repr__(self):
        return f"ExprField({str(self.node)!r}, dims={self.dims})"


class CallableField:
    """Field wrapping a plain callable; exact partials are optional."""

    def __init__(self, fn: Callable, dims: int, partials=None):
        self.fn, self.dims, self._partials = fn, dims, partials

    def __call__(self, points):
        pts = _pts(points)
        return np.asarray(self.fn(pts), dtype=np.float64).reshape(pts.shape[0])

    def partial(self, k):
        if self._partials is None:
            return None
        return self._partials[k - 1]


class FDPartialField:
    """Central-difference partial of another field; .partial chains one level deeper."""

    def __init__(self, base, k: int, step: float):
        if not step > 0:
            raise InvalidInputError(f"finite-difference step must be positive, got {step}")
        self.base, self.k, self.step = base, k, step

    def __call__(self, points):
        pts = _pts(points)
        h = np.zeros(pts.shape[1])
        h[self.k - 1] = self.step
        return (self.base(pts + h) - self.base(pts - h)) / (2.0 * self.step)

    def partial(self, k):
        return FDPartialField(self, k, self.step)


class LinearCombinationField:
    """Signed sum of fields; partials distribute over the terms."""

    def __init__(self, terms):
        self.terms = [(float(c), f) for c, f in terms]

    def __call__(self, points):
        points = _pts(points)
        return self._combine(points.shape[0], (f(points) for _, f in self.terms))

    def _combine(self, shape, values):
        """The sum of the coefficients times ``values``, one array of
        ``shape`` per term; the t-integral combines the terms' (Y, m)
        t-integrals the same way."""
        out = np.zeros(shape)
        for (c, _), v in zip(self.terms, values):
            # x * 1.0 == x and b + (-x) == b - x: unit terms skip the product
            if c == 1.0:
                out += v
            elif c == -1.0:
                out -= v
            else:
                out += c * v
        return out

    def partial(self, k):
        parts = []
        for c, f in self.terms:
            g = f.partial(k)
            if g is None:
                return None
            parts.append((c, g))
        return LinearCombinationField(parts)


def _points_for(field, points):
    """The points ``field`` is evaluated at: a ``SegmentPoints`` stays
    compressed for every field of this module that is evaluated at points
    (a ``ConstantField`` reads only its size, the others read its planes);
    a ``CallableField``, an ``FDPartialField`` and any field from outside
    this module get the (m, n) array."""
    if type(field) in (ConstantField, GridField, BumpField, _BumpGrad, _BumpHess,
                       RadialPowerField, _RadialPowerGrad):
        return points
    return _pts(points)


def _t_integral(field, points: SegmentPoints) -> np.ndarray:
    """sum_j w_j field(t_j x + (1 - t_j) y) at each y-node y and each of the
    m points x of the batch ``points``, shape (Y, m).  An ``ExprField`` or a
    ``LinearCombinationField`` integrates itself; any other field is
    evaluated at the segment points, one part of the y-nodes at a time, and
    t-summed."""
    kind = type(field)
    shape = (points.ynodes, points.m)
    if kind is ExprField:
        out = _integrate(field._split, points)
        return out if isinstance(out, np.ndarray) else np.full(shape, out)
    if kind is LinearCombinationField:
        return field._combine(shape, (_t_integral(f, points) for _, f in field.terms))

    def part_integral(part):
        values = field(_points_for(field, part))
        return _t_sum(part.tw, values.reshape(part.ynodes, part.tw.size, part.m))

    return points.chunked(part_integral, points.m)


def _offsets(points, center: np.ndarray, radius: float | None = None):
    """The offsets x_i - c_i of the points from ``center``, divided by
    ``radius`` when one is given, one array per coordinate i, and ``at(i,
    v)``, which takes values ``v`` of that shape to the points, flat.

    On a ``SegmentPoints`` offset i is formed on coordinate i's (Y, t, u_i)
    plane and ``at`` takes it to the (Y, t, m) points; on an (m, n) array
    it is formed on column i and ``at`` returns it.  Either way each value
    goes through the operations it goes through on the (m, n) array of the
    points, so the bits do not depend on the layout."""
    if isinstance(points, SegmentPoints):
        cols = points.ynode_planes

        def at(i, v):
            return v.take(points.inverses[i], axis=2, mode="clip").reshape(-1)
    else:
        cols = _pts(points).T

        def at(i, v):
            return v
    z = [col - c for col, c in zip(cols, center, strict=True)]
    return (z if radius is None else [zi / radius for zi in z]), at


def _square_sum(z: list, at) -> np.ndarray:
    """sum_i z_i^2 at the points, each square formed where ``z_i`` is and
    taken to the points, added in axis order: the bits of ``np.sum(z * z,
    axis=1)`` on the (m, n) array of the offsets, for n <= 3."""
    total = at(0, z[0] * z[0])
    for i in range(1, len(z)):
        total += at(i, z[i] * z[i])
    return total


class BumpField:
    """Smooth compactly supported mollifier exp(-1 / (1 - |z|^2)) on |z| < 1.

    ``z = (x - center) / radius``.  First and second partials are closed form;
    beyond that ``partial`` chains return ``None``.  The bump and its
    partials form z and its squares per coordinate (``_offsets``), on the
    planes of a ``SegmentPoints``.
    """

    def __init__(self, center, radius: float):
        self.center = np.asarray(center, dtype=np.float64).reshape(-1)
        if not radius > 0:
            raise InvalidInputError(f"bump radius must be positive, got {radius}")
        self.radius = float(radius)
        self.dims = self.center.size

    def _zw(self, points):
        """``(z, at, w)``: z per coordinate and ``at`` (see ``_offsets``),
        and |z|^2 at the points."""
        z, at = _offsets(points, self.center, self.radius)
        return z, at, _square_sum(z, at)

    def __call__(self, points):
        _, _, w = self._zw(points)
        out = np.zeros(w.shape)
        inside = w < 1.0
        out[inside] = np.exp(-1.0 / (1.0 - w[inside]))
        return out

    def partial(self, k):
        return _BumpGrad(self, k)


class _BumpGrad:
    def __init__(self, bump: BumpField, k: int):
        self.bump, self.k = bump, k

    def __call__(self, points):
        z, at, w = self.bump._zw(points)
        out = np.zeros(w.shape)
        inside = w < 1.0
        g = 1.0 - w[inside]
        zk = at(self.k - 1, z[self.k - 1])[inside]
        out[inside] = (np.exp(-1.0 / g) / g ** 2) * (-2.0 * zk / self.bump.radius)
        return out

    def partial(self, j):
        return _BumpHess(self.bump, self.k, j)


class _BumpHess:
    def __init__(self, bump: BumpField, k: int, j: int):
        self.bump, self.k, self.j = bump, k, j

    def __call__(self, points):
        z, at, w = self.bump._zw(points)
        out = np.zeros(w.shape)
        inside = w < 1.0
        g = 1.0 - w[inside]
        e = np.exp(-1.0 / g)
        zk = 2.0 * at(self.k - 1, z[self.k - 1])[inside] / self.bump.radius
        zj = 2.0 * at(self.j - 1, z[self.j - 1])[inside] / self.bump.radius
        term = (e / g ** 4 - 2.0 * e / g ** 3) * zk * zj
        if self.k == self.j:
            term -= (e / g ** 2) * (2.0 / self.bump.radius ** 2)
        out[inside] = term
        return out

    def partial(self, j):
        return None


class RadialPowerField:
    """|x - x0|^a; the gradient a r^(a-2) (x - x0) is closed form.

    For 1 < a < 2 the gradient is continuous but not differentiable at x0,
    making this the standard mildly rough test input.  The singular point is
    mapped to 0.  Both form x - x0 and its squares per coordinate
    (``_offsets``), on the planes of a ``SegmentPoints``.
    """

    def __init__(self, center, exponent: float):
        self.center = np.asarray(center, dtype=np.float64).reshape(-1)
        self.exponent = float(exponent)
        self.dims = self.center.size

    def __call__(self, points):
        d, at = _offsets(points, self.center)
        return _square_sum(d, at) ** (self.exponent / 2.0)

    def partial(self, k):
        return _RadialPowerGrad(self, k)


class _RadialPowerGrad:
    def __init__(self, base: RadialPowerField, k: int):
        self.base, self.k = base, k

    def __call__(self, points):
        d, at = _offsets(points, self.base.center)
        r2 = _square_sum(d, at)
        out = np.zeros(r2.shape)
        nz = r2 > 0
        a = self.base.exponent
        out[nz] = a * r2[nz] ** (a / 2.0 - 1.0) * at(self.k - 1, d[self.k - 1])[nz]
        return out

    def partial(self, k):
        return None


def _cubic_basis(t: np.ndarray, x: np.ndarray, nu: int):
    """Knot interval and cubic B-spline values at the points ``x``.

    Returns ``e`` = ell - 3 for the interval t[ell] <= x < t[ell + 1],
    clamped to the spline's first and last intervals so that points outside
    extrapolate, and the (4, x.size) values of the nu-th derivatives of
    B_(ell-3) .. B_ell, the only B-splines of ``t`` that are nonzero there.
    De Boor's recursion: three degree-raising steps, of which the last
    ``nu`` differentiate.
    """
    e = np.clip(np.searchsorted(t, x, side="right") - 4, 0, t.size - 8)
    if nu > 3:
        return e, np.zeros((4, x.size))
    knot = {n: t[3 + n:].take(e) for n in range(-2, 4)}  # t[ell + n]
    b = [np.ones(x.shape)]
    for j in range(1, 4):
        nxt = [0.0] * (j + 1)
        for n in range(1, j + 1):
            right, left = knot[n], knot[n - j]
            if j > 3 - nu:
                w = j * b[n - 1] / (right - left)
                nxt[n - 1] = nxt[n - 1] - w
                nxt[n] = w
            else:
                w = b[n - 1] / (right - left)
                nxt[n - 1] = nxt[n - 1] + w * (right - x)
                nxt[n] = w * (x - left)
        b = nxt
    return e, np.stack(b)


def _planes(points):
    """``(planes, inverses)`` of a batch: a ``SegmentPoints``' own, as
    (Y t, u_i) rows, and for an (m, n) array one (1, u_i) plane per
    coordinate over its distinct values, so that both take the same path
    through ``GridField``."""
    if isinstance(points, SegmentPoints):
        return ([p.reshape(p.shape[0] * p.shape[1], p.shape[2]) for p in points.ynode_planes],
                points.inverses)
    planes, inverses = [], []
    for col in _pts(points).T:
        values, inv = _distinct(col)
        planes.append(values[None, :])
        inverses.append(inv)
    return planes, inverses


def _basis_sum(weights: np.ndarray, c: np.ndarray) -> np.ndarray:
    """sum_j weights[j, p] * c[j, p] for every point p, shape (P,).

    No BLAS: the sum order depends only on the shapes, so the bits depend
    neither on the layout of the points nor on the BLAS threads.  As in
    ``_t_sum``, a lone point is summed as the first of two, so that its
    value does not depend on how the points are split into parts.
    """
    if weights.shape[1] == 1:
        return np.einsum("jp,jp->p", np.repeat(weights, 2, axis=1),
                         np.repeat(c, 2, axis=1))[:1]
    return np.einsum("jp,jp->p", weights, c)


class GridField:
    """Exact cubic interpolant of samples on a tensor grid over a box.

    The spline is the not-a-knot cubic tensor spline through the samples,
    built by one 1-D not-a-knot solve per axis; it takes the grid values to
    rounding and is linear in them.  On an axis of N >= 4 strictly
    increasing nodes x the knot vector is x_0 four times, x_2 .. x_(N-3)
    and x_(N-1) four times, so x_1 and x_(N-2) are not knots; the N x N
    collocation matrix holds the four nonzero B-spline values at each node,
    from ``_cubic_basis``, the function that evaluates the spline, and one
    dense ``np.linalg.solve`` along the axis gives its coefficients.  Axes
    that do not fit the values or have too few, unordered or non-finite
    nodes, and non-finite values, raise ``InvalidInputError``.  ``knots``
    holds one knot vector per axis and ``coefficients`` the coefficient
    array, so the field is ``scipy.interpolate.NdBSpline(knots,
    coefficients, 3)``.  Queries outside the grid extrapolate with the end
    pieces.  ``partial(k)`` is a GridField on the same spline with the
    derivative orders ``nu`` raised by one along axis k, so chains of
    ``partial`` calls stay exact.

    Evaluation works on coordinate planes: the points arrive as rows of
    values per coordinate and a map from each point to its column (a
    ``SegmentPoints`` holds these already, one row per (y-node, t-node);
    an (m, n) array is one row of its distinct values per column).  The
    knot interval and the four nonzero basis values of each axis are
    computed once per plane value, and each point sums the 4^n products of
    its basis values against the coefficients it gathers from the flat
    coefficient array.  The basis is computed on parts of the rows whose
    plane values number at most ``CHUNK_VALUES`` (one part for the narrow
    planes of a lattice or ball batch, several for a scattered batch, whose
    planes are as wide as the batch), and within a part the rows go in
    steps whose (4^n, P) weights and gathered coefficients hold at most
    ``CHUNK_VALUES`` values (each at least one row), so that they stay in
    cache.
    """

    def __init__(self, axes, values):
        c = np.asarray(values, dtype=np.float64)
        axes = [np.asarray(x, dtype=np.float64) for x in axes]
        if c.ndim == 0 or len(axes) != c.ndim or any(
                x.shape != (size,) for x, size in zip(axes, c.shape)):
            raise InvalidInputError(f"grid axes of lengths {[x.size for x in axes]} "
                                    f"do not match values of shape {c.shape}")
        if not np.isfinite(c).all():
            raise InvalidInputError("grid values must be finite")
        self.dims = c.ndim
        knots = []
        for i, x in enumerate(axes):
            if x.size < 4 or not (np.isfinite(x).all() and (np.diff(x) > 0).all()):
                raise InvalidInputError(
                    f"grid axis {i + 1} needs at least 4 finite, strictly increasing nodes")
            t = np.concatenate((x[:1].repeat(4), x[2:-2], x[-1:].repeat(4)))
            e, b = _cubic_basis(t, x, 0)
            collocation = np.zeros((x.size, x.size))
            collocation[np.arange(x.size)[:, None], e[:, None] + np.arange(4)] = b.T
            rhs = np.moveaxis(c, i, 0)
            c = np.moveaxis(np.linalg.solve(collocation, rhs.reshape(x.size, -1))
                            .reshape(rhs.shape), 0, i)
            knots.append(t)
        self.knots = tuple(knots)
        self.coefficients = np.ascontiguousarray(c)
        self.nu = (0,) * self.dims
        self._strides = tuple(s // c.itemsize for s in self.coefficients.strides)
        # flat offsets of the 4^n coefficients a point reads, axis 0 outermost
        self._offsets = np.ravel_multi_index(
            np.indices((4,) * self.dims).reshape(self.dims, -1), c.shape)

    def __call__(self, points):
        planes, inverses = _planes(points)
        rows, m = planes[0].shape[0], inverses[0].size
        # the basis is taken on parts of the rows whose plane values number
        # at most CHUNK_VALUES, and within a part the (4^n, P) weights and
        # coefficients of a step of its rows hold at most CHUNK_VALUES values
        # (each at least one row)
        part = max(1, CHUNK_VALUES // max(1, sum(plane.shape[1] for plane in planes)))
        step = max(1, CHUNK_VALUES // (self._offsets.size * max(1, m)))
        out = np.empty(rows * m)
        for p in range(0, rows, part):
            axes = []
            for t, nu, stride, plane in zip(self.knots, self.nu, self._strides, planes):
                plane = plane[p:p + part]
                e, b = _cubic_basis(t, plane.reshape(-1), nu)
                axes.append(((stride * e).reshape(plane.shape),
                             b.reshape((4,) + plane.shape)))
            for r in range(0, axes[0][0].shape[0], step):
                base, basis = 0, []
                for (offset, b), inv in zip(axes, inverses):
                    base = base + offset[r:r + step].take(inv, axis=1).reshape(-1)
                    basis.append(b[:, r:r + step].take(inv, axis=2).reshape(4, -1))
                weights = basis[0]
                for b in basis[1:]:
                    weights = (weights[:, None, :] * b).reshape(4 * len(weights), -1)
                c = self.coefficients.take(self._offsets[:, None] + base)
                sums = _basis_sum(weights, c)
                out[(p + r) * m:(p + r) * m + sums.size] = sums
        return out

    def partial(self, k):
        if not 1 <= k <= self.dims:
            raise InvalidInputError(f"axis {k} outside 1..{self.dims}")
        nu = list(self.nu)
        nu[k - 1] += 1
        out = copy.copy(self)
        out.nu = tuple(nu)
        return out


def as_field(obj, dims: int) -> ScalarField:
    """Coerce numbers, expression strings, and callables into scalar fields."""
    if isinstance(obj, (int, float)):
        return ConstantField(float(obj))
    if isinstance(obj, str):
        return ExprField(obj, dims)
    if isinstance(obj, (ex.Num, ex.Var, ex.BinOp, ex.Call)):
        return ExprField(obj, dims)
    if callable(obj):
        if hasattr(obj, "partial"):
            return obj
        return CallableField(obj, dims)
    raise InvalidInputError(f"cannot interpret {obj!r} as a scalar field")


@dataclass(frozen=True)
class DifferentialForm:
    """Degree-l form: one scalar field per ordered multi-index, rank order."""

    dims: int
    degree: int
    components: tuple

    def __post_init__(self):
        if not 0 <= self.degree <= self.dims:
            raise DegreeError(f"degree {self.degree} outside 0..{self.dims}")
        comps = tuple(as_field(c, self.dims) for c in self.components)
        if len(comps) != num_components(self.dims, self.degree):
            raise InvalidInputError(
                f"expected {num_components(self.dims, self.degree)} components, "
                f"got {len(comps)}")
        object.__setattr__(self, "components", comps)

    @classmethod
    def from_components(cls, dims: int, degree: int, entries: dict) -> "DifferentialForm":
        """Build from {index tuple: field-like}; omitted components are zero."""
        comps: list = [ConstantField(0.0)] * num_components(dims, degree)
        for key, val in entries.items():
            mi = key if isinstance(key, MultiIndex) else MultiIndex(dims, tuple(key))
            if mi.degree != degree:
                raise InvalidInputError(f"index {key} has degree {mi.degree}, expected {degree}")
            comps[index_rank(mi)] = as_field(val, dims)
        return cls(dims, degree, tuple(comps))

    @classmethod
    def scalar(cls, dims: int, field) -> "DifferentialForm":
        return cls(dims, 0, (as_field(field, dims),))

    def evaluate(self, points) -> np.ndarray:
        """Coefficient array of shape (num_components, m) at the given points."""
        points = _pts(points)
        return np.stack([f(points) for f in self.components], axis=0)

    def value_at(self, point) -> CovectorValue:
        vals = self.evaluate(np.asarray(point).reshape(1, -1))[:, 0]
        return CovectorValue(self.dims, self.degree, vals)

    def modulus_values(self, points) -> np.ndarray:
        """Pointwise Euclidean modulus at each point, shape (m,)."""
        return pointwise_modulus(self.evaluate(points))

    def _partial_field(self, rank: int, axis: int, fd_step):
        f = self.components[rank]
        g = f.partial(axis)
        if g is not None:
            return g
        if fd_step is None:
            raise InvalidInputError(
                "some components lack exact partials; pass fd_step to "
                "differentiate by central finite differences")
        return FDPartialField(f, axis, fd_step)

    def d(self, fd_step: float | None = None) -> "DifferentialForm":
        """Exterior derivative.

        Exact partials are used whenever a component provides them; otherwise
        central differences with ``fd_step`` are substituted (an error if no
        step is given).
        """
        n, l = self.dims, self.degree
        if l == n:
            raise DegreeError(f"cannot take d of a top-degree ({n}) form")
        terms: list[list] = [[] for _ in range(num_components(n, l + 1))]
        for io, ii, ax, sg in _contraction_table(n, l + 1):
            terms[ii].append((sg, self._partial_field(io, ax + 1, fd_step)))
        comps = tuple(LinearCombinationField(t) if t else ConstantField(0.0) for t in terms)
        return DifferentialForm(n, l + 1, comps)

    def __add__(self, other):
        self._check(other)
        comps = tuple(LinearCombinationField([(1.0, a), (1.0, b)])
                      for a, b in zip(self.components, other.components))
        return DifferentialForm(self.dims, self.degree, comps)

    def __sub__(self, other):
        self._check(other)
        comps = tuple(LinearCombinationField([(1.0, a), (-1.0, b)])
                      for a, b in zip(self.components, other.components))
        return DifferentialForm(self.dims, self.degree, comps)

    def __mul__(self, scalar):
        comps = tuple(LinearCombinationField([(float(scalar), f)]) for f in self.components)
        return DifferentialForm(self.dims, self.degree, comps)

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    def _check(self, other):
        if self.dims != other.dims or self.degree != other.degree:
            raise InvalidInputError("dimension or degree mismatch between forms")

    def star(self) -> "DifferentialForm":
        """Hodge dual: component fields permuted and signed by the star table."""
        n, l = self.dims, self.degree
        src, signs = _star_table(n, l)
        comps = tuple(LinearCombinationField([(float(signs[j]), self.components[int(src[j])])])
                      for j in range(num_components(n, n - l)))
        return DifferentialForm(n, n - l, comps)


def pointwise_modulus(coeffs: np.ndarray) -> np.ndarray:
    """The modulus of each column of a (num_components, m) array, shape (m,)."""
    return np.sqrt(np.sum(coeffs * coeffs, axis=0))


def codifferential(u: DifferentialForm, fd_step: float | None = None) -> DifferentialForm:
    """Formal adjoint of d: (-1)^{n(l+1)+1} * star(d(star(u))) for an l-form.

    Lowers the degree by one.  With this sign, the 0-form x1^2 - x2^2 and the
    2-form (2 x1 x2) dx1^dx2 on the plane satisfy codifferential(v) = du
    exactly (the Cauchy-Riemann equations).
    """
    n, l = u.dims, u.degree
    if l < 1:
        raise DegreeError("codifferential needs degree >= 1")
    sign = -1.0 if (n * (l + 1) + 1) % 2 else 1.0
    return sign * u.star().d(fd_step).star()


def evaluate(u: DifferentialForm, domain, x) -> CovectorValue:
    """Pointwise covector value of ``u`` at ``x``, which must lie in the
    closure of ``domain``."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape[0] != u.dims:
        raise InvalidInputError(f"point has dim {x.shape[0]}, form has {u.dims}")
    if not domain.contains(x.reshape(1, -1))[0]:
        raise OutOfDomainError(f"point {x.tolist()} lies outside the domain")
    return u.value_at(x)


def check_analytic_partials(u: DifferentialForm, domain, *, step: float = 1e-4,
                            tol: float = 1e-4, count: int = 20, seed: int = 0) -> float:
    """Cross-check declared partial derivatives against central differences.

    Samples interior points and compares every component's exact ``partial``
    (where one is declared) with a second-order stencil of step ``step``.
    Returns the worst absolute discrepancy; raises if it exceeds ``tol``
    scaled by the derivative magnitude.
    """
    rng = np.random.default_rng(seed)
    lo, hi = domain.bounding_box()
    c = domain.centroid()
    pts = []
    while len(pts) < count:
        cand = lo + rng.random(u.dims) * (hi - lo)
        cand = c + 0.9 * (cand - c)  # pull inward so the stencil stays inside
        if domain.contains(cand.reshape(1, -1))[0]:
            pts.append(cand)
    pts = np.array(pts)
    worst = 0.0
    scale = 1.0
    for f in u.components:
        for k in range(1, u.dims + 1):
            g = f.partial(k)
            if g is None:
                continue
            fd = FDPartialField(f, k, step)
            exact = g(pts)
            approx = fd(pts)
            worst = max(worst, float(np.max(np.abs(exact - approx))))
            scale = max(scale, float(np.max(np.abs(exact))))
    if worst > tol * scale:
        raise InvalidInputError(
            f"declared partials disagree with finite differences: "
            f"max error {worst:.3e} exceeds {tol:g} * scale {scale:.3g}")
    return worst
