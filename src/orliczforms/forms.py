"""Scalar fields on R^n and differential forms built from them.

A *scalar field* is anything that maps a batch of points ``(m, n)`` to values
``(m,)`` and can optionally report an exact partial derivative::

    field(points)  -> ndarray (m,)
    field.partial(k) -> field or None     # k is 1-based

``partial`` returning ``None`` means no closed form is available; consumers
fall back to central finite differences with an explicit step.  The points
may be any (m, n) float array, including a column-major view of a buffer
the caller overwrites after the call (the segment points of ``homotopy``'s
T kernel); a field must return a fresh (m,) array and keep no reference to
the points.  A *differential form* of degree l is a tuple of scalar fields
indexed by the lexicographic rank of the ordered multi-indices (see
``exterior``).

The T kernel does not evaluate fields at its segment points directly: it
asks each field, through ``_t_integral``, for its t-integral
sum_j w_j f(t_j x + (1 - t_j) y) over the t-rule, at every y-node y and
every point x of a batch, as one (Y, m) block.  The segment points arrive
as a ``SegmentPoints``, which holds them as compressed coordinate planes for
all y-nodes at once.  Two fields of this module integrate themselves,
chosen by exact type: a ``LinearCombinationField`` combines the
t-integrals of its terms, and an ``ExprField`` recurses over its
expression, split once when it is built into maximal single-coordinate
subtrees.  Its t-integral distributes over sums, differences and constant
factors; a single-coordinate subtree is evaluated and t-summed on its
coordinate's plane, for as many y-nodes at once as ``CHUNK_VALUES`` allows
(all of them on a lattice batch), and then taken to the points; a product
of two such subtrees on coordinates a != b is t-summed on their pair box,
the (Y', u_a, u_b) t-sums over every pair of their plane columns, which is
then taken to the points, when the box has at most 2m cells (a lattice
batch; on a scattered one it would have m^2); any other product of
non-constant factors is one fused t-sum of the factors expanded to the
points; any other node is evaluated at the segment points and t-summed.
Every other field is evaluated at the segment points and t-summed.  A
``GridField`` is handed the ``SegmentPoints`` and computes its B-spline
basis on the planes (a ``ConstantField`` reads only its size); any other
field, including any field from outside this module, receives the
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
from typing import Callable, Optional, Protocol, runtime_checkable

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
    that -0.0 and 0.0 stay apart, and the map from each entry to its value."""
    bits, inv = np.unique(col.view(np.int64), return_inverse=True)
    return bits.view(np.float64), inv


# The most float64 values the T kernel holds in one array that grows with
# the y-nodes, other than its (., Y, m) blocks: a part's coordinate planes
# and one-coordinate leaf values, a pair box, its segment array (per
# coordinate) and product factors, and a GridField's (4^n, P) weights and
# gathered coefficients.  A part holds at least one y-node (a GridField part
# at least one row), so one y-node's t values per column (4^n per point) may
# exceed it.
CHUNK_VALUES = 16384


class SegmentPoints:
    """The segment points t_j x_k + (1 - t_j) y_q of one T-kernel batch of
    points x_k, for all y-nodes y_q at once, with the weights ``tw`` of the
    t-rule.

    Coordinate i of a segment point depends only on (y_qi, t_j, x_ki), and
    the lattice batches that T is evaluated on repeat each coordinate value
    many times.  So coordinate i is held as a plane ``plane(i)`` of shape
    (Y, t, u_i) over its ``widths[i]`` = u_i distinct values (compared by
    their bits, so that -0.0 and 0.0 stay apart), with ``inverses[i]`` of
    shape (m,) mapping each point to its column.  t_j x_i is formed once
    per batch and each plane entry adds (1 - t_j) y_i to it: the sum of the
    same two rounded products as in the full segment array, so it has the
    same bits.  A plane is formed on first request.

    Work on the y-nodes runs over consecutive y-nodes in parts
    (``chunked``), each a ``SegmentPoints`` of its own, whose (Y', t, width)
    arrays hold at most ``CHUNK_VALUES`` values (and at least one y-node).
    An ``ExprField`` t-sums each one-coordinate leaf of its split on the
    leaf's plane, of width u_i, so on a lattice batch all y-nodes go at
    once; the product of two leaves on a lattice batch goes in parts sized
    by its pair box (``_box_integral``), and what must be expanded to the m
    points (another product of several coordinates, any field evaluated at
    the segment points) goes in parts of width m.  ``shape`` is (Y t m, n),
    the shape of the point array this stands for; ``_pts`` expands it into
    that array, the column-major view of a fresh (n, Y, t, m) buffer, points
    in (y, t, point) order.
    """

    def __init__(self, cols: np.ndarray, ys: np.ndarray, tj: np.ndarray,
                 tw: np.ndarray):
        """``cols``: the batch as C-contiguous (n, m) coordinate rows;
        ``ys``: the (Y, n) y-nodes; ``tj``, ``tw``: the (t,) nodes and
        weights of the t-rule."""
        n, m = cols.shape
        self._tx, self.inverses = [], []
        for col in cols:
            values, inv = _distinct(col)
            self._tx.append(tj[:, None] * values)
            self.inverses.append(inv)
        self.widths = [tx.shape[1] for tx in self._tx]
        self._ty = (1.0 - tj) * ys[:, :, None]  # (Y, n, t)
        self._planes = [None] * n
        self.tw = tw
        self.tw_sum = float(tw.sum())  # the t-integral of a constant 1
        self.m = m
        self.ynodes = ys.shape[0]
        self.shape = (self.ynodes * tj.size * m, n)

    def plane(self, i: int) -> np.ndarray:
        """Coordinate i at the segment points, over its distinct values:
        shape (Y, t, u_i)."""
        if self._planes[i] is None:
            self._planes[i] = self._tx[i] + self._ty[:, i, :, None]
        return self._planes[i]

    @property
    def planes(self) -> list:
        """``plane(i)`` for every coordinate i."""
        return [self.plane(i) for i in range(len(self._tx))]

    def _part(self, a: int, b: int) -> "SegmentPoints":
        """The y-nodes a..b-1 of this batch; the planes formed so far are
        shared."""
        if a == 0 and b >= self.ynodes:
            return self
        part = copy.copy(self)
        part._ty = self._ty[a:b]
        part._planes = [None if p is None else p[a:b] for p in self._planes]
        part.ynodes = part._ty.shape[0]
        part.shape = (part.ynodes * self.tw.size * self.m, self.shape[1])
        return part

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
        for i, (inv, row) in enumerate(zip(self.inverses, full)):
            self.plane(i).take(inv, axis=2, out=row, mode="clip")
        return full.reshape(self.shape[1], -1).T


def _pts(points) -> np.ndarray:
    if isinstance(points, SegmentPoints):
        return points.array()
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts.reshape(1, -1)
    return pts


def _t_sum(tw: np.ndarray, *factors: np.ndarray) -> np.ndarray:
    """sum_j tw[j] * f1[q, j] * f2[q, j] ... for every y-node q and column
    of the (Y, t, k) arrays ``factors``, shape (Y, k).

    einsum (no BLAS, so the bits do not depend on the BLAS threads) adds the
    products in j order, one column at a time, but it sums a lone column as
    a vectorized dot product, in another order; so one column is summed as
    the first of two, and a column's sum depends neither on k nor on Y.
    """
    subscripts = ",".join(["t"] + ["ytk"] * len(factors)) + "->yk"
    if factors[0].shape[2] == 1:
        return np.einsum(subscripts, tw,
                         *(np.repeat(f, 2, axis=2) for f in factors))[:, :1]
    return np.einsum(subscripts, tw, *factors)


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
        """The leaf on its coordinate's plane, shape (Y, t, u_axis)."""
        return self.node.ev({self.name: points.plane(self.axis)})

    def ev(self, points):
        """The leaf at the segment points, shape (Y, t, m)."""
        return self.on_plane(points).take(points.inverses[self.axis], axis=2,
                                          mode="clip")

    def integral(self, points):
        """The leaf's t-integral at the batch points, shape (Y, m): t-summed
        on the plane, in parts of the y-nodes sized by the plane's width,
        then taken to the points."""
        inv = points.inverses[self.axis]

        def part_integral(part):
            return _t_sum(part.tw, self.on_plane(part)).take(inv, axis=1, mode="clip")

        return points.chunked(part_integral, points.widths[self.axis])


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
    columns, taken to the points.  Each cell adds (tw_j * a_j) * b_j in t
    order, as the t-sum of the factors expanded to the points does, so the
    bits are the same; the box has at least two columns per axis, so einsum
    never sums a lone column (see ``_t_sum``)."""
    ua, ub = points.widths[left.axis], points.widths[right.axis]
    cell = points.inverses[left.axis] * ub + points.inverses[right.axis]

    def part_integral(part):
        box = np.einsum("t,yta,ytb->yab", part.tw, left.on_plane(part),
                        right.on_plane(part))
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
    compressed for the fields of this module that read its planes, and every
    other field gets the (m, n) array."""
    if type(field) in (ConstantField, GridField):
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


class BumpField:
    """Smooth compactly supported mollifier exp(-1 / (1 - |z|^2)) on |z| < 1.

    ``z = (x - center) / radius``.  First and second partials are closed form;
    beyond that ``partial`` chains return ``None``.
    """

    def __init__(self, center, radius: float):
        self.center = np.asarray(center, dtype=np.float64).reshape(-1)
        if not radius > 0:
            raise InvalidInputError(f"bump radius must be positive, got {radius}")
        self.radius = float(radius)
        self.dims = self.center.size

    def _zw(self, pts):
        z = (pts - self.center) / self.radius
        w = np.sum(z * z, axis=1)
        return z, w

    def __call__(self, points):
        z, w = self._zw(_pts(points))
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
        pts = _pts(points)
        z, w = self.bump._zw(pts)
        out = np.zeros(w.shape)
        inside = w < 1.0
        g = 1.0 - w[inside]
        out[inside] = (np.exp(-1.0 / g) / g ** 2) * (-2.0 * z[inside, self.k - 1]
                                                     / self.bump.radius)
        return out

    def partial(self, j):
        return _BumpHess(self.bump, self.k, j)


class _BumpHess:
    def __init__(self, bump: BumpField, k: int, j: int):
        self.bump, self.k, self.j = bump, k, j

    def __call__(self, points):
        pts = _pts(points)
        z, w = self.bump._zw(pts)
        out = np.zeros(w.shape)
        inside = w < 1.0
        g = 1.0 - w[inside]
        e = np.exp(-1.0 / g)
        zk = 2.0 * z[inside, self.k - 1] / self.bump.radius
        zj = 2.0 * z[inside, self.j - 1] / self.bump.radius
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
    mapped to 0.
    """

    def __init__(self, center, exponent: float):
        self.center = np.asarray(center, dtype=np.float64).reshape(-1)
        self.exponent = float(exponent)
        self.dims = self.center.size

    def __call__(self, points):
        d = _pts(points) - self.center
        r2 = np.sum(d * d, axis=1)
        return r2 ** (self.exponent / 2.0)

    def partial(self, k):
        return _RadialPowerGrad(self, k)


class _RadialPowerGrad:
    def __init__(self, base: RadialPowerField, k: int):
        self.base, self.k = base, k

    def __call__(self, points):
        d = _pts(points) - self.base.center
        r2 = np.sum(d * d, axis=1)
        out = np.zeros(r2.shape)
        nz = r2 > 0
        a = self.base.exponent
        out[nz] = a * r2[nz] ** (a / 2.0 - 1.0) * d[nz, self.k - 1]
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
        return ([p.reshape(p.shape[0] * p.shape[1], p.shape[2]) for p in points.planes],
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
    rounding and is linear in them.  ``knots`` holds one knot vector per
    axis and ``coefficients`` the coefficient array, so the field is
    ``scipy.interpolate.NdBSpline(knots, coefficients, 3)``.  Queries
    outside the grid extrapolate with the end pieces.  ``partial(k)`` is a
    GridField on the same spline with the derivative orders ``nu`` raised
    by one along axis k, so chains of ``partial`` calls stay exact.

    Evaluation works on coordinate planes: the points arrive as rows of
    values per coordinate and a map from each point to its column (a
    ``SegmentPoints`` holds these already, one row per (y-node, t-node);
    an (m, n) array is one row of its distinct values per column).  The
    knot interval and the four nonzero basis values of each axis are
    computed once per plane value, and each point sums the 4^n products of
    its basis values against the coefficients it gathers from the flat
    coefficient array.  The rows go in parts whose (4^n, P) weights and
    gathered coefficients hold at most ``CHUNK_VALUES`` values (at least
    one row), so that they stay in cache.
    """

    def __init__(self, axes, values):
        from scipy.interpolate import make_interp_spline
        c = np.asarray(values, dtype=np.float64)
        self.dims = c.ndim
        knots = []
        for i, x in enumerate(axes):
            spline = make_interp_spline(np.asarray(x, dtype=np.float64), c, k=3, axis=i)
            knots.append(spline.t)
            c = np.moveaxis(spline.c, 0, i)
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
        axes = []
        for t, nu, stride, plane in zip(self.knots, self.nu, self._strides, planes):
            e, b = _cubic_basis(t, plane.reshape(-1), nu)
            axes.append(((stride * e).reshape(plane.shape),
                         b.reshape((4,) + plane.shape)))
        # the (4^n, P) weights and coefficients of a part of the rows hold at
        # most CHUNK_VALUES values (at least one row)
        step = max(1, CHUNK_VALUES // (self._offsets.size * max(1, m)))
        out = np.empty(rows * m)
        for r in range(0, rows, step):
            base, basis = 0, []
            for (offset, b), inv in zip(axes, inverses):
                base = base + offset[r:r + step].take(inv, axis=1).reshape(-1)
                basis.append(b[:, r:r + step].take(inv, axis=2).reshape(4, -1))
            weights = basis[0]
            for b in basis[1:]:
                weights = (weights[:, None, :] * b).reshape(4 * len(weights), -1)
            c = self.coefficients.take(self._offsets[:, None] + base)
            out[r * m:(r + step) * m] = _basis_sum(weights, c)
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
