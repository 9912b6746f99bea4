"""Averaged cone-contraction operator and the decomposition identity."""
import collections
import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orliczforms import (Ball, Box, DifferentialForm, OscillationNormSpec, apply_Ky,
                         apply_T, ball_family, build_corpus, closed_part,
                         decomposition_residual, default_domain, homotopy, materialize,
                         named_form, oscillation_residuals)
from orliczforms.errors import DegreeError, InvalidInputError
from orliczforms import expressions as ex
from orliczforms import forms as forms_module
from orliczforms.exterior import _contraction_table, num_components
from orliczforms.forms import (ExprField, LinearCombinationField, SegmentGeometry,
                               SegmentPoints, _OnPlane, _t_integral, x_side, y_side)
from orliczforms.homotopy import (FD_SCALE, T_NODES, BumpFunction, _t_rule, _TuEvaluator,
                                  closed_part_values)

BOX = Box([0.0, 0.0], [1.0, 1.0])
BOXES = {2: BOX, 3: Box(np.zeros(3), np.ones(3))}


def test_kernel_on_constant_oneform():
    # K_y(dx1) at x is the linear function x1 - y1
    u = named_form("const:dx1", 2)
    y = np.array([0.2, 0.3])
    got = apply_Ky(u, y, np.array([[0.7, 0.9]]))
    assert got.degree == 0
    assert got.coeffs[0] == pytest.approx(0.5, rel=1e-12)


def test_kernel_quadrature_in_t_is_exact_for_polynomials():
    u = named_form("oneform:x2,0", 2)
    y = np.array([0.2, 0.3])
    got = apply_Ky(u, y, np.array([[0.6, 0.7]]))
    # integrand (0.3 + 0.4 t) * 0.4 integrates to 0.2
    assert got.coeffs[0] == pytest.approx(0.2, rel=1e-12)


def test_t_rule_built_once_and_read_only():
    tj, tw = _t_rule(2)
    assert _t_rule(2)[0] is tj
    for arr in (tj, tw):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def _segment_values(ev, pts, y):
    """u at a fresh C-ordered (t, m, n) segment array from y to pts,
    shape (C, t, m)."""
    n, m = ev.u.dims, pts.shape[0]
    seg = (ev.tj[:, None, None] * pts[None, :, :]
           + (1.0 - ev.tj)[:, None, None] * y[None, None, :])
    vals = ev.u.evaluate(seg.reshape(-1, n))
    return vals.reshape(vals.shape[0], ev.tj.size, m)


def _signed_rows(n, l, a, v):
    """The contraction as signed products added in table order."""
    c = np.zeros((num_components(n, l - 1),) + a.shape[1:])
    for io, ii, ax, sg in _contraction_table(n, l):
        c[io] += sg * v[ax] * a[ii]
    return c


def _sum_over_t(tw, *factors):
    """sum_j tw[j] * f1[j] * f2[j] ..., the products added in j order."""
    acc = np.zeros(factors[0].shape[1:])
    for j in range(tw.size):
        term = tw[j] * factors[0][j]
        for f in factors[1:]:
            term = term * f[j]
        acc += term
    return acc


_UFUNCS = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide,
           "^": np.power}


def _split_values(node, coords):
    """A node of a split expression at the (t, m) coordinate arrays."""
    if isinstance(node, _OnPlane):
        return node.node.ev({node.name: coords[node.axis]})
    if isinstance(node, ex.BinOp):
        return _UFUNCS[node.op](_split_values(node.left, coords),
                                _split_values(node.right, coords))
    if isinstance(node, ex.Call):
        return ex._FUNCTIONS[node.fn](_split_values(node.arg, coords))
    return node.value


def _split_integral(node, coords, tw):
    """The t-integral of a split-expression node, in the kernel's order: it
    distributes over sums, differences and constant factors; a constant c
    integrates to c * sum(tw); a product of two non-constant factors is one
    t-sum of their products; any other node is evaluated, then t-summed."""
    if isinstance(node, ex.Num):
        return node.value * float(tw.sum())
    if isinstance(node, ex.BinOp):
        left, right = node.left, node.right
        if node.op in "+-":
            return _UFUNCS[node.op](_split_integral(left, coords, tw),
                                    _split_integral(right, coords, tw))
        if node.op in "*/" and isinstance(right, ex.Num):
            return _UFUNCS[node.op](_split_integral(left, coords, tw), right.value)
        if node.op == "*" and isinstance(left, ex.Num):
            return left.value * _split_integral(right, coords, tw)
        if node.op == "*":
            return _sum_over_t(tw, _split_values(left, coords),
                               _split_values(right, coords))
    return _sum_over_t(tw, _split_values(node, coords))


def _segment_points(pts, ys, tj, tw):
    """The ``SegmentPoints`` of the (m, n) batch ``pts`` on fresh sides."""
    return SegmentPoints(SegmentGeometry(x_side(np.ascontiguousarray(pts.T), tj),
                                         y_side(ys, tj)), tw)


def _field_integral(f, seg, tw):
    """The t-integral of field ``f`` at the fresh (t, m, n) segment array."""
    t, m, n = seg.shape
    if type(f) is ExprField:
        coords = [seg[:, :, i] for i in range(n)]
        return np.broadcast_to(_split_integral(f._split, coords, tw), (m,))
    if type(f) is LinearCombinationField:
        out = np.zeros(m)
        for c, g in f.terms:
            v = _field_integral(g, seg, tw)
            if c == 1.0:
                out += v
            elif c == -1.0:
                out -= v
            else:
                out += c * v
        return out
    return _sum_over_t(tw, f(seg.reshape(-1, n)).reshape(t, m))


# Reference y-loop of T in the kernel's order: fresh segment arrays, each
# component's t-integral (see ``forms._t_integral``), then the contraction
# with x - y.  The kernel's plane layout must match it bit for bit.
def _reference_T_coeffs(ev, pts):
    n, l = ev.u.dims, ev.u.degree
    out = np.zeros((num_components(n, l - 1), pts.shape[0]))
    for y, w in zip(ev.ys, ev.ws):
        seg = (ev.tj[:, None, None] * pts[None, :, :]
               + (1.0 - ev.tj)[:, None, None] * y[None, None, :])
        a = np.stack([_field_integral(f, seg, ev.tw) for f in ev.u.components])
        out += w * _signed_rows(n, l, a, (pts - y).T)
    return out


# The same y-loop in the kernel's former order: contract every t-sample,
# then sum over t.  Equal in exact arithmetic, so only rounding separates it.
def _contract_then_sum_T_coeffs(ev, pts):
    n, l = ev.u.dims, ev.u.degree
    out = np.zeros((num_components(n, l - 1), pts.shape[0]))
    for y, w in zip(ev.ys, ev.ws):
        c = _signed_rows(n, l, _segment_values(ev, pts, y), (pts - y).T[:, None, :])
        out += w * np.einsum("t,ctm->cm", ev.tw, c)
    return out


def _kernel_regions(n):
    """The regions of the kernel cases by kind; the kinds named after a
    y-node rule (``YNODE_RULES``) run on the box."""
    box = Box(np.zeros(n), np.ones(n))
    return {"box": box, "ball": Ball(np.full(n, 0.45), 0.35),
            **{f"box-{rule}": box for rule in YNODE_RULES}}


# A bump's y-nodes are lattice nodes, which share values on every axis.  The
# kernel compresses each coordinate plane over the distinct values of y_i,
# so it is also held to the reference on y-nodes that share no coordinate
# and on y-nodes that share values on the first axis only.
def _scattered_ys(n):
    return np.random.default_rng(10 + n).uniform(0.3, 0.7, (9, n))


def _one_axis_ys(n):
    ys = _scattered_ys(n)
    ys[:, 0] = ys[[0, 0, 0, 1, 1, 1, 2, 2, 2], 0]
    return ys


YNODE_RULES = {"scattered-ys": _scattered_ys, "one-axis-ys": _one_axis_ys}


@functools.lru_cache(maxsize=None)
def _kernel_forms(n):
    """Every corpus form of degree 1..n, d of a materialized Tu (spline
    partials) and a closed part u - T(du)."""
    forms = {e.id: e.form for e in build_corpus(dims=n, admit=False)
             if e.form is not None and e.form.degree >= 1}
    box = _kernel_regions(n)["box"]
    tu = apply_T(forms["poly-1form"], box, resolution=9)
    forms["d-materialized-Tu"] = materialize(tu, box, 6).d()
    forms["closed-part"] = closed_part(forms["poly-1form"],
                                       _kernel_regions(n)["ball"], resolution=9)
    return forms


KERNEL_CASES = [(n, kind, fid) for n in (2, 3) for kind in _kernel_regions(n)
                for fid in _kernel_forms(n)]


KERNEL_IDS = [f"{n}-{k}-{f}" for n, k, f in KERNEL_CASES]


def _random_points(region):
    c, n = region.centroid(), region.dims
    return c + 0.3 * region.inradius() * np.random.default_rng(n).uniform(
        -1.0, 1.0, (7, n))


def _kernel_case(dims, kind, fid):
    u = _kernel_forms(dims)[fid]
    region = _kernel_regions(dims)[kind]
    ev = apply_T(u, region, resolution=15).components[0].evaluator
    rule = kind.partition("-")[2]
    if rule:
        ys = YNODE_RULES[rule](dims)
        ws = np.random.default_rng(dims).uniform(0.5, 1.5, ys.shape[0])
        ev = _TuEvaluator(u, ys, ws / ws.sum())
        distinct = [np.unique(col).size for col in ys.T]
        assert distinct == [3 if rule == "one-axis-ys" else 9] + [9] * (dims - 1)
    assert ev.ys.shape[0] > 1  # the kernel adds several y-nodes' rows
    return ev, _random_points(region)


@pytest.mark.parametrize("dims,kind,fid", KERNEL_CASES, ids=KERNEL_IDS)
def test_T_kernel_bit_identical_to_reference_loop(dims, kind, fid):
    ev, pts = _kernel_case(dims, kind, fid)
    assert np.array_equal(ev.coeffs(pts), _reference_T_coeffs(ev, pts))


@pytest.mark.parametrize("dims,kind,fid", KERNEL_CASES, ids=KERNEL_IDS)
def test_T_kernel_close_to_contract_then_sum(dims, kind, fid):
    ev, pts = _kernel_case(dims, kind, fid)
    old = _contract_then_sum_T_coeffs(ev, pts)
    bound = 1e-13 * max(1.0, float(np.abs(old).max()))
    assert float(np.abs(ev.coeffs(pts) - old).max()) <= bound


# Lattice batches repeat coordinate values, so the kernel evaluates on
# compressed coordinate planes; random points (above) never repeat one.
def _linspace_grid(region, res):
    """The uniform grid of ``materialize`` over the region's bounding box."""
    lo, hi = region.bounding_box()
    axes = [np.linspace(lo[i], hi[i], res) for i in range(region.dims)]
    return np.stack([g.reshape(-1) for g in np.meshgrid(*axes, indexing="ij")],
                    axis=1)


def _one_coordinate_repeats(region):
    pts = _random_points(region)
    pts[:, 0] = pts[[0, 0, 0, 1, 1, 2, 2], 0]
    return pts


LATTICE_BATCHES = {
    "quadrature": lambda region: region.quadrature(5).points,
    "linspace": lambda region: _linspace_grid(region, 4),
    "one-coordinate-repeats": _one_coordinate_repeats,
    "single-point": lambda region: region.centroid().reshape(1, -1) + 0.01,
}


@pytest.mark.parametrize("batch", sorted(LATTICE_BATCHES))
@pytest.mark.parametrize("dims,kind,fid", KERNEL_CASES, ids=KERNEL_IDS)
def test_T_kernel_bit_identical_on_lattice_batches(dims, kind, fid, batch):
    ev, _ = _kernel_case(dims, kind, fid)
    pts = LATTICE_BATCHES[batch](_kernel_regions(dims)[kind])
    distinct = [np.unique(col).size for col in pts.T]
    if batch == "one-coordinate-repeats":
        assert distinct[0] < pts.shape[0] == min(distinct[1:])
    elif batch != "single-point":
        assert max(distinct) < pts.shape[0]
    assert np.array_equal(ev.coeffs(pts), _reference_T_coeffs(ev, pts))


# The kernel is pointwise: a point's value does not depend on the other
# points of its batch, not even where a part of the batch is a single point
# or holds one distinct value of a coordinate.
POINTWISE_BATCHES = {"linspace": lambda region: _linspace_grid(region, 4),
                     "random": _random_points}


@pytest.mark.parametrize("batch", sorted(POINTWISE_BATCHES))
@pytest.mark.parametrize("dims,kind,fid", KERNEL_CASES, ids=KERNEL_IDS)
def test_T_kernel_is_pointwise(dims, kind, fid, batch):
    ev, _ = _kernel_case(dims, kind, fid)
    pts = POINTWISE_BATCHES[batch](_kernel_regions(dims)[kind])
    whole = ev.coeffs(pts)
    for k in (1, pts.shape[0] // 2, pts.shape[0] - 1):
        halves = np.concatenate([ev.coeffs(pts[:k]), ev.coeffs(pts[k:])], axis=1)
        assert np.array_equal(whole, halves), k


def _componentwise_partial(u, k):
    return DifferentialForm(u.dims, u.degree,
                            tuple(f.partial(k) for f in u.components))


# The kernel runs the work that expands to the batch points over parts of
# the y-nodes, and a spline over parts of its rows, sized by
# forms.CHUNK_VALUES.  The parts must not show in the bits: one y-node per
# part and one row per spline part, and everything in one part, both match
# the reference loop.
@functools.lru_cache(maxsize=None)
def _chunk_forms(n):
    """The kernel forms, a 1-form of products of two one-coordinate leaves
    (on every axis pair, t-summed on their pair box on a lattice batch), and
    the componentwise partial along x_n of each but the closed part;
    d-materialized-Tu.dn is a spline partial chain."""
    products = ("x1*cos(pi*x2)", "sin(x1)*(x2^2 + 1)", "x1*exp(x2)")
    if n == 3:
        products = ("x1*cos(pi*x2)", "sin(x3)*(x1^2 + 1)", "x2*exp(x3)")
    forms = dict(_kernel_forms(n), **{"leaf-products": DifferentialForm(
        n, 1, products[:n])})
    for fid, u in list(forms.items()):
        if fid != "closed-part":
            forms[f"{fid}.d{n}"] = _componentwise_partial(u, n)
    return forms


CHUNK_BATCHES = {"lattice": lambda region: region.quadrature(5).points,
                 "scattered": _random_points,
                 "single-point": lambda region: region.centroid().reshape(1, -1) + 0.01}
CHUNK_CASES = [(n, fid, batch) for n in (2, 3) for fid in _chunk_forms(n)
               for batch in sorted(CHUNK_BATCHES)]


@pytest.mark.parametrize("dims,fid,batch", CHUNK_CASES,
                         ids=[f"{n}-{f}-{b}" for n, f, b in CHUNK_CASES])
def test_T_kernel_bit_equal_for_any_chunk_budget(dims, fid, batch, monkeypatch):
    u = _chunk_forms(dims)[fid]
    ev = apply_T(u, BOXES[dims], resolution=15).components[0].evaluator
    pts = CHUNK_BATCHES[batch](BOXES[dims])
    ref = _reference_T_coeffs(ev, pts)
    whole = 4 ** dims * ev.ys.shape[0] * ev.tj.size * pts.shape[0] + 1
    assert ev.ys.shape[0] > 1
    for budget in (1, whole):
        monkeypatch.setattr(forms_module, "CHUNK_VALUES", budget)
        assert np.array_equal(ev.coeffs(pts), ref), budget


# The kernel adds the y-nodes' rows in y order in one einsum.  It keeps the
# bits of the loop over the y-nodes where a batch has one point (einsum sums
# a lone column in another order) and where there is one y-node.
@pytest.mark.parametrize("ynodes, m", [(1, 7), (9, 1), (1, 1), (9, 7)])
def test_y_node_sum_bit_equal_to_the_loop_over_y_nodes(ynodes, m):
    rng = np.random.default_rng(10 * ynodes + m)
    c = rng.normal(size=(3, ynodes, m))
    ws = rng.uniform(0.5, 1.5, ynodes)
    ws /= ws.sum()
    loop = np.zeros((3, m))
    for k, w in enumerate(ws):
        loop += w * c[:, k]
    assert forms_module._ordered_sum("k,ckm->cm", ws, c).tobytes() == loop.tobytes()
    ev = _TuEvaluator(_kernel_forms(2)["poly-1form"], _scattered_ys(2)[:ynodes], ws)
    pts = _random_points(BOX)[:m]
    assert ev.coeffs(pts).tobytes() == _reference_T_coeffs(ev, pts).tobytes()


def _counting_leaves(node, seen):
    """``node``, a node of a split expression, with each one-coordinate leaf
    recording (axis, shape of its coordinate values) in ``seen``."""
    class Counting:
        def __init__(self, leaf):
            self.leaf = leaf

        def ev(self, env):
            seen.append((self.leaf.axis, env[self.leaf.name].shape))
            return self.leaf.node.ev(env)

    if isinstance(node, _OnPlane):
        return _OnPlane(node.axis, node.name, Counting(node))
    if isinstance(node, ex.BinOp):
        return ex.BinOp(node.op, _counting_leaves(node.left, seen),
                        _counting_leaves(node.right, seen))
    if isinstance(node, ex.Call):
        return ex.Call(node.fn, _counting_leaves(node.arg, seen))
    return node


# A leaf depends on the y-nodes only through its coordinate y_i, so it is
# evaluated once per distinct value of y_i: on a ball of the norm sweep
# (resolution 21), 5 values per axis for 21 y-nodes.
def test_T_kernel_evaluates_each_leaf_once_per_distinct_y_value(monkeypatch):
    spec = OscillationNormSpec(kind="bmo", ball_count=24)
    ball = ball_family(default_domain(2), 24, spec.radius_fraction, expansion=spec.sigma)[0]
    u = DifferentialForm(2, 1, ("0.7*sin(pi*x2) + 1.2*x1*cos(pi*x2)",
                                "-0.9*cos(pi*x1) + 1.1*x1*x2^2"))
    du = u.d()
    ev = apply_T(du, ball, resolution=21).components[0].evaluator
    pts = ball.quadrature(21).points
    assert ev.ys.shape[0] == 21 and [np.unique(col).size for col in ev.ys.T] == [5, 5]
    widths = [np.unique(col).size for col in pts.T]
    seen = []
    for _, f in du.components[0].terms:
        monkeypatch.setattr(f, "_split", _counting_leaves(f._split, seen))
    ev.coeffs(pts)
    assert len(seen) >= 4
    assert sum(int(np.prod(shape)) for _, shape in seen) == sum(
        5 * T_NODES * widths[axis] for axis, _ in seen)


# The default bump keeps the segment geometry of its rule's own nodes, its
# x-side, y-side and planes, and every form and degree whose T is evaluated
# on that node array reads it; any other batch gets a fresh x-side on the
# bump's kept y-side.  The bits are those of fresh segment points.
@pytest.mark.parametrize("dims,kind,res", [(2, "box", 15), (2, "ball", 15),
                                           (3, "box", 12), (3, "ball", 11)])
def test_T_at_the_rule_nodes_bit_equal_on_the_shared_geometry(dims, kind, res, monkeypatch):
    boxes = []
    box_integral = forms_module._box_integral
    monkeypatch.setattr(forms_module, "_box_integral",
                        lambda *args: boxes.append(1) or box_integral(*args))
    region = _kernel_regions(dims)[kind]
    nodes = region.quadrature(res).points
    forms = {fid: u for fid, u in _kernel_forms(dims).items() if fid != "closed-part"}
    assert {u.degree for u in forms.values()} == set(range(1, dims + 1))
    geometry = None
    for fid in [*forms, next(iter(forms))]:  # the first again after all the others
        ev = apply_T(forms[fid], region, resolution=res).components[0].evaluator
        got = ev.coeffs(nodes)
        geometry = geometry or ev.shared.node_geometry
        assert ev.shared.node_geometry is geometry and ev.ys.shape[0] > 1
        want = _TuEvaluator(forms[fid], ev.ys, ev.ws).coeffs(nodes)
        assert got.tobytes() == want.tobytes(), fid
    assert all(plane is not None for plane in geometry.planes) and boxes


def _counting_sides(monkeypatch):
    """Count the x-sides and y-sides the kernel builds."""
    built = collections.Counter()
    for name in ("x_side", "y_side"):
        def counting(cols, tj, _side=getattr(homotopy, name), _name=name):
            built[_name] += 1
            return _side(cols, tj)
        monkeypatch.setattr(homotopy, name, counting)
    return built


def _sweep_family():
    spec = OscillationNormSpec(kind="bmo", ball_count=24)
    return ball_family(default_domain(2), 24, spec.radius_fraction, expansion=spec.sigma)


def _sweep_forms():
    return [DifferentialForm(2, 1, (f"{a}*x2^3 + x1^2*x2", f"x1^3 - {a}*x1*x2"))
            for a in (0.5, 1.5)] + [
            DifferentialForm(2, 1, (f"{a}*sin(pi*x2) + x1*cos(pi*x2)", f"cos(pi*x1) + {a}*x2"))
            for a in (0.5, 1.5)] + [named_form(f"corpus:{eid}", 2) for eid in (
                "poly-closed-1form", "trig-closed-1form", "poly-1form", "mixed-1form")]


def test_closed_parts_build_one_x_side_per_ball(monkeypatch):
    balls, forms = _sweep_family(), _sweep_forms()
    built = _counting_sides(monkeypatch)
    for u in forms:
        oscillation_residuals(u, balls, ball_resolution=21)
    assert len(forms) == 8 and len(balls) == 24
    assert built == {"x_side": 24, "y_side": 24}  # not 192 of each


def test_explicit_bump_and_other_batches_build_fresh_sides(monkeypatch):
    ball, res = Ball([0.5, 0.5], 0.2), 15
    nodes = ball.quadrature(res).points
    u = named_form("corpus:trig-1form", 2)
    built = _counting_sides(monkeypatch)
    psi = BumpFunction(ball, resolution=res)
    tu = apply_T(u, ball, bump=psi)
    for _ in range(2):
        tu.evaluate(nodes)
    assert built == {"x_side": 2, "y_side": 2}
    assert "yside" not in vars(psi) and "node_geometry" not in vars(psi)
    built.clear()
    tu = apply_T(u, ball, resolution=res)
    for pts in (nodes.copy(), _random_points(ball), nodes[:7]):
        tu.evaluate(pts)
    assert built == {"x_side": 3, "y_side": 1}
    assert "node_geometry" not in vars(tu.components[0].evaluator.shared)


def test_shared_geometry_memory_of_a_ball_family():
    # what a family keeps after one form's closed parts: per ball at
    # resolution 21, its bump with the x-side of the rule's 311 nodes, the
    # y-side of its 21 y-nodes and two (5, 32, 21) planes, 72 kB measured
    balls, u = _sweep_family(), _sweep_forms()[0]
    for ball in balls:
        ball.quadrature(21)
    oscillation_residuals(_sweep_forms()[1], balls[:1], ball_resolution=21)  # warm-up
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        oscillation_residuals(u, balls, ball_resolution=21)
        kept = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert kept <= 24 * 96_000


# Only the (., Y, m) blocks of the kernel grow with the y-node count Y: the
# C t-integrals, x - y, the contraction and its one product row.  Every
# array that expands to the points is held to a part of the y-nodes.
@pytest.mark.parametrize("batch", ["lattice", "scattered"])
def test_T_kernel_memory_grows_only_by_its_block_arrays(batch):
    tu = materialize(apply_T(named_form("corpus:poly-1form", 2), BOX, resolution=9),
                     BOX, 6)
    u = DifferentialForm(2, 1, (tu.components[0].partial(1), "x1*sin(pi*x2) + x2^2"))
    if batch == "lattice":
        axis = np.linspace(0.05, 0.95, 45)
        pts = np.stack([g.reshape(-1) for g in np.meshgrid(axis, axis, indexing="ij")],
                       axis=1)
    else:
        pts = np.random.default_rng(1).uniform(0.05, 0.95, (2025, 2))
    rng = np.random.default_rng(0)

    def peak(ynodes):
        ys = rng.uniform(0.3, 0.7, (ynodes, 2))
        ev = _TuEvaluator(u, ys, np.full(ynodes, 1.0 / ynodes))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            ev.coeffs(pts)
            return tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()

    m, ynodes = pts.shape[0], 16
    blocks = 2 + 2 + 1 + 1  # t-integrals, x - y, contraction, product row
    assert peak(2 * ynodes) - peak(ynodes) <= 8 * ynodes * m * blocks


# A GridField takes its spline basis on parts of the rows of a batch's
# planes, so a scattered batch, whose planes are as wide as the batch, holds
# no basis of a whole part of the y-nodes.
def test_grid_field_basis_memory_on_a_scattered_batch(monkeypatch):
    axis = np.linspace(0.0, 1.0, 27)
    f = forms_module.GridField([axis, axis], np.random.default_rng(0).random((27, 27)))
    pts = np.random.default_rng(1).uniform(0.05, 0.95, (2025, 2))
    ys = np.random.default_rng(2).uniform(0.3, 0.7, (16, 2))
    tj, tw = _t_rule(1)

    def integral():
        return _t_integral(f, _segment_points(pts, ys, tj, tw))

    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        got = integral()
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 6e6
    monkeypatch.setattr(forms_module, "CHUNK_VALUES", 10 ** 9)  # one part
    assert got.tobytes() == integral().tobytes()


@settings(max_examples=20, deadline=None, derandomize=True)
@given(data=st.data())
def test_T_kernel_bit_identical_on_random_lattice_subsets(data):
    dims = data.draw(st.sampled_from((2, 3)), label="dims")
    kind = data.draw(st.sampled_from(("box", "ball")), label="kind")
    corpus = {e.id: e.form for e in build_corpus(dims=dims, admit=False)
              if e.form is not None and e.form.degree >= 1}
    u = corpus[data.draw(st.sampled_from(sorted(corpus)), label="form")]
    axis = data.draw(st.sampled_from((None,) + tuple(range(1, dims + 1))),
                     label="partial")
    if axis is not None:
        u = _componentwise_partial(u, axis)
    region = _kernel_regions(dims)[kind]
    ev = apply_T(u, region, resolution=15).components[0].evaluator
    lattice = _linspace_grid(region, 4)
    keep = data.draw(st.sets(st.integers(0, lattice.shape[0] - 1), min_size=1),
                     label="subset")
    pts = lattice[sorted(keep)]
    assert np.array_equal(ev.coeffs(pts), _reference_T_coeffs(ev, pts))


# (call, expected shape, actual shape) as the error message names them
MISSHAPED = {
    "two-x-points": (lambda u, tu: apply_Ky(u, [0.2, 0.3], [[0.6, 0.7], [0.5, 0.5]]),
                     "(1, 2)", "(2, 2)"),
    "y-of-three-coordinates": (lambda u, tu: apply_Ky(u, [0.2, 0.3, 0.4], [0.6, 0.7]),
                               "(1, 2)", "(3,)"),
    "Tu-on-three-coordinates": (lambda u, tu: tu.components[0](np.array([[0.3, 0.4, 0.5]])),
                                "(m, 2)", "(1, 3)"),
}


@pytest.mark.parametrize("case", sorted(MISSHAPED))
def test_kernel_rejects_misshaped_points(case):
    call, expected, actual = MISSHAPED[case]
    u = named_form("corpus:poly-1form", 2)
    tu = apply_T(u, BOX, resolution=11)
    with pytest.raises(InvalidInputError) as info:
        call(u, tu)
    assert expected in str(info.value) and f"got shape {actual}" in str(info.value)
    assert isinstance(info.value, ValueError)


def test_Tu_of_an_empty_batch_is_empty():
    tu = apply_T(named_form("corpus:trig-1form", 2), BOX, resolution=11)
    assert tu.components[0](np.zeros((0, 2))).shape == (0,)
    # every path that sizes its parts of the y-nodes by the batch: a
    # one-coordinate leaf, a product, a field at the segment array, a spline
    for fid in ("trig-closed-1form", "bump-1form", "d-materialized-Tu"):
        ev = apply_T(_kernel_forms(2)[fid], BOX, resolution=11).components[0].evaluator
        assert ev.coeffs(np.zeros((0, 2))).shape == (1, 0)
    spline = _kernel_forms(2)["d-materialized-Tu"].components[0]
    assert spline(np.zeros((0, 2))).shape == (0,)


def test_kernel_takes_a_point_as_a_vector_or_a_row():
    u = named_form("corpus:mixed-1form", 2)
    a = apply_Ky(u, np.array([0.2, 0.3]), np.array([0.6, 0.7])).coeffs
    b = apply_Ky(u, np.array([[0.2, 0.3]]), np.array([[0.6, 0.7]])).coeffs
    assert np.array_equal(a, b)


def test_Tu_components_return_fresh_arrays():
    tu = apply_T(named_form("corpus:poly-1form", 2), BOX, resolution=11)
    pts = np.array([[0.3, 0.4], [0.7, 0.6], [0.5, 0.9]])
    first = tu.components[0](pts)
    want = first.copy()
    first += 100.0
    again = tu.components[0](pts)
    np.testing.assert_array_equal(again, want)
    assert not np.shares_memory(again, tu.components[0](pts))


def test_bump_is_normalized_and_supported_inside():
    psi = BumpFunction(BOX)
    quad = BOX.quadrature(81)
    mass = float(np.dot(quad.weights, psi(quad.points)))
    assert mass == pytest.approx(1.0, rel=0.02)
    # vanishes at the boundary
    edge = np.array([[0.0, 0.5], [1.0, 0.5], [0.5, 0.0], [0.5, 1.0]])
    np.testing.assert_allclose(psi(edge), 0.0, atol=1e-12)


def _reference_y_rule(region, bump, resolution):
    """T's y-rule as separate arithmetic: quadrature weight times the bump on
    the region's nodes, restricted to where it is positive, normalized."""
    quad = region.quadrature(resolution)
    w = quad.weights * bump(quad.points)
    keep = w > 0
    ws = w[keep]
    return quad.points[keep], ws / ws.sum()


@pytest.mark.parametrize("resolution", [7, 9, 15, 27])
@pytest.mark.parametrize("region", [BOX, BOXES[3], Ball([0.4, 0.6], 0.3),
                                    Ball([0.5, 0.5, 0.5], 0.4)],
                         ids=["box2", "box3", "ball2", "ball3"])
def test_bump_y_rule_bit_equal_to_reference(region, resolution):
    psi = BumpFunction(region, resolution=resolution)
    ys, ws = _reference_y_rule(region, psi, resolution)
    assert np.array_equal(psi.ys, ys) and np.array_equal(psi.ws, ws)
    for arr in (psi.ys, psi.ws):
        assert not arr.flags.writeable


def test_bump_profile_evaluated_once_per_bump(monkeypatch):
    calls = []
    call = forms_module.BumpField.__call__

    def counting(self, points):
        calls.append(len(points))
        return call(self, points)

    monkeypatch.setattr(forms_module.BumpField, "__call__", counting)
    ball = Ball([0.5, 0.5], 0.4)
    u = named_form("corpus:poly-1form", 2)
    psi = BumpFunction(ball, resolution=15)
    apply_T(u, ball, bump=psi)
    for _ in range(2):  # the default bump is built on the first call only
        apply_T(u, ball, resolution=9)
    assert calls == [len(ball.quadrature(15).points), len(ball.quadrature(9).points)]


def test_explicit_bump_keeps_its_own_rule():
    psi = BumpFunction(BOX, resolution=15)
    u = named_form("corpus:poly-1form", 2)
    for resolution in (9, 15, 27):
        ev = apply_T(u, BOX, bump=psi, resolution=resolution).components[0].evaluator
        assert ev.ys is psi.ys and ev.ws is psi.ws


def test_explicit_bump_must_lie_inside_the_region():
    ball = Ball([0.45, 0.45], 0.15)
    # built on the box, its support (radius 0.125 about the centre) is partly
    # outside the ball
    psi = BumpFunction(BOX, resolution=15)
    inner = BumpFunction(BOX, center=[0.5, 0.5], radius=0.05, resolution=15)
    u = named_form("corpus:poly-1form", 2)
    with pytest.raises(InvalidInputError):
        apply_T(u, ball, bump=psi, resolution=15)
    with pytest.raises(InvalidInputError):
        closed_part(u, ball, psi, resolution=15)
    ev = apply_T(u, ball, bump=inner).components[0].evaluator
    assert ev.ys is inner.ys


def test_apply_T_lowers_degree():
    u = named_form("corpus:poly-1form", 2)
    assert apply_T(u, BOX, resolution=11).degree == 0
    with pytest.raises(DegreeError):
        apply_T(named_form("poly:x1", 2), BOX, resolution=11)


def test_apply_T_is_linear():
    a = named_form("oneform:x2,0", 2)
    b = named_form("oneform:0,x1^2", 2)
    combo = named_form("oneform:3*x2,2*x1^2", 2)
    pts = np.array([[0.3, 0.4], [0.7, 0.6], [0.5, 0.9]])
    ta = apply_T(a, BOX, resolution=11)
    tb = apply_T(b, BOX, resolution=11)
    tc = apply_T(combo, BOX, resolution=11)
    for p in pts:
        want = 3.0 * ta.value_at(p).coeffs + 2.0 * tb.value_at(p).coeffs
        np.testing.assert_allclose(tc.value_at(p).coeffs, want, atol=1e-12)


def test_decomposition_residual_small_on_smooth_oneform():
    u = named_form("corpus:poly-1form", 2)
    assert decomposition_residual(u, BOX, resolution=21) < 1e-3


def test_decomposition_residual_decreases_with_resolution():
    u = named_form("corpus:mixed-1form", 2)
    coarse = decomposition_residual(u, BOX, resolution=21)
    fine = decomposition_residual(u, BOX, resolution=42)
    assert fine < coarse


CLOSED_ENTRIES = [(n, e.id) for n in (2, 3)
                  for e in build_corpus(dims=n, admit=False)
                  if e.form is not None and (e.has("closed") or e.has("top"))]


@pytest.mark.parametrize("dims,eid", CLOSED_ENTRIES,
                         ids=[f"{n}-{eid}" for n, eid in CLOSED_ENTRIES])
def test_closed_form_reproduced_by_closed_part(dims, eid):
    # du = 0, so u_B = u - T(du) is u itself: exactly, not up to FD noise
    u = named_form(f"corpus:{eid}", dims)
    ball = Ball(np.full(dims, 0.45), 0.3)
    gap = (u - closed_part(u, ball, resolution=9)).modulus_values(
        ball.quadrature(9).points)
    assert np.all(gap == 0.0)


# The t-integrals of the components of du cancel exactly for a closed form:
# each component subtracts two t-integrals with the same bits.  This is what
# makes the oscillation norms of a closed form exactly 0.
CLOSED_NOT_TOP = [(n, eid) for n, eid in CLOSED_ENTRIES
                  if named_form(f"corpus:{eid}", n).degree < n]


@pytest.mark.parametrize("dims,eid", CLOSED_NOT_TOP,
                         ids=[f"{n}-{eid}" for n, eid in CLOSED_NOT_TOP])
def test_du_of_closed_form_t_integrates_to_zero(dims, eid):
    du = named_form(f"corpus:{eid}", dims).d()
    assert any(type(f) is LinearCombinationField for f in du.components)
    ball = Ball(np.full(dims, 0.45), 0.3)
    pts = ball.quadrature(9).points
    tj, tw = _t_rule(du.degree)
    ys = ball.quadrature(5).points
    seg = _segment_points(pts, ys, tj, tw)
    for f in du.components:
        got = _t_integral(f, seg)
        assert got.shape == (ys.shape[0], pts.shape[0]) and np.all(got == 0.0)


@pytest.mark.parametrize("dims,eid", [(2, "poly-1form"), (2, "radial-1form"),
                                      (3, "poly-2form")])
def test_closed_part_matches_d_of_T(dims, eid):
    # the decomposition equates u - T(du) with d(Tu); check it against a
    # finite-difference d of the quadrature-defined Tu
    u = named_form(f"corpus:{eid}", dims)
    ball = Ball(np.full(dims, 0.45), 0.3)
    ref = apply_T(u, ball, resolution=11).d(fd_step=FD_SCALE * ball.diameter())
    pts = Ball(ball.center, 0.5 * ball.radius).quadrature(7).points
    got = closed_part(u, ball, resolution=11).evaluate(pts)
    want = ref.evaluate(pts)
    assert np.max(np.abs(got - want)) <= 1e-6 * np.max(np.abs(want))


# closed_part_values forms u_B from u's values at the nodes; in every degree
# and region it gives the bytes of the closed part's components
CLOSED_VALUE_CASES = [(n, kind, e.id) for n in (2, 3) for kind in ("box", "ball")
                      for e in build_corpus(dims=n, admit=False) if e.form is not None]


@pytest.mark.parametrize("dims,kind,eid", CLOSED_VALUE_CASES,
                         ids=[f"{n}-{k}-{eid}" for n, k, eid in CLOSED_VALUE_CASES])
def test_closed_part_values_bit_equal_to_closed_part(dims, kind, eid):
    u = named_form(f"corpus:{eid}", dims)
    region = _kernel_regions(dims)[kind]
    quad = region.quadrature(9)
    got = closed_part_values(u, region, quad, u.evaluate(quad.points), resolution=9)
    u_b = closed_part(u, region, resolution=9)
    for want in (u_b.evaluate(quad.points),
                 np.stack([f(quad.points) for f in u_b.components])):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_closed_part_values_cover_every_degree():
    degrees = {(n, named_form(f"corpus:{eid}", n).degree)
               for n, _, eid in CLOSED_VALUE_CASES}
    assert degrees == {(n, l) for n in (2, 3) for l in range(n + 1)}


def test_decomposition_residual_is_u_minus_the_reconstruction():
    # T(du) comes from one kernel call; the residual keeps the bits of the
    # form expression it stands for, here on a 3-D 2-form
    u, region, res = named_form("corpus:poly-2form", 3), BOXES[3], 11
    tu = apply_T(u, region, resolution=res)
    tdu = apply_T(u.d(fd_step=FD_SCALE * region.diameter()), region, resolution=res)
    h = homotopy.RESIDUAL_FD_COEFFICIENT * region.diameter() / res
    pts = homotopy._test_lattice(region, homotopy.RESIDUAL_TEST_RESOLUTION)
    want = float((u - (tu.d(fd_step=h) + tdu)).modulus_values(pts).max())
    assert decomposition_residual(u, region, resolution=res) == want


def test_fd_derivative_of_Tu_runs_the_kernel_twice_per_axis(monkeypatch):
    # d(Tu) of a 3-D 2-form has three components of two finite-difference
    # terms each; its evaluate runs the kernel at the lattice shifted -+ h
    # along each axis (6 calls, not 12) and keeps the bits of evaluating
    # every component on its own
    u, region, res = named_form("corpus:poly-2form", 3), BOXES[3], 11
    dtu = apply_T(u, region, resolution=res).d(fd_step=1e-3)
    pts = homotopy._test_lattice(region, 5)
    want = np.stack([f(pts) for f in dtu.components])
    calls = []
    contract = homotopy.contract_coeffs

    def counting(*args):
        calls.append(args)
        return contract(*args)

    monkeypatch.setattr(homotopy, "contract_coeffs", counting)
    assert dtu.evaluate(pts).tobytes() == want.tobytes()
    assert len(calls) == 6
    calls.clear()
    decomposition_residual(u, region, resolution=res)
    assert len(calls) == 7  # 6 for d(Tu), 1 for T(du)


def test_closed_part_of_scalar_is_the_mean():
    cp = closed_part(named_form("poly:x1", 2), BOX)
    for p in ([0.3, 0.3], [0.8, 0.1]):
        assert cp.value_at(np.array(p)).coeffs[0] == pytest.approx(0.5, abs=1e-9)


def test_closed_part_of_zero_mean_scalar_vanishes():
    u = named_form("corpus:zeromean-0form", 2)
    cp = closed_part(u, BOX)
    assert abs(cp.value_at(np.array([0.4, 0.9])).coeffs[0]) < 1e-9
