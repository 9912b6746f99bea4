"""Differential-form fields: d, star, codifferential, evaluation."""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import NdBSpline, make_interp_spline

from orliczforms import (Box, DifferentialForm, apply_T, build_corpus,
                         check_analytic_partials, codifferential, evaluate,
                         materialize, named_form)
from orliczforms.errors import (DegreeError, InvalidInputError,
                                OutOfDomainError)
from orliczforms import expressions as ex
from orliczforms import forms
from orliczforms.forms import (BumpField, CallableField, ConstantField, ExprField,
                               FDPartialField, GridField, LinearCombinationField,
                               RadialPowerField, SegmentGeometry, SegmentPoints, _OnPlane,
                               _points_for, _pts, _t_integral, x_side, y_side)
from orliczforms.homotopy import T_NODES, _t_rule


def oneform(*components, dims=2):
    return DifferentialForm.from_components(
        dims, 1, {(i + 1,): c for i, c in enumerate(components)})


def grid_points(box, res):
    axes = [np.linspace(lo, hi, res) for lo, hi in zip(*box.bounding_box())]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def interior_points(box, res):
    pts = grid_points(box, res)
    c = np.asarray(box.centroid())
    return c + 0.8 * (pts - c)


# ---------------------------------------------------------------- d and dd

def test_d_of_scalar_is_gradient():
    u = named_form("poly:x1^2*x2", 2)
    du = u.d()
    pts = np.array([[0.3, 0.5], [0.7, 0.2]])
    for p in pts:
        v = du.value_at(p)
        np.testing.assert_allclose(v.coeffs, [2 * p[0] * p[1], p[0] ** 2],
                                   rtol=1e-12)


def test_dd_zero_analytic_is_exact():
    u = named_form("poly:x1^3*x2 + sin(pi*x1)*x2^2", 2)
    ddu = u.d().d()
    pts = interior_points(Box([0, 0], [1, 1]), 9)
    vals = ddu.modulus_values(pts)
    assert float(np.max(vals)) == 0.0


def test_dd_zero_analytic_3d_oneform():
    u = DifferentialForm.from_components(3, 1, {
        (1,): ExprField("x2*x3", 3),
        (2,): ExprField("x1^2", 3),
        (3,): ExprField("sin(pi*x2)", 3)})
    ddu = u.d().d()
    pts = interior_points(Box([0, 0, 0], [1, 1, 1]), 5)
    assert float(np.max(ddu.modulus_values(pts))) == 0.0


def test_dd_small_for_finite_difference_fields():
    # FD-backed component: dd falls back to stencils and only approximately
    # vanishes
    u = DifferentialForm.from_components(
        2, 0, {(): BumpField(np.array([0.5, 0.5]), 0.35)})
    ddu = u.d(fd_step=1e-4).d(fd_step=1e-4)
    pts = interior_points(Box([0, 0], [1, 1]), 7)
    assert float(np.max(ddu.modulus_values(pts))) < 1e-6


def test_d_of_top_degree_rejected():
    top = named_form("corpus:poly-top-form", 2)
    with pytest.raises(DegreeError):
        top.d()


def test_d_lowers_to_curl_convention():
    # d(u1 dx1 + u2 dx2) = (d1 u2 - d2 u1) dx12
    u = oneform(ExprField("x2^3", 2), ExprField("x1*x2", 2))
    du = u.d()
    p = np.array([0.4, 0.8])
    want = p[1] - 3 * p[1] ** 2
    assert du.value_at(p).coeffs[0] == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------- star

def test_star_rotates_basis_oneforms_in_2d():
    u = oneform(ConstantField(1.0), ConstantField(0.0))
    su = u.star()
    p = np.array([0.3, 0.3])
    np.testing.assert_allclose(su.value_at(p).coeffs, [0.0, 1.0], atol=1e-15)


def test_double_star_matches_sign_law_on_fields():
    u = oneform(ExprField("x1", 2), ExprField("x2^2", 2))
    ss = u.star().star()
    p = np.array([0.6, 0.9])
    np.testing.assert_allclose(ss.value_at(p).coeffs, -u.value_at(p).coeffs,
                               rtol=1e-14)


# ---------------------------------------------------------------- codifferential

def test_codifferential_of_harmonic_pair_matches_du():
    # v = 2 x1 x2 dx12 has codifferential equal to d(x1^2 - x2^2) exactly
    u = named_form("poly:x1^2 - x2^2", 2)
    v = DifferentialForm.from_components(2, 2, {(1, 2): ExprField("2*x1*x2", 2)})
    du = u.d()
    dv = codifferential(v)
    pts = interior_points(Box([0, 0], [1, 1]), 9)
    diff = np.stack([du.value_at(p).coeffs - dv.value_at(p).coeffs for p in pts])
    assert float(np.max(np.abs(diff))) == 0.0


def test_codifferential_rejects_scalars():
    u = named_form("poly:x1", 2)
    with pytest.raises(DegreeError):
        codifferential(u)


def test_codifferential_lowers_degree():
    v = DifferentialForm.from_components(2, 2, {(1, 2): ExprField("x1^2", 2)})
    assert codifferential(v).degree == 1


# ---------------------------------------------------------------- evaluation

def test_evaluate_checks_domain_membership():
    box = Box([0, 0], [1, 1])
    u = named_form("poly:x1 + x2", 2)
    val = evaluate(u, box, np.array([0.25, 0.25]))
    assert val.coeffs[0] == pytest.approx(0.5)
    with pytest.raises(OutOfDomainError):
        evaluate(u, box, np.array([1.5, 0.5]))


def test_modulus_values_batch():
    u = oneform(ExprField("x1", 2), ExprField("x2", 2))
    pts = np.array([[3.0, 4.0], [1.0, 0.0]])
    np.testing.assert_allclose(u.modulus_values(pts), [5.0, 1.0], rtol=1e-14)


def test_from_components_validates_indices():
    with pytest.raises(InvalidInputError):
        DifferentialForm.from_components(2, 1, {(3,): ConstantField(1.0)})


# ---------------------------------------------------------------- materialize

def test_materialize_interpolates_smooth_fields():
    box = Box([0, 0], [1, 1])
    u = named_form("poly:sin(pi*x1)*x2", 2)
    grid = materialize(u, box, 41)
    assert isinstance(grid.components[0], GridField)
    pts = interior_points(box, 13)
    err = np.max(np.abs(grid.modulus_values(pts) - u.modulus_values(pts)))
    assert err < 1e-5


def test_materialize_error_shrinks_with_resolution():
    box = Box([0, 0], [1, 1])
    u = named_form("poly:sin(pi*x1)*cos(pi*x2)", 2)
    pts = interior_points(box, 13)
    errs = []
    for res in (11, 81):
        grid = materialize(u, box, res)
        errs.append(float(np.max(np.abs(
            grid.modulus_values(pts) - u.modulus_values(pts)))))
    assert errs[1] < errs[0] / 10.0
    assert errs[1] < 1e-5


# ---------------------------------------------------------------- spline partials

def _cubic_grid_field(res):
    axes = [np.linspace(0.0, 1.0, res)] * 2
    x1, x2 = np.meshgrid(*axes, indexing="ij")
    return GridField(axes, x1 ** 3 - 2.0 * x1 ** 2 * x2 + x2 ** 3 + x1 * x2)


def test_grid_field_partials_reproduce_cubic_derivatives():
    # a not-a-knot cubic spline of a cubic is the cubic itself, and the
    # per-axis solves that build it are exact to rounding, so the check
    # isolates the derivative
    f = _cubic_grid_field(5)
    pts = np.random.default_rng(0).random((40, 2))
    x1, x2 = pts[:, 0], pts[:, 1]
    for got, want in ((f.partial(1), 3.0 * x1 ** 2 - 4.0 * x1 * x2 + x2),
                      (f.partial(2), -2.0 * x1 ** 2 + 3.0 * x2 ** 2 + x1),
                      (f.partial(1).partial(2), 1.0 - 4.0 * x1)):
        np.testing.assert_allclose(got(pts), want, rtol=0.0, atol=1e-10)


def test_grid_field_partial_matches_central_differences():
    box = Box([0, 0], [1, 1])
    f = materialize(named_form("poly:sin(pi*x1)*cos(pi*x2)", 2), box, 21).components[0]
    pts = interior_points(box, 9)
    for k in (1, 2):
        h = np.zeros(2)
        h[k - 1] = 1e-4
        fd = (f(pts + h) - f(pts - h)) / 2e-4
        np.testing.assert_allclose(f.partial(k)(pts), fd, rtol=0.0, atol=1e-6)


def test_grid_field_partial_is_a_grid_field_on_the_same_spline():
    f = _cubic_grid_field(9)
    g = f.partial(1).partial(2)
    assert isinstance(g, GridField)
    assert g.coefficients is f.coefficients and g.knots is f.knots
    assert (f.nu, f.partial(1).nu, g.nu) == ((0, 0), (1, 0), (1, 1))
    pts = interior_points(Box([0, 0], [1, 1]), 5)
    want = NdBSpline(f.knots, f.coefficients, 3)(pts, nu=(1, 1))
    np.testing.assert_allclose(g(pts), want, rtol=0.0, atol=1e-13)
    with pytest.raises(InvalidInputError):
        f.partial(3)


def _smooth_grid_field(n, res):
    axes = [np.linspace(0.0, 1.0, res)] * n
    mesh = np.meshgrid(*axes, indexing="ij")
    values = np.sin(2.0 * mesh[0] + 0.5) * np.cos(1.5 * mesh[1]) + mesh[-1] ** 2
    return GridField(axes, values), np.stack([m.ravel() for m in mesh], axis=1), values


@pytest.mark.parametrize("dims,res", [(2, 27), (2, 54), (3, 9)])
def test_grid_field_hits_the_grid_values(dims, res):
    # the per-axis not-a-knot solves are exact; an iterative solve at atol
    # 1e-6 misses these values by about 1e-5
    f, nodes, values = _smooth_grid_field(dims, res)
    np.testing.assert_allclose(f(nodes), values.ravel(), rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("dims,res", [(2, 4), (2, 6), (2, 27), (2, 54), (2, 102), (3, 15)])
def test_grid_field_builds_the_not_a_knot_spline_of_make_interp_spline(dims, res):
    f, _, values = _smooth_grid_field(dims, res)
    c = values
    for i, x in enumerate([np.linspace(0.0, 1.0, res)] * dims):
        spline = make_interp_spline(x, c, k=3, axis=i)
        assert np.array_equal(f.knots[i], spline.t)
        c = np.moveaxis(spline.c, 0, i)
    assert np.max(np.abs(f.coefficients - c)) <= 1e-14 * np.max(np.abs(c))


@pytest.mark.parametrize("axes,values", [
    ([[0.0, 1.0, 2.0]] * 2, np.zeros((3, 3))),                       # < 4 nodes
    ([[0.0, 1.0, 1.0, 2.0], [0.0, 1.0, 2.0, 3.0]], np.zeros((4, 4))),  # repeated
    ([[0.0, 2.0, 1.0, 3.0], [0.0, 1.0, 2.0, 3.0]], np.zeros((4, 4))),  # unordered
    ([[0.0, 1.0, 2.0, np.nan], [0.0, 1.0, 2.0, 3.0]], np.zeros((4, 4))),
    ([[0.0, 1.0, 2.0, np.inf], [0.0, 1.0, 2.0, 3.0]], np.zeros((4, 4))),
    ([[0.0, 1.0, 2.0, 3.0]] * 2, np.zeros((4, 5))),                  # shape
    ([[0.0, 1.0, 2.0, 3.0]] * 3, np.zeros((4, 4))),                  # axis count
    ([[0.0, 1.0, 2.0, 3.0]] * 2, np.full((4, 4), np.nan)),
])
def test_grid_field_rejects_bad_axes_and_values(axes, values):
    with pytest.raises(InvalidInputError):
        GridField(axes, values)


def _nu_chain(f, nu):
    for axis, order in enumerate(nu):
        for _ in range(order):
            f = f.partial(axis + 1)
    return f


@pytest.mark.parametrize("dims", [2, 3])
def test_grid_field_matches_the_b_spline_of_its_knots_and_coefficients(dims):
    f, _, _ = _smooth_grid_field(dims, 11)
    spline = NdBSpline(f.knots, f.coefficients, 3)
    # up to 5 % of the side outside the grid on every face: extrapolation
    pts = np.random.default_rng(dims).uniform(-0.05, 1.05, (400, dims))
    pts[:2 * dims] = np.clip(pts[:2 * dims], 0.0, 1.0)  # and the faces
    orders = [(0, 0), (1, 0), (0, 1), (2, 0), (0, 2), (1, 1)]
    for nu in (o + (0,) * (dims - 2) for o in orders):
        np.testing.assert_allclose(_nu_chain(f, nu)(pts), spline(pts, nu=nu),
                                   rtol=0.0, atol=1e-13, err_msg=str(nu))


def test_materialize_is_linear_in_the_form():
    box = Box([0, 0], [1, 1])
    u = named_form("poly:sin(pi*x1)*x2", 2)
    v = named_form("poly:x1^2 - cos(x2)", 2)
    a, b = 0.75, -1.25
    combined = materialize(a * u + b * v, box, 27)
    mu, mv = materialize(u, box, 27), materialize(v, box, 27)
    pts = np.random.default_rng(0).uniform(-0.02, 1.02, (300, 2))
    for nu in ((0, 0), (1, 0), (0, 1)):
        want = (a * _nu_chain(mu.components[0], nu)(pts)
                + b * _nu_chain(mv.components[0], nu)(pts))
        np.testing.assert_allclose(_nu_chain(combined.components[0], nu)(pts), want,
                                   rtol=0.0, atol=1e-13)


# ---------------------------------------------------------------- partials audit

def test_check_analytic_partials_accepts_consistent_fields():
    box = Box([0, 0], [1, 1])
    u = named_form("corpus:trig-closed-1form", 2)
    worst = check_analytic_partials(u, box)
    assert worst < 1e-4


def test_check_analytic_partials_flags_wrong_partials():
    from orliczforms.forms import CallableField
    box = Box([0, 0], [1, 1])
    bad = CallableField(lambda pts: pts[:, 0] ** 2, 2,
                        partials=(lambda pts: pts[:, 1],  # wrong on purpose
                                  lambda pts: np.zeros(len(pts))))
    u = DifferentialForm.from_components(2, 0, {(): bad})
    with pytest.raises(InvalidInputError):
        check_analytic_partials(u, box)


# ---------------------------------------------------------------- point layout
# The T kernel hands fields a column-major view of a buffer it overwrites;
# values must not depend on the memory order of the points.

def _field_kinds(n):
    box = Box(np.zeros(n), np.ones(n))
    expr = ExprField("x1^2*x2 + sin(pi*x1) - x2", n)
    bump = BumpField(np.full(n, 0.5), 0.4)
    radial = RadialPowerField(np.full(n, 0.5), 1.5)
    grid = materialize(named_form("poly:sin(pi*x1)*cos(pi*x2)", n), box, 6).components[0]
    return {
        "constant": ConstantField(2.5),
        "expr": expr,
        "callable": CallableField(lambda p: p[:, 0] * p[:, 1] + p[:, -1] ** 2, n),
        "bump": bump, "bump-grad": bump.partial(1),
        "bump-hess": bump.partial(1).partial(2),
        "radial": radial, "radial-grad": radial.partial(2),
        "grid": grid, "grid-partial": grid.partial(1),
        "grid-mixed": grid.partial(1).partial(2),
        "linear-combination": LinearCombinationField(
            [(1.0, expr), (-1.0, bump), (0.5, radial)]),
        "fd-partial": FDPartialField(expr, 1, 1e-3),
    }


FIELD_CASES = [(n, kind) for n in (2, 3) for kind in _field_kinds(n)]


@pytest.mark.parametrize("dims,kind", FIELD_CASES,
                         ids=[f"{n}-{k}" for n, k in FIELD_CASES])
def test_fields_accept_column_major_points(dims, kind):
    f = _field_kinds(dims)[kind]
    pts = np.random.default_rng(dims).random((40, dims))
    pts[0] = 0.5  # the radial singular point and the bump center
    cols = np.asfortranarray(pts)
    assert cols.flags.f_contiguous and not cols.flags.c_contiguous
    assert np.array_equal(f(pts), f(cols))


def test_expr_field_returns_fresh_writable_arrays():
    pts = np.asfortranarray(np.random.default_rng(0).random((9, 2)))
    for source in ("x1", "2", "x1*x2 + 1"):
        out = ExprField(source, 2)(pts)
        assert out.shape == (9,) and out.flags.writeable
        assert not np.shares_memory(out, pts)


def test_linear_combination_bit_equal_to_scaled_sum():
    cols = [np.array([1.5, -0.0, np.inf, 0.0, -2.0, 3.0]),
            np.array([-0.0, -0.0, 3.0, np.inf, 1e-300, -np.inf]),
            np.array([0.0, -0.0, -1.0, 7.0, np.inf, 0.25])]
    fields = [CallableField(lambda p, c=c: c.copy(), 2) for c in cols]
    pts = np.zeros((6, 2))
    for coeffs in ((1.0, -1.0, 0.5), (-1.0, 0.5, 1.0), (0.5, 1.0, -1.0),
                   (-1.0, -1.0, -1.0)):
        want = np.zeros(6)
        for c, f in zip(coeffs, fields):
            want += c * f(pts)
        got = LinearCombinationField(list(zip(coeffs, fields)))(pts)
        assert got.tobytes() == want.tobytes(), coeffs


# ---------------------------------------------------------------- segment planes
# Inside the T kernel, fields receive SegmentPoints: each coordinate held as a
# plane over its distinct values, for all y-nodes at once.  ExprField
# evaluates each one-coordinate subtree of its split expression on that
# coordinate's plane and must give the bits it gives on the expanded
# segment array.

PLANE_SOURCES = ["x1", "x2", "0", "pi", "sin(pi*x1)", "cos(pi*x2)", "sqrt(x1)",
                 "x1*x2", "3*x1^2*x2 - x2", "sin(pi*x1)*cos(pi*x2) + x1",
                 "x1^1.5", "x2^2.5 / (1 + x1)", "x1 / x2",
                 "exp(sin(pi*x1) * cos(x2))", "log(1 + sqrt(abs(x1 - 0.5) * x2))",
                 "sin(x1*x2)", "x1*x1 - x1", "x1^x2", "2*(x1 + x2)", "-x2^2 + e"]


def test_expr_split_puts_maximal_one_coordinate_subtrees_on_planes():
    leaves, outside = [], []

    def walk(node):
        if isinstance(node, _OnPlane):
            leaves.append((node.axis + 1, str(node.node)))
        elif isinstance(node, ex.Var):
            outside.append(node.name)
        elif isinstance(node, ex.BinOp):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, ex.Call):
            walk(node.arg)

    walk(ExprField("sin(pi*x1)*cos(pi*x2) + x1", 2)._split)
    assert leaves == [(1, str(ex.parse("sin(pi*x1)"))),
                      (2, str(ex.parse("cos(pi*x2)"))), (1, "x1")]
    assert outside == []


def _plane_fields(n):
    """The expression shapes above, then the first and second partials of
    every component of every corpus form."""
    fields = [(src, ExprField(src, n)) for src in PLANE_SOURCES]
    for e in build_corpus(dims=n, admit=False):
        forms = [e.form] if e.form is not None else list(e.pair)
        for u in forms:
            for r, f in enumerate(u.components):
                for k in range(1, n + 1):
                    g = f.partial(k)
                    if g is None:
                        continue
                    fields.append((f"{e.id}[{r}].d{k}", g))
                    for j in range(1, n + 1):
                        h = g.partial(j)
                        if h is not None:
                            fields.append((f"{e.id}[{r}].d{k}d{j}", h))
    return fields


def _plane_problems(fields, seg):
    """How ``fields`` on ``seg`` differ from the same fields on its expanded
    segment array, which must be fresh, C-contiguous (t m,) results."""
    problems, m = [], seg.shape[0]
    for name, f in fields:
        got = f(seg)
        arr = _pts(seg)
        want = f(arr)
        if not (got.shape == (m,) and got.flags.c_contiguous
                and got.flags.writeable):
            problems.append(f"{name}: shape {got.shape}, flags {got.flags}")
        elif any(np.shares_memory(got, a)
                 for a in [seg.plane(i) for i in range(seg.shape[1])] + [arr]):
            problems.append(f"{name}: result shares memory with the points")
        elif got.tobytes() != want.tobytes():
            problems.append(f"{name}: values differ from the segment array")
    return problems


def _split_problems(fields, seg):
    """How the split expressions of the ExprFields among ``fields``, on the
    planes of ``seg``, differ from the fields on its segment array."""
    shape = (seg.ynodes, seg.tw.size, seg.m)
    problems = []
    for name, f in fields:
        if type(f) is ExprField:
            got = np.broadcast_to(f._split.ev(seg), shape).reshape(-1)
            if got.tobytes() != f(_pts(seg)).tobytes():
                problems.append(f"{name}: split values differ from the segment array")
    return problems


def _segment_points(pts, ys, tj, tw):
    """The ``SegmentPoints`` of the (m, n) batch ``pts`` on fresh sides."""
    return SegmentPoints(SegmentGeometry(x_side(np.ascontiguousarray(pts.T), tj),
                                         y_side(ys, tj)), tw)


def _segment_array(pts, ys, tj):
    """The segment points t_j x + (1 - t_j) y, in (y, t, point) order."""
    return (tj[None, :, None, None] * pts[None, None, :, :]
            + (1.0 - tj)[None, :, None, None] * ys[:, None, None, :]
            ).reshape(-1, pts.shape[1])


@pytest.mark.parametrize("dims", [2, 3])
def test_expr_field_on_segment_planes_bit_equal_to_segment_array(dims):
    fields = _plane_fields(dims)
    assert sum(isinstance(f, ExprField) for _, f in fields) > len(PLANE_SOURCES)
    tj, tw = _t_rule(1)
    rng = np.random.default_rng(dims)
    lattice = Box(np.zeros(dims), np.ones(dims)).quadrature(4).points
    only_x1 = rng.uniform(0.1, 0.9, (9, dims))
    only_x1[:, 0] = only_x1[[0, 0, 0, 1, 1, 1, 2, 2, 2], 0]  # no other repeats
    problems = []
    for pts in (lattice, only_x1):
        ys = rng.uniform(0.0, 1.0, (4, dims))
        seg = _segment_points(pts, ys, tj, tw)
        assert _pts(seg).tobytes() == _segment_array(pts, ys, tj).tobytes()
        problems += _plane_problems(fields, seg) + _split_problems(fields, seg)
    assert problems == []


@pytest.mark.parametrize("dims", [2, 3])
def test_grid_field_on_segment_planes_bit_equal_to_segment_array(dims):
    # one evaluation path: an (m, n) array is split into planes of its
    # distinct values, so both layouts give the same bits, on a lattice
    # batch and on one without a repeated coordinate value
    f, _, _ = _smooth_grid_field(dims, 7)
    fields = [(f"nu={nu}", _nu_chain(f, nu))
              for nu in itertools.product(range(3), repeat=dims) if sum(nu) <= 2]
    tj, tw = _t_rule(1)
    rng = np.random.default_rng(dims)
    lattice = Box(np.zeros(dims), np.ones(dims)).quadrature(4).points
    scattered = rng.uniform(-0.05, 1.05, (40, dims))
    problems = []
    for pts in (lattice, scattered):
        seg = _segment_points(pts, rng.uniform(0.0, 1.0, (3, dims)), tj, tw)
        assert _points_for(f, seg) is seg
        problems += _plane_problems(fields, seg)
    assert problems == []


def test_callable_in_linear_combination_receives_the_segment_array(monkeypatch):
    seen = []

    def record(p):
        seen.append((p.copy(), p.flags.f_contiguous))
        return p[:, 0] * p[:, 1]

    field = LinearCombinationField([(1.0, ExprField("sin(pi*x1)", 2)),
                                    (-2.0, CallableField(record, 2))])
    box = Box([0.0, 0.0], [1.0, 1.0])
    ev = apply_T(oneform(field, "x2"), box, resolution=15).components[0].evaluator
    pts = box.quadrature(5).points
    per_chunk = 2  # y-nodes
    monkeypatch.setattr(forms, "CHUNK_VALUES", per_chunk * ev.tj.size * pts.shape[0])
    ev.coeffs(pts)
    ynodes = ev.ys.shape[0]
    assert len(seen) == -(-ynodes // per_chunk) > 1
    # each call gets one chunk's segment points y + t_j (x - y), as
    # t_j x + (1 - t_j) y, column-major, in (y, t, point) order
    rows = ev.tj.size * pts.shape[0]
    for q, (got, column_major) in enumerate(seen):
        ys = ev.ys[q * per_chunk:(q + 1) * per_chunk]
        want = _segment_array(pts, ys, ev.tj)
        assert column_major and want.shape == (ys.shape[0] * rows, 2)
        assert got.tobytes() == want.tobytes()


def test_fields_from_outside_receive_the_segment_array():
    seen = []

    class Foreign:  # indexes the points directly, as the field protocol allows
        def __call__(self, points):
            seen.append(type(points) is np.ndarray and points.shape[1] == 2)
            return points[:, 0] * points[:, 1]

        def partial(self, k):
            return None

    box = Box([0.0, 0.0], [1.0, 1.0])
    mixed = LinearCombinationField([(2.0, Foreign()), (1.0, ExprField("x1", 2))])
    tu = apply_T(oneform(mixed, Foreign()), box, resolution=15)
    pts = box.quadrature(5).points
    rows = T_NODES * pts.shape[0]
    chunks = -(-tu.components[0].evaluator.ys.shape[0] // (forms.CHUNK_VALUES // rows))
    tu.components[0](pts)
    assert len(seen) == 2 * chunks and all(seen)


def test_segment_points_keep_signed_zeros_apart():
    tj, tw = _t_rule(1)
    pts = np.array([[0.0, -0.0], [-0.0, 0.0], [0.0, 0.0]])
    y = np.array([-0.0, -0.0])
    seg = _segment_points(pts, y[None, :], tj, tw)
    want = _segment_array(pts, y[None, :], tj)
    assert np.signbit(want).any() and not np.signbit(want).all()
    assert _pts(seg).tobytes() == want.tobytes()
    assert ExprField("x1", 2)(seg).tobytes() == want[:, 0].tobytes()


# ---------------------------------------------------------------- closed-form fields
# BumpField, RadialPowerField and their partials form x_i - c_i (over r for
# the bump) and its square on coordinate i's plane, take them to the points
# and add the squares in axis order.  That is the bits of the expanded
# segment array, and on an (m, n) array the bits of summing the squared rows
# with np.sum.

def _closed_form_fields(n, center, radius):
    bump, radial = BumpField(center, radius), RadialPowerField(center, 1.5)
    fields = [("bump", bump), ("radial", radial)]
    for k in range(1, n + 1):
        fields += [(f"bump.d{k}", bump.partial(k)), (f"radial.d{k}", radial.partial(k))]
        fields += [(f"bump.d{k}d{j}", bump.partial(k).partial(j)) for j in range(1, n + 1)]
    return fields


def _bump_reference(bump, pts):
    z = (pts - bump.center) / bump.radius
    w = np.sum(z * z, axis=1)
    out = np.zeros(w.shape)
    out[w < 1.0] = np.exp(-1.0 / (1.0 - w[w < 1.0]))
    return out


def _radial_grad_reference(grad, pts):
    d = pts - grad.base.center
    r2 = np.sum(d * d, axis=1)
    out = np.zeros(r2.shape)
    a = grad.base.exponent
    out[r2 > 0] = a * r2[r2 > 0] ** (a / 2.0 - 1.0) * d[r2 > 0, grad.k - 1]
    return out


@pytest.mark.parametrize("dims", [2, 3])
@pytest.mark.parametrize("batch", ["lattice", "scattered"])
def test_closed_form_fields_on_segment_planes_bit_equal_to_segment_array(dims, batch):
    rng = np.random.default_rng(dims)
    tj, tw = _t_rule(1)
    if batch == "lattice":
        pts = Box(np.zeros(dims), np.ones(dims)).quadrature(6).points
    else:
        pts = rng.uniform(-0.2, 1.2, (30, dims))
    # the radial center at the origin, which is a batch point and a y-node,
    # so that segment points sit exactly on it (r = 0)
    pts = np.vstack([pts, np.zeros((1, dims))])
    ys = np.vstack([np.zeros((1, dims)), rng.uniform(0.0, 1.0, (3, dims))])
    seg = _segment_points(pts, ys, tj, tw)
    arr = _pts(seg)
    assert (np.sum(arr * arr, axis=1) == 0.0).any()
    fields = _closed_form_fields(dims, np.zeros(dims), 0.6)
    w = np.sum((arr / 0.6) ** 2, axis=1)
    assert (w < 1.0).any() and (w >= 1.0).any()  # nodes in and out of the support
    for _, f in fields:
        assert _points_for(f, seg) is seg
    assert _plane_problems(fields, seg) == []


@pytest.mark.parametrize("dims", [2, 3])
def test_closed_form_fields_on_arrays_bit_equal_to_summed_rows(dims):
    rng = np.random.default_rng(dims)
    center = rng.uniform(0.3, 0.7, dims)
    pts = np.vstack([rng.uniform(0.0, 1.0, (50, dims)), center])  # r = 0 last
    bump, radial = BumpField(center, 0.3), RadialPowerField(center, 1.5)
    assert _bump_reference(bump, pts).tobytes() == bump(pts).tobytes()
    d = pts - center
    assert (np.sum(d * d, axis=1) ** 0.75).tobytes() == radial(pts).tobytes()
    for k in range(1, dims + 1):
        grad = radial.partial(k)
        assert _radial_grad_reference(grad, pts).tobytes() == grad(pts).tobytes()
    assert radial.partial(1)(pts)[-1] == 0.0


@pytest.mark.parametrize("eid", ["bump-1form", "radial-1form"])
def test_T_of_closed_form_fields_never_expands_the_segment_points(eid, monkeypatch):
    def refuse(self):
        raise AssertionError("SegmentPoints expanded to the segment array")

    monkeypatch.setattr(SegmentPoints, "array", refuse)
    box = Box([0.0, 0.0], [1.0, 1.0])
    u = named_form(f"corpus:{eid}", 2)
    pts = box.quadrature(9).points
    for form in (u, u.d()):  # u's components, and du's first and second partials
        assert np.isfinite(apply_T(form, box, resolution=15).evaluate(pts)).all()


# ---------------------------------------------------------------- pair box
# A product of two one-coordinate leaves on different axes is t-summed on
# the (Y, u_a, u_b) box of their columns, when the box holds at most twice
# as many cells as the batch has points, and the box is taken to the
# points.  It keeps the bits of the t-sum of the two factors expanded to
# the points.

def _pair_batches(n, axis):
    """Batches named, with whether the product takes the box: a lattice, a
    scattered batch, the lattice with coordinate ``axis`` held constant, and
    one point."""
    lattice = Box(np.zeros(n), np.ones(n)).quadrature(5).points
    flat = lattice.copy()
    flat[:, axis] = 0.3
    return {"lattice": (lattice, True),
            "scattered": (np.random.default_rng(n).uniform(0.05, 0.95, (9, n)), False),
            "width-one": (flat, False),
            "single-point": (lattice[7:8], False)}


PAIR_CASES = [(n, a, b, batch, ynodes) for n in (2, 3)
              for a, b in itertools.permutations(range(n), 2)
              for batch in ("lattice", "scattered", "width-one", "single-point")
              for ynodes in (1, 3)]


@pytest.mark.parametrize("dims,a,b,batch,ynodes", PAIR_CASES,
                         ids=[f"{n}-x{a + 1}x{b + 1}-{batch}-Y{y}"
                              for n, a, b, batch, y in PAIR_CASES])
def test_leaf_product_bit_equal_on_the_pair_box_and_expanded(dims, a, b, batch, ynodes):
    f = ExprField(f"sin(pi*x{a + 1}) * (x{b + 1}^2 + 1)", dims)
    left, right = f._split.left, f._split.right
    assert (left.axis, right.axis) == (a, b)
    pts, on_box = _pair_batches(dims, a)[batch]
    tj, tw = _t_rule(1)
    ys = np.random.default_rng(ynodes).uniform(0.0, 1.0, (ynodes, dims))
    seg = _segment_points(pts, ys, tj, tw)
    expanded = seg.chunked(
        lambda part: forms._t_sum(part.tw, left.ev(part), right.ev(part)), seg.m)
    assert forms._pair_box(left, right, seg) is on_box
    assert np.array_equal(_t_integral(f, seg), expanded)
    if min(seg.widths[a], seg.widths[b]) > 1:  # the box on any batch, if forced
        assert np.array_equal(forms._box_integral(left, right, seg), expanded)


# ---------------------------------------------------------------- t-integrals
# The T kernel asks each field for its t-integral on SegmentPoints.  ExprField
# and LinearCombinationField integrate themselves over their terms and on the
# coordinate planes, in another order than t-summing the field's values at
# the segment points; the two must agree to rounding.

def _expressions(n):
    """Expression sources in x1..xn that mix single-coordinate terms,
    products, quotients, powers, calls of several coordinates and
    constants; every value stays moderate on [0, 1]^n."""
    var = st.integers(1, n).map(lambda i: f"x{i}")
    atom = st.one_of(
        var,
        st.sampled_from(["2.5", "pi", "e", "0", "-1.5", "sin(2)"]),
        st.builds(lambda fn, v: f"{fn}({v})",
                  st.sampled_from(["sin", "cos", "exp", "sqrt", "abs"]), var),
        st.builds(lambda v, p: f"{v}^{p}", var, st.sampled_from(["2", "3", "1.5"])),
        st.builds(lambda fn, v, op, w: f"{fn}({v} {op} {w})",
                  st.sampled_from(["sin", "cos", "exp", "sqrt"]), var,
                  st.sampled_from(["+", "*"]), var))

    def extend(inner):
        return st.one_of(
            st.builds(lambda a, op, b: f"({a}) {op} ({b})",
                      inner, st.sampled_from(["+", "-", "*"]), inner),
            st.builds(lambda a, b: f"({a}) / (2 + ({b})^2)", inner, inner),
            st.builds(lambda a, c: f"({a}) / {c}", inner, st.sampled_from(["3", "-0.5"])),
            st.builds(lambda c, a: f"{c}*({a})", st.sampled_from(["3", "-0.5", "pi"]), inner),
            st.builds(lambda a, p: f"(1 + ({a})^2)^{p}", inner,
                      st.sampled_from(["0.5", "1.5", "-1"])),
            st.builds(lambda fn, a: f"{fn}({a})", st.sampled_from(["sin", "cos"]), inner))

    return st.recursive(atom, extend, max_leaves=6)


@st.composite
def _t_integral_fields(draw, n):
    """An ExprField, or a LinearCombinationField of ExprFields, their
    partials and a constant."""
    exprs = [ExprField(draw(_expressions(n), label="expression"), n)
             for _ in range(draw(st.integers(1, 3), label="terms"))]
    if len(exprs) == 1 and draw(st.booleans(), label="bare"):
        return exprs[0]
    terms = []
    for f in exprs:
        if draw(st.booleans(), label="partial"):
            f = f.partial(draw(st.integers(1, n), label="axis"))
        terms.append((draw(st.sampled_from([1.0, -1.0, 2.5, -0.75]), label="c"), f))
    if draw(st.booleans(), label="constant term"):
        terms.append((-1.0, ConstantField(draw(st.sampled_from([0.0, 1.25])))))
    return LinearCombinationField(terms)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_t_integral_agrees_with_t_sum_of_field_values(data):
    n = data.draw(st.sampled_from((2, 3)), label="dims")
    f = data.draw(_t_integral_fields(n), label="field")
    if data.draw(st.booleans(), label="lattice"):
        pts = Box(np.zeros(n), np.ones(n)).quadrature(4).points
    else:
        rng = np.random.default_rng(data.draw(st.integers(0, 99), label="seed"))
        pts = rng.uniform(0.05, 0.95, (data.draw(st.integers(1, 12), label="m"), n))
    tj, tw = _t_rule(data.draw(st.integers(1, n - 1), label="degree"))
    ys = np.array(data.draw(st.lists(st.lists(st.floats(0.0, 1.0), min_size=n,
                                              max_size=n), min_size=1, max_size=4),
                            label="ys"))
    seg = _segment_points(pts, ys, tj, tw)
    shape = (ys.shape[0], pts.shape[0])
    ref = np.einsum("t,ytm->ym", tw, f(_pts(seg)).reshape(shape[0], tj.size, shape[1]))
    got = _t_integral(f, seg)
    assert got.shape == shape
    bound = 1e-13 * max(1.0, float(np.abs(ref).max()))
    assert float(np.abs(got - ref).max()) <= bound
