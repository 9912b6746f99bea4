"""Young functions, Luxemburg norms, and the sandwich-class checks."""
import collections
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orliczforms import (Ball, Box, ConfigError, DifferentialForm, YoungFunction, apply_T,
                         ball_family, check_g_class, check_phi_dominated,
                         constant_weight, custom_young, lp_norm, luxemburg_norm,
                         load_config, named_form, oscillation_profile,
                         oscillation_residuals, power, power_log, power_weight,
                         young_violations)
from orliczforms import cli
from orliczforms import expressions as ex
from orliczforms import homotopy
from orliczforms.config import DEFAULT_CONFIG
from orliczforms.errors import (DivergedIntegralError, InvalidInputError,
                                NoConvergenceError)
from orliczforms.forms import CallableField, ExprField, pointwise_modulus
from orliczforms.homotopy import closed_part
from orliczforms.young import LOG_GRID, LUX_REL_TOL

BOX = Box([0.0, 0.0], [1.0, 1.0])


# ---------------------------------------------------------------- validity

def test_power_families_are_young_functions():
    for phi in (power(1.0), power(1.5), power(3.0), power_log(2.0)):
        assert young_violations(phi) == []


def test_custom_young_accepts_convex_growth():
    phi = custom_young("t^2/(1+t)")
    assert young_violations(phi) == []
    assert phi(np.array([0.0]))[0] == 0.0


def test_custom_young_rejects_concave_profiles():
    with pytest.raises(InvalidInputError):
        custom_young("sqrt(t)")


def test_young_violations_reports_failures():
    bad = young_violations(lambda t: np.sqrt(t))
    assert any("convex" in v for v in bad)


@given(st.floats(1.0, 4.0))
@settings(max_examples=20, deadline=None)
def test_power_is_always_admissible(p):
    assert young_violations(power(p)) == []


@pytest.mark.parametrize("expression", ["t^60", "exp(t) - 1"])
def test_custom_young_accepts_a_phi_that_overflows_at_the_top_of_the_grid(expression):
    # the axioms skip the ends where phi under- or overflows, as G(p, q) does
    assert young_violations(custom_young(expression)) == []


def test_young_violations_sees_a_jump_from_a_bottom_run_of_zeros():
    # 0 up to t = 1e-3 and t^2 from there: a jump from 0 to 1e-6, not convex;
    # the convexity slopes start at the last zero, not at the first 1e-6
    phi = YoungFunction(lambda t: np.where(t < 1e-3, 0.0, t ** 2), "jump")
    assert young_violations(phi) == ["witness g(s) = phi(s^(1/p)) is not convex on the grid"]


@pytest.mark.parametrize("spec", ["t^60", "t^300", "exp(t) - 1", "exp(t^2) - 1",
                                  "abs(t - 1) + t - 1", 1, 1.5, 2, 3, 51, 52, 200])
def test_young_functions_stay_young_when_the_slopes_start_at_the_bottom_run(spec):
    # t^52 and up underflow at the bottom of the grid and abs(t - 1) + t - 1
    # is 0 up to t = 1: the jump that ends each run is convex
    phi = custom_young(spec) if isinstance(spec, str) else power(spec)
    assert young_violations(phi) == []
    if spec == "t^60":  # the concave bound at q keeps its slopes past the run
        assert check_g_class(phi, 59.0, 61.0).member


def _load_violations(overrides: dict) -> list:
    try:
        load_config(overrides=overrides)
    except ConfigError as exc:
        return exc.violations
    return []


@pytest.mark.parametrize("P", [2, 60])
@pytest.mark.parametrize("family, expression", [
    ("power", "t^{P}"), ("power_log", "t^{P}*log(e + t)")])
def test_the_spelling_of_a_young_function_does_not_change_its_verdict(family, expression, P):
    expression = expression.format(P=P)
    specs = [{"name": family, "p": float(P)}, {"name": "custom", "expression": expression}]
    phis = [cli._parse_phi(f"{family}:{P}"), cli._parse_phi(f"custom:{expression}")]
    with np.errstate(over="ignore"):
        np.testing.assert_allclose(phis[0](LOG_GRID), phis[1](LOG_GRID), rtol=1e-15, atol=0)
    assert young_violations(phis[0]) == young_violations(phis[1]) == []
    for p, q in [(1.5, 3.0), (P - 1, P + 1), (P, P + 2), (P + 0.5, P + 2)]:
        reports = [check_g_class(phi, p, q) for phi in phis]
        assert reports[0].violations == reports[1].violations
    for g_class in [DEFAULT_CONFIG["g_class"], {"p": P - 1, "q": P + 1}]:
        loads = [_load_violations({"young": spec, "g_class": g_class}) for spec in specs]
        assert loads[0] == loads[1]
    for weighted in [DEFAULT_CONFIG["weighted"],
                     {"p": 300.0, "q": 100.0, "alpha": 2.0, "s": float(P)}]:
        loads = [_load_violations({"weighted": {**weighted, "young": spec},
                                   "verifiers": ["weighted_lipschitz"]}) for spec in specs]
        assert loads[0] == loads[1]


def test_a_high_power_loads_in_either_spelling():
    g_class = {"p": 59.0, "q": 61.0}
    for spec in ({"name": "power", "p": 60}, {"name": "custom", "expression": "t^60"}):
        assert _load_violations({"young": spec, "g_class": g_class,
                                 "verifiers": ["thm_lipschitz"]}) == []


# ---------------------------------------------------------------- luxemburg

def test_luxemburg_matches_lp_for_power_young():
    f = named_form("poly:x1^2 + x2", 2)
    for p in (1.5, 2.0, 3.0):
        lux = luxemburg_norm(f, BOX, power(p))
        lp = lp_norm(f, BOX, p)
        assert lux == pytest.approx(lp, rel=1e-8)


def test_luxemburg_of_node_values_matches_the_form():
    u = named_form("oneform:x2^3,x1*x2", 2)
    nodes = BOX.quadrature(21).points
    vals = u.modulus_values(nodes)
    for phi, weight in ((power(2.0), None), (power_log(1.5), constant_weight(2.5))):
        assert (luxemburg_norm(vals, BOX, phi, weight=weight, resolution=21)
                == luxemburg_norm(u, BOX, phi, weight=weight, resolution=21))
    with pytest.raises(InvalidInputError):
        luxemburg_norm(vals[:-1], BOX, power(2.0), resolution=21)


def test_ball_lattice_built_once_per_ball_and_resolution(monkeypatch):
    # the bump mass, the y-rule of T, the residual nodes and the Luxemburg
    # norms on one ball all share that ball's rule
    builds = []
    build = Ball._build_quadrature

    def counting(self, resolution):
        builds.append((id(self), resolution))
        return build(self, resolution)

    monkeypatch.setattr(Ball, "_build_quadrature", counting)
    u = named_form("oneform:x2^3,x1*x2", 2)
    balls = ball_family(BOX, 4, expansion=1.1)
    residuals = oscillation_residuals(u, balls, ball_resolution=9)
    for phi in (power(2.0), power_log(1.5)):
        oscillation_profile(u, balls, phi, ball_resolution=9, residuals=residuals)
    assert sorted(builds) == sorted((id(b), 9) for b in balls)


# The per-ball closed parts build only what depends on both the form and the
# ball: du's derivative fields are built once per field and axis, and the
# default bump's y-rule once per ball and resolution.
def _fresh_oneforms():
    return [DifferentialForm(2, 1, ("x2^3 + x1^2*x2", "x1*cos(pi*x2)")),
            DifferentialForm(2, 1, ("sin(pi*x2) + x1*x2", "x1^3 - x2"))]


def test_closed_parts_differentiate_each_field_once_per_axis(monkeypatch):
    forms = _fresh_oneforms()
    roots = {id(f.node) for u in forms for f in u.components}
    calls = collections.Counter()
    for cls in (ex.Num, ex.Var, ex.BinOp, ex.Call):
        def counting(self, var, _diff=cls.diff):
            if id(self) in roots:
                calls[id(self), var] += 1
            return _diff(self, var)
        monkeypatch.setattr(cls, "diff", counting)
    balls = ball_family(BOX, 4, expansion=1.1)
    for u in forms:
        oscillation_residuals(u, balls, ball_resolution=9)
    # d of a 1-form on the plane takes d/dx2 of its dx1 and d/dx1 of its dx2
    want = {(id(u.components[0].node), "x2") for u in forms}
    want |= {(id(u.components[1].node), "x1") for u in forms}
    assert dict(calls) == dict.fromkeys(want, 1)


def test_default_y_rule_built_once_per_ball_and_resolution(monkeypatch):
    built = []

    class CountingBump(homotopy.BumpFunction):
        def __init__(self, region, *args, **kwargs):
            built.append((id(region), kwargs.get("resolution")))
            super().__init__(region, *args, **kwargs)

    monkeypatch.setattr(homotopy, "BumpFunction", CountingBump)
    balls = ball_family(BOX, 4, expansion=1.1)
    for u in _fresh_oneforms() + [named_form("corpus:trig-1form", 2)]:
        for resolution in (7, 9):
            oscillation_residuals(u, balls, ball_resolution=resolution)
    assert sorted(built) == sorted((id(b), r) for b in balls for r in (7, 9))
    # every T on a ball shares its rule, read-only; an explicit bump builds its own
    a, b = (apply_T(u, balls[0], resolution=9).components[0].evaluator
            for u in _fresh_oneforms())
    assert a.ys is b.ys and a.ws is b.ws and not a.ys.flags.writeable
    own = apply_T(_fresh_oneforms()[0], balls[0],
                  homotopy.BumpFunction(balls[0], resolution=9),
                  resolution=9).components[0].evaluator
    assert own.ys is not a.ys
    assert np.array_equal(own.ys, a.ys) and np.array_equal(own.ws, a.ws)


# u - u_B is formed from one evaluation of u on the nodes of the whole ball
# family: each ball's u_B = u - T(du) takes that ball's slice of u's values
# as (0.0 + u) - T(du), the top-degree u_B = u reuses them, and the 0-form
# u_B is the mean.  The component residuals, and the moduli the profile
# takes of them, keep the bits of evaluating the closed part as a form, one
# ball at a time.
RESIDUAL_FORMS = ["corpus:trig-1form", "corpus:mixed-1form", "corpus:poly-top-form",
                  "corpus:trig-0form"]


@pytest.mark.parametrize("name", RESIDUAL_FORMS)
def test_oscillation_residuals_evaluate_u_once_per_ball(name, monkeypatch):
    u = named_form(name, 2)
    balls = ball_family(BOX, 3, expansion=1.1)
    want, want_moduli = [], []
    for ball in balls:
        pts = ball.quadrature(9).points
        diff = u.evaluate(pts) - closed_part(u, ball, resolution=9).evaluate(pts)
        want.append(diff)
        want_moduli.append(np.sqrt(np.sum(diff * diff, axis=0)))
    calls = []
    original = ExprField.__call__

    def counting(self, points):
        calls.append(points.shape[0])
        return original(self, points)

    monkeypatch.setattr(ExprField, "__call__", counting)
    got = oscillation_residuals(u, balls, ball_resolution=9)
    assert [g.shape for g in got] == [w.shape for w in want]
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
    assert ([pointwise_modulus(g).tobytes() for g in got]
            == [w.tobytes() for w in want_moduli])
    expr_components = sum(type(f) is ExprField for f in u.components)
    assert calls == expr_components * [sum(b.quadrature(9).points.shape[0] for b in balls)]


# One errstate covers the whole solve: phi's overflow at extreme lambda
# stays silent, a NaN integrand still raises, the caller's error state comes
# back, and the field's own evaluation before the solve still warns.
NAN_ABOVE_ONE = YoungFunction(lambda t: np.where(t > 1.0, np.nan, t * t), "nan-above-one")


def test_luxemburg_nan_integrand_raises():
    with pytest.raises(DivergedIntegralError):
        luxemburg_norm(named_form("poly:x1", 2), BOX, NAN_ABOVE_ONE, resolution=11)


def test_luxemburg_restores_the_error_state():
    f = named_form("poly:x1", 2)
    with np.errstate(over="raise", divide="warn", invalid="print", under="ignore"):
        before = np.geterr()
        assert luxemburg_norm(f, BOX, power(2.0), resolution=11) > 0.0
        assert np.geterr() == before
        with pytest.raises(DivergedIntegralError):
            luxemburg_norm(f, BOX, NAN_ABOVE_ONE, resolution=11)
        assert np.geterr() == before


def test_luxemburg_keeps_field_overflow_warnings():
    # exp overflows for x1 > ~0.89; the field's value there is 0
    f = CallableField(lambda p: 1.0 / (1.0 + np.exp(800.0 * p[:, 0])), 2)
    with np.errstate(over="warn"), pytest.warns(RuntimeWarning, match="overflow"):
        value = luxemburg_norm(f, BOX, power(2.0), resolution=11)
    assert np.isfinite(value) and value > 0.0


def test_luxemburg_of_zero_is_zero():
    z = named_form("zero", 2)
    assert luxemburg_norm(z, BOX, power(2.0)) == 0.0


def test_luxemburg_homogeneous():
    # ||c f||_phi = c ||f||_phi for any Young function
    f = named_form("poly:sin(pi*x1)*x2", 2)
    phi = power_log(2.0)
    base = luxemburg_norm(f, BOX, phi)
    for c in (0.25, 3.0, 17.0):
        g = named_form(f"poly:({c!r})*(sin(pi*x1)*x2)", 2)
        assert luxemburg_norm(g, BOX, phi) == pytest.approx(c * base, rel=1e-8)


def test_luxemburg_monotone_in_weight():
    f = named_form("poly:x1 + 1", 2)
    phi = power(2.0)
    small = luxemburg_norm(f, BOX, phi, weight=constant_weight(1.0))
    large = luxemburg_norm(f, BOX, phi, weight=constant_weight(4.0))
    # for phi = t^2 the weighted norm scales like sqrt of the constant weight
    assert large == pytest.approx(2.0 * small, rel=1e-8)


def test_weighted_lp_constant_weight_scaling():
    f = named_form("poly:x1*x2 + 1", 2)
    base = lp_norm(f, BOX, 3.0)
    weighted = lp_norm(f, BOX, 3.0, weight=constant_weight(8.0))
    assert weighted == pytest.approx(base * 8.0 ** (1.0 / 3.0), rel=1e-10)


@given(st.floats(1.1, 3.5), st.integers(0, 5))
@settings(max_examples=12, deadline=None)
def test_luxemburg_lp_agreement_property(p, pick):
    fields = ["x1", "x1 + x2", "x1^2*x2", "sin(pi*x1)", "x2^3 + 1", "exp(x1)*x2"]
    f = named_form(f"poly:{fields[pick]}", 2)
    lux = luxemburg_norm(f, BOX, power(p), resolution=21)
    lp = lp_norm(f, BOX, p, resolution=21)
    assert lux == pytest.approx(lp, rel=1e-7)


# The solve returns v with I(v (1 - LUX_REL_TOL)) > 1 >= I(v (1 + LUX_REL_TOL)),
# where I(lam) is the integral of phi(|f| / lam) on the grid, in a handful
# of evaluations of phi: for phi = t^p, log I is affine in log lam and the
# first secant step lands on the root.  The cases reach the ends of the
# bracket: measures of 1e-30 and 1e30, and a constant field whose root
# sits at max|f|.
SOLVER_PHIS = {"power-1": power(1.0), "power-2": power(2.0), "power-3.7": power(3.7),
               "power_log-1.5": power_log(1.5), "power_log-2": power_log(2.0),
               "t^2+t^6": custom_young("t^2+t^6"), "t+t^40": custom_young("t+t^40")}
SOLVER_WEIGHTS = (None, power_weight([0.3, 1.7], 0.5), constant_weight(1e-30),
                  constant_weight(1e30))
SOLVER_FIELDS = ("oneform:x2^3,x1*x2", "const:dx1")


def _solver_fields():
    """Node values on ``BOX.quadrature(21)`` per field and scale."""
    quad = BOX.quadrature(21)
    for name in SOLVER_FIELDS:
        base = named_form(name, 2).modulus_values(quad.points)
        for scale in (1e-9, 1.0, 1e9):
            yield scale * base


def _solver_cases(phi):
    """(v, I, evaluations of phi) per field, scale and weight."""
    quad = BOX.quadrature(21)
    for vals in _solver_fields():
        for weight in SOLVER_WEIGHTS:
            mu = quad.weights if weight is None else quad.weights * weight(quad.points)
            calls = []
            counted = YoungFunction(lambda t: calls.append(1) or phi(t), phi.name,
                                    phi.params)
            v = luxemburg_norm(vals, BOX, counted, weight=weight, resolution=21)

            def integral(lam, vals=vals, mu=mu):
                return float(np.sum(phi(vals / lam) * mu))
            yield v, integral, len(calls)


@pytest.mark.parametrize("name", SOLVER_PHIS)
def test_luxemburg_solution_passes_the_bracket_certificate(name):
    for v, integral, _ in _solver_cases(SOLVER_PHIS[name]):
        assert integral(v * (1.0 - LUX_REL_TOL)) > 1.0 >= integral(v * (1.0 + LUX_REL_TOL))


@pytest.mark.parametrize("p", [1.0, 2.0, 3.7])
def test_luxemburg_of_power_is_lp_to_rounding(p):
    for vals in _solver_fields():
        for weight in SOLVER_WEIGHTS:
            lux = luxemburg_norm(vals, BOX, power(p), weight=weight, resolution=21)
            lp = lp_norm(vals, BOX, p, weight=weight, resolution=21)
            assert lux == pytest.approx(lp, rel=1e-13, abs=0.0)


def _power_log_root(p):
    """The lam with lam^-p log(e + 1/lam) = 1, by float bisection to one ulp."""
    lo, hi = 1.0, 2.0  # the left side is above 1 at lam = 1 and below it at 2
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if mid ** -p * math.log(math.e + 1.0 / mid) > 1.0:
            lo = mid
        else:
            hi = mid
    return hi


# A constant field 1 on the unit box has I(lam) = phi(1 / lam), so its norm
# is 1 / phi^-1(1): exactly max|f| = 1 for every power.
@pytest.mark.parametrize("name", ["power-1", "power-2", "power-3.7", "power_log-1.5"])
def test_luxemburg_of_a_constant_field_inverts_phi_at_one(name):
    want = _power_log_root(1.5) if name == "power_log-1.5" else 1.0
    lux = luxemburg_norm(named_form("const:dx1", 2), BOX, SOLVER_PHIS[name])
    assert lux == pytest.approx(want, rel=1e-15, abs=0.0)


def test_luxemburg_bracket_failures_raise():
    vals = named_form("const:dx1", 2).modulus_values(BOX.quadrature(21).points)
    # the norm 1e330 overflows: the clamped far end is no bracket
    with pytest.raises(NoConvergenceError):
        luxemburg_norm(1e300 * vals, BOX, power(1.0), weight=constant_weight(1e30),
                       resolution=21)
    # a concave phi breaks I(c lam) <= I(lam) / c, so the far end is no bracket
    root = YoungFunction(np.sqrt, "sqrt")
    with pytest.raises(InvalidInputError, match="not a valid Young function"):
        luxemburg_norm(vals, BOX, root, weight=constant_weight(4.0), resolution=21)


# max|f| I(max|f|) under- or overflows although the norm v sqrt(sum w) of a
# constant field v under phi = t^2 is a normal float: 1e-300 and 1e225
@pytest.mark.parametrize("value,density", [(1e-200, 1e-200), (1e100, 1e250)])
def test_luxemburg_far_end_is_clamped_to_the_normal_floats(value, density):
    quad = BOX.quadrature(21)
    vals = np.full(len(quad.weights), value)
    weight = constant_weight(density)
    lux = luxemburg_norm(vals, BOX, power(2.0), weight=weight, resolution=21)
    want = value * math.sqrt(np.sum(quad.weights * weight(quad.points)))
    assert lux == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("name", SOLVER_PHIS)
def test_luxemburg_evaluation_budget(name):
    budget = 6 if name.startswith("power-") else 24
    counts = [n for _, _, n in _solver_cases(SOLVER_PHIS[name])]
    assert max(counts) <= budget, counts


# ---------------------------------------------------------------- classes

def test_g_class_membership_of_power_between_exponents():
    report = check_g_class(power(2.0), 1.5, 3.0)
    assert report.member
    assert report.violations == []


def test_g_class_membership_of_power_log():
    assert check_g_class(power_log(2.0), 1.5, 3.0).member


def test_g_class_rejects_power_outside_band():
    report = check_g_class(power(4.0), 1.5, 3.0)
    assert not report.member
    assert report.violations


@pytest.mark.parametrize("p, q", [(1.0, 2.0), (1.5, 3.0), (1.2, 4.0), (2.5, 5.5)])
def test_g_class_holds_power_exactly_between_exponents(p, q):
    # t^s in G(p, q) iff t^(s/p) is convex and t^(s/q) concave: p <= s <= q
    for s in np.round(np.arange(10, 61) / 10.0, 1):
        assert check_g_class(power(s), p, q).member == (p <= s <= q), s


def test_g_class_requires_ordered_exponents():
    with pytest.raises(InvalidInputError):
        check_g_class(power(2.0), 3.0, 1.5)


G_FAILS = "witness g(s) = phi(s^(1/p)) is not convex on the grid"
H_FAILS = "witness h(s) = phi(s^(1/q)) is not concave on the grid"


def test_g_class_sees_the_index_at_small_t():
    # both indices tend to 2 or 3 as t -> 0; the defect of power_log:3 lies
    # at t < 0.0062, below s = t^p = 2.4e-7 and so off any s-grid from 1e-6
    assert check_g_class(power_log(3.0), 3.003, 3.5).violations == [G_FAILS]
    assert check_g_class(custom_young("t^2 + t^3"), 2.001, 3.0).violations == [G_FAILS]


@pytest.mark.parametrize("P, below, above", [
    (1.5, 1.83, 1.84), (2.0, 2.32, 2.33), (3.0, 3.32, 3.33)])
def test_g_class_pins_the_index_interval_of_power_log(P, below, above):
    # the index 1 + t phi''/phi' of t^P log(e + t) fills [P, u] with u in
    # (below, above)
    phi = power_log(P)
    assert check_g_class(phi, P, above).member
    assert check_g_class(phi, P, below).violations == [H_FAILS]
    assert check_g_class(phi, P + 0.001, above).violations == [G_FAILS]


def test_g_class_takes_a_large_q():
    # t^100 overflows on the grid; the logs of the secant slopes do not
    assert check_g_class(power(2.0), 1.0, 100.0).member


def test_g_class_skips_the_under_and_overflowing_ends_of_the_grid():
    # t^60 underflows below the smallest normal float under t = 7.5e-6 and
    # overflows to inf above t = 1.4e5; the nodes between carry its shape
    assert check_g_class(power(60.0), 59.0, 61.0).member
    assert check_g_class(power_log(60.0), 59.0, 62.0).member
    assert check_g_class(power(60.0), 60.5, 62.0).violations == [G_FAILS]
    assert check_g_class(power(60.0), 58.0, 59.5).violations == [H_FAILS]


def test_a_phi_that_vanishes_up_to_one_is_young_but_in_no_g_class():
    # abs(t - 1) + t - 1 is 0 up to t = 1 and 2(t - 1) above: convex,
    # nondecreasing and 0 at 0, so a Young function.  A phi concave in t^q
    # with phi(0) = 0 has phi(t) / t^q nonincreasing, so phi(t) >= 0.0277
    # (t / 1.0139)^q below the first positive node; 0 breaks that bound, so
    # the zeros are no underflow and no G(p, q) holds it
    phi = custom_young("abs(t - 1) + t - 1")
    assert young_violations(phi) == []
    for q in (1.001, 2.0, 100.0):
        assert check_g_class(phi, 1.0, q).violations == [H_FAILS]


def test_g_class_rejects_an_inf_that_its_concave_bound_keeps_finite():
    # concave in t^3, t^2 = 1e10 at t = 1e5 stays below 1e25 up to 1e6, so an
    # inf above 1e5 is no overflow
    phi = YoungFunction(lambda t: np.where(t > 1e5, np.inf, t ** 2), "custom")
    assert check_g_class(phi, 1.5, 3.0).violations == [H_FAILS]


NOT_INCREASING = "phi is not finite and increasing on the grid"


@pytest.mark.parametrize("fn", [
    pytest.param(lambda t: np.where(t > 1.0, np.nan, t ** 2), id="nan"),
    pytest.param(lambda t: np.where(t > 1.0, 1.0 / t, t ** 2), id="decreasing"),
    pytest.param(lambda t: np.where((t > 1.0) & (t < 2.0), np.inf, t ** 60), id="interior-inf"),
    pytest.param(lambda t: np.where(t < 3e-6, 1e-320, t ** 60), id="decreasing-underflow"),
    pytest.param(lambda t: np.where(t < 1.0, 0.0, np.inf), id="no-finite-node")])
def test_g_class_still_rejects_a_nan_a_decrease_and_an_interior_inf(fn):
    phi = YoungFunction(fn, "custom")
    assert check_g_class(phi, 1.0, 100.0).violations == [NOT_INCREASING]


def test_g_class_tests_a_kinked_custom_young():
    # t below 1 and 2t^2 - t above: convex, but phi's slope jumps from 1 to 3
    # at t = 1, so no phi(s^(1/q)) is concave there
    phi = custom_young("t^2 + t*abs(t - 1)")
    assert young_violations(phi) == []
    for q in (2.5, 3.0):
        assert check_g_class(phi, 1.0, q).violations == [H_FAILS]


def test_phi_dominated_detects_pointwise_bound():
    assert check_phi_dominated(power(2.0), 2.0).ok
    assert check_phi_dominated(custom_young("t^2/(1+t)"), 2.0).ok
    report = check_phi_dominated(power(2.0), 3.0)
    assert not report.ok
    assert report.worst_t < 1.0  # t^2 > t^3 below one


@pytest.mark.parametrize("p", [math.nan, math.inf, 0.5])
def test_phi_dominated_rejects_an_exponent_that_is_not_a_finite_number_at_least_one(p):
    with pytest.raises(InvalidInputError, match=f"got {p}"):
        check_phi_dominated(power(2.0), p)


def test_phi_dominated_skips_nodes_where_both_sides_under_or_overflow():
    # t^60 and t^60 are both 0 at the bottom of the grid and both inf at its top
    report = check_phi_dominated(power(60.0), 60.0)
    assert report.ok and report.worst_ratio == 1.0
    report = check_phi_dominated(power(60.0), 59.0)
    assert not report.ok and 1.0 < report.worst_t < 1e6
    nan = YoungFunction(lambda t: np.where(t > 1.0, np.nan, t ** 2), "custom")
    assert not check_phi_dominated(nan, 2.0).ok


def test_phi_dominated_reports_worst_ratio():
    report = check_phi_dominated(custom_young("t^2/(1+t)"), 2.0)
    assert report.worst_ratio <= 1.0
