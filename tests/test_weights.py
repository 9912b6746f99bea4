"""Weights, the averaged-product class check, WRH, and oscillation norms."""
import math

import numpy as np
import pytest

from orliczforms import (Ball, Box, OscillationNormSpec, ball_family,
                         check_a_class, check_wrh, constant_weight,
                         custom_weight, default_domain, lp_norm, luxemburg_norm,
                         named_form, oscillation_norm, oscillation_profile,
                         oscillation_sup, power, power_weight)
from orliczforms.errors import (EmptyBallFamilyError, InvalidInputError)

BOX = Box([0.0, 0.0], [1.0, 1.0])
BALLS = ball_family(BOX, 8, expansion=1.1)


# ---------------------------------------------------------------- weights

def test_constant_weight_class_value_is_exact():
    # averaged product for a constant weight c collapses to c^(alpha - gamma)
    rep = check_a_class(constant_weight(2.5), 2.0, 3.0, 0.75, BALLS)
    assert rep.supremum == pytest.approx(2.5 ** 1.25, rel=1e-12)
    assert rep.flagged == 0


def test_power_weight_class_finite():
    w = power_weight([0.5, 0.5], 0.5)
    rep = check_a_class(w, 2.0, 3.0, 0.75, BALLS)
    assert math.isfinite(rep.supremum)
    assert rep.flagged == 0
    assert 0 <= rep.argmax_index < len(BALLS)


def test_weight_positivity_audit():
    constant_weight(2.0).validate_positive(BOX)
    with pytest.raises(InvalidInputError):
        custom_weight("x1 - 2", 2).validate_positive(BOX)
    with pytest.raises(InvalidInputError):
        constant_weight(-1.0)


def test_non_positive_weight_raises_wherever_it_is_read():
    w = custom_weight("x1 - 0.5", 2)
    u = named_form("poly:x1", 2)
    balls = ball_family(default_domain(2), 4, 0.25, expansion=1.1)
    with pytest.raises(InvalidInputError, match="not positive at"):
        lp_norm(u, BOX, 2.0, weight=w, resolution=21)
    with pytest.raises(InvalidInputError, match="not positive at"):
        luxemburg_norm(u, BOX, power(2.0), weight=w, resolution=21)
    with pytest.raises(InvalidInputError, match="not positive at"):
        check_a_class(w, 2.0, 3.0, 0.75, balls, resolution=9)


def _signed_density(p):
    return p[:, 0] - 0.5


def test_lp_norm_rejects_a_bare_callable_weight_that_is_not_positive():
    # read as a signed density it would give 0.2887
    u = named_form("poly:x1", 2)
    with pytest.raises(InvalidInputError,
                       match="weight _signed_density is not positive at 231 of 441 "
                             "quadrature nodes"):
        lp_norm(u, BOX, 2.0, weight=_signed_density, resolution=21)
    assert lp_norm(u, BOX, 2.0, weight=lambda p: p[:, 0] + 0.5, resolution=21) > 0


def test_luxemburg_norm_rejects_a_bare_callable_weight_that_is_not_positive():
    # read as a signed density it would give 0.2974
    u = named_form("poly:x1", 2)
    with pytest.raises(InvalidInputError,
                       match="weight <lambda> is not positive at 231 of 441 "
                             "quadrature nodes"):
        luxemburg_norm(u, BOX, power(2.0), weight=lambda p: p[:, 0] - 0.5,
                       resolution=21)
    assert luxemburg_norm(u, BOX, power(2.0), weight=lambda p: p[:, 0] + 0.5,
                          resolution=21) > 0


def test_a_class_parameter_gates():
    with pytest.raises(InvalidInputError):
        check_a_class(constant_weight(1.0), -1.0, 3.0, 0.75, BALLS)
    with pytest.raises(EmptyBallFamilyError):
        check_a_class(constant_weight(1.0), 2.0, 3.0, 0.75, [])


# ---------------------------------------------------------------- WRH

def test_wrh_constant_finite_for_smooth_form():
    u = named_form("corpus:poly-1form", 2)
    rep = check_wrh(u, s=3.0, t=1.5, rho=1.1, balls=BALLS, resolution=11)
    assert math.isfinite(rep.constant)
    assert rep.constant > 0
    assert rep.degenerate == 0


def test_wrh_zero_form_is_vacuous():
    rep = check_wrh(named_form("zero", 2), s=3.0, t=1.5, rho=1.1,
                    balls=ball_family(BOX, 6, expansion=1.1), resolution=11)
    assert math.isnan(rep.constant)
    assert rep.degenerate == 0
    assert all(e["flag"] == "zero" for e in rep.entries)


def test_wrh_requires_expanding_rho():
    u = named_form("corpus:poly-1form", 2)
    with pytest.raises(InvalidInputError):
        check_wrh(u, s=3.0, t=1.5, rho=1.0, balls=BALLS)


def test_wrh_requires_balls():
    with pytest.raises(EmptyBallFamilyError):
        check_wrh(named_form("corpus:poly-1form", 2), s=3.0, t=1.5, rho=1.1, balls=[])


# ---------------------------------------------------------------- oscillation

def test_closed_constant_form_has_negligible_oscillation():
    u = named_form("const:dx1", 2)
    for kind in ("bmo", "lipschitz"):
        res = oscillation_norm(u, BOX, power(2.0),
                               OscillationNormSpec(kind=kind, ball_count=8),
                               ball_resolution=9)
        assert res.value < 1e-8


def test_bmo_below_lipschitz_on_unit_square():
    # per ball the two differ by |B|^{k/n} <= 1 once |B| <= 1
    u = named_form("corpus:poly-0form", 2)
    spec = dict(ball_count=8)
    bmo = oscillation_norm(u, BOX, power(2.0),
                           OscillationNormSpec(kind="bmo", **spec),
                           ball_resolution=9)
    lip = oscillation_norm(u, BOX, power(2.0),
                           OscillationNormSpec(kind="lipschitz", k=0.5, **spec),
                           ball_resolution=9)
    assert bmo.value <= lip.value
    assert bmo.argmax_ball is not None
    assert len(bmo.per_ball) == 8


def test_oscillation_profile_reuse_is_consistent():
    u = named_form("corpus:trig-0form", 2)
    balls = ball_family(BOX, 8, expansion=1.1)
    profile = oscillation_profile(u, balls, power(2.0), ball_resolution=9)
    fresh = oscillation_norm(u, BOX, power(2.0),
                             OscillationNormSpec(kind="bmo", ball_count=8),
                             ball_resolution=9)
    reused = oscillation_sup(profile, balls, "bmo", 0.5)
    assert reused.value == pytest.approx(fresh.value, rel=1e-12)


def test_per_ball_lists_must_match_the_balls():
    u = named_form("corpus:trig-0form", 2)
    balls = ball_family(BOX, 4, expansion=1.1)
    with pytest.raises(InvalidInputError, match="profile has 1 entries for 4 balls"):
        oscillation_sup([1.0], balls, "bmo", 0.5)
    with pytest.raises(InvalidInputError, match="residuals has 1 entries for 4 balls"):
        oscillation_profile(u, balls, power(2.0), ball_resolution=9,
                            residuals=[np.ones(3)])


def test_constant_weight_scales_quadratic_norm_by_square_root():
    u = named_form("corpus:poly-0form", 2)
    spec = OscillationNormSpec(kind="bmo", ball_count=8)
    plain = oscillation_norm(u, BOX, power(2.0), spec, ball_resolution=9)
    weighted = oscillation_norm(u, BOX, power(2.0), spec,
                                weight=constant_weight(4.0), ball_resolution=9)
    assert weighted.value == pytest.approx(2.0 * plain.value, rel=1e-9)


def test_oscillation_norm_rejects_unknown_kind():
    u = named_form("const:dx1", 2)
    with pytest.raises(InvalidInputError):
        oscillation_norm(u, BOX, power(2.0), OscillationNormSpec(kind="osc"))


def test_oscillation_sup_checks_kind_exponent_and_family():
    balls = ball_family(BOX, 4, expansion=1.1)
    with pytest.raises(InvalidInputError, match="kind must be 'bmo' or 'lipschitz'"):
        oscillation_sup([1.0] * 4, balls, "osc", 0.5)
    for k in (0.0, 1.0, math.nan):
        with pytest.raises(InvalidInputError, match="Lipschitz exponent k"):
            oscillation_sup([1.0] * 4, balls, "lipschitz", k)
    with pytest.raises(EmptyBallFamilyError, match="no admissible balls"):
        oscillation_sup([], [], "bmo", 0.5)
    # the exponents -1 and -(n + k)/n, on the closed-form ball volumes
    bmo = oscillation_sup([1.0] * 4, balls, "bmo", 0.5)
    lip = oscillation_sup([1.0] * 4, balls, "lipschitz", 0.5)
    assert bmo.per_ball == [b.volume() ** -1.0 for b in balls]
    assert lip.per_ball == [b.volume() ** -1.25 for b in balls]
    assert bmo.value == max(bmo.per_ball) and bmo.argmax_ball in balls
