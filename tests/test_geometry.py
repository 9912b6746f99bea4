import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orliczforms import Ball, Box, ball_family, ball_inside, ball_volume
from orliczforms.errors import EmptyBallFamilyError, InvalidInputError


def test_box_basic_measures():
    box = Box([0.0, 0.0], [2.0, 1.0])
    assert box.volume() == pytest.approx(2.0)
    assert box.diameter() == pytest.approx(math.sqrt(5.0))
    assert box.inradius() == pytest.approx(0.5)
    np.testing.assert_allclose(box.centroid(), [1.0, 0.5])
    assert box.contains(np.array([0.1, 0.9]))
    assert not box.contains(np.array([2.1, 0.5]))


def test_box_rejects_inverted_bounds():
    with pytest.raises(InvalidInputError):
        Box([0.0, 1.0], [1.0, 0.0])


def test_ball_measures():
    ball = Ball([0.5, 0.5], 0.25)
    assert ball.volume() == pytest.approx(math.pi * 0.25 ** 2)
    assert ball.diameter() == pytest.approx(0.5)
    assert ball.contains(np.array([0.5, 0.7]))
    assert not ball.contains(np.array([0.5, 0.76]))
    assert ball_volume(3, 1.0) == pytest.approx(4.0 / 3.0 * math.pi)


def test_box_quadrature_integrates_polynomials_exactly_enough():
    box = Box([0.0, 0.0], [1.0, 1.0])
    quad = box.quadrature(41)
    # int x1^2 x2 over unit square = 1/6
    vals = quad.points[:, 0] ** 2 * quad.points[:, 1]
    assert float(np.dot(quad.weights, vals)) == pytest.approx(1.0 / 6.0, rel=1e-6)
    assert float(quad.weights.sum()) == pytest.approx(1.0, rel=1e-12)


def test_ball_quadrature_mass_converges_to_volume():
    ball = Ball([0.5, 0.5], 0.3)
    coarse = abs(ball.quadrature(51).weights.sum() - ball.volume())
    fine = abs(ball.quadrature(201).weights.sum() - ball.volume())
    assert fine < coarse
    assert fine < 1e-3 * ball.volume()


@pytest.mark.parametrize("make", [lambda: Box([0.0, 0.0], [1.0, 1.0]),
                                  lambda: Box([0.0, -1.0, 0.5], [1.0, 1.0, 2.0]),
                                  lambda: Ball([0.5, 0.5], 0.3)],
                         ids=["box", "box3d", "ball"])
def test_quadrature_built_once_and_shared_read_only(make):
    region = make()
    quad = region.quadrature(9)
    region.quadrature(13)
    assert region.quadrature(9) is quad
    for arr in (quad.points, quad.weights):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    fresh = make().quadrature(9)
    assert np.array_equal(quad.points, fresh.points)
    assert np.array_equal(quad.weights, fresh.weights)


def test_ball_dilate_built_once_per_factor_and_shared():
    ball = Ball([0.5, 0.5], 0.2)
    dilate = ball.scaled(1.3)
    assert ball.scaled(1.3) is dilate
    assert ball.scaled(1.1) is not dilate
    assert np.array_equal(dilate.center, ball.center)
    assert dilate.radius == 0.2 * 1.3


def test_ball_inside_respects_expansion():
    box = Box([0.0, 0.0], [1.0, 1.0])
    assert ball_inside(box, Ball([0.5, 0.5], 0.4))
    assert not ball_inside(box, Ball([0.5, 0.5], 0.6))
    assert not ball_inside(box, Ball([0.05, 0.5], 0.1))


def test_ball_family_fits_domain_with_expansion():
    box = Box([0.0, 0.0], [1.0, 1.0])
    fam = ball_family(box, 24, expansion=1.1)
    assert len(fam) == 24
    for b in fam:
        assert ball_inside(box, Ball(b.center, 1.1 * b.radius))


def test_ball_family_nested_by_prefix():
    box = Box([0.0, 0.0], [1.0, 1.0])
    small = ball_family(box, 8, expansion=1.1)
    large = ball_family(box, 20, expansion=1.1)
    for a, b in zip(small, large):
        np.testing.assert_allclose(a.center, b.center)
        assert a.radius == b.radius


def test_ball_family_survives_huge_expansion():
    # expansion 100 forces tiny balls but must not empty the family
    box = Box([0.0, 0.0], [1.0, 1.0])
    fam = ball_family(box, 10, expansion=100.0)
    assert len(fam) == 10
    for b in fam:
        assert ball_inside(box, Ball(b.center, 100.0 * b.radius))
        assert b.radius > 0.0


def test_ball_family_unsatisfiable_expansion_raises():
    box = Box([0.0, 0.0], [1.0, 1.0])
    with pytest.raises(EmptyBallFamilyError):
        ball_family(box, 4, expansion=math.inf)


@given(st.integers(1, 30))
@settings(max_examples=15, deadline=None)
def test_ball_family_count_honoured(count):
    box = Box([0.0, 0.0], [1.0, 1.0])
    fam = ball_family(box, count, expansion=1.1)
    assert len(fam) == count


def test_ball_quadrature_points_stay_inside():
    ball = Ball([0.3, 0.7], 0.2)
    quad = ball.quadrature(31)
    r = np.linalg.norm(quad.points - np.array([0.3, 0.7]), axis=1)
    assert float(r.max()) <= 0.2 + 1e-12
    assert (quad.weights > 0).all()
