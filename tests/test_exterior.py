"""Pointwise alternating-algebra identities.

Everything here is exact linear algebra on covector coefficients, so the
tolerances are rounding-level.
"""
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orliczforms import CovectorValue, hodge_star, modulus, wedge
from orliczforms.exterior import (MultiIndex, _contraction_table, _wedge_table,
                                  contract_coeffs, multi_indices, num_components,
                                  wedge_coeffs)
from orliczforms.errors import InvalidInputError


def random_covector(rng, n, l):
    return CovectorValue(n, l, rng.standard_normal(num_components(n, l)))


# ---------------------------------------------------------------- indices

def test_num_components_binomial():
    for n in (2, 3, 4):
        for l in range(n + 1):
            assert num_components(n, l) == math.comb(n, l)


def test_multi_indices_sorted_strictly_increasing():
    for n in (2, 3, 4):
        for l in range(n + 1):
            idx = multi_indices(n, l)
            assert len(idx) == math.comb(n, l)
            for mi in idx:
                assert all(1 <= a <= n for a in mi.indices)
                assert all(a < b for a, b in zip(mi.indices, mi.indices[1:]))
            # lexicographic order
            assert [mi.indices for mi in idx] == sorted(mi.indices for mi in idx)


def test_multi_index_rejects_unsorted():
    with pytest.raises(InvalidInputError):
        MultiIndex(3, (2, 1))
    with pytest.raises(InvalidInputError):
        MultiIndex(3, (1, 1))
    with pytest.raises(InvalidInputError):
        MultiIndex(3, (0, 1))


# ---------------------------------------------------------------- wedge

@given(st.integers(0, 42))
def test_wedge_anticommutes_on_one_forms(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    a = random_covector(rng, n, 1)
    b = random_covector(rng, n, 1)
    ab = wedge(a, b)
    ba = wedge(b, a)
    assert ab.degree == 2
    np.testing.assert_allclose(ab.coeffs, -ba.coeffs, atol=1e-12)


@given(st.integers(0, 42))
def test_wedge_graded_commutativity(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    for la, lb in itertools.product(range(n + 1), repeat=2):
        if la + lb > n:
            continue
        a = random_covector(rng, n, la)
        b = random_covector(rng, n, lb)
        sign = (-1.0) ** (la * lb)
        np.testing.assert_allclose(wedge(a, b).coeffs,
                                   sign * wedge(b, a).coeffs, atol=1e-12)


def test_wedge_with_self_vanishes():
    rng = np.random.default_rng(7)
    for n in (2, 3, 4):
        a = random_covector(rng, n, 1)
        np.testing.assert_allclose(wedge(a, a).coeffs, 0.0, atol=1e-12)


def test_wedge_degree_overflow_rejected():
    rng = np.random.default_rng(0)
    a = random_covector(rng, 2, 1)
    b = random_covector(rng, 2, 2)
    with pytest.raises(InvalidInputError):
        wedge(a, b)


def test_wedge_dimension_mismatch_rejected():
    rng = np.random.default_rng(0)
    with pytest.raises(InvalidInputError):
        wedge(random_covector(rng, 2, 1), random_covector(rng, 3, 1))


def test_wedge_bilinear():
    rng = np.random.default_rng(3)
    a, a2 = (random_covector(rng, 3, 1) for _ in range(2))
    b = random_covector(rng, 3, 2)
    lhs = wedge(CovectorValue(3, 1, a.coeffs + 2.0 * a2.coeffs), b)
    rhs = wedge(a, b).coeffs + 2.0 * wedge(a2, b).coeffs
    np.testing.assert_allclose(lhs.coeffs, rhs, atol=1e-12)


# ---------------------------------------------------------------- star

@given(st.integers(0, 99))
@settings(max_examples=40)
def test_double_star_sign_law(seed):
    # ** = (-1)^{l(n-l)} on l-covectors
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    l = int(rng.integers(0, n + 1))
    a = random_covector(rng, n, l)
    ss = hodge_star(hodge_star(a))
    sign = (-1.0) ** (l * (n - l))
    np.testing.assert_allclose(ss.coeffs, sign * a.coeffs, atol=1e-12)


def test_star_is_isometry():
    rng = np.random.default_rng(11)
    for n in (2, 3):
        for l in range(n + 1):
            a = random_covector(rng, n, l)
            assert hodge_star(a).degree == n - l
            assert modulus(hodge_star(a)) == pytest.approx(modulus(a), abs=1e-12)


def test_star_volume_form():
    one = CovectorValue.scalar(3, 1.0)
    vol = hodge_star(one)
    assert vol.degree == 3
    np.testing.assert_allclose(vol.coeffs, [1.0])
    np.testing.assert_allclose(hodge_star(vol).coeffs, [1.0])


@given(st.integers(0, 99))
@settings(max_examples=40)
def test_modulus_squared_is_star_of_u_wedge_star_u(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    l = int(rng.integers(0, n + 1))
    a = random_covector(rng, n, l)
    pairing = hodge_star(wedge(a, hodge_star(a)))
    assert pairing.degree == 0
    assert float(pairing.coeffs[0]) == pytest.approx(modulus(a) ** 2, rel=1e-12, abs=1e-12)


def test_modulus_is_euclidean_norm_of_coeffs():
    a = CovectorValue(3, 2, np.array([3.0, 0.0, 4.0]))
    assert modulus(a) == pytest.approx(5.0, abs=1e-15)


# ---------------------------------------------------------------- array kernels
# Both kernels must stay bit-identical to an np.add.at scatter of the same
# table rows: the same signed products, added into the output in table order.

def _scatter(out_shape, io, products):
    out = np.zeros(out_shape)
    np.add.at(out, np.asarray(io, dtype=np.intp), products)
    return out


def test_contract_kernel_bit_identical_to_scatter():
    rng = np.random.default_rng(5)
    m = 17
    for n in (1, 2, 3):
        for l in range(1, n + 1):
            a = rng.standard_normal((num_components(n, l), 32, m))
            v = rng.standard_normal((n, 1, m))
            io, ii, ax, sg = (np.array(c) for c in zip(*_contraction_table(n, l)))
            ref = _scatter((num_components(n, l - 1), 32, m), io,
                           sg.reshape(-1, 1, 1) * v[ax] * a[ii])
            assert np.array_equal(contract_coeffs(n, l, a, v), ref), (n, l)


def test_wedge_kernel_bit_identical_to_scatter():
    rng = np.random.default_rng(6)
    m = 17
    for n in (1, 2, 3):
        for la in range(n + 1):
            for lb in range(n - la + 1):
                a = rng.standard_normal((num_components(n, la), 32, m))
                b = rng.standard_normal((num_components(n, lb), 1, m))
                ia, ib, io, sg = (np.array(c) for c in zip(*_wedge_table(n, la, lb)))
                ref = _scatter((num_components(n, la + lb), 32, m), io,
                               sg.reshape(-1, 1, 1) * a[ia] * b[ib])
                assert np.array_equal(wedge_coeffs(n, la, lb, a, b), ref), (n, la, lb)
