from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_spd, random_symmetric
from gaussgeom.algebra import BasisIndex, basis_indices
from gaussgeom.group import (
    GroupElement,
    act,
    act_tangent,
    group_inv,
    group_mul,
    phi,
    phi_inv,
    pull_back_to_identity,
    transporter,
    upper_cholesky,
)
from gaussgeom.manifold import ManifoldPoint, TangentVector, basis_tangent, fisher_metric


def random_group(rng, n):
    a = np.triu(0.3 * rng.normal(size=(n, n)))
    np.fill_diagonal(a, rng.uniform(0.5, 1.8, size=n))
    return GroupElement(a, rng.normal(size=n))


def random_point(rng, n):
    return ManifoldPoint(random_spd(rng, n), rng.normal(size=n))


def points_close(p, q, tol):
    return (
        float(np.max(np.abs(p.sigma - q.sigma))) <= tol
        and float(np.max(np.abs(p.mu - q.mu))) <= tol
    )


class TestGroupElement:
    def test_rejects_lower_triangular_part(self):
        with pytest.raises(ValueError, match="upper triangular"):
            GroupElement([[1.0, 0.0], [0.5, 1.0]], [0.0, 0.0])

    def test_rejects_nonpositive_diagonal(self):
        with pytest.raises(ValueError, match="positive"):
            GroupElement([[1.0, 0.2], [0.0, -2.0]], [0.0, 0.0])

    def test_identity_is_neutral(self):
        rng = np.random.default_rng(0)
        g = random_group(rng, 3)
        e = GroupElement.identity(3)
        h = group_mul(g, e)
        assert np.allclose(h.a, g.a) and np.allclose(h.b, g.b)

    def test_inverse(self):
        rng = np.random.default_rng(1)
        g = random_group(rng, 3)
        h = group_mul(g, group_inv(g))
        assert np.max(np.abs(h.a - np.eye(3))) <= 1e-12
        assert np.max(np.abs(h.b)) <= 1e-12

    def test_block_product(self):
        g = GroupElement([[2.0, 1.0], [0.0, 1.0]], [1.0, 0.0])
        h = GroupElement([[1.0, 0.0], [0.0, 3.0]], [0.0, 2.0])
        gh = group_mul(g, h)
        assert np.allclose(gh.a, [[2.0, 3.0], [0.0, 3.0]])
        assert np.allclose(gh.b, [3.0, 2.0])

    def test_product_stays_triangular(self):
        rng = np.random.default_rng(2)
        g, h = random_group(rng, 4), random_group(rng, 4)
        gh = group_mul(g, h)
        assert np.array_equal(np.tril(gh.a, -1), np.zeros((4, 4)))
        assert np.all(np.diag(gh.a) > 0)


class TestAction:
    def test_pure_translation(self):
        p = ManifoldPoint.standard(2)
        g = GroupElement(np.eye(2), [1.0, -2.0])
        q = act(g, p)
        assert np.allclose(q.sigma, np.eye(2)) and np.allclose(q.mu, [1.0, -2.0])

    def test_dilation(self):
        p = ManifoldPoint.standard(2)
        g = GroupElement(2.0 * np.eye(2), np.zeros(2))
        q = act(g, p)
        assert np.allclose(q.sigma, 4.0 * np.eye(2)) and np.allclose(q.mu, 0.0)

    def test_composition_law(self):
        rng = np.random.default_rng(3)
        for n in (1, 2, 3):
            g, h, p = random_group(rng, n), random_group(rng, n), random_point(rng, n)
            assert points_close(act(group_mul(g, h), p), act(g, act(h, p)), 1e-10)

    def test_action_preserves_positive_definiteness(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            q = act(random_group(rng, 3), random_point(rng, 3))
            np.linalg.cholesky(q.sigma)  # raises if not SPD

    def test_tangent_identity(self):
        t = TangentVector(np.eye(2), [1.0, 2.0])
        moved = act_tangent(GroupElement.identity(2), t)
        assert np.allclose(moved.x, t.x) and np.allclose(moved.v, t.v)

    def test_tangent_dilation(self):
        t = TangentVector(np.diag([1.0, 0.0]), np.zeros(2))
        g = GroupElement(np.diag([2.0, 1.0]), np.zeros(2))
        moved = act_tangent(g, t)
        assert np.allclose(moved.x, np.diag([4.0, 0.0]))

    def test_tangent_linearity(self):
        rng = np.random.default_rng(5)
        g = random_group(rng, 3)
        s = TangentVector(random_symmetric(rng, 3), rng.normal(size=3))
        t = TangentVector(random_symmetric(rng, 3), rng.normal(size=3))
        combo = TangentVector(2.0 * s.x - t.x, 2.0 * s.v - t.v)
        moved = act_tangent(g, combo)
        ms, mt = act_tangent(g, s), act_tangent(g, t)
        assert np.max(np.abs(moved.x - (2.0 * ms.x - mt.x))) <= 1e-12
        assert np.max(np.abs(moved.v - (2.0 * ms.v - mt.v))) <= 1e-12


class TestIdentification:
    def test_upper_cholesky_factors(self):
        rng = np.random.default_rng(6)
        sigma = random_spd(rng, 4)
        a = upper_cholesky(sigma)
        assert np.array_equal(np.tril(a, -1), np.zeros((4, 4)))
        assert np.all(np.diag(a) > 0)
        assert np.max(np.abs(a @ a.T - sigma)) <= 1e-10

    @pytest.mark.parametrize("scale", [1e-20, 1e-300, 1e300])
    def test_upper_cholesky_pivot_floor_is_relative(self, scale):
        sigma = scale * np.array([[2.0, 1.0], [1.0, 2.0]])
        a = upper_cholesky(sigma)
        assert np.max(np.abs(a @ a.T - sigma)) <= 1e-12 * scale

    def test_upper_cholesky_rejects_near_singular(self):
        with pytest.raises(ValueError, match="numerically singular"):
            upper_cholesky(np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14]]))

    def test_upper_cholesky_rejects_indefinite(self):
        with pytest.raises(ValueError, match="positive definite"):
            upper_cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_phi_at_identity(self):
        p = phi(GroupElement.identity(2))
        assert np.allclose(p.sigma, np.eye(2)) and np.allclose(p.mu, 0.0)

    def test_phi_inv_diagonal(self):
        g = phi_inv(ManifoldPoint(np.diag([4.0, 1.0]), np.zeros(2)))
        assert np.allclose(g.a, np.diag([2.0, 1.0]))

    def test_round_trips(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            p = random_point(rng, n)
            assert points_close(phi(phi_inv(p)), p, 1e-10)
            g = random_group(rng, n)
            h = phi_inv(phi(g))
            assert np.max(np.abs(h.a - g.a)) <= 1e-10
            assert np.max(np.abs(h.b - g.b)) <= 1e-10

    def test_simple_transitivity(self):
        rng = np.random.default_rng(8)
        for n in (1, 2, 3):
            p, q = random_point(rng, n), random_point(rng, n)
            g = transporter(p, q)
            assert points_close(act(g, p), q, 1e-10)
            e = transporter(p, p)
            assert np.max(np.abs(e.a - np.eye(n))) <= 1e-10
            assert np.max(np.abs(e.b)) <= 1e-10


class TestPullBack:
    def test_mean_direction_at_identity(self):
        p = ManifoldPoint.standard(2)
        t = TangentVector(np.zeros((2, 2)), [1.0, 0.0])
        coeffs = pull_back_to_identity(p, t)
        expected = np.zeros(len(basis_indices(2)))
        expected[0] = 1.0
        assert np.allclose(coeffs, expected)

    def test_diagonal_direction_at_identity(self):
        p = ManifoldPoint.standard(1)
        t = TangentVector([[math.sqrt(2.0)]], [0.0])
        coeffs = pull_back_to_identity(p, t)
        assert np.allclose(coeffs, [0.0, 1.0])

    def test_basis_tangents_give_unit_coefficients(self):
        for n in (1, 2, 3):
            p = ManifoldPoint.standard(n)
            for pos, idx in enumerate(basis_indices(n)):
                coeffs = pull_back_to_identity(p, basis_tangent(n, idx))
                expected = np.zeros(len(basis_indices(n)))
                expected[pos] = 1.0
                assert np.allclose(coeffs, expected, atol=1e-14)

    def test_linear_in_tangent(self):
        rng = np.random.default_rng(9)
        p = random_point(rng, 3)
        s = TangentVector(random_symmetric(rng, 3), rng.normal(size=3))
        t = TangentVector(random_symmetric(rng, 3), rng.normal(size=3))
        combo = TangentVector(0.5 * s.x + 2.0 * t.x, 0.5 * s.v + 2.0 * t.v)
        lhs = pull_back_to_identity(p, combo)
        rhs = 0.5 * pull_back_to_identity(p, s) + 2.0 * pull_back_to_identity(p, t)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10

    def test_intertwines_metric_with_euclidean_product(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            n = int(rng.integers(1, 4))
            p = random_point(rng, n)
            s = TangentVector(random_symmetric(rng, n), rng.normal(size=n))
            t = TangentVector(random_symmetric(rng, n), rng.normal(size=n))
            flat = float(
                pull_back_to_identity(p, s) @ pull_back_to_identity(p, t)
            )
            curved = fisher_metric(p, s, t)
            assert abs(flat - curved) <= 1e-9 * max(1.0, abs(curved))


class TestPullBackPin:
    @given(st.integers(1, 16), st.floats(1e-3, 1e3), st.integers(0, 2**32 - 1))
    def test_matches_per_index_formula(self, n, scale, seed):
        rng = np.random.default_rng(seed)
        p = ManifoldPoint(scale * random_spd(rng, n), rng.normal(size=n))
        t = TangentVector(random_symmetric(rng, n), rng.normal(size=n))
        g = group_inv(phi_inv(p))
        assert np.array_equal(np.tril(g.a, -1), np.zeros((n, n)))
        # the coefficient of each basis direction, read index by index
        moved = act_tangent(g, t)
        expected = np.zeros(len(basis_indices(n)))
        for pos, idx in enumerate(basis_indices(n)):
            if idx.is_mean:
                expected[pos] = moved.v[idx.i - 1]
            elif idx.i == idx.j:
                expected[pos] = moved.x[idx.i - 1, idx.i - 1] / math.sqrt(2.0)
            else:
                expected[pos] = moved.x[idx.i - 1, idx.j - 1]
        assert np.array_equal(pull_back_to_identity(p, t), expected)


class TestLargeElements:
    @given(st.integers(1, 4), st.floats(1.0, 1e6), st.integers(0, 2**32 - 1))
    def test_act_accepts_valid_elements_up_to_1e6(self, n, scale, seed):
        # the products round relative to their entries, up to about 1e12 here;
        # the diagonal is at least a quarter of the scale, so they stay well
        # conditioned and every failure would be a rejected valid input
        rng = np.random.default_rng(seed)
        a = np.triu(rng.uniform(-scale, scale, size=(n, n)))
        np.fill_diagonal(a, rng.uniform(scale / 4, scale, size=n))
        g = GroupElement(a, rng.uniform(-scale, scale, size=n))
        act(g, random_point(rng, n))
        act_tangent(g, TangentVector(random_symmetric(rng, n), rng.normal(size=n)))
