import numpy as np
import pytest

from conebarrier import cones
from conebarrier.cones import (
    ConeBlock,
    barrier_factor,
    barrier_gradient,
    barrier_hessian,
    barrier_value,
    dual_membership,
    interior_membership,
    local_norm_dual,
    local_norm_primal,
    orthant,
    product,
    second_order,
)
from conebarrier.counters import OpCounters
from conebarrier.errors import BoundaryError, FactorizationError

from conftest import CONE_FAMILIES, random_interior_point


def finite_diff_gradient(cone, x, h=1e-6):
    n = x.size
    g = np.empty(n)
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        g[i] = (barrier_value(cone, x + e) - barrier_value(cone, x - e)) / (2 * h)
    return g


def finite_diff_hessian(cone, x, h=1e-6):
    n = x.size
    hess = np.empty((n, n))
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        hess[:, i] = (barrier_gradient(cone, x + e) - barrier_gradient(cone, x - e)) / (2 * h)
    return 0.5 * (hess + hess.T)


class TestConeStructure:
    def test_theta_additive(self):
        cone = product(ConeBlock("orthant", 3), ConeBlock("soc", 5))
        assert cone.total_dim == 8
        assert cone.theta == 3 + 2

    def test_block_validation(self):
        with pytest.raises(ValueError):
            ConeBlock("soc", 1)
        with pytest.raises(ValueError):
            ConeBlock("orthant", 0)
        with pytest.raises(ValueError):
            ConeBlock("simplex", 3)

    def test_describe_round_trip(self):
        cone = product(ConeBlock("orthant", 2), ConeBlock("soc", 3))
        assert cones.cone_from_description(cone.describe()) == cone


class TestBarrierValue:
    def test_orthant_ones(self):
        assert barrier_value(orthant(2), np.array([1.0, 1.0])) == 0.0

    def test_soc_unit(self):
        assert barrier_value(second_order(2), np.array([1.0, 0.0])) == 0.0

    def test_orthant_single(self):
        assert barrier_value(orthant(1), np.array([2.0])) == pytest.approx(-np.log(2.0))

    def test_boundary_raises(self):
        with pytest.raises(BoundaryError):
            barrier_value(orthant(2), np.array([0.0, 1.0]))
        with pytest.raises(BoundaryError):
            barrier_value(second_order(3), np.array([1.0, 0.6, 0.8]))


class TestBarrierGradient:
    def test_orthant_ones(self):
        np.testing.assert_allclose(
            barrier_gradient(orthant(2), np.array([1.0, 1.0])), [-1.0, -1.0]
        )

    def test_orthant_mixed(self):
        np.testing.assert_allclose(
            barrier_gradient(orthant(2), np.array([0.5, 2.0])), [-2.0, -0.5]
        )

    def test_soc_against_finite_differences(self):
        cone = second_order(2)
        x = np.array([1.0, 0.0])
        np.testing.assert_allclose(barrier_gradient(cone, x), [-2.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(
            barrier_gradient(cone, x), finite_diff_gradient(cone, x), atol=1e-6
        )


class TestBarrierFactor:
    def test_orthant_half(self):
        factor = barrier_factor(orthant(2), np.array([0.5, 0.5]))
        np.testing.assert_allclose(factor.lower, np.diag([2.0, 2.0]))

    def test_soc_unit(self):
        factor = barrier_factor(second_order(2), np.array([1.0, 0.0]))
        np.testing.assert_allclose(factor.lower, np.diag([np.sqrt(2.0)] * 2), atol=1e-12)

    def test_orthant_small(self):
        factor = barrier_factor(orthant(1), np.array([0.1]))
        np.testing.assert_allclose(factor.lower, [[10.0]])

    @pytest.mark.parametrize("t", [1e-160, 1e160])
    def test_soc_extreme_scale_raises_typed_error(self, t):
        # interior points whose gap t^2 under- or overflows: the pivots are 1/0 or 0 * inf
        with pytest.raises(FactorizationError):
            barrier_factor(second_order(3), np.array([t, 0.0, 0.0]))
        with pytest.raises(FactorizationError):
            barrier_hessian(second_order(3), np.array([t, 0.0, 0.0]))

    def test_counter_increment(self):
        counters = OpCounters()
        barrier_factor(orthant(3), np.ones(3), counters)
        barrier_factor(orthant(3), np.ones(3), counters)
        assert counters.cholesky == 2

    @pytest.mark.parametrize("cone", CONE_FAMILIES, ids=lambda c: f"{len(c.blocks)}b{c.total_dim}")
    def test_factor_reproduces_hessian(self, cone, rng):
        for _ in range(5):
            x = random_interior_point(cone, rng)
            factor = barrier_factor(cone, x)
            hess = barrier_hessian(cone, x)
            np.testing.assert_allclose(
                factor.lower @ factor.lower.T, hess, rtol=1e-10, atol=1e-12
            )
            assert np.all(np.diag(factor.lower) > 0)


class TestLocalNorms:
    def test_primal_identity_factor(self):
        factor = barrier_factor(orthant(2), np.array([1.0, 1.0]))
        assert local_norm_primal(factor, np.array([3.0, 4.0])) == pytest.approx(5.0)

    def test_primal_scaled(self):
        factor = barrier_factor(orthant(2), np.array([0.5, 0.5]))
        assert local_norm_primal(factor, np.array([1.0, 0.0])) == pytest.approx(2.0)

    def test_dual_identity_factor(self):
        factor = barrier_factor(orthant(2), np.array([1.0, 1.0]))
        assert local_norm_dual(factor, np.array([3.0, 4.0])) == pytest.approx(5.0)

    def test_dual_scaled(self):
        factor = barrier_factor(orthant(2), np.array([0.5, 0.5]))
        assert local_norm_dual(factor, np.array([2.0, 0.0])) == pytest.approx(1.0)

    def test_dual_counts_solve(self):
        counters = OpCounters()
        factor = barrier_factor(orthant(2), np.array([1.0, 2.0]), counters)
        local_norm_dual(factor, np.array([1.0, 1.0]), counters)
        assert counters.tri_solve == 1


class TestMembership:
    def test_interior_tiny_positive(self):
        assert interior_membership(orthant(2), np.array([1e-9, 1.0]), 0.0)

    def test_interior_boundary(self):
        assert not interior_membership(orthant(2), np.array([0.0, 1.0]), 0.0)

    def test_interior_soc_boundary(self):
        assert not interior_membership(second_order(3), np.array([1.0, 0.6, 0.8]), 0.0)

    def test_dual_orthant(self):
        assert dual_membership(orthant(2), np.array([0.0, 3.0]), 0.0)
        assert not dual_membership(orthant(2), np.array([-1e-3, 3.0]), 1e-6)

    def test_dual_soc_boundary(self):
        assert dual_membership(second_order(2), np.array([1.0, -1.0]), 0.0)


@pytest.mark.parametrize("cone", CONE_FAMILIES, ids=lambda c: f"{len(c.blocks)}b{c.total_dim}")
class TestBarrierIdentities:
    def test_log_homogeneity(self, cone, rng):
        for _ in range(20):
            x = random_interior_point(cone, rng)
            bx = barrier_value(cone, x)
            for t in (0.5, 2.0, 10.0):
                lhs = barrier_value(cone, t * x)
                assert abs(lhs - bx + cone.theta * np.log(t)) <= 1e-8 * (1.0 + abs(bx))

    def test_gradient_identities(self, cone, rng):
        theta = cone.theta
        for _ in range(20):
            x = random_interior_point(cone, rng)
            factor = barrier_factor(cone, x)
            grad = barrier_gradient(cone, x)
            assert abs(local_norm_dual(factor, grad) ** 2 - theta) <= 1e-8 * theta
            assert abs(-x @ grad - theta) <= 1e-8 * theta
            assert abs(local_norm_primal(factor, x) ** 2 - theta) <= 1e-8 * theta

    def test_hessian_scaling(self, cone, rng):
        for t in (0.5, 2.0, 10.0):
            x = random_interior_point(cone, rng)
            h1 = barrier_hessian(cone, t * x)
            h0 = barrier_hessian(cone, x)
            np.testing.assert_allclose(t**2 * h1, h0, rtol=1e-8, atol=1e-10)

    def test_dikin_ellipsoid(self, cone, rng):
        from scipy.linalg import solve_triangular

        for _ in range(20):
            x = random_interior_point(cone, rng)
            factor = barrier_factor(cone, x)
            u = rng.standard_normal(cone.total_dim)
            u *= 0.999 / np.linalg.norm(u)
            step = solve_triangular(factor.lower.T, u, lower=False)
            assert interior_membership(cone, x + step, 0.0)

    def test_gradient_hessian_consistency(self, cone, rng):
        x = random_interior_point(cone, rng)
        grad = barrier_gradient(cone, x)
        fd_grad = finite_diff_gradient(cone, x)
        scale = max(1.0, np.max(np.abs(grad)))
        assert np.max(np.abs(grad - fd_grad)) / scale <= 1e-6
        hess = barrier_hessian(cone, x)
        fd_hess = finite_diff_hessian(cone, x)
        scale_h = max(1.0, np.max(np.abs(hess)))
        assert np.max(np.abs(hess - fd_hess)) / scale_h <= 1e-6


def test_orthant_inverse_hessian_bound(rng):
    # ||inverse barrier Hessian|| = max x_i^2 <= ||x||^2 on the orthant
    cone = orthant(8)
    for _ in range(50):
        x = random_interior_point(cone, rng)
        inv_norm = np.max(x**2)
        assert inv_norm <= np.dot(x, x) * (1 + 1e-12)
        hess = barrier_hessian(cone, x)
        assert np.linalg.norm(np.linalg.inv(hess), 2) == pytest.approx(inv_norm, rel=1e-10)
