import json
import math

import numpy as np
import pytest

from conebarrier import cones
from conebarrier.certify import barrier_hessian, dual_norm, in_dual_cone, is_interior
from conebarrier.cones import (
    ConeBlock,
    barrier_factor,
    barrier_reads,
    local_norm_dual,
    orthant,
    product,
    second_order,
)
from conebarrier.counters import OpCounters
from conebarrier.errors import BoundaryError, FactorizationError
from conebarrier.linops import IterationWorkspace, empty_affine
from conebarrier.problems import builtin, problem_from_dict
from conebarrier.solver import SolverParams, first_order_gate, solve

from conftest import CONE_FAMILIES, block_factors, dense_lower, primal_local_norm, random_interior_point


def finite_diff_gradient(cone, x, h=1e-6):
    n = x.size
    g = np.empty(n)
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        g[i] = (barrier_reads(cone, x + e)[0] - barrier_reads(cone, x - e)[0]) / (2 * h)
    return g


def finite_diff_hessian(cone, x, h=1e-6):
    n = x.size
    hess = np.empty((n, n))
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        forward, backward = barrier_factor(cone, x + e), barrier_factor(cone, x - e)
        hess[:, i] = (forward.gradient - backward.gradient) / (2 * h)
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
        # a cone's description is a problem file's "cone" field, which the loader reads back
        cone = product(ConeBlock("orthant", 2), ConeBlock("soc", 3))
        data = {"n": 5, "cone": cone.describe(), "x0": [1, 1, 2, 0, 0],
                "objective": {"quadratic": {"Q": np.eye(5).tolist(), "c": [0.0] * 5}}}
        assert problem_from_dict(json.loads(json.dumps(data))).cone == cone


class TestBarrierValue:
    def test_orthant_ones(self):
        assert barrier_reads(orthant(2), np.array([1.0, 1.0]))[0] == 0.0

    def test_soc_unit(self):
        assert barrier_reads(second_order(2), np.array([1.0, 0.0]))[0] == 0.0

    def test_orthant_single(self):
        assert barrier_reads(orthant(1), np.array([2.0]))[0] == pytest.approx(-np.log(2.0))

    def test_boundary_raises(self):
        with pytest.raises(BoundaryError):
            barrier_reads(orthant(2), np.array([0.0, 1.0]))[0]
        with pytest.raises(BoundaryError):
            barrier_reads(second_order(3), np.array([1.0, 0.6, 0.8]))[0]


class TestBarrierGradient:
    def test_orthant_ones(self):
        np.testing.assert_allclose(
            barrier_factor(orthant(2), np.array([1.0, 1.0])).gradient, [-1.0, -1.0]
        )

    def test_orthant_mixed(self):
        np.testing.assert_allclose(
            barrier_factor(orthant(2), np.array([0.5, 2.0])).gradient, [-2.0, -0.5]
        )

    def test_soc_against_finite_differences(self):
        cone = second_order(2)
        x = np.array([1.0, 0.0])
        np.testing.assert_allclose(barrier_factor(cone, x).gradient, [-2.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(
            barrier_factor(cone, x).gradient, finite_diff_gradient(cone, x), atol=1e-6
        )


class TestBarrierFactor:
    def test_orthant_half(self):
        factor = barrier_factor(orthant(2), np.array([0.5, 0.5]))
        np.testing.assert_allclose(dense_lower(factor), np.diag([2.0, 2.0]))

    def test_soc_unit(self):
        factor = barrier_factor(second_order(2), np.array([1.0, 0.0]))
        np.testing.assert_allclose(dense_lower(factor), np.diag([np.sqrt(2.0)] * 2), atol=1e-12)

    def test_orthant_small(self):
        factor = barrier_factor(orthant(1), np.array([0.1]))
        np.testing.assert_allclose(dense_lower(factor), [[10.0]])

    @pytest.mark.parametrize("t", [1e-160, 1e160])
    def test_soc_extreme_scale_raises_typed_error(self, t):
        # the factor (about 1/t) is representable at both scales, the Hessian (about
        # 1/t^2) only at 1e160; as for the orthant, only that Hessian raises, typed
        x = np.array([t, 0.0, 0.0])
        factor = barrier_factor(second_order(3), x)
        np.testing.assert_allclose(dense_lower(factor), np.sqrt(2.0) / t * np.eye(3), rtol=1e-15)
        if t < 1.0:
            with pytest.raises(FactorizationError):
                barrier_hessian(second_order(3), x)
        else:
            assert np.isfinite(barrier_hessian(second_order(3), x)).all()

    @pytest.mark.parametrize("z", [[1.0, 0.0, 0.0], [1.0, 0.3, -0.4]])
    def test_soc_scale_robust_from_1e_minus_150_to_1e150(self, z, rng):
        # logarithmic homogeneity: at t z the gradient is grad(z) / t, the factor
        # L(z) / t and the Hessian H(z) / t^2; RuntimeWarnings are errors here
        cone, z = second_order(3), np.asarray(z)
        unit, unit_hessian = barrier_factor(cone, z), barrier_hessian(cone, z)
        v = rng.standard_normal(3)
        for k in range(-150, 151):
            t = 10.0**k
            factor, hessian = barrier_factor(cone, t * z), barrier_hessian(cone, t * z)
            np.testing.assert_allclose(factor.gradient * t, unit.gradient, rtol=1e-14, atol=0)
            np.testing.assert_allclose(dense_lower(factor) * t, dense_lower(unit), rtol=1e-14, atol=0)
            np.testing.assert_allclose(factor.solve_lower(v) / t, unit.solve_lower(v),
                                       rtol=1e-14, atol=0)
            np.testing.assert_allclose(hessian * t * t, unit_hessian, rtol=1e-14, atol=0)

    def test_soc_value_and_factor_from_1e_minus_300_to_1e300(self):
        # interiority is t - ||u|| > 0 and the value falls back to the unit-scaled gap,
        # so neither fails where t^2 under- or overflows; RuntimeWarnings are errors here
        cone = second_order(3)
        for k in range(-300, 301):
            t = 10.0**k
            x = np.array([t, 0.0, 0.0])
            expected = -2.0 * math.log(t)
            assert abs(barrier_reads(cone, x)[0] - expected) <= 1e-14 * abs(expected), k
            factor = barrier_factor(cone, x)
            assert block_factors(factor)[0][2].root[0] > 0.0 and np.isfinite(factor.gradient).all()

    def test_orthant_extreme_scale_hessian_raises_typed_error(self):
        # 1/x^2 overflows where the factor 1/x does not; RuntimeWarnings are errors here
        x = np.array([1e-160, 1.0])
        barrier_factor(orthant(2), x)
        with pytest.raises(FactorizationError):
            barrier_hessian(orthant(2), x)

    def test_counter_increment(self):
        # the cone layer counts nothing; the solver counts one Cholesky per factor it builds
        p = builtin("soc_quadratic", 6, m=1, seed=0)
        res = solve(p, p.x0, SolverParams(epsilon=0.1, seed=0))
        assert res.iterations > 0
        assert res.trace.counters["cholesky"] == res.iterations + 1

    @pytest.mark.parametrize("cone", CONE_FAMILIES, ids=lambda c: f"{len(c.blocks)}b{c.total_dim}")
    def test_factor_reproduces_hessian(self, cone, rng):
        for _ in range(5):
            x = random_interior_point(cone, rng)
            factor = barrier_factor(cone, x)
            hess = barrier_hessian(cone, x)
            np.testing.assert_allclose(
                dense_lower(factor) @ dense_lower(factor).T, hess, rtol=1e-10, atol=1e-12
            )
            assert np.all(np.diag(dense_lower(factor)) > 0)


class TestSolveBinding:
    """A cone of one group binds that group's solves; only a cone of several walks the groups."""

    @pytest.fixture
    def no_walk(self, monkeypatch):
        def walk(*args):
            raise AssertionError("walked the groups")

        monkeypatch.setattr(cones, "_groupwise", walk)

    @pytest.mark.parametrize("cone", [orthant(5), second_order(4),
                                      builtin("soc_quadratic", 30, m=2, blocks=10).cone],
                             ids=["orthant", "soc", "soc_stack"])
    def test_one_group_cone_solves_without_the_walk(self, cone, no_walk, rng):
        factor = barrier_factor(cone, random_interior_point(cone, rng))
        lower = dense_lower(factor)
        for v in (rng.standard_normal(cone.total_dim), rng.standard_normal((3, cone.total_dim))):
            # row by row, L z = v for the forward solve and L^T z = v for the backward one
            np.testing.assert_allclose(factor.solve_lower(v) @ lower.T, v, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(factor.solve_upper(v) @ lower, v, rtol=1e-12, atol=1e-12)

    def test_two_group_cone_walks(self, no_walk, rng):
        cone = product(ConeBlock("orthant", 2), ConeBlock("soc", 3))
        factor = barrier_factor(cone, random_interior_point(cone, rng))
        for v in (rng.standard_normal(cone.total_dim), rng.standard_normal((3, cone.total_dim))):
            for solve in (factor.solve_lower, factor.solve_upper):
                with pytest.raises(AssertionError, match="walked"):
                    solve(v)


class TestLocalNorms:
    def test_primal_identity_factor(self):
        factor = barrier_factor(orthant(2), np.array([1.0, 1.0]))
        assert np.linalg.norm(dense_lower(factor).T @ np.array([3.0, 4.0])) == pytest.approx(5.0)

    def test_primal_scaled(self):
        factor = barrier_factor(orthant(2), np.array([0.5, 0.5]))
        assert np.linalg.norm(dense_lower(factor).T @ np.array([1.0, 0.0])) == pytest.approx(2.0)

    def test_dual_identity_factor(self):
        factor = barrier_factor(orthant(2), np.array([1.0, 1.0]))
        assert local_norm_dual(factor, np.array([3.0, 4.0])) == pytest.approx(5.0)

    def test_dual_scaled(self):
        factor = barrier_factor(orthant(2), np.array([0.5, 0.5]))
        assert local_norm_dual(factor, np.array([2.0, 0.0])) == pytest.approx(1.0)

    def test_dual_counts_solve(self):
        # the first-order gate counts its one dual local norm as one triangular solve
        factor = barrier_factor(orthant(2), np.array([1.0, 2.0]))
        ws = IterationWorkspace(empty_affine(2), factor, OpCounters())
        g, counters = np.array([1.0, 1.0]), OpCounters()
        first_order_gate(ws, 1e-3, 0.5, g, g, np.zeros(0), 1e-3 * factor.gradient, counters)
        assert counters.snapshot() == {**OpCounters().snapshot(), "tri_solve": 1}


class TestMembership:
    def test_interior_tiny_positive(self):
        x = np.array([1e-9, 1.0])
        assert is_interior(orthant(2), x)
        barrier_reads(orthant(2), x)

    def test_subnormal_orthant_entry_is_rejected_without_warning(self):
        # 1/x overflows below the smallest normal double, so the walk stops there with a
        # typed error rather than an overflow in the factor; RuntimeWarnings are errors here
        x = np.array([1e-310, 0.5])
        for entry_point in (barrier_reads, barrier_factor):
            with pytest.raises(BoundaryError):
                entry_point(orthant(2), x)
        x[0] = 2.0**-1022
        assert block_factors(barrier_factor(orthant(2), x))[0][2][0] == 2.0**1022

    def test_interior_boundary(self):
        assert not is_interior(orthant(2), np.array([0.0, 1.0]))
        with pytest.raises(BoundaryError):
            barrier_reads(orthant(2), np.array([0.0, 1.0]))

    def test_interior_soc_boundary(self):
        assert not is_interior(second_order(3), np.array([1.0, 0.6, 0.8]))
        with pytest.raises(BoundaryError):
            barrier_reads(second_order(3), np.array([1.0, 0.6, 0.8]))

    @pytest.mark.parametrize("cone, x", [
        (orthant(2), [math.nan, 1.0]),
        (second_order(3), [math.nan, 0.0, 0.0]),
        (second_order(3), [1.0, math.nan, 0.0]),
    ], ids=["orthant", "soc-t", "soc-u"])
    def test_nan_entry_is_not_interior(self, cone, x):
        # NaN compares false, so the one walk, every barrier entry point behind it and
        # the certificate's own test all reject it; RuntimeWarnings are errors here
        x = np.array(x)
        for entry_point in (barrier_reads, barrier_factor):
            with pytest.raises(BoundaryError):
                entry_point(cone, x)
        assert not is_interior(cone, x)

    @pytest.mark.parametrize("cone, x", [
        (orthant(2), [math.inf, 1.0]),
        (second_order(3), [math.inf, 0.0, 0.0]),
        (second_order(3), [1.0, math.inf, 0.0]),
        (second_order(3), [math.inf, math.inf, 0.0]),
        (second_order(3), [math.inf, -math.inf, 0.0]),
    ], ids=["orthant", "soc-t", "soc-u", "soc-t-u", "soc-t-minus-u"])
    def test_infinite_entry_is_not_interior(self, cone, x):
        # B would be -inf there, which a line search takes as a decrease; the walk, every
        # barrier entry point and the certificate reject it; RuntimeWarnings are errors here
        x = np.array(x)
        for entry_point in (barrier_reads, barrier_factor):
            with pytest.raises(BoundaryError):
                entry_point(cone, x)
        assert not is_interior(cone, x)

    @pytest.mark.parametrize("cone, n", [
        (orthant(3), 2),
        (orthant(3), 4),
        (product(ConeBlock("orthant", 2), ConeBlock("soc", 3)), 4),
        (product(ConeBlock("orthant", 2), ConeBlock("soc", 3)), 6),
    ], ids=["orthant-short", "orthant-long", "mixed-short", "mixed-long"])
    def test_wrong_length_raises(self, cone, n):
        # every entry of an all-ones vector is interior to a block it reaches, so only the
        # length check rejects it, in the walk and in each certificate function
        x = np.ones(n)
        for entry_point in (barrier_reads, barrier_factor, is_interior, in_dual_cone):
            with pytest.raises(ValueError, match="length"):
                entry_point(cone, x)
        good = np.ones(cone.total_dim)
        for args in ((x, good), (good, x)):
            with pytest.raises(ValueError, match="length"):
                dual_norm(cone, *args)

    def test_soc_interior_from_1e_minus_300_to_1e300(self):
        # ||u||^2 overflows from ||u|| ~ 1.3e154 and underflows below 1e-162, so the
        # SOC test moves to x / 2^e there; RuntimeWarnings are errors here
        cone = second_order(3)
        for k in range(-300, 301):
            t = 10.0**k
            inside, outside = np.array([t, 0.5 * t, 0.0]), np.array([t, 0.0, 2.0 * t])
            assert is_interior(cone, inside) and not is_interior(cone, outside), k
            assert block_factors(barrier_factor(cone, inside))[0][2].root[0] > 0.0
            expected = -math.log(0.75) - 2.0 * math.log(t)
            assert abs(barrier_reads(cone, inside)[0] - expected) <= 1e-14 * abs(expected), k
            with pytest.raises(BoundaryError):
                barrier_factor(cone, outside)

    def test_far_outside_soc_rejected_without_warning(self):
        # ||u||^2 overflows at x's own scale, but the membership test and every barrier
        # entry point read the block at its unit scale; RuntimeWarnings are errors here
        x = np.array([1.0, 1e200, 0.0])
        assert not is_interior(second_order(3), x)
        for entry_point in (barrier_reads, barrier_factor, barrier_hessian):
            with pytest.raises(BoundaryError):
                entry_point(second_order(3), x)

    def test_dual_orthant(self):
        assert in_dual_cone(orthant(2), np.array([0.0, 3.0]), 0.0)
        assert not in_dual_cone(orthant(2), np.array([-1e-3, 3.0]), 1e-6)

    def test_dual_cone_rejects_nan(self):
        # NaN compares false, so each membership test must be one that NaN fails
        assert not in_dual_cone(orthant(2), np.array([np.nan, 3.0]), 1e-6)
        for s in ([np.nan, 0.0, 0.0], [1.0, np.nan, 0.0], [np.nan] * 3):
            assert not in_dual_cone(second_order(3), np.array(s), 1e-6)

    def test_dual_soc_boundary(self):
        assert in_dual_cone(second_order(2), np.array([1.0, -1.0]), 0.0)

    def test_dual_soc_far_above_normal_scale(self):
        # u^T u overflows at s's own scale; RuntimeWarnings are errors here
        assert in_dual_cone(second_order(3), np.array([1e170, 0.5e170, 0.0]))

    def test_dual_soc_far_below_normal_scale(self):
        # u^T u underflows to 0 at s's own scale, while ||u|| = 1.03e-170 > t
        assert not in_dual_cone(second_order(3), np.array([1e-170, 0.5e-170, 0.9e-170]))

    @pytest.mark.parametrize("s, tol, expected", [
        ([1e-300, 0.5e-300, 0.0], 1e10, True),
        ([1e-300, 2e-300, 0.0], 1e10, True),
        ([1e-300, 2e-300, 0.0], 0.0, False),
    ])
    def test_dual_soc_tolerance_beyond_float_range_at_unit_scale(self, s, tol, expected):
        # tol / 2^e overflows at the block's unit scale, so tol exceeds ||u|| - t there
        assert in_dual_cone(second_order(3), np.array(s), tol) is expected


@pytest.mark.parametrize("cone", CONE_FAMILIES, ids=lambda c: f"{len(c.blocks)}b{c.total_dim}")
class TestBarrierIdentities:
    def test_log_homogeneity(self, cone, rng):
        for _ in range(20):
            x = random_interior_point(cone, rng)
            bx = barrier_reads(cone, x)[0]
            for t in (0.5, 2.0, 10.0):
                lhs = barrier_reads(cone, t * x)[0]
                assert abs(lhs - bx + cone.theta * np.log(t)) <= 1e-8 * (1.0 + abs(bx))

    def test_gradient_identities(self, cone, rng):
        theta = cone.theta
        for _ in range(20):
            x = random_interior_point(cone, rng)
            factor = barrier_factor(cone, x)
            grad = factor.gradient
            assert abs(local_norm_dual(factor, grad) ** 2 - theta) <= 1e-8 * theta
            assert abs(-x @ grad - theta) <= 1e-8 * theta
            assert abs(primal_local_norm(cone, x, x) ** 2 - theta) <= 1e-8 * theta

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
            step = solve_triangular(dense_lower(factor).T, u, lower=False)
            assert is_interior(cone, x + step)

    def test_gradient_hessian_consistency(self, cone, rng):
        x = random_interior_point(cone, rng)
        grad = barrier_factor(cone, x).gradient
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
