import dataclasses
import inspect
import math

import numpy as np
import pytest
import scipy.linalg

from conebarrier import capped_cg, cones, lanczos, linops
from conebarrier import certify as certify_mod

from conebarrier.certify import barrier_hessian, check_fosp, check_sosp_dense, dual_norm, reduced_min_eig
from conebarrier.cones import ConeBlock, orthant, product, second_order
from conebarrier.errors import SizeError
from conebarrier.linops import AffineData, empty_affine
from conebarrier.problems import ConicProblem, builtin
from conebarrier.solver import SolverParams, SolveStatus, solve

from conftest import CONE_FAMILIES, random_interior_point, scaled_residuals


def simplex_negnorm(n):
    return builtin("negnorm_simplex", n)


class TestCheckFosp:
    def test_exact_stationary_pair(self):
        p = simplex_negnorm(2)
        report = check_fosp(p, np.array([0.5, 0.5]), np.array([0.5]), eps_g=1e-6)
        assert report.fosp_residual == pytest.approx(0.0, abs=1e-14)
        assert report.fosp_ok
        assert report.feasibility_ok and report.interior_ok and report.dual_cone_ok

    def test_dual_cone_violation(self):
        p = simplex_negnorm(2)
        report = check_fosp(p, np.array([0.5, 0.5]), np.array([0.4]), eps_g=1.0)
        assert not report.dual_cone_ok
        assert not report.fosp_ok

    def test_boundary_point_reported(self):
        p = simplex_negnorm(2)
        report = check_fosp(p, np.array([0.0, 1.0]), np.array([0.5]), eps_g=1.0)
        assert not report.interior_ok
        assert not report.fosp_ok
        assert report.fosp_residual == math.inf

    def test_nan_entry_reported_not_interior(self):
        p = simplex_negnorm(2)
        report = check_fosp(p, np.array([math.nan, 1.0]), np.array([0.5]), eps_g=1.0)
        assert not report.interior_ok
        assert not report.fosp_ok
        assert report.fosp_residual == math.inf

    def test_wrong_length_point_raises(self):
        with pytest.raises(ValueError):
            check_fosp(simplex_negnorm(2), np.array([0.5, 0.25, 0.25]), np.array([0.5]), eps_g=1.0)

    def test_wrong_length_gradient_raises(self):
        # a length-1 gradient would broadcast through + A^T lambda
        p = dataclasses.replace(simplex_negnorm(2), gradient=lambda x: np.array([-0.5]))
        with pytest.raises(ValueError, match="gradient"):
            check_fosp(p, np.array([0.5, 0.5]), np.array([0.5]), eps_g=1.0)

    def test_infinite_entry_reported_not_interior(self):
        p = simplex_negnorm(2)
        report = check_fosp(p, np.array([math.inf, 1.0]), np.array([0.5]), eps_g=1.0)
        assert not report.interior_ok
        assert not report.fosp_ok
        assert report.fosp_residual == math.inf

    def test_infeasible_point_reported(self):
        p = simplex_negnorm(2)
        report = check_fosp(p, np.array([0.6, 0.6]), np.array([0.6]), eps_g=1.0)
        assert not report.feasibility_ok
        assert report.primal_residual == pytest.approx(0.2)


class TestCheckSospDense:
    def test_simplex_center_reduced_eig(self):
        p = simplex_negnorm(2)
        report = check_sosp_dense(p, np.array([0.5, 0.5]), np.array([0.5]),
                                  eps_g=1e-6, eps_h=1e-3)
        assert report.sosp_min_eig == pytest.approx(-0.25)
        assert not report.sosp_ok  # -0.25 < -1e-3

    def test_convex_quadratic_passes(self):
        n = 5
        p = ConicProblem(
            name="convex",
            cone=orthant(n),
            affine=AffineData(A=np.ones((1, n)), b=np.array([1.0])),
            value=lambda x: 0.5 * float(x @ x),
            gradient=lambda x: x,
            hessian=lambda x: np.eye(n),
        )
        x = np.full(n, 1.0 / n)
        lam = np.array([-1.0 / n])  # gradient + A^T lam = 0
        report = check_sosp_dense(p, x, lam, eps_g=1e-8, eps_h=1e-8)
        assert report.sosp_min_eig >= 0.0
        assert report.sosp_ok

    def test_trivial_null_space_sentinel(self):
        n = 3
        p = ConicProblem(
            name="saturated",
            cone=orthant(n),
            affine=AffineData(A=np.eye(n), b=np.ones(n)),
            value=lambda x: -0.5 * float(x @ x),
            gradient=lambda x: -x,
            hessian=lambda x: -np.eye(n),
        )
        lam = np.ones(n)  # -x + lam = 0 at x = e
        report = check_sosp_dense(p, np.ones(n), lam, eps_g=1e-8, eps_h=1e-8)
        assert report.sosp_min_eig == math.inf
        assert report.sosp_ok

    def test_size_limit(self):
        n = 501
        p = ConicProblem(
            name="big",
            cone=orthant(n),
            affine=empty_affine(n),
            value=lambda x: 0.0,
            gradient=lambda x: np.zeros(n),
            hessian=lambda x: np.zeros((n, n)),
        )
        with pytest.raises(SizeError):
            reduced_min_eig(p, np.ones(n))

    @pytest.mark.parametrize(
        "cone",
        [orthant(8), second_order(8), product(ConeBlock("orthant", 3), ConeBlock("soc", 5))],
        ids=["orthant", "soc", "mixed"],
    )
    @pytest.mark.parametrize("m", [0, 1, 3])
    def test_partial_eigh_matches_full(self, cone, m, rng):
        # the smallest-eigenvalue-only solve agrees with the full spectrum's minimum
        n = cone.total_dim
        for _ in range(5):
            g = rng.standard_normal((n, n))
            q_mat = g + g.T
            a_mat = rng.standard_normal((m, n))
            p = ConicProblem(
                name="qp",
                cone=cone,
                affine=AffineData(A=a_mat, b=np.zeros(m)) if m else empty_affine(n),
                value=lambda x: 0.5 * float(x @ q_mat @ x),
                gradient=lambda x: q_mat @ x,
                hessian=lambda x: q_mat,
            )
            x = random_interior_point(cone, rng)
            z = scipy.linalg.null_space(a_mat) if m else np.eye(n)
            b_red = z.T @ barrier_hessian(cone, x) @ z
            full = scipy.linalg.eigh(z.T @ q_mat @ z, 0.5 * (b_red + b_red.T), eigvals_only=True)
            assert abs(reduced_min_eig(p, x) - full[0]) <= 1e-10 * np.max(np.abs(full))

    def test_agrees_with_null_space_sampling(self, rng):
        # brute-force oracle: no sampled direction undercuts the reported minimum
        for trial in range(3):
            n = int(rng.integers(3, 7))
            m = int(rng.integers(1, n - 1))
            a_mat = rng.standard_normal((m, n))
            p = builtin("nonconvex_qp_simplex", n, seed=trial)
            p = ConicProblem(
                name="qp",
                cone=orthant(n),
                affine=AffineData(A=a_mat, b=np.zeros(m)),
                value=p.value,
                gradient=p.gradient,
                hessian=p.hessian,
            )
            x = random_interior_point(orthant(n), rng)
            min_eig = reduced_min_eig(p, x)
            z = scipy.linalg.null_space(a_mat)
            hess_f = p.hessian(x)
            hess_b = barrier_hessian(p.cone, x)
            for _ in range(10**4):
                d = z @ rng.standard_normal(z.shape[1])
                ratio = (d @ hess_f @ d) / (d @ hess_b @ d)
                assert ratio >= min_eig - 1e-6


class TestIndependence:
    """The certificate shares no code with the solver's layers: with every function
    of ``cones``, ``linops``, ``lanczos`` and ``capped_cg`` made to raise, both
    checks return the reports they return unpatched."""

    SOLVER_MODULES = (cones, linops, lanczos, capped_cg)

    @staticmethod
    def cases(rng):
        cone_list = [orthant(6), second_order(6),
                     product(ConeBlock("orthant", 3), ConeBlock("soc", 4), ConeBlock("soc", 2))]
        for cone in cone_list:
            n = cone.total_dim
            for m in range(4):
                g = rng.standard_normal((n, n))
                q_mat = g + g.T
                a_mat = rng.standard_normal((m, n))
                x = random_interior_point(cone, rng)
                p = ConicProblem(
                    name="qp",
                    cone=cone,
                    affine=AffineData(A=a_mat, b=a_mat @ x) if m else empty_affine(n),
                    value=lambda x, q_mat=q_mat: 0.5 * float(x @ q_mat @ x),
                    gradient=lambda x, q_mat=q_mat: q_mat @ x,
                    hessian=lambda x, q_mat=q_mat: q_mat,
                )
                lam = rng.standard_normal(m)
                outside = x.copy()
                outside[0] = -1.0
                yield p, x, lam
                yield p, outside, lam

    def reports(self, rng):
        return [(check_fosp(p, x, lam, eps_g=1e-3).to_dict(),
                 check_sosp_dense(p, x, lam, eps_g=1e-3, eps_h=1e-2).to_dict())
                for p, x, lam in self.cases(rng)]

    def test_reports_unchanged_with_solver_layers_raising(self, monkeypatch):
        expected = self.reports(np.random.default_rng(7))
        assert any(fosp["interior_ok"] for fosp, _ in expected)
        assert any(sosp["sosp_min_eig"] not in (None, -math.inf) for _, sosp in expected)

        def refuse(*args, **kwargs):
            raise AssertionError("the certificate called into the solver's layers")

        functions = set()
        for module in self.SOLVER_MODULES:
            for name, obj in vars(module).items():
                if inspect.isfunction(obj):
                    functions.add(obj)
                    monkeypatch.setattr(module, name, refuse)
        assert len(functions) >= 17
        # and any of them that certify has bound under its own name
        for name, obj in vars(certify_mod).items():
            if inspect.isfunction(obj) and obj in functions:
                monkeypatch.setattr(certify_mod, name, refuse)
        with pytest.raises(AssertionError):
            lanczos.lanczos_iteration_cap(2, 0.1, 0.1)
        assert self.reports(np.random.default_rng(7)) == expected


class TestScaleInvariance:
    def test_identity_weights(self):
        p = simplex_negnorm(3)
        x = np.array([0.2, 0.3, 0.5])
        lam = np.array([0.3])
        r0, r1 = scaled_residuals(p, x, lam, np.ones(3))
        assert r0 == pytest.approx(r1, rel=1e-12)

    def test_uniform_scaling(self):
        p = simplex_negnorm(2)
        r0, r1 = scaled_residuals(p, np.array([0.5, 0.5]), np.array([0.4]),
                                  np.array([2.0, 2.0]))
        assert r0 == pytest.approx(r1, rel=1e-8)

    def test_anisotropic_orthant(self):
        p = simplex_negnorm(2)
        r0, r1 = scaled_residuals(p, np.array([0.4, 0.6]), np.array([0.1]),
                                  np.array([1.0, 3.0]))
        assert r0 == pytest.approx(r1, rel=1e-8)

    def test_random_orthant_scalings(self, rng):
        p = builtin("nonconvex_qp_simplex", 6, seed=5)
        x = np.full(6, 1.0 / 6)
        lam = np.array([0.2])
        for _ in range(20):
            weights = np.exp(rng.standard_normal(6))
            r0, r1 = scaled_residuals(p, x, lam, weights)
            assert r0 == pytest.approx(r1, rel=1e-8)

    def test_soc_blockwise_scalar(self, rng):
        p = builtin("soc_quadratic", 6, m=2, seed=1)
        x = p.x0
        lam = np.zeros(2)
        for _ in range(20):
            weights = np.full(6, float(np.exp(rng.standard_normal())))
            r0, r1 = scaled_residuals(p, x, lam, weights)
            assert r0 == pytest.approx(r1, rel=1e-8)

    def test_mixed_cone_blockwise(self, rng):
        cone = product(ConeBlock("orthant", 2), ConeBlock("soc", 3))
        p = ConicProblem(
            name="mixed",
            cone=cone,
            affine=empty_affine(5),
            value=lambda x: float(x @ x) - float(x[0] * x[3]),
            gradient=lambda x: 2.0 * x - np.array([x[3], 0, 0, x[0], 0]),
            hessian=lambda x: 2.0 * np.eye(5) - 0.0,
        )
        x = random_interior_point(cone, rng)
        for _ in range(10):
            w_orthant = np.exp(rng.standard_normal(2))
            w_soc = float(np.exp(rng.standard_normal()))
            weights = np.concatenate([w_orthant, np.full(3, w_soc)])
            r0, r1 = scaled_residuals(p, x, np.zeros(0), weights)
            assert r0 == pytest.approx(r1, rel=1e-8)


def dual_norm_unscaled(cone, x, s):
    """The closed-form dual norm with every SOC block evaluated at x's own scale."""
    total = 0.0
    for block, sl in cone.slices:
        xb, sb = x[sl], s[sl]
        if block.kind == "orthant":
            total += float(np.sum((xb * sb) ** 2))
        else:
            gap = float(xb[0] ** 2 - xb[1:] @ xb[1:])
            total += float(xb @ sb) ** 2 - 0.5 * gap * float(sb[0] ** 2 - sb[1:] @ sb[1:])
    return math.sqrt(max(total, 0.0))


class TestDualNormScales:
    def test_extreme_scales_match_the_unit_point(self):
        # (x, s) -> (x / c, c s) leaves the dual norm unchanged; at these scales the
        # unscaled t^2 - ||u||^2 of x or of s overflows
        cone = second_order(3)
        expected = dual_norm(cone, np.array([1.0, 0.5, 0.0]), np.array([1.0, 0.0, 0.0]))
        assert expected == pytest.approx(math.sqrt(0.625), rel=1e-15)
        for x, s in [([1e155, 0.5e155, 0.0], [1e-155, 0.0, 0.0]),
                     ([1e-170, 0.5e-170, 0.0], [1e170, 0.0, 0.0])]:
            assert dual_norm(cone, np.array(x), np.array(s)) == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("cone", CONE_FAMILIES, ids=lambda c: f"{len(c.blocks)}b{c.total_dim}")
    def test_bit_equal_to_the_unscaled_form_at_normal_scales(self, cone, rng):
        for _ in range(20):
            x = random_interior_point(cone, rng, scale=float(np.exp(3.0 * rng.standard_normal())))
            s = rng.standard_normal(cone.total_dim)
            assert dual_norm(cone, x, s) == dual_norm_unscaled(cone, x, s)

    def test_bit_equal_on_the_certify_instances(self):
        cases = [(simplex_negnorm(2), [0.5, 0.5], [0.5]), (simplex_negnorm(2), [0.5, 0.5], [0.4])]
        for n, m in [(4, 1), (6, 2), (8, 2)]:
            p = builtin("soc_quadratic", n, m=m, seed=1)
            cases.append((p, p.x0, np.zeros(m)))
        for p, x, lam in cases:
            x = np.asarray(x, dtype=float)
            s = p.gradient(x) + p.affine.A.T @ np.asarray(lam, dtype=float)
            assert dual_norm(p.cone, x, s) == dual_norm_unscaled(p.cone, x, s)


class TestSolverClosure:
    def test_certified_output_passes_checks(self):
        p = builtin("pnorm_simplex", 8, p=0.5)
        eps = 1e-3
        res = solve(p, p.x0, SolverParams(epsilon=eps, seed=7, max_outer_iters=100000))
        assert res.status is SolveStatus.SOSP_CERTIFIED
        report = check_fosp(p, res.x_final, res.lambda_final, eps_g=eps)
        assert report.fosp_ok
        report2 = check_sosp_dense(p, res.x_final, res.lambda_final,
                                   eps_g=eps, eps_h=math.sqrt(eps) + 1e-6)
        assert report2.sosp_ok
