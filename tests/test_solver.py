import dataclasses
import math

import numpy as np
import pytest

from conebarrier.cones import (
    barrier_factor,
    barrier_gradient,
    interior_membership,
    local_norm_primal,
    orthant,
)
from conebarrier.errors import (
    CallbackError,
    InfeasibleStart,
    LineSearchFailure,
    ParamError,
    ZeroDirection,
)
from conebarrier.linops import AffineData, IterationWorkspace, empty_affine
from conebarrier.problems import ConicProblem, builtin
from conebarrier.solver import (
    SolverParams,
    SolveStatus,
    first_order_gate,
    line_search_nc,
    line_search_sol,
    mu_from_epsilon,
    phi_value,
    scale_meo_direction,
    scale_nc_direction,
    scale_sol_direction,
    solve,
)


def quadratic_problem(q_mat, c, cone, affine, x0=None):
    q_mat = np.asarray(q_mat, dtype=float)
    c = np.asarray(c, dtype=float)
    return ConicProblem(
        name="test",
        cone=cone,
        affine=affine,
        value=lambda x: 0.5 * float(x @ q_mat @ x) + float(c @ x),
        gradient=lambda x: q_mat @ x + c,
        hessian=lambda x: q_mat,
        x0=x0,
    )


def ws_at(x, A=None, b=None):
    x = np.asarray(x, dtype=float)
    cone = orthant(x.size)
    affine = empty_affine(x.size) if A is None else AffineData(A=A, b=b)
    return IterationWorkspace(affine, barrier_factor(cone, x))


class TestMuFormula:
    def test_example_theta4(self):
        assert mu_from_epsilon(0.01, 0.5, 4.0) == pytest.approx(1.0 / 900.0)

    def test_example_theta1(self):
        assert mu_from_epsilon(0.01, 0.9, 1.0) == pytest.approx(0.001 / 2.02)

    def test_upper_bound(self, rng):
        for _ in range(50):
            eps = float(rng.uniform(1e-6, 0.99))
            beta = float(rng.uniform(math.sqrt(eps), 1.0 - 1e-9))
            theta = float(rng.uniform(1.0, 50.0))
            assert mu_from_epsilon(eps, beta, theta) <= eps / 4.0

    def test_validation(self):
        with pytest.raises(ParamError):
            mu_from_epsilon(2.0, 0.5, 1.0)
        with pytest.raises(ParamError):
            mu_from_epsilon(0.25, 0.4, 1.0)  # beta below sqrt(eps)
        with pytest.raises(ParamError):
            mu_from_epsilon(0.01, 0.5, 0.5)


class TestMultipliers:
    def test_first_averages(self):
        ws = ws_at([0.5, 0.5], A=np.array([[1.0, 1.0]]), b=np.array([1.0]))
        a, b = 0.7, -1.3
        np.testing.assert_allclose(
            ws.multipliers(np.array([a, b])), [-0.5 * (a + b)], atol=1e-14
        )

    def test_first_zero(self):
        ws = ws_at([0.5, 0.5], A=np.array([[1.0, 1.0]]), b=np.array([1.0]))
        np.testing.assert_allclose(ws.multipliers(np.zeros(2)), [0.0])

    def test_first_single_coordinate(self):
        ws = ws_at([1.0, 1.0], A=np.array([[1.0, 0.0]]), b=np.array([1.0]))
        np.testing.assert_allclose(ws.multipliers(np.array([3.0, 7.0])), [-3.0])

    def test_second_dense_example(self):
        ws = ws_at([0.5, 0.5], A=np.array([[1.0, 1.0]]), b=np.array([1.0]))
        step = ws.null_step(np.array([1.0, 0.0]))
        np.testing.assert_allclose(step, [0.25, -0.25], atol=1e-14)
        # identity objective Hessian applied to the step, plus a zero merit gradient
        np.testing.assert_allclose(ws.multipliers(step + np.zeros(2)), [0.0], atol=1e-14)


class TestFirstOrderGate:
    def gate(self, problem, ws, mu, beta, lambda2=None, grad_b_prev=None):
        grad_f = problem.gradient(ws.point)
        grad_b = barrier_gradient(problem.cone, ws.point)
        gphi = grad_f + mu * grad_b
        lambda1 = ws.multipliers(gphi)
        lambda2 = lambda1 if lambda2 is None else lambda2
        grad_b_prev = grad_b if grad_b_prev is None else grad_b_prev
        return first_order_gate(ws, mu, beta, grad_f, grad_b, lambda1, lambda2, grad_b_prev)

    def test_barrier_path_point(self):
        # unconstrained orthant: at x_i = sqrt(mu) the merit gradient vanishes
        mu = 1e-3
        p = quadratic_problem(np.eye(2), np.zeros(2), orthant(2), empty_affine(2))
        ws = ws_at([math.sqrt(mu)] * 2)
        triggered, which, res = self.gate(p, ws, mu, beta=0.5)
        assert triggered
        assert res <= 1e-12

    def test_exact_cancellation(self):
        p = quadratic_problem(-np.eye(2), np.zeros(2), orthant(2), empty_affine(2))
        mu = 1e-4
        # residual vanishes after projecting out the constraint row
        ws = ws_at([0.5, 0.5], A=np.array([[1.0, 1.0]]), b=np.array([1.0]))
        triggered, which, res = self.gate(p, ws, mu, beta=0.5)
        assert triggered
        assert res <= 1e-12

    def test_not_triggered_above_threshold(self):
        p = quadratic_problem(np.eye(2), np.zeros(2), orthant(2), empty_affine(2))
        mu = 1e-3
        ws = ws_at([1.0, 1.0])  # far from the barrier path
        triggered, which, res = self.gate(p, ws, mu, beta=0.5)
        assert not triggered
        assert res > 0.5 * mu

    def test_threshold_arithmetic(self):
        # residuals 0.9 mu and 0.8 mu against threshold 0.5 mu: no trigger,
        # and the smaller (carried-multiplier) branch is reported
        mu, beta = 1e-3, 0.5
        ws = ws_at([1.0, 1.0])  # identity factor: dual norms are Euclidean
        grad_b = barrier_gradient(orthant(2), ws.point)
        e1 = np.array([1.0, 0.0])
        grad_f = -mu * grad_b + 0.9 * mu * e1
        grad_b_prev = grad_b - 0.1 * e1  # makes the second residual 0.8 mu
        triggered, which, res = first_order_gate(
            ws, mu, beta, grad_f, grad_b, np.zeros(0), np.zeros(0), grad_b_prev
        )
        assert not triggered
        assert res == pytest.approx(0.8 * mu)
        assert which == "lambda2"


class TestDirectionScalings:
    def test_sol_small_direction_unchanged(self):
        ws = ws_at([1.0, 1.0])
        d_hat = np.array([0.3, 0.0])
        np.testing.assert_allclose(scale_sol_direction(ws, d_hat, beta=0.5), d_hat)

    def test_sol_capped(self):
        ws = ws_at([1.0, 1.0])
        d_hat = np.array([1.0, 0.0])
        np.testing.assert_allclose(scale_sol_direction(ws, d_hat, beta=0.5), 0.5 * d_hat)

    def test_sol_projected_out(self):
        ws = ws_at([0.5, 0.5], A=np.array([[1.0, 1.0]]), b=np.array([1.0]))
        d_hat = np.array([1.0, 1.0])  # projection is zero: the cap is +inf
        np.testing.assert_allclose(scale_sol_direction(ws, d_hat, beta=0.5), d_hat)

    def test_sol_zero_rejected(self):
        with pytest.raises(ZeroDirection):
            scale_sol_direction(ws_at([1.0, 1.0]), np.zeros(2), beta=0.5)

    def test_nc_hand_example(self):
        ws = ws_at([1.0, 1.0])
        d_hat = np.array([-1.0, 0.0])
        g = np.array([1.0, 0.0])
        d = scale_nc_direction(ws, d_hat, curvature=-1.0, g=g, beta=0.5)
        np.testing.assert_allclose(d, [-0.5, 0.0])
        assert g @ d <= 0.0

    def test_nc_sign_convention_at_zero(self):
        ws = ws_at([1.0, 1.0])
        d_hat = np.array([-1.0, 0.0])
        g = np.array([0.0, 5.0])  # g orthogonal to d_hat: sgn(0) = +1
        d = scale_nc_direction(ws, d_hat, curvature=-1.0, g=g, beta=0.5)
        np.testing.assert_allclose(d, [0.5, 0.0])

    def test_meo_hand_example(self):
        ws = ws_at([1.0, 1.0])
        v = np.array([1.0, 0.0])
        g = np.array([2.0, 0.0])
        d = scale_meo_direction(ws, v, curvature_phi=-1.0, g=g, beta=0.5)
        np.testing.assert_allclose(d, [-0.5, 0.0])

    def test_meo_small_curvature_binds(self):
        ws = ws_at([1.0, 1.0])
        v = np.array([1.0, 0.0])
        d = scale_meo_direction(ws, v, curvature_phi=-0.1, g=np.zeros(2), beta=0.9)
        assert np.linalg.norm(d) == pytest.approx(0.1)

    def test_nc_projected_out_direction(self):
        # projection of d_hat vanishes: the trust cap is +inf, curvature binds
        ws = ws_at([0.5, 0.5], A=np.array([[1.0, 1.0]]), b=np.array([1.0]))
        d_hat = np.array([1.0, 1.0])
        d = scale_nc_direction(ws, d_hat, curvature=-1.0, g=np.zeros(2), beta=0.5)
        np.testing.assert_allclose(d, -d_hat / np.linalg.norm(d_hat), atol=1e-14)


class TestLineSearches:
    def test_unit_step_on_well_scaled_quadratic(self):
        p = builtin("negnorm_simplex", 4)
        eps = 0.01
        params = SolverParams(epsilon=eps)
        mu = mu_from_epsilon(eps, params.beta, 4.0)
        ws = ws_at(p.x0, A=p.affine.A, b=p.affine.b)
        d = np.array([1.0, -1.0, 0.5, -0.5]) * 0.05
        phi0 = phi_value(p, ws.point, mu)
        step = ws.null_step(d)
        # direct-evaluation oracle: the unit step already decreases enough
        target = params.eta * math.sqrt(eps) * float(d @ d)
        assert phi_value(p, ws.point + step, mu) < phi0 - target
        alpha, x_new, phi_new = line_search_sol(p, ws, mu, d, params, step=step, phi0=phi0)
        assert alpha == 1.0
        np.testing.assert_allclose(x_new, ws.point + step)

    def test_zero_direction_rejected(self):
        p = builtin("negnorm_simplex", 3)
        params = SolverParams(epsilon=0.01)
        ws = ws_at(p.x0, A=p.affine.A, b=p.affine.b)
        mu = mu_from_epsilon(0.01, params.beta, 3.0)
        d = np.zeros(3)
        with pytest.raises(ZeroDirection):
            line_search_sol(p, ws, mu, d, params,
                            step=ws.null_step(d), phi0=phi_value(p, ws.point, mu))

    def test_backtrack_depth_two(self):
        # crafted so j = 0, 1 fail and j = 2 is the first acceptance
        eps, beta = 0.01, 0.5
        params = SolverParams(epsilon=eps, beta=beta)
        mu = mu_from_epsilon(eps, beta, 1.0)
        p = quadratic_problem(np.eye(1), [-1.075], orthant(1), empty_affine(1))
        ws = ws_at([1.0])
        d = np.array([0.3])
        phi0 = phi_value(p, ws.point, mu)
        step = ws.null_step(d)
        accepts = []
        for j in range(3):
            t = params.theta**j
            lhs = phi_value(p, ws.point + t * step, mu)
            accepts.append(lhs < phi0 - params.eta * math.sqrt(eps) * t * t * float(d @ d))
        assert accepts == [False, False, True]
        alpha, _, _ = line_search_sol(p, ws, mu, d, params, step=step, phi0=phi0)
        assert alpha == pytest.approx(0.25)

    def test_nc_unit_step_on_concave_quadratic(self):
        eps = 0.01
        params = SolverParams(epsilon=eps, beta=0.5)
        mu = mu_from_epsilon(eps, 0.5, 2.0)
        p = quadratic_problem(-np.eye(2), np.zeros(2), orthant(2), empty_affine(2))
        ws = ws_at([1.0, 1.0])
        gphi = p.gradient(ws.point) + mu * barrier_gradient(p.cone, ws.point)
        g = ws.null_step_t(gphi)
        v = np.array([1.0, 0.0])
        curvature_phi = float(v @ ws.reduced_hessian_apply(lambda w: -w, mu, v))
        d = scale_meo_direction(ws, v, curvature_phi, g, beta=0.5)
        phi0 = phi_value(p, ws.point, mu)
        alpha, x_new, phi_new = line_search_nc(p, ws, mu, d, params,
                                               step=ws.null_step(d), phi0=phi0)
        assert alpha == 1.0
        assert phi_new < phi0 - params.eta * np.linalg.norm(d) ** 3 / 2

    def test_cubic_target_formula(self):
        eps, eta, theta = 0.04, 0.2, 0.5
        d_norm = math.sqrt(eps)
        for j in range(3):
            target = eta * theta ** (2 * j) * d_norm**3 / 2.0
            assert target == pytest.approx(eta * theta ** (2 * j) * eps**1.5 / 2.0)

    def test_exhaustion_raises(self):
        eps = 0.01
        params = SolverParams(epsilon=eps, max_backtracks=20)
        mu = mu_from_epsilon(eps, params.beta, 1.0)
        # minimum at the current point and an uphill barrier: no decrease anywhere
        p = quadratic_problem(np.eye(1), [-1.0], orthant(1), empty_affine(1))
        ws = ws_at([1.0])
        d = np.array([-0.5])
        with pytest.raises(LineSearchFailure):
            line_search_sol(p, ws, mu, d, params,
                            step=ws.null_step(d), phi0=phi_value(p, ws.point, mu))


class TestSolverParams:
    def test_beta_default(self):
        assert SolverParams(epsilon=1e-3).beta == 0.5
        assert SolverParams(epsilon=0.81).beta == pytest.approx(0.9)

    def test_validation(self):
        with pytest.raises(ParamError):
            SolverParams(epsilon=2.0)
        with pytest.raises(ParamError):
            SolverParams(epsilon=0.25, beta=0.4)
        with pytest.raises(ParamError):
            SolverParams(epsilon=1e-3, zeta=1.5)


class TestSolveBasics:
    def test_infeasible_start_boundary(self):
        p = builtin("negnorm_simplex", 4)
        x0 = np.array([0.0, 0.5, 0.25, 0.25])
        with pytest.raises(InfeasibleStart):
            solve(p, x0, SolverParams(epsilon=1e-3))

    def test_infeasible_start_affine(self):
        p = builtin("negnorm_simplex", 4)
        with pytest.raises(InfeasibleStart):
            solve(p, np.full(4, 1.0), SolverParams(epsilon=1e-3))

    def test_max_iters_status(self):
        p = builtin("nonconvex_qp_simplex", 6, seed=1)
        res = solve(p, p.x0, SolverParams(epsilon=1e-3, max_outer_iters=3))
        assert res.status is SolveStatus.MAX_ITERS_EXCEEDED
        assert res.iterations == 3
        assert res.trace.counters["cholesky"] == 4

    def test_fosp_only_mode(self):
        p = builtin("nonconvex_qp_simplex", 8, seed=4)
        res = solve(p, p.x0, SolverParams(epsilon=1e-3, fosp_only=True, max_outer_iters=50000))
        assert res.status is SolveStatus.FOSP_CERTIFIED
        assert res.trace.certificate.fosp_ok
        assert res.trace.certificate.fosp_residual <= 1e-3

    def test_trace_phi_strictly_decreasing(self):
        p = builtin("nonconvex_qp_simplex", 8, seed=0)
        res = solve(p, p.x0, SolverParams(epsilon=1e-2, max_outer_iters=50000))
        phis = [r.phi_mu for r in res.trace.records]
        assert all(a > b for a, b in zip(phis, phis[1:]))

    def test_certified_solve_end_to_end(self):
        p = builtin("nonconvex_qp_simplex", 8, seed=0)
        res = solve(p, p.x0, SolverParams(epsilon=1e-2, max_outer_iters=50000))
        assert res.status is SolveStatus.SOSP_CERTIFIED
        cert = res.trace.certificate
        assert cert.fosp_ok and cert.sosp_ok
        assert res.trace.counters["cholesky"] == res.iterations + 1
        assert res.probability_bound is not None

    def test_iterates_stay_feasible_and_step_cap(self):
        p = builtin("nonconvex_qp_simplex", 6, seed=2)
        iterates = []
        probe = ConicProblem(
            name=p.name,
            cone=p.cone,
            affine=p.affine,
            value=p.value,
            gradient=lambda x: (iterates.append(x.copy()), p.gradient(x))[1],
            hessian=p.hessian,
            x0=p.x0,
        )
        params = SolverParams(epsilon=1e-2, max_outer_iters=50000)
        res = solve(probe, p.x0, params)
        assert res.status is SolveStatus.SOSP_CERTIFIED
        # one gradient call per iteration plus one inside the final certificate
        assert len(iterates) == res.iterations + 2
        for x in iterates:
            assert interior_membership(p.cone, x, 0.0)
            assert np.max(np.abs(p.affine.A @ x - p.affine.b)) <= 1e-9 * 2.0
        for x_prev, x_next in zip(iterates, iterates[1:]):
            factor = barrier_factor(p.cone, x_prev)
            assert local_norm_primal(factor, x_next - x_prev) <= params.beta * (1 + 1e-9)

    def test_linear_objective_reaches_lp_solution(self):
        # min c^T x over the simplex: solution at the argmin vertex, with the
        # stationarity multiplier -min_i c_i (so that c + lambda e >= 0)
        n = 6
        c = np.array([0.7, -0.4, 1.2, 0.1, 0.9, 0.5])
        p = quadratic_problem(np.zeros((n, n)), c, orthant(n),
                              AffineData(A=np.ones((1, n)), b=np.array([1.0])),
                              x0=np.full(n, 1.0 / n))
        res = solve(p, p.x0, SolverParams(epsilon=1e-3, max_outer_iters=100000))
        assert res.status is SolveStatus.SOSP_CERTIFIED
        assert p.value(res.x_final) <= c.min() + 5e-3
        assert res.lambda_final[0] == pytest.approx(-c.min(), abs=5e-3)
        s = c + res.lambda_final[0]
        assert np.all(s >= -1e-9)
        assert res.trace.certificate.fosp_ok

    def test_mixed_cone_end_to_end(self):
        # orthant x second-order product; the raw quadratic is unbounded below
        # over the unbounded orthant directions, so solve the perturbed problem
        from conebarrier.cones import ConeBlock, product
        from conebarrier.problems import perturb

        rng = np.random.default_rng(5)
        n = 10
        cone = product(ConeBlock("orthant", 4), ConeBlock("soc", 6))
        g = rng.standard_normal((n, n))
        q_mat = (g + g.T) / (2 * np.sqrt(n))
        c = rng.standard_normal(n)
        x_bar = np.concatenate([np.ones(4), [2.0], rng.standard_normal(5) / 3])
        a_mat = np.vstack([np.eye(n)[4], rng.standard_normal(n)])
        base = quadratic_problem(q_mat, c, cone, AffineData(A=a_mat, b=a_mat @ x_bar),
                                 x0=x_bar)
        p = perturb(base, sigma=2.0)
        res = solve(p, x_bar, SolverParams(epsilon=1e-3, seed=7, max_outer_iters=100000))
        assert res.status is SolveStatus.SOSP_CERTIFIED
        cert = res.trace.certificate
        assert cert.fosp_ok and cert.sosp_ok
        assert interior_membership(cone, res.x_final, 0.0)

    def test_unbounded_instance_raises_divergence(self):
        from conebarrier.cones import ConeBlock, product
        from conebarrier.errors import DivergenceError

        rng = np.random.default_rng(5)
        n = 10
        cone = product(ConeBlock("orthant", 4), ConeBlock("soc", 6))
        g = rng.standard_normal((n, n))
        q_mat = (g + g.T) / (2 * np.sqrt(n))
        c = rng.standard_normal(n)
        x_bar = np.concatenate([np.ones(4), [2.0], rng.standard_normal(5) / 3])
        a_mat = np.vstack([np.eye(n)[4], rng.standard_normal(n)])
        p = quadratic_problem(q_mat, c, cone, AffineData(A=a_mat, b=a_mat @ x_bar),
                              x0=x_bar)
        with pytest.raises(DivergenceError):
            solve(p, x_bar, SolverParams(epsilon=1e-3, seed=7, max_outer_iters=200000))

    def test_unconstrained_solve(self):
        p = builtin("regularized_loss", 5, seed=1)
        res = solve(p, p.x0, SolverParams(epsilon=1e-2, max_outer_iters=50000))
        assert res.status is SolveStatus.SOSP_CERTIFIED
        assert res.lambda_final.shape == (0,)
        cert = res.trace.certificate
        assert cert.fosp_ok and cert.sosp_ok

    def test_hessian_vector_callback_only(self):
        # no dense Hessian: the solver runs on the matvec callback and the
        # final certificate falls back to the first-order report
        base = builtin("nonconvex_qp_simplex", 6, seed=1)
        q_mat = base.hessian(base.x0)
        p = ConicProblem(
            name="hv-only",
            cone=base.cone,
            affine=base.affine,
            value=base.value,
            gradient=base.gradient,
            hess_vec_fn=lambda x, v: q_mat @ v,
            x0=base.x0,
        )
        res = solve(p, p.x0, SolverParams(epsilon=1e-2, max_outer_iters=100000))
        assert res.status is SolveStatus.SOSP_CERTIFIED
        cert = res.trace.certificate
        assert cert.fosp_ok
        assert cert.sosp_min_eig is None

    def test_larger_soc_instance(self):
        p = builtin("soc_quadratic", 30, m=3, seed=2)
        res = solve(p, p.x0, SolverParams(epsilon=1e-3, seed=7, max_outer_iters=100000))
        assert res.status is SolveStatus.SOSP_CERTIFIED
        assert res.trace.certificate.sosp_ok

    def test_pnorm_other_exponent(self):
        p = builtin("pnorm_simplex", 10, p=0.7)
        res = solve(p, p.x0, SolverParams(epsilon=1e-3, seed=7, max_outer_iters=100000))
        assert res.status is SolveStatus.SOSP_CERTIFIED
        assert p.value(res.x_final) <= 1.1

    def test_deterministic_given_seed(self):
        p = builtin("nonconvex_qp_simplex", 6, seed=3)
        r1 = solve(p, p.x0, SolverParams(epsilon=1e-2, seed=9, max_outer_iters=50000))
        r2 = solve(p, p.x0, SolverParams(epsilon=1e-2, seed=9, max_outer_iters=50000))
        np.testing.assert_array_equal(r1.x_final, r2.x_final)
        assert r1.iterations == r2.iterations
        assert r1.trace.counters == r2.trace.counters


class TestCallbackErrors:
    """Misbehaving objective callbacks fail fast with a typed error."""

    @staticmethod
    def solve_with(**callbacks):
        base = builtin("nonconvex_qp_simplex", 10)
        p = dataclasses.replace(base, **callbacks)
        return solve(p, p.x0, SolverParams(epsilon=1e-3, seed=7))

    def test_nan_value_raises_on_first_evaluation(self):
        calls = []

        def value(x):
            calls.append(x)
            return math.nan

        with pytest.raises(CallbackError, match="NaN"):
            self.solve_with(value=value)
        assert len(calls) == 1

    def test_inf_trial_value_backtracks(self):
        base = builtin("nonconvex_qp_simplex", 10)
        calls = []

        def value(x):
            calls.append(x)
            return math.inf if len(calls) == 2 else base.value(x)  # the first trial point

        res = self.solve_with(value=value)
        assert res.status is SolveStatus.SOSP_CERTIFIED
        assert res.trace.records[0].alpha < 1.0

    def test_nan_gradient_raises(self):
        with pytest.raises(CallbackError, match="non-finite"):
            self.solve_with(gradient=lambda x: np.full(x.size, np.nan))

    def test_wrong_shape_gradient_raises(self):
        with pytest.raises(CallbackError, match=r"shape \(9,\)"):
            self.solve_with(gradient=lambda x: np.zeros(x.size - 1))

    @pytest.mark.parametrize(
        "bad", [lambda v: np.full(v.size, np.inf), lambda v: np.zeros(v.size + 1)],
        ids=["non-finite", "wrong-shape"],
    )
    def test_bad_hess_vec_raises(self, bad):
        with pytest.raises(CallbackError):
            self.solve_with(hessian=None, hess_vec_fn=lambda x, v: bad(v))
