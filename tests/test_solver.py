import copy
import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from conebarrier.certify import is_interior
from conebarrier.cones import barrier_factor, orthant, second_order
from conebarrier.counters import OpCounters
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
    _curvature_scale,
    _sol_scale,
    first_order_gate,
    line_search_nc,
    line_search_sol,
    mu_from_epsilon,
    phi_value,
    solve,
)
from conebarrier.trace import BRANCH_CG_SOL

from conftest import dense_lower, dense_operators, exact_difference, norm2, primal_local_norm
from test_cone_properties import CONES, PROPERTY_SETTINGS, SEEDS
from test_linops_properties import M_ROWS, workspace


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


def mixed_cone_quadratic():
    """Indefinite quadratic on orthant(4) x soc(6) with m = 2, from x0 = x_bar.

    The first constraint row pins the SOC block's t, but the orthant directions are
    unbounded, and so is the objective along them.
    """
    from conebarrier.cones import ConeBlock, product

    rng = np.random.default_rng(5)
    n = 10
    cone = product(ConeBlock("orthant", 4), ConeBlock("soc", 6))
    g = rng.standard_normal((n, n))
    q_mat = (g + g.T) / (2 * np.sqrt(n))
    c = rng.standard_normal(n)
    x_bar = np.concatenate([np.ones(4), [2.0], rng.standard_normal(5) / 3])
    a_mat = np.vstack([np.eye(n)[4], rng.standard_normal(n)])
    return quadratic_problem(q_mat, c, cone, AffineData(A=a_mat, b=a_mat @ x_bar), x0=x_bar)


def ws_at(x, A=None, b=None):
    x = np.asarray(x, dtype=float)
    cone = orthant(x.size)
    affine = empty_affine(x.size) if A is None else AffineData(A=A, b=b)
    return IterationWorkspace(affine, barrier_factor(cone, x), OpCounters())


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
        grad_b = barrier_factor(problem.cone, ws.point).gradient
        gphi = grad_f + mu * grad_b
        lambda2 = ws.multipliers(gphi) if lambda2 is None else lambda2
        grad_b_prev = grad_b if grad_b_prev is None else grad_b_prev
        return first_order_gate(
            ws, mu, beta, ws.null_step_t(gphi)[0], grad_f, lambda2, mu * grad_b_prev, ws.counters
        )

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
        grad_b = barrier_factor(orthant(2), ws.point).gradient
        e1 = np.array([1.0, 0.0])
        grad_f = -mu * grad_b + 0.9 * mu * e1
        grad_b_prev = grad_b - 0.1 * e1  # makes the second residual 0.8 mu
        g, _ = ws.null_step_t(grad_f + mu * grad_b)
        triggered, which, res = first_order_gate(
            ws, mu, beta, g, grad_f, np.zeros(0), mu * grad_b_prev, ws.counters
        )
        assert not triggered
        assert res == pytest.approx(0.8 * mu)
        assert which == "lambda2"


def qnorm(ws, d_hat):
    """||project(d_hat)||, from which the solver's scalings take the multiplier c of c d_hat."""
    return norm2(ws.project(d_hat))


# A curvature step of curvature -1 (Rayleigh quotient for an NC direction, v^T H_phi v
# for a unit oracle direction v) passes the rate 1 / ||d_hat||, as the solver does.
class TestDirectionScalings:
    def test_sol_small_direction_unchanged(self):
        ws = ws_at([1.0, 1.0])
        d_hat = np.array([0.3, 0.0])
        c = _sol_scale(d_hat, qnorm(ws, d_hat), beta=0.5)
        np.testing.assert_allclose(c * d_hat, d_hat)

    def test_sol_capped(self):
        ws = ws_at([1.0, 1.0])
        d_hat = np.array([1.0, 0.0])
        c = _sol_scale(d_hat, qnorm(ws, d_hat), beta=0.5)
        np.testing.assert_allclose(c * d_hat, 0.5 * d_hat)

    def test_sol_projected_out(self):
        ws = ws_at([0.5, 0.5], A=np.array([[1.0, 1.0]]), b=np.array([1.0]))
        d_hat = np.array([1.0, 1.0])  # projection is zero: the cap is +inf
        c = _sol_scale(d_hat, qnorm(ws, d_hat), beta=0.5)
        np.testing.assert_allclose(c * d_hat, d_hat)

    def test_sol_zero_rejected(self):
        with pytest.raises(ZeroDirection):
            _sol_scale(np.zeros(2), qnorm(ws_at([1.0, 1.0]), np.zeros(2)), beta=0.5)

    def test_nc_hand_example(self):
        ws = ws_at([1.0, 1.0])
        d_hat = np.array([-1.0, 0.0])
        g = np.array([1.0, 0.0])
        d = _curvature_scale(d_hat, qnorm(ws, d_hat), rate=1.0 / norm2(d_hat), g=g, beta=0.5) * d_hat
        np.testing.assert_allclose(d, [-0.5, 0.0])
        assert g @ d <= 0.0

    def test_nc_sign_convention_at_zero(self):
        ws = ws_at([1.0, 1.0])
        d_hat = np.array([-1.0, 0.0])
        g = np.array([0.0, 5.0])  # g orthogonal to d_hat: sgn(0) = +1
        d = _curvature_scale(d_hat, qnorm(ws, d_hat), rate=1.0 / norm2(d_hat), g=g, beta=0.5) * d_hat
        np.testing.assert_allclose(d, [0.5, 0.0])

    def test_meo_hand_example(self):
        ws = ws_at([1.0, 1.0])
        v = np.array([1.0, 0.0])
        g = np.array([2.0, 0.0])
        d = _curvature_scale(v, qnorm(ws, v), rate=1.0, g=g, beta=0.5) * v
        np.testing.assert_allclose(d, [-0.5, 0.0])

    def test_meo_small_curvature_binds(self):
        ws = ws_at([1.0, 1.0])
        v = np.array([1.0, 0.0])
        d = _curvature_scale(v, qnorm(ws, v), rate=0.1, g=np.zeros(2), beta=0.9) * v
        assert np.linalg.norm(d) == pytest.approx(0.1)

    def test_nc_projected_out_direction(self):
        # projection of d_hat vanishes: the trust cap is +inf, curvature binds
        ws = ws_at([0.5, 0.5], A=np.array([[1.0, 1.0]]), b=np.array([1.0]))
        d_hat = np.array([1.0, 1.0])
        rate = 1.0 / norm2(d_hat)
        d = _curvature_scale(d_hat, qnorm(ws, d_hat), rate, g=np.zeros(2), beta=0.5) * d_hat
        np.testing.assert_allclose(d, -d_hat / np.linalg.norm(d_hat), atol=1e-14)


# Properties of the three scalings over random product cones, interior points and
# m in {0, 1, 2, 3} Gaussian constraints: the step c d_hat never leaves the trust
# region ||project(.)|| <= beta, a SOL multiplier only shrinks, and a
# curvature step never ascends along g.  Lengths and curvatures span 1e-3..1e3 so
# that each term of each minimum binds on some examples.
BETAS = st.floats(0.05, 0.95)
LOG_SCALES = st.floats(-3.0, 3.0)


def scaling_case(cone, seed, m, log_len):
    """(workspace, d_hat of length ~10^log_len, g = null_step_t of a Gaussian gradient)."""
    rng, ws, _, _ = workspace(cone, seed, m)
    n = cone.total_dim
    d_hat = 10.0**log_len * rng.standard_normal(n)
    return ws, d_hat, ws.null_step_t(rng.standard_normal(n))[0]


@PROPERTY_SETTINGS
@given(cone=CONES, seed=SEEDS, m=M_ROWS, beta=BETAS, log_len=LOG_SCALES)
def test_sol_scaling_only_shrinks_into_the_trust_region(cone, seed, m, beta, log_len):
    assume(m < cone.total_dim)
    ws, d_hat, _ = scaling_case(cone, seed, m, log_len)
    c = _sol_scale(d_hat, qnorm(ws, d_hat), beta)
    assert 0.0 < c <= 1.0
    assert qnorm(ws, c * d_hat) <= beta * (1 + 1e-12)


@PROPERTY_SETTINGS
@given(cone=CONES, seed=SEEDS, m=M_ROWS, beta=BETAS, log_len=LOG_SCALES, log_curv=LOG_SCALES)
def test_nc_scaling_descends_within_the_trust_region(cone, seed, m, beta, log_len, log_curv):
    assume(m < cone.total_dim)
    ws, d_hat, g = scaling_case(cone, seed, m, log_len)
    d = _curvature_scale(d_hat, qnorm(ws, d_hat), 10.0**log_curv / norm2(d_hat), g, beta) * d_hat
    assert g @ d <= 0.0
    assert qnorm(ws, d) <= beta * (1 + 1e-12)


@PROPERTY_SETTINGS
@given(cone=CONES, seed=SEEDS, m=M_ROWS, beta=BETAS, log_curv=LOG_SCALES)
def test_meo_scaling_descends_within_the_trust_region(cone, seed, m, beta, log_curv):
    assume(m < cone.total_dim)
    ws, v, g = scaling_case(cone, seed, m, 0.0)
    v /= norm2(v)  # the oracle returns a unit direction
    d = _curvature_scale(v, qnorm(ws, v), 10.0**log_curv, g, beta) * v
    assert g @ d <= 0.0
    assert qnorm(ws, d) <= beta * (1 + 1e-12)


class TestLineSearches:
    def test_unit_step_on_well_scaled_quadratic(self):
        p = builtin("negnorm_simplex", 4)
        eps = 0.01
        params = SolverParams(epsilon=eps)
        mu = mu_from_epsilon(eps, params.beta, 4.0)
        ws = ws_at(p.x0, A=p.affine.A, b=p.affine.b)
        d = np.array([1.0, -1.0, 0.5, -0.5]) * 0.05
        phi0, _ = phi_value(p, ws.point, mu, ws.counters)
        step = ws.null_step(d)
        # direct-evaluation oracle: the unit step already decreases enough
        target = params.eta * math.sqrt(eps) * float(d @ d)
        assert phi_value(p, ws.point + step, mu, ws.counters)[0] < phi0 - target
        alpha, x_new, phi_new, _ = line_search_sol(
            p, ws, mu, d, params, ws.counters, step=step, phi0=phi0, dd=float(d.dot(d))
        )
        assert alpha == 1.0
        np.testing.assert_allclose(x_new, ws.point + step)

    def test_zero_direction_rejected(self):
        p = builtin("negnorm_simplex", 3)
        params = SolverParams(epsilon=0.01)
        ws = ws_at(p.x0, A=p.affine.A, b=p.affine.b)
        mu = mu_from_epsilon(0.01, params.beta, 3.0)
        d = np.zeros(3)
        with pytest.raises(ZeroDirection):
            line_search_sol(p, ws, mu, d, params, ws.counters, step=ws.null_step(d),
                            phi0=phi_value(p, ws.point, mu, ws.counters)[0], dd=float(d.dot(d)))

    def test_backtrack_depth_two(self):
        # crafted so j = 0, 1 fail and j = 2 is the first acceptance
        eps, beta = 0.01, 0.5
        params = SolverParams(epsilon=eps, beta=beta)
        mu = mu_from_epsilon(eps, beta, 1.0)
        p = quadratic_problem(np.eye(1), [-1.075], orthant(1), empty_affine(1))
        ws = ws_at([1.0])
        d = np.array([0.3])
        phi0, _ = phi_value(p, ws.point, mu, ws.counters)
        step = ws.null_step(d)
        accepts = []
        for j in range(3):
            t = params.theta**j
            lhs, _ = phi_value(p, ws.point + t * step, mu, ws.counters)
            accepts.append(lhs < phi0 - params.eta * math.sqrt(eps) * t * t * float(d @ d))
        assert accepts == [False, False, True]
        alpha, _, _, _ = line_search_sol(
            p, ws, mu, d, params, ws.counters, step=step, phi0=phi0, dd=float(d.dot(d))
        )
        assert alpha == pytest.approx(0.25)

    def test_nc_unit_step_on_concave_quadratic(self):
        eps = 0.01
        params = SolverParams(epsilon=eps, beta=0.5)
        mu = mu_from_epsilon(eps, 0.5, 2.0)
        p = quadratic_problem(-np.eye(2), np.zeros(2), orthant(2), empty_affine(2))
        ws = ws_at([1.0, 1.0])
        gphi = p.gradient(ws.point) + mu * barrier_factor(p.cone, ws.point).gradient
        g, _ = ws.null_step_t(gphi)
        v = np.array([1.0, 0.0])
        curvature_phi = float(v @ ws.reduced_hessian_apply(lambda w: -w, mu, v)[0])
        d = _curvature_scale(v, qnorm(ws, v), abs(curvature_phi), g, beta=0.5) * v
        phi0, _ = phi_value(p, ws.point, mu, ws.counters)
        alpha, x_new, phi_new, _ = line_search_nc(p, ws, mu, d, params, ws.counters,
                                               step=ws.null_step(d), phi0=phi0, dd=float(d.dot(d)))
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
            line_search_sol(p, ws, mu, d, params, ws.counters, step=ws.null_step(d),
                            phi0=phi_value(p, ws.point, mu, ws.counters)[0], dd=float(d.dot(d)))


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
        assert res.probability_bound is None

    def test_max_iters_multiplier_is_taken_at_the_final_point(self):
        # the returned lambda pairs with x_final: it is the least-squares multiplier of
        # the merit gradient there, formed with one more counted gradient evaluation
        p = builtin("nonconvex_qp_simplex", 30)
        res = solve(p, p.x0, SolverParams(epsilon=1e-3, max_outer_iters=50))
        assert res.status is SolveStatus.MAX_ITERS_EXCEEDED
        ws = IterationWorkspace(p.affine, barrier_factor(p.cone, res.x_final), OpCounters())
        expected = ws.multipliers(p.gradient(res.x_final) + res.mu * ws.factor.gradient)
        assert np.array_equal(res.lambda_final, expected)
        assert res.trace.counters["grad_eval"] == res.iterations + 1
        assert res.probability_bound is None

    def test_line_search_failure_exit(self):
        # phi is +inf at every trial point, so the first step's three trials all fail:
        # the solve stops at x0 with its CG_SOL record, lambda1 there and a certificate
        base = builtin("nonconvex_qp_simplex", 6, seed=1)
        x0 = base.x0.copy()
        p = dataclasses.replace(
            base, value=lambda x: base.value(x) if np.array_equal(x, x0) else math.inf
        )
        res = solve(p, x0, SolverParams(epsilon=1e-3, max_backtracks=2))
        assert res.status is SolveStatus.LINE_SEARCH_FAILURE
        assert res.iterations == 0
        [record] = res.trace.records
        assert record.branch == BRANCH_CG_SOL and record.alpha == 0.0
        ws = IterationWorkspace(p.affine, barrier_factor(p.cone, x0), OpCounters())
        expected = ws.multipliers(p.gradient(x0) + res.mu * ws.factor.gradient)
        assert np.array_equal(res.lambda_final, expected)
        assert res.trace.counters["fun_eval"] == 4
        assert res.trace.counters["cholesky"] == 1
        assert res.trace.certificate is not None
        assert res.probability_bound is None

    def test_fosp_only_mode(self):
        p = builtin("nonconvex_qp_simplex", 8, seed=4)
        res = solve(p, p.x0, SolverParams(epsilon=1e-3, fosp_only=True, max_outer_iters=50000))
        assert res.status is SolveStatus.FOSP_CERTIFIED
        assert res.trace.certificate.fosp_ok
        assert res.trace.certificate.fosp_residual <= 1e-3
        assert res.probability_bound is None

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

    def test_vacuous_probability_bound_reads_zero(self):
        # ||H|| ~ 14 here, so sqrt(2.75 n) delta^(1 / sqrt(||H||)) ~ 3 and 1 - tail < 0
        p = builtin("regularized_loss", 40, seed=0)
        res = solve(p, p.x0, SolverParams(epsilon=0.1))
        assert res.status is SolveStatus.SOSP_CERTIFIED
        tail = math.sqrt(2.75 * p.n) * 0.01 ** (1.0 / math.sqrt(res.estimated_hess_norm))
        assert tail > 1.0
        assert res.probability_bound == 0.0

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
            assert is_interior(p.cone, x)
            assert np.max(np.abs(p.affine.A @ x - p.affine.b)) <= 1e-9 * 2.0
        for x_prev, x_next in zip(iterates, iterates[1:]):
            step = exact_difference(x_next, x_prev)
            assert primal_local_norm(p.cone, x_prev, step) <= params.beta * (1 + 1e-9)

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
        # the raw quadratic is unbounded below over the unbounded orthant
        # directions, so solve the perturbed problem
        from conebarrier.problems import perturb

        p = perturb(mixed_cone_quadratic(), sigma=2.0)
        res = solve(p, p.x0, SolverParams(epsilon=1e-3, seed=7, max_outer_iters=100000))
        assert res.status is SolveStatus.SOSP_CERTIFIED
        cert = res.trace.certificate
        assert cert.fosp_ok and cert.sosp_ok
        assert is_interior(p.cone, res.x_final)

    def test_unbounded_instance_raises_divergence(self):
        from conebarrier.errors import DivergenceError

        p = mixed_cone_quadratic()
        with pytest.raises(DivergenceError):
            solve(p, p.x0, SolverParams(epsilon=1e-3, seed=7, max_outer_iters=200000))

    def test_unbounded_unconstrained_iterate_raises_divergence(self):
        # f = -t on soc(3) with m = 0: the iterates grow about 1.5x per step until a
        # trial point, interior in exact arithmetic, loses its gap t - ||u|| to roundoff;
        # with no re-projection, the line search names the divergence itself
        from conebarrier.errors import DivergenceError

        p = quadratic_problem(np.zeros((3, 3)), [-1.0, 0.0, 0.0], second_order(3),
                              empty_affine(3), x0=np.array([2.0, 0.5, 0.3]))
        with pytest.raises(DivergenceError, match="grow without bound") as info:
            solve(p, p.x0, SolverParams(epsilon=1e-2))
        assert "re-projection" not in str(info.value)

    def test_badly_scaled_compact_slice_blames_reprojection(self):
        # soc_quadratic's first row pins t, so its slice is compact and the objective
        # bounded; scaled by 1e4 it still leaves the cone at its one re-projection
        # (ROADMAP item 9), and the error says so rather than blaming unboundedness
        from conebarrier.errors import DivergenceError

        base = builtin("soc_quadratic", 30, m=2, seed=0)
        q_mat, c = base.hessian(base.x0), base.gradient(np.zeros(30))
        p = quadratic_problem(1e4 * q_mat, 1e4 * c, base.cone, base.affine, x0=base.x0)
        with pytest.raises(DivergenceError, match="re-projection onto Ax = b left the cone") as info:
            solve(p, p.x0, SolverParams(epsilon=1e-3, seed=7))
        assert "ill-conditioned A" in str(info.value) and "badly scaled objective" in str(info.value)

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
        products = []
        p = ConicProblem(
            name="hv-only",
            cone=base.cone,
            affine=base.affine,
            value=base.value,
            gradient=base.gradient,
            hess_vec_fn=lambda x, v: (products.append(v), q_mat @ v)[1],
            x0=base.x0,
        )
        res = solve(p, p.x0, SolverParams(epsilon=1e-2, max_outer_iters=100000))
        assert res.status is SolveStatus.SOSP_CERTIFIED
        cert = res.trace.certificate
        assert cert.fosp_ok
        assert cert.sosp_min_eig is None
        assert res.trace.counters["hess_vec"] == len(products)

    def test_unconstrained_run_spends_no_product_on_lambda2(self):
        # with m = 0 the multiplier lambda2 is empty, so a unit SOL step adds no product:
        # each capped-CG call costs 1 + iterations, and the final certifying oracle its
        # Lanczos steps plus the power iterations of its norm estimate
        from conebarrier.lanczos import _POWER_ITERS
        from conebarrier.trace import BRANCH_CG_SOL, BRANCH_TERMINATE

        n = 6
        p = quadratic_problem(np.diag(np.arange(1.0, n + 1)), -np.ones(n), orthant(n),
                              empty_affine(n), x0=np.full(n, 3.0))
        res = solve(p, p.x0, SolverParams(epsilon=1e-3, seed=7))
        assert res.status is SolveStatus.SOSP_CERTIFIED
        *steps, last = res.trace.records
        assert {r.branch for r in steps} == {BRANCH_CG_SOL}
        assert any(r.alpha == 1.0 for r in steps)
        assert last.branch == BRANCH_TERMINATE
        expected = sum(1 + r.cg_iters for r in steps) + last.lanczos_iters + _POWER_ITERS
        assert res.trace.counters["hess_vec"] == expected

    def test_constrained_run_forms_lambda2_without_a_product(self, monkeypatch):
        # with m >= 1, lambda2 after a unit SOL step comes from the range coefficients
        # that capped CG and null_step_t carry: the hess_vec count is the unconstrained
        # one, and the lambda2 that the next gate reads is the Newton-step multiplier
        # -(A M M^T A^T)^{-1} A M M^T (Q step + grad phi), assembled densely here
        from conebarrier import solver as solver_mod
        from conebarrier.lanczos import _POWER_ITERS
        from conebarrier.trace import BRANCH_CG_SOL, BRANCH_TERMINATE

        gates = []

        def gate(ws, mu, beta, g, grad_f, lambda2, *rest):
            gates.append((ws.point, ws.factor, grad_f + mu * ws.factor.gradient, lambda2))
            return first_order_gate(ws, mu, beta, g, grad_f, lambda2, *rest)

        monkeypatch.setattr(solver_mod, "first_order_gate", gate)
        n = 6
        q_mat = np.diag(np.arange(1.0, n + 1))
        rows = np.array([[1.0] * n, [1.0, -1.0, 2.0, 0.0, 0.5, -1.0]])
        for m in (1, 2):
            a_mat = rows[:m]
            p = quadratic_problem(q_mat, -np.ones(n), orthant(n),
                                  AffineData(A=a_mat, b=a_mat @ np.full(n, 3.0)), x0=np.full(n, 3.0))
            gates.clear()
            res = solve(p, p.x0, SolverParams(epsilon=1e-3, seed=7))
            assert res.status is SolveStatus.SOSP_CERTIFIED
            *steps, last = res.trace.records
            assert {r.branch for r in steps} == {BRANCH_CG_SOL}
            assert last.branch == BRANCH_TERMINATE
            expected = sum(1 + r.cg_iters for r in steps) + last.lanczos_iters + _POWER_ITERS
            assert res.trace.counters["hess_vec"] == expected
            unit = [k for k, r in enumerate(steps) if r.alpha == 1.0]
            assert unit
            for k in unit:
                x, factor, grad_phi, _ = gates[k]
                r_d = dense_operators(a_mat, dense_lower(factor))[3]
                fresh = r_d @ (q_mat @ (gates[k + 1][0] - x) + grad_phi)
                np.testing.assert_allclose(gates[k + 1][3], fresh, rtol=1e-9, atol=0)

    def test_dense_hessian_formed_once_per_iterate(self):
        # every product at an iterate reuses one hessian(x); the certificate forms one more
        base = builtin("regularized_loss", 10, seed=1)
        points = []
        p = dataclasses.replace(
            base, hessian=lambda x: (points.append(x.copy()), base.hessian(x))[1]
        )
        res = solve(p, p.x0, SolverParams(epsilon=1e-3, seed=7, max_outer_iters=100000))
        assert res.status is SolveStatus.SOSP_CERTIFIED
        assert res.trace.certificate.sosp_min_eig is not None
        assert res.trace.counters["hess_vec"] > res.iterations + 1
        assert len(points) == res.iterations + 2
        np.testing.assert_array_equal(points[-1], res.x_final)
        # a first-order stop forms none at its last iterate, and check_fosp none
        points.clear()
        res = solve(p, p.x0, SolverParams(epsilon=1e-3, seed=7, fosp_only=True))
        assert res.status is SolveStatus.FOSP_CERTIFIED
        assert len(points) == res.iterations

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


def bits(value):
    """``value`` with every float and array replaced by its bytes, so that == is bit equality."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, float):  # np.float64 too
        return value.hex()
    if isinstance(value, IterationWorkspace):  # built from its factor's point
        value = (value.factor.point, value.factor.gradient, value.scaled_AT)
    if dataclasses.is_dataclass(value):
        value = dataclasses.astuple(value)
    if isinstance(value, tuple):
        return tuple(bits(v) for v in value)
    return value


class TestIteration:
    """One outer iteration is a function of its arguments, the solver's own state among them."""

    @pytest.mark.parametrize("name, n, params, branch", [
        ("negnorm_simplex", 5, {}, "MEO_NC"),
        ("soc_quadratic", 20, {"m": 3}, "CG_NC"),
        ("nonconvex_qp_simplex", 30, {}, "CG_SOL"),
    ])
    def test_a_rerun_from_a_copied_state_is_bit_equal(self, monkeypatch, name, n, params, branch):
        from conebarrier import solver as solver_mod

        iteration = solver_mod._iteration
        reruns = []

        def spy(*args):
            copied = copy.deepcopy(args)  # the state, the generator and the counters
            row, state, end = iteration(*args)
            again = iteration(*copied)
            rng, copied_rng = args[4], copied[4]  # _iteration's generator argument
            reruns.append((row[2], bits((row, state, end)), bits(again), rng.bit_generator.state,
                           copied_rng.bit_generator.state))
            return row, state, end

        monkeypatch.setattr(solver_mod, "_iteration", spy)
        p = builtin(name, n, **params)
        res = solve(p, p.x0, SolverParams(epsilon=1e-3, seed=7))
        assert res.status is SolveStatus.SOSP_CERTIFIED and len(reruns) == res.iterations + 1
        assert branch in [rerun[0] for rerun in reruns]
        for _, first, again, rng_state, copied_rng_state in reruns:
            assert first == again and rng_state == copied_rng_state


class TestOneWalkPerPoint:
    """The solver walks the cone blocks of each point it evaluates once, for the
    barrier value, and builds the accepted point's factor from those reads; x0 is
    checked by the walk that values it.  A re-projected point is walked once, by
    the same strict test, and its factor is built from those reads.  The
    certificate does not walk: it has its own interiority test."""

    @staticmethod
    def count_walks(monkeypatch, problem, params):
        from conebarrier import cones
        from conebarrier import solver as solver_mod

        calls = {"walks": 0, "reprojections": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        walk = counted("walks", cones.barrier_reads)
        monkeypatch.setattr(cones, "barrier_reads", walk)
        monkeypatch.setattr(solver_mod, "barrier_reads", walk)
        monkeypatch.setattr(solver_mod, "_reproject", counted("reprojections", solver_mod._reproject))
        res = solve(problem, problem.x0, params)
        ops = res.trace.counters
        assert calls["walks"] == ops["fun_eval"] + calls["reprojections"]
        assert ops["cholesky"] == res.iterations + 1
        return res, calls

    def test_accepted_points_are_not_walked_again(self, monkeypatch):
        p = builtin("nonconvex_qp_simplex", 30, seed=0)
        res, calls = self.count_walks(monkeypatch, p, SolverParams(epsilon=1e-2, seed=7))
        assert res.status is SolveStatus.SOSP_CERTIFIED
        assert calls["reprojections"] == 0
        assert res.trace.counters["fun_eval"] == res.iterations + 1

    def test_every_backtracking_trial_is_walked_once(self, monkeypatch):
        # a value callback that jumps by 1 where x_2 > 0.4 rejects the trials that cross
        # it, so the line search backtracks until it runs out of steps
        base = builtin("nonconvex_qp_simplex", 5, seed=0)
        p = dataclasses.replace(base, value=lambda x: base.value(x) + (1.0 if x[2] > 0.4 else 0.0))
        res, calls = self.count_walks(monkeypatch, p, SolverParams(epsilon=1e-2, seed=7))
        assert res.status is SolveStatus.LINE_SEARCH_FAILURE
        ops = res.trace.counters
        assert ops["fun_eval"] > ops["cholesky"]  # trials outnumber accepted points

    def test_a_reprojected_point_is_walked_once(self, monkeypatch):
        # the unbounded instance drifts off Ax = b as its iterates grow
        p = mixed_cone_quadratic()
        res, calls = self.count_walks(
            monkeypatch, p, SolverParams(epsilon=1e-3, seed=7, max_outer_iters=60)
        )
        assert res.status is SolveStatus.MAX_ITERS_EXCEEDED
        assert calls["reprojections"] > 0


class TestCallbackErrors:
    """Misbehaving objective callbacks fail fast with a typed error."""

    @staticmethod
    def solve_with(**callbacks):
        base = builtin("nonconvex_qp_simplex", 10)
        p = dataclasses.replace(base, **callbacks)
        return solve(p, p.x0, SolverParams(epsilon=1e-3, seed=7))

    @pytest.mark.parametrize("bad, named", [
        (math.nan, "NaN"), (-math.inf, "-inf"), (np.array([1.0, 2.0]), "array([1., 2.])"),
        (np.array([1.0]), "array([1.])"), (None, "None"), ("1.5", "'1.5'"), (1.5 + 0j, "(1.5+0j)"),
        (True, "True"),
    ], ids=["nan", "-inf", "shape-2", "shape-1", "none", "string", "complex", "bool"])
    def test_bad_value_raises_on_first_evaluation(self, bad, named):
        calls = []

        def value(x):
            calls.append(x)
            return bad

        with pytest.raises(CallbackError, match=re.escape(f"value callback returned {named}")):
            self.solve_with(value=value)
        assert len(calls) == 1

    def test_minus_inf_trial_value_raises(self):
        # accepted as a decrease, it ended the solve in a line-search failure at k = 1
        base = builtin("nonconvex_qp_simplex", 10)
        calls = []

        def value(x):
            calls.append(x)
            return -math.inf if len(calls) == 2 else base.value(x)  # the first trial point

        with pytest.raises(CallbackError, match="-inf"):
            self.solve_with(value=value)

    @pytest.mark.parametrize("real", [np.float32, np.int64, int], ids=["float32", "int64", "int"])
    def test_real_scalars_are_values(self, real):
        p = dataclasses.replace(builtin("nonconvex_qp_simplex", 10), value=lambda x: real(3))
        assert phi_value(p, p.x0, 0.0, OpCounters())[0] == 3.0

    def test_a_float64_value_solves_as_its_float(self):
        base = builtin("nonconvex_qp_simplex", 10)
        res = self.solve_with(value=lambda x: np.float64(base.value(x)))
        ref = solve(base, base.x0, SolverParams(epsilon=1e-3, seed=7))
        assert list(res.trace.phi_mu) == list(ref.trace.phi_mu)
        assert res.x_final.tobytes() == ref.x_final.tobytes()

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

    @pytest.mark.parametrize("shape", [(6, 7), (7, 7)])
    def test_wrong_shape_dense_hessian_raises(self, shape):
        p = dataclasses.replace(builtin("nonconvex_qp_simplex", 6), hessian=lambda x: np.zeros(shape))
        with pytest.raises(CallbackError, match=r"hessian callback returned shape \(\d, 7\)"):
            solve(p, p.x0, SolverParams(epsilon=1e-3, seed=7))
