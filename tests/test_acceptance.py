"""Acceptance suite: one test per contract criterion, printed pass/fail.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.

Criteria 5 and 8 check claims about the negated-norm simplex instance
f(x) = -||x||^2 / 2, and the method promises those claims only on sizes
where the (eps, sqrt(eps))-SOSP certificate forces them.  Near the
barycentre of a face spanned by k >= 2 vertices the barrier-scaled reduced
Hessian is about -(1/k^2) I, so such a point passes the second-order test
exactly when 1/k^2 <= sqrt(eps), i.e. k >= eps^(-1/4); near a vertex the
reduced curvature is about 0.  Hence a certified point lies near a vertex
(f close to -1/2) whenever n < eps^(-1/4); see ``negnorm_vertex_size``.
For larger n the simplex centre (curvature -1/n^2) can itself be certified,
and criterion 5 checks that the method does exactly that at n = 10.
"""
import functools
import math
import time

import numpy as np
import pytest

from conebarrier.capped_cg import DirectionKind, capped_cg
from conebarrier.certify import check_fosp, is_interior, reduced_min_eig
from conebarrier.cli import fit_loglog_slope
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
from conebarrier.lanczos import CERTIFIED, NC, lanczos_iteration_cap, min_eig_oracle
from conebarrier.linops import AffineData, IterationWorkspace
from conebarrier.problems import ConicProblem, builtin
from conebarrier.solver import SolverParams, SolveStatus, solve

from conftest import (
    dense_lower,
    dense_operators,
    iteration_bound,
    primal_local_norm,
    random_interior_point,
    scaled_residuals,
)


def criterion(num, label, budget=None):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            start = time.monotonic()
            try:
                fn(*args, **kwargs)
                elapsed = time.monotonic() - start
                if budget is not None:
                    assert elapsed < budget, f"runtime {elapsed:.2f}s exceeds {budget}s"
            except BaseException:
                print(f"criterion {num:2d} FAIL  {label}")
                raise
            print(f"criterion {num:2d} PASS  {label} ({elapsed:.2f}s)")
        return run
    return wrap


def solve_builtin(name, n, eps, seed=7, **kwargs):
    problem = builtin(name, n, **kwargs)
    params = SolverParams(epsilon=eps, seed=seed, max_outer_iters=200000)
    return problem, solve(problem, problem.x0, params)


def solve_with_iterate_probe(problem, eps, seed=7):
    """Solve while recording every iterate (the gradient is evaluated once per
    iteration at the current iterate, plus once in the final certificate)."""
    iterates = []
    probe = ConicProblem(
        name=problem.name,
        cone=problem.cone,
        affine=problem.affine,
        value=problem.value,
        gradient=lambda x: (iterates.append(x.copy()), problem.gradient(x))[1],
        hessian=problem.hessian,
        x0=problem.x0,
    )
    params = SolverParams(epsilon=eps, seed=seed, max_outer_iters=200000)
    return solve(probe, problem.x0, params), iterates


def negnorm_vertex_size(eps):
    """Largest n < eps^(-1/4): the sizes of ``negnorm_simplex`` on which every
    (eps, sqrt(eps))-SOSP lies near a vertex (module docstring).  At the
    centre x = 1/n the reduced curvature is -1/n^2 < -sqrt(eps), below the
    certification bound, so the start cannot be certified and the run must
    escape it."""
    return math.ceil(eps ** -0.25) - 1


def assert_end_to_end_invariants(problem, result, iterates, eps):
    assert result.status is SolveStatus.SOSP_CERTIFIED
    for x in iterates:
        assert is_interior(problem.cone, x)
        if problem.m:
            b_scale = 1.0 + np.max(np.abs(problem.affine.b))
            assert np.max(np.abs(problem.affine.A @ x - problem.affine.b)) <= 1e-9 * b_scale
    phis = [r.phi_mu for r in result.trace.records]
    assert all(a > b for a, b in zip(phis, phis[1:]))
    report = check_fosp(problem, result.x_final, result.lambda_final, eps_g=eps)
    assert report.fosp_ok
    assert report.fosp_residual <= eps
    assert reduced_min_eig(problem, result.x_final) >= -math.sqrt(eps) - 1e-6
    # same claim through the dense scaled-and-projected Hessian directly
    factor = barrier_factor(problem.cone, result.x_final)
    _, _, p_d, _ = dense_operators(problem.affine.A, dense_lower(factor))
    scaled = p_d.T @ problem.hessian(result.x_final) @ p_d
    assert np.linalg.eigvalsh(0.5 * (scaled + scaled.T))[0] >= -math.sqrt(eps) - 1e-6


def assert_counter_accounting(result, m):
    """Factorization and substitution accounting (see README, cost model).

    One barrier factorization per iterate; with m >= 1 every reduced
    Hessian-vector product costs six substitutions, and all remaining
    per-iteration work costs at most m + 20 substitutions.
    """
    counters = result.trace.counters
    assert counters["cholesky"] == result.iterations + 1
    assert counters["matT_mat"] == result.iterations + 1
    slack = counters["tri_solve"] - 6 * counters["hess_vec"]
    assert 0 <= slack <= (m + 20) * (result.iterations + 1)


CONE_FAMILIES = [
    orthant(2),
    orthant(10),
    orthant(50),
    second_order(2),
    second_order(5),
    second_order(20),
    product(ConeBlock("orthant", 5), ConeBlock("soc", 3), ConeBlock("soc", 4)),
]


@criterion(1, "barrier identities, homogeneity, Dikin interiority", budget=5.0)
def test_criterion_1_barrier_identities():
    from scipy.linalg import solve_triangular

    rng = np.random.default_rng(101)
    for cone in CONE_FAMILIES:
        theta = cone.theta
        for _ in range(100):
            x = random_interior_point(cone, rng)
            bx = barrier_reads(cone, x)[0]
            for t in (0.5, 2.0, 10.0):
                assert abs(barrier_reads(cone, t * x)[0] - bx + theta * math.log(t)) \
                    <= 1e-8 * (1.0 + abs(bx))
            factor = barrier_factor(cone, x)
            grad = barrier_factor(cone, x).gradient
            assert abs(local_norm_dual(factor, grad) ** 2 - theta) <= 1e-8 * theta
            assert abs(-x @ grad - theta) <= 1e-8 * theta
            assert abs(primal_local_norm(cone, x, x) ** 2 - theta) <= 1e-8 * theta
    cone = CONE_FAMILIES[-1]
    for _ in range(100):
        x = random_interior_point(cone, rng)
        factor = barrier_factor(cone, x)
        u = rng.standard_normal(cone.total_dim)
        u *= 0.999 / np.linalg.norm(u)
        step = solve_triangular(dense_lower(factor).T, u, lower=False)
        assert is_interior(cone, x + step)


@criterion(2, "projection operators match dense assembly", budget=5.0)
def test_criterion_2_operator_calculus():
    rng = np.random.default_rng(202)
    for n, m in [(2, 1), (4, 2), (6, 3), (8, 3), (5, 0)]:
        cone = orthant(n) if n % 2 else second_order(n)
        a_mat = rng.standard_normal((m, n))
        a_norm = np.linalg.norm(a_mat, 2) if m else 0.0
        for _ in range(10):
            x = random_interior_point(cone, rng)
            factor = barrier_factor(cone, x)
            affine = AffineData(A=a_mat, b=np.zeros(m)) if m \
                else AffineData(A=np.zeros((0, n)), b=np.zeros(0))
            ws = IterationWorkspace(affine, factor, OpCounters())
            m_d, q_d, p_d, r_d = dense_operators(a_mat if m else np.zeros((0, n)), dense_lower(factor))
            v = rng.standard_normal(n)
            u = rng.standard_normal(n)
            np.testing.assert_allclose(ws.project(v), q_d @ v, atol=1e-9, rtol=1e-9)
            np.testing.assert_allclose(ws.null_step(v), p_d @ v, atol=1e-9, rtol=1e-9)
            np.testing.assert_allclose(ws.null_step_t(v)[0], p_d.T @ v, atol=1e-9, rtol=1e-9)
            if m:
                np.testing.assert_allclose(ws.multipliers(v), r_d @ v, atol=1e-9, rtol=1e-9)
            qv = ws.project(v)
            assert np.linalg.norm(ws.project(qv) - qv) <= 1e-10 * np.linalg.norm(v)
            assert abs(u @ ws.project(v) - v @ ws.project(u)) \
                <= 1e-10 * np.linalg.norm(u) * np.linalg.norm(v)
            if m:
                assert np.linalg.norm(a_mat @ ws.null_step(v)) \
                    <= 1e-8 * a_norm * np.linalg.norm(v)


@criterion(3, "capped CG output contracts over 200 seeded cases", budget=30.0)
def test_criterion_3_capped_cg_fuzz():
    rng = np.random.default_rng(303)
    for trial in range(200):
        n = int(rng.integers(2, 51))
        eps = (0.1, 0.01)[trial % 2]
        kind = trial % 4
        if kind == 0:
            spectrum = 2.0 * rng.random(n) - 1.0
        elif kind == 1:
            spectrum = 0.05 + rng.random(n)
        elif kind == 2:
            spectrum = -0.8 * eps + rng.random(n)
        else:
            spectrum = np.concatenate(([-1.0 - rng.random()], rng.random(n - 1)))
        g_mat = rng.standard_normal((n, n))
        q_mat, _ = np.linalg.qr(g_mat)
        h_mat = (q_mat * spectrum) @ q_mat.T
        g = rng.standard_normal(n)
        out = capped_cg(lambda v: (h_mat @ v, 0.0), g, eps, 0.5)
        d = out.direction
        d_sq = float(d @ d)
        assert d_sq > 0.0
        quad = float(d @ h_mat @ d)
        if out.kind is DirectionKind.SOL:
            resid = np.linalg.norm((h_mat + 2 * eps * np.eye(n)) @ d + g)
            assert resid <= out.zeta_hat * np.linalg.norm(g) * (1 + 1e-8)
            assert quad >= -eps * d_sq * (1 + 1e-8)
        else:
            assert quad < -eps * d_sq * (1 - 1e-8)
        assert out.iterations <= iteration_bound(out, n)


@criterion(4, "eigenvalue oracle completeness, soundness, iteration caps", budget=30.0)
def test_criterion_4_meo_suite():
    assert lanczos_iteration_cap(1000, 0.01, 0.01) == 48
    rng = np.random.default_rng(404)
    eps, delta = 0.05, 0.01
    hits = 0
    for t in range(100):
        n = int(rng.integers(5, 61))
        spectrum = np.sort(rng.random(n))[::-1]
        spectrum[-1] = -2.0 * eps * (1.0 + rng.random())
        g_mat = rng.standard_normal((n, n))
        q_mat, _ = np.linalg.qr(g_mat)
        h_mat = (q_mat * spectrum) @ q_mat.T
        out = min_eig_oracle(lambda v: (h_mat @ v, 0.0), n, eps=eps, delta=delta, seed=4000 + t)
        assert out.iterations <= lanczos_iteration_cap(n, eps, delta)
        if out.kind == NC:
            hits += 1
            v = out.direction
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-10)
            assert float(v @ h_mat @ v) <= -eps / 2.0
    assert hits >= 99
    for t in range(100):
        n = int(rng.integers(2, 61))
        spectrum = rng.random(n)
        g_mat = rng.standard_normal((n, n))
        q_mat, _ = np.linalg.qr(g_mat)
        h_mat = (q_mat * spectrum) @ q_mat.T
        out = min_eig_oracle(lambda v: (h_mat @ v, 0.0), n, eps=eps, delta=delta, seed=5000 + t)
        assert out.kind == CERTIFIED
        assert out.iterations <= lanczos_iteration_cap(n, eps, delta)


@criterion(5, "negated-norm simplex end to end at eps = 1e-3")
def test_criterion_5_negnorm_end_to_end():
    eps = 1e-3
    # n = 5 < eps^(-1/4) = 5.62: the centre curvature -1/25 = -0.04 is below
    # -sqrt(eps) = -0.0316, so only a near-vertex point can be certified.
    n = negnorm_vertex_size(eps)
    start = time.monotonic()
    problem = builtin("negnorm_simplex", n)
    result, iterates = solve_with_iterate_probe(problem, eps, seed=7)
    elapsed = time.monotonic() - start
    assert_end_to_end_invariants(problem, result, iterates, eps)
    assert elapsed < 1.0
    assert problem.value(result.x_final) <= -0.45

    # At n = 10 the centre curvature -1/100 = -0.01 is above the oracle's
    # escape threshold -sqrt(eps)/2 = -0.0158, and the projected merit
    # gradient is zero there (grad f and grad B are both multiples of A^T = 1),
    # so the method must certify the start itself: a genuine SOSP, as
    # -0.01 >= -sqrt(eps).
    n = 10
    problem, result = solve_builtin("negnorm_simplex", n, eps)
    assert result.status is SolveStatus.SOSP_CERTIFIED
    assert result.iterations == 0
    np.testing.assert_array_equal(result.x_final, problem.x0)
    assert abs(result.trace.certificate.sosp_min_eig + 1.0 / n**2) <= 1e-12


@criterion(6, "p-norm simplex end to end at eps = 1e-3")
def test_criterion_6_pnorm_end_to_end():
    eps = 1e-3
    start = time.monotonic()
    problem, result = solve_builtin("pnorm_simplex", 10, eps, p=0.5)
    elapsed = time.monotonic() - start
    assert result.status is SolveStatus.SOSP_CERTIFIED
    assert problem.value(result.x_final) <= 1.1
    report = check_fosp(problem, result.x_final, result.lambda_final, eps_g=eps)
    assert report.fosp_ok
    assert elapsed < 2.0


@criterion(7, "second-order cone instance end to end at eps = 1e-3")
def test_criterion_7_soc_end_to_end():
    eps = 1e-3
    start = time.monotonic()
    problem = builtin("soc_quadratic", 10, m=2, seed=0)
    result, iterates = solve_with_iterate_probe(problem, eps, seed=7)
    elapsed = time.monotonic() - start
    assert_end_to_end_invariants(problem, result, iterates, eps)
    assert elapsed < 2.0


@criterion(8, "iteration scaling slope over eps = 1e-2 .. 1e-4")
def test_criterion_8_eps_scaling():
    start = time.monotonic()
    eps_list = [1e-2, 1e-3, 1e-4]
    # O(eps^(-3/2)) bounds the iterations of runs that have to escape the
    # start.  A run that certifies the start counts 0 iterations, and a slope
    # fitted across such runs measures the jump from "start certified" to
    # "start escaped", not a growth exponent.  negnorm_vertex_size of the
    # largest eps (n = 3 < (1e-2)^(-1/4) = 3.16) keeps the centre below the
    # certification bound at every eps of the sweep.
    sizes = {
        "negnorm_simplex": negnorm_vertex_size(max(eps_list)),
        "nonconvex_qp_simplex": 10,
    }
    slopes = {}
    for name, n in sizes.items():
        iters = []
        for eps in eps_list:
            _, result = solve_builtin(name, n, eps)
            assert result.certified
            iters.append(result.iterations)
        slopes[name] = fit_loglog_slope(eps_list, iters)
    assert time.monotonic() - start < 30.0
    assert slopes["nonconvex_qp_simplex"] <= 1.6
    assert slopes["negnorm_simplex"] <= 1.6


@criterion(9, "operation accounting on every end-to-end run")
def test_criterion_9_counter_accounting():
    runs = [
        solve_builtin("negnorm_simplex", 10, 1e-3),
        solve_builtin("pnorm_simplex", 10, 1e-3, p=0.5),
        solve_builtin("nonconvex_qp_simplex", 10, 1e-2),
        solve_builtin("soc_quadratic", 10, 1e-3, m=2, seed=0),
    ]
    for problem, result in runs:
        assert result.certified
        assert_counter_accounting(result, problem.m)


@criterion(10, "first-order residual invariance under cone scalings", budget=5.0)
def test_criterion_10_scale_invariance():
    rng = np.random.default_rng(1010)
    problem = builtin("nonconvex_qp_simplex", 8, seed=3)
    x = random_interior_point(problem.cone, rng)
    lam = np.array([0.3])
    for _ in range(20):
        weights = np.exp(rng.standard_normal(8))
        r0, r1 = scaled_residuals(problem, x, lam, weights)
        assert r0 == pytest.approx(r1, rel=1e-8)
    soc_problem = builtin("soc_quadratic", 8, m=2, seed=1)
    for _ in range(20):
        weights = np.full(8, float(np.exp(rng.standard_normal())))
        r0, r1 = scaled_residuals(soc_problem, soc_problem.x0, np.zeros(2), weights)
        assert r0 == pytest.approx(r1, rel=1e-8)
