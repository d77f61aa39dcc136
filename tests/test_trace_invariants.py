"""Invariants along every accepted iterate of short solves on random instances.

Each example draws a product cone from ``test_cone_properties.CONES``,
m in {0, ..., 3} equality rows through an interior point (at most n - 1), and
a nonconvex objective bounded below, and runs a short solve with
``solver.barrier_factor`` spied on.  The solver factors x0 and then each
accepted point once, so the spy sees every accepted iterate in order, and it
checks each one against its predecessor as it is factored:

* the point is strictly interior, by ``certify.is_interior``;
* it satisfies max |Ax - b| <= FEAS_TOL (1 + max |b|);
* its merit phi_mu = f + mu B is strictly lower, with B in closed form here;
* the step to it has local norm at most beta at its predecessor, unless the
  step was re-projected onto Ax = b, which moves it off the Dikin step.

The random instances stay on Ax = b to roundoff, so one fixed unbounded
instance, which drifts and is re-projected, covers that path.
None of the checks reads the solver's cone layer.  The local norm is
``conftest.local_norm_squared`` of the exact step, in rational arithmetic: near
a second-order cone boundary the dense form v^T nabla^2 B(x) v cancels, and read
a step that the solver capped at beta = 0.5 as 0.5000000066.
"""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conebarrier import solver as solver_mod
from conebarrier.certify import barrier_hessian, is_interior
from conebarrier.cones import ORTHANT, SOC, ConeBlock, product
from conebarrier.linops import AffineData, empty_affine
from conebarrier.problems import ConicProblem
from conebarrier.solver import FEAS_TOL, SolverParams, solve

from conftest import exact_difference, local_norm_squared, primal_local_norm, random_interior_point
from test_cone_properties import CONES, SEEDS
from test_solver import mixed_cone_quadratic


def instance(cone, m, seed) -> ConicProblem:
    """Q x.x / 2 + c.x + kappa ||x||^4 / 4 + 0.3 sum cos(10 x_i) on m rows through x0; Q indefinite.

    The quartic bounds the objective below, so a solve can terminate rather
    than run along a ray, and the ripple makes unit trials fail the decrease
    test, so the line search backtracks.
    """
    rng = np.random.default_rng(seed)
    n = cone.total_dim
    m = min(m, n - 1)
    x0 = random_interior_point(cone, rng)
    g = rng.standard_normal((n, n))
    q_mat = (g + g.T) / (2.0 * math.sqrt(n))
    c = rng.standard_normal(n)
    a_mat = rng.standard_normal((m, n))
    kappa = 0.3 / float(x0 @ x0)  # the quartic's curvature at x0 is at most 0.9
    affine = AffineData(A=a_mat, b=a_mat @ x0) if m else empty_affine(n)
    return ConicProblem(
        name="invariants",
        cone=cone,
        affine=affine,
        value=lambda x: (0.5 * float(x @ q_mat @ x) + float(c @ x) + 0.25 * kappa * float(x @ x) ** 2
                         + 0.3 * float(np.sum(np.cos(10.0 * x)))),
        gradient=lambda x: q_mat @ x + c + kappa * float(x @ x) * x - 3.0 * np.sin(10.0 * x),
        hessian=lambda x: (q_mat + kappa * (float(x @ x) * np.eye(n) + 2.0 * np.outer(x, x))
                           - np.diag(30.0 * np.cos(10.0 * x))),
        x0=x0,
    )


def barrier(cone, x) -> float:
    """B(x) = -sum ln x_i over orthant blocks - sum ln(t^2 - ||u||^2) over SOC blocks."""
    total = 0.0
    for block, sl in cone.slices:
        xb = x[sl]
        if block.kind == ORTHANT:
            total -= float(np.sum(np.log(xb)))
        else:
            total -= math.log(xb[0] ** 2 - xb[1:] @ xb[1:])
    return total


def checked_solve(problem, params):
    """solve(problem, x0, params), with the invariants checked at each accepted point.

    Returns the result and the number of re-projections.
    """
    cone, affine = problem.cone, problem.affine
    b_scale = 1.0 + (float(np.max(np.abs(affine.b))) if problem.m else 0.0)
    mu = solver_mod.mu_from_epsilon(params.epsilon, params.beta, cone.theta)
    bound = Fraction(params.beta * (1.0 + 1e-9)) ** 2
    factor_fn, reproject_fn = solver_mod.barrier_factor, solver_mod._reproject
    points, reprojected = [], []

    def reproject(*args):
        reprojected.append(len(points))
        return reproject_fn(*args)

    def factor(cone_, x, *args):
        k = len(points)
        assert is_interior(cone, x), f"iterate {k} is not interior"
        residual = float(np.max(np.abs(affine.A @ x - affine.b), initial=0.0))
        assert residual <= FEAS_TOL * b_scale, f"iterate {k} is off Ax = b by {residual}"
        phi = problem.value(x) + mu * barrier(cone, x)
        if points:
            x_prev, phi_prev = points[-1]
            assert phi < phi_prev, f"phi_mu does not decrease at iterate {k}"
            if k not in reprojected:
                norm = local_norm_squared(cone, x_prev, exact_difference(x, x_prev))
                assert norm <= bound, f"step {k} has local norm {math.sqrt(norm)} > beta"
        points.append((x.copy(), phi))
        return factor_fn(cone_, x, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver_mod, "barrier_factor", factor)
        mp.setattr(solver_mod, "_reproject", reproject)
        res = solve(problem, problem.x0, params)
    assert len(points) == res.iterations + 1  # x0 and each accepted point, factored once
    return res, len(reprojected)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(cone=CONES, m=st.integers(0, 3), seed=SEEDS)
def test_every_accepted_iterate_keeps_the_invariants(cone, m, seed):
    checked_solve(instance(cone, m, seed), SolverParams(epsilon=1e-2, seed=7, max_outer_iters=40))


def test_invariants_hold_across_reprojections():
    # the unbounded instance drifts off Ax = b as its iterates grow, and is re-projected
    res, reprojections = checked_solve(
        mixed_cone_quadratic(), SolverParams(epsilon=1e-3, seed=7, max_outer_iters=60)
    )
    assert reprojections > 0


def test_dense_local_norm_cancels_near_an_soc_boundary():
    # a step along the boundary of soc(2), from t - u = 0.01, whose exact local norm is below
    # beta = 0.5 while the dense form v^T nabla^2 B(x) v reads it above beta (1 + 1e-9)
    cone = product(ConeBlock(ORTHANT, 1), ConeBlock(SOC, 2))
    x = np.array([4.9, 1060.89, 1060.88])
    x_next = np.array([5.283525470753039, 1584.6095834164344, 1584.5997140273196])
    v = x_next - x
    assert exact_difference(x_next, x).tolist() == v.tolist()  # the float step is exact
    assert math.sqrt(v @ barrier_hessian(cone, x) @ v) > 0.5 * (1 + 1e-9)
    assert primal_local_norm(cone, x, v) <= 0.5
