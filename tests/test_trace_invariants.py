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
None of the checks reads the solver's cone layer.  The local norm is taken in
exact rational arithmetic: near a second-order cone boundary the dense form
v^T nabla^2 B(x) v of ``conftest.primal_local_norm`` cancels, and reads a step
that the solver capped at beta = 0.5 as 0.5000000066.
"""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conebarrier import solver as solver_mod
from conebarrier.certify import is_interior
from conebarrier.cones import ORTHANT
from conebarrier.linops import AffineData, empty_affine
from conebarrier.problems import ConicProblem
from conebarrier.solver import FEAS_TOL, SolverParams, solve

from conftest import random_interior_point
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


def local_norm_squared(cone, x, x_next) -> Fraction:
    """||x_next - x||_x^2 = v^T nabla^2 B(x) v, exactly, from the float points.

    An SOC block's Hessian is -2J/gamma + 4 (Jx)(Jx)^T / gamma^2 with
    J = diag(1, -1, ..., -1) and gamma = x^T J x.
    """
    total = Fraction(0)
    for block, sl in cone.slices:
        xb = [Fraction(a) for a in x[sl]]
        vb = [Fraction(a) - Fraction(b) for a, b in zip(x_next[sl], x[sl])]
        if block.kind == ORTHANT:
            total += sum((vi / xi) ** 2 for vi, xi in zip(vb, xb))
            continue
        gap = xb[0] ** 2 - sum(ui * ui for ui in xb[1:])
        xjv = xb[0] * vb[0] - sum(ui * wi for ui, wi in zip(xb[1:], vb[1:]))
        vjv = vb[0] ** 2 - sum(wi * wi for wi in vb[1:])
        total += 2 * (2 * xjv**2 - gap * vjv) / gap**2
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
                norm = local_norm_squared(cone, x_prev, x)
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
