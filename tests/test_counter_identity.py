"""The cost model as an identity: every counter of a solve, rebuilt from its trace.

``conftest.rebuilt_counters`` rebuilds all six counters from the trace
columns, m and README's per-item costs ("Cost model and counters"), with
``conftest.SolveSpy`` supplying the two facts the trace does not record.
Equality is asserted on nine builtin and test solves, including both
benchmark workloads at both seeds, on one solve whose capped CG replays its
loop at a residual-growth exit, and on random small instances.
"""
import numpy as np
import pytest
from hypothesis import assume, event, given
from hypothesis import strategies as st

from conebarrier import AffineData, SolverParams, builtin, orthant, solve

from conftest import SolveSpy, random_interior_point, rebuilt_counters
from test_cone_properties import CONES, PROPERTY_SETTINGS, SEEDS
from test_solver import mixed_cone_quadratic, quadratic_problem

SOLVES = {
    "simplex_qp-0": lambda: builtin("nonconvex_qp_simplex", 100, seed=0),
    "simplex_qp-1013": lambda: builtin("nonconvex_qp_simplex", 100, seed=1013),
    "soc_dense-0": lambda: builtin("soc_quadratic", 200, m=2, seed=0),
    "soc_dense-1013": lambda: builtin("soc_quadratic", 200, m=2, seed=1013),
    "loss_hessian": lambda: builtin("regularized_loss", 40, seed=0),
    "pnorm_simplex-100": lambda: builtin("pnorm_simplex", 100),
    "negnorm_simplex-5": lambda: builtin("negnorm_simplex", 5),
    "soc_quadratic-20-m3": lambda: builtin("soc_quadratic", 20, m=3, seed=0),
    "mixed_cone_quadratic": mixed_cone_quadratic,
}


@pytest.mark.parametrize("name", sorted(SOLVES))
def test_counters_rebuilt_from_the_trace(name, solve_spy):
    problem = SOLVES[name]()
    params = SolverParams(epsilon=1e-3, seed=7,
                          max_outer_iters=60 if name == "mixed_cone_quadratic" else 50000)
    result = solve(problem, problem.x0, params)
    assert result.trace.counters == rebuilt_counters(result, problem.m, params, solve_spy)


def test_replay_products_are_counted(solve_spy):
    # an asymmetric Hessian, outside the solver's contract, stalls capped CG into its
    # residual-growth exit; the replays' products do not show in the trace, and the spy
    # adds them, each a hess_vec and a reduced product's substitutions
    rng = np.random.default_rng(181)
    n = int(rng.integers(4, 12))
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q_mat = 0.1 * (q * rng.uniform(-1.9, 1.0, n)) @ q.T
    b = rng.standard_normal((n, n))
    q_mat += 0.1 * rng.uniform(0.3, 0.7) * (b - b.T) / np.sqrt(2 * n)
    x0 = np.ones(n)
    problem = quadratic_problem(q_mat, rng.standard_normal(n), orthant(n),
                                AffineData(A=np.ones((1, n)), b=[float(n)]), x0=x0)
    params = SolverParams(epsilon=0.01, seed=7, max_outer_iters=20)
    result = solve(problem, x0, params)
    assert solve_spy.replay_products > 0
    assert result.trace.counters == rebuilt_counters(result, 1, params, solve_spy)


@PROPERTY_SETTINGS
@given(cone=CONES, seed=SEEDS, m=st.integers(0, 3), shift=st.sampled_from([0.0, 1.0]),
       fosp_only=st.booleans())
def test_counters_rebuilt_on_random_instances(cone, seed, m, shift, fosp_only):
    # a quadratic over m Gaussian rows through an interior point, indefinite or, shifted,
    # convex, capped at 40 iterations; the spy is installed by hand, as hypothesis
    # reuses no function-scoped fixture
    assume(m < cone.total_dim)
    rng = np.random.default_rng(seed)
    n = cone.total_dim
    x0 = random_interior_point(cone, rng)
    a_mat = rng.standard_normal((m, n))
    q_mat = rng.standard_normal((n, n))
    q_mat = (q_mat + q_mat.T) / np.sqrt(8 * n) + shift * np.eye(n)
    problem = quadratic_problem(q_mat, rng.standard_normal(n), cone,
                                AffineData(A=a_mat, b=a_mat @ x0), x0=x0)
    params = SolverParams(epsilon=0.1, seed=seed % 1000, max_outer_iters=40,
                          fosp_only=fosp_only)
    with pytest.MonkeyPatch.context() as monkeypatch:
        spy = SolveSpy(monkeypatch)
        result = solve(problem, x0, params)
        event(result.status.value)
        event(f"replays {bool(spy.replay_products)}")
        event("branches " + " ".join(sorted({r.branch for r in result.trace.records})))
        assert result.trace.counters == rebuilt_counters(result, m, params, spy)
