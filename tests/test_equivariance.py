"""Equivariance of the solve under automorphisms of the cone.

The barrier is logarithmically homogeneous and the method measures every step
in its local norm, so it commutes with the cone's automorphisms: the problem
rewritten as x = T y is solved along y_k = T^{-1} x_k.  With T a power of two
per orthant coordinate and per second-order cone block every product with T
is exact, and the two solves agree bit for bit in the status, the counters,
x_final after unscaling, lambda_final, the certificate and every CSV column
but phi_mu, which moves by the constant mu (B(T^{-1} x) - B(x)) before it is
rounded.  A rotation of an SOC
block's u is not exact in floating point, so there the solves agree to
roundoff.  The Euclidean re-projection onto Ax = b is not equivariant, so the
checks also require that neither solve re-projects.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conebarrier import solver as solver_mod
from conebarrier.cones import SOC, second_order
from conebarrier.errors import InfeasibleStart
from conebarrier.linops import AffineData, empty_affine
from conebarrier.problems import ConicProblem, builtin
from conebarrier.solver import SolverParams, SolveStatus, solve

from test_cone_properties import CONES, SEEDS
from test_solver import quadratic_problem
from test_trace_invariants import instance

# the CSV columns that a power-of-two rescaling leaves bit-equal: all but phi_mu
COLUMNS = ("k", "residual", "branch", "alpha", "dir_norm", "cg_iters", "lanczos_iters")
PARAMS = SolverParams(epsilon=1e-3, seed=7)


def transformed(problem: ConicProblem, t: np.ndarray) -> ConicProblem:
    """The problem in y with x = T y: f(T y), A T, b and T^{-1} x0.

    ``t`` is the diagonal of T, powers of two, or an orthogonal T, so that
    T^{-1} = T^T.
    """
    if t.ndim == 1:
        apply, apply_t, x0 = (lambda v: t * v), (lambda v: t * v), problem.x0 / t
        hessian = lambda y: t[:, None] * problem.hessian(t * y) * t  # noqa: E731
    else:
        apply, apply_t, x0 = t.dot, t.T.dot, t.T.dot(problem.x0)
        hessian = lambda y: t.T @ problem.hessian(t @ y) @ t  # noqa: E731
    return ConicProblem(
        name=problem.name,
        cone=problem.cone,
        affine=AffineData(A=problem.affine.A @ t if t.ndim == 2 else problem.affine.A * t,
                          b=problem.affine.b),
        value=lambda y: problem.value(apply(y)),
        gradient=lambda y: apply_t(problem.gradient(apply(y))),
        hessian=hessian,
        x0=x0,
    )


def block_scales(cone, exponents) -> np.ndarray:
    """2^k per orthant coordinate, and one 2^k per SOC block: the first of its coordinates'."""
    k = np.array(exponents)
    for block, sl in cone.slices:
        if block.kind == SOC:
            k[sl] = k[sl.start]
    return np.ldexp(1.0, k)


def run(problem: ConicProblem, params: SolverParams):
    """solve(problem, x0, params), and the number of re-projections it made."""
    calls = []
    reproject = solver_mod._reproject

    def counted(*args):
        calls.append(args)
        return reproject(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver_mod, "_reproject", counted)
        res = solve(problem, problem.x0, params)
    return res, len(calls)


def assert_bit_equal(problem, scales, params):
    """Solve the problem and its rescaling by ``scales``; assert the bit-equal outputs."""
    res, reprojections = run(problem, params)
    res_t, reprojections_t = run(transformed(problem, scales), params)
    assert reprojections == reprojections_t == 0
    assert res_t.status is res.status
    assert res_t.iterations == res.iterations
    assert res_t.trace.counters == res.trace.counters
    for column in COLUMNS:
        assert getattr(res_t.trace, column).tobytes() == getattr(res.trace, column).tobytes(), column
    assert (scales * res_t.x_final).tobytes() == res.x_final.tobytes()
    assert res_t.lambda_final.tobytes() == res.lambda_final.tobytes()
    assert (res_t.trace.certificate is None) is (res.trace.certificate is None)
    if res.trace.certificate is not None:
        assert res_t.trace.certificate.to_dict() == res.trace.certificate.to_dict()
    return res


@settings(max_examples=200, deadline=None, derandomize=True)
@given(cone=CONES, m=st.integers(0, 3), seed=SEEDS, data=st.data())
def test_power_of_two_rescaling_gives_a_bit_equal_solve(cone, m, seed, data):
    exponents = data.draw(st.lists(st.integers(-60, 60), min_size=cone.total_dim,
                                   max_size=cone.total_dim))
    assert_bit_equal(instance(cone, m, seed), block_scales(cone, exponents),
                     SolverParams(epsilon=1e-2, seed=7, max_outer_iters=40))


@pytest.mark.parametrize("k", [40, -60, 60])
def test_soc_dense_at_extreme_scales(k):
    # the start's slack t - ||u|| is 2^-k, under 1e-12 for k >= 40
    p = builtin("soc_quadratic", 200, m=2, seed=0)
    res = assert_bit_equal(p, np.full(p.n, 2.0**k), PARAMS)
    assert res.status is SolveStatus.SOSP_CERTIFIED and res.trace.certificate.sosp_ok


@pytest.mark.parametrize("low", [-34, -60])
def test_orthant_qp_per_coordinate_scales_certify(low):
    # from 2^[-34, 34] on, the dense certificate's pencil at x itself has no Cholesky factor
    p = builtin("nonconvex_qp_simplex", 30, seed=0)
    scales = np.ldexp(1.0, np.random.default_rng(1).integers(low, -low + 1, p.n))
    res = assert_bit_equal(p, scales, PARAMS)
    assert res.status is SolveStatus.SOSP_CERTIFIED and res.trace.certificate.sosp_ok


def test_soc_rotation_agrees_to_roundoff():
    p = builtin("soc_quadratic", 200, m=2, seed=0)
    rot = np.eye(p.n)
    rot[1:, 1:] = np.linalg.qr(np.random.default_rng(3).standard_normal((p.n - 1, p.n - 1)))[0]
    res, _ = run(p, PARAMS)
    res_t, _ = run(transformed(p, rot), PARAMS)
    assert res.status is res_t.status is SolveStatus.SOSP_CERTIFIED
    assert res_t.iterations == res.iterations
    assert res_t.trace.branch == res.trace.branch
    x_t = rot @ res_t.x_final
    assert np.linalg.norm(x_t - res.x_final) <= 1e-12 * np.linalg.norm(res.x_final)


@pytest.mark.parametrize("entry", [0.0, math.nan, math.inf, 1e-310], ids=["zero", "nan", "inf", "subnormal"])
def test_orthant_start_off_the_interior_is_refused(entry):
    # no margin: only the boundary, non-finite entries and a subnormal one, whose reciprocal
    # overflows, are refused; RuntimeWarnings are errors here, so the refusal is warning-free
    p = builtin("negnorm_simplex", 3)
    with pytest.raises(InfeasibleStart):
        solve(p, np.array([entry, 0.5, 0.5]), PARAMS)


@pytest.mark.parametrize("x0", [[1.0, 0.6, 0.8], [math.nan, 0.0, 0.0], [math.inf, 1.0, 0.0]],
                         ids=["boundary", "nan", "inf"])
def test_soc_start_off_the_interior_is_refused(x0):
    p = quadratic_problem(np.eye(3), np.zeros(3), second_order(3), empty_affine(3))
    with pytest.raises(InfeasibleStart):
        solve(p, np.array(x0), PARAMS)


def test_negative_entry_is_refused_before_the_objective_is_called():
    # x ** 0.5 of a negative entry is NaN, which the value callback would report as a
    # CallbackError; the walk that values x0 refuses it first
    p = builtin("pnorm_simplex", 3)
    with pytest.raises(InfeasibleStart):
        solve(p, np.array([-0.5, 0.75, 0.75]), PARAMS)
