"""Property tests of the null-space calculus over random product cones.

Each example draws one to four orthant and second-order cone blocks, an
interior point from ``conftest.random_interior_point``, m in {0, 1, 2, 3}
equality constraints with a Gaussian A, and a Gaussian vector.  The
contracts checked are the ones the solver relies on: the projector is
idempotent, every null step lies in null(A), the gate's first residual
(the norm of the transposed null step) equals the dual local norm of the
multiplier residual, and a step assembled from a direction's projection is
the null step of the scaled direction.
"""
import numpy as np
from hypothesis import assume, given
from hypothesis import strategies as st

from conebarrier.cones import barrier_factor, local_norm_dual
from conebarrier.counters import OpCounters
from conebarrier.linops import AffineData, IterationWorkspace, empty_affine

from conftest import dense_lower, norm2
from test_cone_properties import CONES, PROPERTY_SETTINGS, SEEDS, sample

M_ROWS = st.integers(0, 3)


def workspace(cone, seed, m):
    """(rng, workspace, A, ||L^{-T}||_2) at a random interior point with m Gaussian constraints."""
    rng, x = sample(cone, seed)
    n = cone.total_dim
    a_mat = rng.standard_normal((m, n))
    affine = AffineData(A=a_mat, b=a_mat @ x) if m else empty_affine(n)
    ws = IterationWorkspace(affine, barrier_factor(cone, x), OpCounters())
    m_norm = np.linalg.norm(np.linalg.inv(dense_lower(ws.factor)), 2)
    return rng, ws, a_mat, m_norm


@PROPERTY_SETTINGS
@given(cone=CONES, seed=SEEDS, m=M_ROWS)
def test_project_is_idempotent(cone, seed, m):
    assume(m < cone.total_dim)
    rng, ws, _, _ = workspace(cone, seed, m)
    v = rng.standard_normal(cone.total_dim)
    q = ws.project(v)
    assert norm2(ws.project(q) - q) <= 1e-12 * norm2(v)


@PROPERTY_SETTINGS
@given(cone=CONES, seed=SEEDS, m=M_ROWS)
def test_null_step_lies_in_the_null_space_of_a(cone, seed, m):
    assume(m < cone.total_dim)
    rng, ws, a_mat, m_norm = workspace(cone, seed, m)
    v = rng.standard_normal(cone.total_dim)
    step = ws.null_step(v)
    a_norm = np.linalg.norm(a_mat, 2) if m else 0.0
    assert norm2(a_mat @ step) <= 1e-12 * a_norm * m_norm * norm2(v)


@PROPERTY_SETTINGS
@given(cone=CONES, seed=SEEDS, m=M_ROWS)
def test_transposed_null_step_norm_is_the_multiplier_residual(cone, seed, m):
    # the first-order gate reads ||null_step_t(grad_phi)|| as this dual local norm
    assume(m < cone.total_dim)
    rng, ws, a_mat, _ = workspace(cone, seed, m)
    v = rng.standard_normal(cone.total_dim)
    lhs = norm2(ws.null_step_t(v)[0])
    rhs = local_norm_dual(ws.factor, v + a_mat.T @ ws.multipliers(v))
    assert abs(lhs - rhs) <= 1e-10 * rhs


@PROPERTY_SETTINGS
@given(cone=CONES, seed=SEEDS, m=M_ROWS,
       c=st.floats(0.01, 10.0), sign=st.sampled_from([1.0, -1.0]))
def test_step_from_the_projection_is_the_null_step(cone, seed, m, c, sign):
    # the solver takes unscale(project(d)) for null_step(d), which is exact; a scaled
    # c project(d) agrees with null_step(c d) to roundoff
    assume(m < cone.total_dim)
    rng, ws, _, m_norm = workspace(cone, seed, m)
    d = rng.standard_normal(cone.total_dim)
    assert np.array_equal(ws.unscale(ws.project(d)), ws.null_step(d))
    c *= sign
    lhs = ws.unscale(c * ws.project(d))
    rhs = ws.null_step(c * d)
    assert norm2(lhs - rhs) <= 1e-12 * m_norm * abs(c) * norm2(d)
