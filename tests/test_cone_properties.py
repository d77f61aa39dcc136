"""Property tests of the per-block barrier factor over random product cones.

Each example draws one to four orthant and second-order cone blocks and an
interior point from ``conftest.random_interior_point``.  The dense factor
``BarrierFactor.lower`` and ``scipy.linalg.solve_triangular`` are the
reference for the block-wise solves; ``local_norm_dual`` is the reference for
the certificate's closed-form dual norm.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular

from conebarrier.certify import dual_norm
from conebarrier.cones import (
    ORTHANT,
    SOC,
    Cone,
    ConeBlock,
    barrier_factor,
    barrier_gradient,
    barrier_hessian,
    barrier_value,
    interior_membership,
    local_norm_dual,
)
from conebarrier.errors import BoundaryError

from conftest import random_interior_point

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)

BLOCKS = st.one_of(
    st.builds(ConeBlock, st.just(ORTHANT), st.integers(1, 6)),
    st.builds(ConeBlock, st.just(SOC), st.integers(2, 6)),
)
CONES = st.lists(BLOCKS, min_size=1, max_size=4).map(lambda blocks: Cone(tuple(blocks)))
SEEDS = st.integers(0, 2**32 - 1)


def sample(cone, seed):
    rng = np.random.default_rng(seed)
    return rng, random_interior_point(cone, rng)


@PROPERTY_SETTINGS
@given(cone=CONES, seed=SEEDS, cols=st.integers(1, 4))
def test_block_solves_match_dense_triangular_solves(cone, seed, cols):
    rng, x = sample(cone, seed)
    factor = barrier_factor(cone, x)
    lower = factor.lower
    n = cone.total_dim
    for v in (rng.standard_normal(n), rng.standard_normal((n, cols))):
        np.testing.assert_allclose(
            factor.solve_lower(v), solve_triangular(lower, v, lower=True), rtol=1e-9, atol=1e-9
        )
        np.testing.assert_allclose(
            factor.solve_upper(v), solve_triangular(lower.T, v, lower=False), rtol=1e-9, atol=1e-9
        )
        assert factor.solve_lower(v).shape == v.shape


@PROPERTY_SETTINGS
@given(cone=CONES, seed=SEEDS)
def test_lower_is_cholesky_factor_of_hessian(cone, seed):
    _, x = sample(cone, seed)
    lower = barrier_factor(cone, x).lower
    hess = barrier_hessian(cone, x)
    np.testing.assert_array_equal(lower, np.tril(lower))
    assert np.all(np.diag(lower) > 0.0)
    np.testing.assert_allclose(lower @ lower.T, hess, rtol=1e-10, atol=1e-10 * np.abs(hess).max())


@PROPERTY_SETTINGS
@given(cone=CONES, seed=SEEDS)
def test_certificate_dual_norm_matches_local_norm_dual(cone, seed):
    rng, x = sample(cone, seed)
    s = rng.standard_normal(cone.total_dim)
    expected = local_norm_dual(barrier_factor(cone, x), s)
    assert dual_norm(cone, x, s) == pytest.approx(expected, rel=1e-9)


@PROPERTY_SETTINGS
@given(cone=CONES, seed=SEEDS, data=st.data())
def test_every_barrier_entry_point_rejects_the_same_boundary_points(cone, seed, data):
    rng, x = sample(cone, seed)
    index = data.draw(st.integers(0, len(cone.blocks) - 1), label="block")
    block, sl = list(cone.slices())[index]
    if block.kind == ORTHANT:
        j = data.draw(st.integers(0, block.dim - 1), label="component")
        x[sl.start + j] = data.draw(st.sampled_from([0.0, -1.0]), label="value")
    else:
        u_norm = np.linalg.norm(x[sl.start + 1:sl.stop])
        # outside the cone (gap < 0), or in its negative (gap > 0 but t < 0)
        x[sl.start] = data.draw(st.sampled_from([0.5 * u_norm, -u_norm - 1.0]), label="t")
    assert not interior_membership(cone, x)
    for entry_point in (barrier_value, barrier_gradient, barrier_hessian, barrier_factor):
        with pytest.raises(BoundaryError):
            entry_point(cone, x)
