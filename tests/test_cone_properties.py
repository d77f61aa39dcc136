"""Property tests of the per-block barrier factor over random product cones.

Each example draws one to four orthant and second-order cone blocks and an
interior point from ``conftest.random_interior_point``.  The dense factor
``conftest.dense_lower`` and ``scipy.linalg.solve_triangular`` are the
reference for the block-wise solves, ``np.linalg.cholesky`` of the
certificate's dense Hessian ``certify.barrier_hessian``, which shares no
code with the factor, is the reference for it away from the boundary, and
``local_norm_dual`` is the reference for the certificate's closed-form dual
norm.  Near a second-order cone boundary the closed-form inverse Hessian
x x^T - (gamma/2) diag(1, -1, ..., -1) is the reference instead, because a
dense Cholesky factor of the ill-conditioned Hessian loses its accuracy there.
"""
import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular

from conebarrier.certify import barrier_hessian, dual_norm, in_dual_cone, is_interior
from conebarrier.cones import (
    ORTHANT,
    SOC,
    Cone,
    ConeBlock,
    SocFactor,
    barrier_factor,
    barrier_reads,
    local_norm_dual,
)
from conebarrier.errors import BoundaryError, FactorizationError

from conftest import CONE_FAMILIES, block_factors, dense_lower, random_interior_point

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


def soc_gap_exact(xb):
    """t^2 - ||u||^2 of a float block, rounded once from exact rational arithmetic."""
    return float(Fraction(xb[0]) ** 2 - sum(Fraction(ui) ** 2 for ui in xb[1:]))


def soc_pivots_exact(xb):
    """Squared diagonal of the block's Cholesky factor, from exact leading principal minors.

    The Hessian is D + c w w^T, so by the matrix determinant lemma
    det(D_k + c w_k w_k^T) = det(D_k) (1 + c sum_{i<k} w_i^2 / D_i), and the
    j-th pivot is the ratio of consecutive minors.
    """
    t, u = Fraction(xb[0]), [Fraction(ui) for ui in xb[1:]]
    gap = t * t - sum(ui * ui for ui in u)
    c = 4 / gap**2
    pivots, lemma = [], Fraction(1)
    for dj, wj in zip([-2 / gap] + [2 / gap] * len(u), [t] + [-ui for ui in u]):
        lemma_next = lemma + c * wj * wj / dj
        pivots.append(float(dj * lemma_next / lemma))
        lemma = lemma_next
    return np.array(pivots)


def min_relative_soc_gap(cone, x):
    """Smallest (t^2 - ||u||^2) / t^2 over the second-order cone blocks of x (1 if none)."""
    gaps = [soc_gap_exact(x[sl]) / x[sl.start] ** 2
            for block, sl in cone.slices if block.kind == SOC]
    return min(gaps, default=1.0)


@PROPERTY_SETTINGS
@given(cone=CONES, seed=SEEDS, cols=st.integers(1, 4))
def test_block_solves_match_dense_triangular_solves(cone, seed, cols):
    rng, x = sample(cone, seed)
    factor = barrier_factor(cone, x)
    lower = dense_lower(factor)
    n = cone.total_dim
    # a vector, and a cols x n stack of rows solved one row at a time
    for v in (rng.standard_normal(n), rng.standard_normal((cols, n))):
        np.testing.assert_allclose(
            factor.solve_lower(v), solve_triangular(lower, v.T, lower=True).T, rtol=1e-9, atol=1e-9
        )
        np.testing.assert_allclose(
            factor.solve_upper(v), solve_triangular(lower.T, v.T, lower=False).T,
            rtol=1e-9, atol=1e-9,
        )
        assert factor.solve_lower(v).shape == v.shape


@PROPERTY_SETTINGS
@given(cone=CONES, seed=SEEDS)
def test_lower_is_cholesky_factor_of_hessian(cone, seed):
    _, x = sample(cone, seed)
    lower = dense_lower(barrier_factor(cone, x))
    hess = barrier_hessian(cone, x)
    np.testing.assert_array_equal(lower, np.tril(lower))
    assert np.all(np.diag(lower) > 0.0)
    np.testing.assert_allclose(lower @ lower.T, hess, rtol=1e-10, atol=1e-10 * np.abs(hess).max())
    # the Cholesky factor is unique, so away from the boundary the dense one is a reference
    assert min_relative_soc_gap(cone, x) >= 1e-2
    np.testing.assert_allclose(
        lower, np.linalg.cholesky(hess), rtol=1e-9, atol=1e-12 * np.abs(lower).max()
    )


@PROPERTY_SETTINGS
@given(cone=CONES, seed=SEEDS)
def test_factor_gradient_satisfies_the_homogeneity_identities(cone, seed):
    # a theta-logarithmically homogeneous barrier has -x^T grad B(x) = theta and
    # ||grad B(x)||_x*^2 = theta at every interior x
    _, x = sample(cone, seed)
    factor = barrier_factor(cone, x)
    theta = cone.theta
    assert abs(-x @ factor.gradient - theta) <= 1e-8 * theta
    assert abs(local_norm_dual(factor, factor.gradient) ** 2 - theta) <= 1e-8 * theta


@PROPERTY_SETTINGS
@given(cone=CONES, seed=SEEDS)
def test_certificate_dual_norm_matches_local_norm_dual(cone, seed):
    rng, x = sample(cone, seed)
    s = rng.standard_normal(cone.total_dim)
    expected = local_norm_dual(barrier_factor(cone, x), s)
    assert dual_norm(cone, x, s) == pytest.approx(expected, rel=1e-9)


@PROPERTY_SETTINGS
@given(cone=CONES, seed=SEEDS, k=st.integers(-900, 900), tol=st.sampled_from([0.0, 1e-9, 1e-3]))
def test_power_of_two_scaling_is_exact(cone, seed, k, tol):
    # the barrier is logarithmically homogeneous and every block is read at its unit
    # scale, so at 2^k x, with all entries normal, the results are rescaled bit for bit
    rng, x = sample(cone, seed)
    scaled_x = np.ldexp(x, k)
    assert is_interior(cone, scaled_x)
    unit, scaled = barrier_factor(cone, x), barrier_factor(cone, scaled_x)
    assert np.array_equal(scaled.gradient, np.ldexp(unit.gradient, -k))
    v = rng.standard_normal(cone.total_dim)
    assert np.array_equal(scaled.solve_lower(v), np.ldexp(unit.solve_lower(v), k))
    s = rng.standard_normal(cone.total_dim)
    assert in_dual_cone(cone, np.ldexp(s, k), math.ldexp(tol, k)) == in_dual_cone(cone, s, tol)


@PROPERTY_SETTINGS
@given(cone=st.sampled_from(CONE_FAMILIES), seed=SEEDS, k=st.integers(-1000, 1000))
@example(cone=CONE_FAMILIES[-1], seed=0, k=498).via("2^498 is about 1e150")
@example(cone=CONE_FAMILIES[-1], seed=0, k=-498).via("2^-498 is about 1e-150")
def test_factor_from_handed_over_reads_equals_a_fresh_factor(cone, seed, k):
    # the solver walks a trial point once, for its barrier value, and builds the
    # accepted point's factor from those reads; that factor must be the fresh one, bit
    # for bit, field by field, and must fail where the fresh one fails
    _, x = sample(cone, seed)
    x = np.ldexp(x, k)
    assert is_interior(cone, x)
    value, reads = barrier_reads(cone, x)
    assert barrier_reads(cone, x)[0] == value
    try:
        fresh = barrier_factor(cone, x)
    except FactorizationError:
        with pytest.raises(FactorizationError):
            barrier_factor(cone, x, reads=reads)
        return
    handed = barrier_factor(cone, x, reads=reads)
    assert handed.cone == fresh.cone
    assert np.array_equal(handed.point, fresh.point)
    assert np.array_equal(handed.gradient, fresh.gradient)
    assert len(handed.factors) == len(fresh.factors)
    for (block, _, got), (_, _, want) in zip(block_factors(handed), block_factors(fresh)):
        if block.kind == ORTHANT:
            assert np.array_equal(got, want)
            continue
        assert isinstance(got, SocFactor) and isinstance(want, SocFactor)
        for field in dataclasses.fields(SocFactor):
            assert np.array_equal(getattr(got, field.name), getattr(want, field.name)), field.name


def textbook_soc_factor(xb):
    """(root, w, p, q) of an SOC block by the plain expressions: D as an array, ``np.cumsum``."""
    e = math.frexp(np.abs(xb).max())[1]
    y = np.ldexp(xb, -e)
    t, r = y[0], np.linalg.norm(y[1:])
    gap = (t - r) * (t + r)
    d = y.shape[0]
    w = y.copy()
    w[1:] *= -1.0
    diag = np.full(d, 2.0 / gap)
    diag[0] = -diag[0]
    tail = np.zeros(d)
    tail[:-1] = np.cumsum(y[:0:-1] ** 2)[::-1]
    ia = np.empty(d + 1)
    ia[0] = gap * gap / 4.0
    ia[1:] = -(gap / 4.0) * (gap + 2.0 * tail)
    return np.ldexp(np.sqrt(diag * ia[1:] / ia[:-1]), -e), w, w / diag, w / ia[:-1]


def textbook_soc_solve(root, p, q, v, lower):
    """L_b^{-1} v or L_b^{-T} v of an SOC block as a shifted ``np.cumsum``, without in-place steps.

    v is a vector or a stack of rows, solved along its last axis.
    """
    sums = np.zeros_like(v)
    if lower:
        sums[..., 1:] = np.cumsum(p * v, axis=-1)[..., :-1]
        return (v - q * sums) / root
    y = v / root
    sums[..., :-1] = np.cumsum((q * y)[..., ::-1], axis=-1)[..., ::-1][..., 1:]
    return y - p * sums


@PROPERTY_SETTINGS
@given(cone=CONES, seed=SEEDS, k=st.integers(-900, 900), cols=st.integers(1, 4))
def test_soc_factor_and_solves_are_bit_equal_to_the_textbook_form(cone, seed, k, cols):
    # the factor and its solves use in-place steps, a scalar D and np.add.accumulate
    # into shifted rows; each is the same floating-point operation on the same operands
    rng, x = sample(cone, seed)
    x = np.ldexp(x, k)
    factor = barrier_factor(cone, x)
    for block, sl, f in block_factors(factor):
        if block.kind == ORTHANT:
            continue
        root, w, p, q = textbook_soc_factor(x[sl])
        for got, want in ((f.root, root), (f.w, w), (f.p, p), (f.q, q)):
            assert np.array_equal(got, want)
        for v in (rng.standard_normal(block.dim), rng.standard_normal((cols, block.dim))):
            vs = np.zeros(v.shape[:-1] + (cone.total_dim,))
            vs[..., sl] = v
            assert np.array_equal(factor.solve_lower(vs)[..., sl], textbook_soc_solve(root, p, q, v, True))
            assert np.array_equal(factor.solve_upper(vs)[..., sl], textbook_soc_solve(root, p, q, v, False))


@PROPERTY_SETTINGS
@given(cone=CONES, seed=SEEDS, data=st.data())
def test_every_barrier_entry_point_rejects_the_same_boundary_points(cone, seed, data):
    # the walk and the certificate's own interiority test, which share no code, agree
    # on the interior sample and on the point moved onto or past one block's boundary
    rng, x = sample(cone, seed)
    assert is_interior(cone, x)
    barrier_reads(cone, x)
    index = data.draw(st.integers(0, len(cone.blocks) - 1), label="block")
    block, sl = list(cone.slices)[index]
    if block.kind == ORTHANT:
        j = data.draw(st.integers(0, block.dim - 1), label="component")
        x[sl.start + j] = data.draw(st.sampled_from([0.0, -1.0]), label="value")
    else:
        u_norm = np.linalg.norm(x[sl.start + 1:sl.stop])
        # outside the cone (gap < 0), or in its negative (gap > 0 but t < 0)
        x[sl.start] = data.draw(st.sampled_from([0.5 * u_norm, -u_norm - 1.0]), label="t")
    assert not is_interior(cone, x)
    for entry_point in (barrier_reads, barrier_factor):
        with pytest.raises(BoundaryError):
            entry_point(cone, x)


def stacked_cone(dim, runs):
    """A second-order cone block of dimension ``dim`` after each run of blocks but the last."""
    blocks = [b for run in runs[:-1] for b in (*run, ConeBlock(SOC, dim))]
    return Cone(tuple(blocks + runs[-1]))


# k >= 2 second-order cone blocks of one dimension, each after a run of zero to two other
# blocks, orthant or SOC: the stack is read through a slice where its blocks are adjacent
# and through a gather where they are not, and so are the orthant coordinates
STACKED_CONES = st.builds(
    stacked_cone,
    st.integers(2, 6),
    st.integers(2, 4).flatmap(
        lambda k: st.lists(st.lists(BLOCKS, max_size=2), min_size=k + 1, max_size=k + 1)),
)


def outcome(entry_point, cone, x):
    """The type of the typed error ``entry_point(cone, x)`` raises, or None."""
    try:
        entry_point(cone, x)
    except (BoundaryError, FactorizationError) as exc:
        return type(exc)
    return None


@PROPERTY_SETTINGS
@given(cone=STACKED_CONES, seed=SEEDS, data=st.data())
def test_stacked_blocks_are_bit_equal_to_each_block_alone(cone, seed, data):
    # each row of a k x d stack, at its own power-of-two scale, is read, factored and solved
    # with the same floating-point operations as the block alone
    rng, x = sample(cone, seed)
    for _, sl in cone.slices:
        x[sl] = np.ldexp(x[sl], data.draw(st.integers(-900, 900), label="scale"))
    factor = barrier_factor(cone, x)
    v = rng.standard_normal(cone.total_dim)
    vs = rng.standard_normal((data.draw(st.integers(1, 4), label="rows"), cone.total_dim))
    # B(x) is the sum of the blocks' terms, each formed as for the block alone, in another order
    terms = [barrier_reads(Cone((block,)), x[sl])[0] for block, sl in cone.slices]
    assert abs(barrier_reads(cone, x)[0] - math.fsum(terms)) <= 1e-14 * sum(map(abs, terms))
    for block, sl, f in block_factors(factor):
        alone = barrier_factor(Cone((block,)), x[sl])
        [(_, _, want)] = block_factors(alone)
        if block.kind == ORTHANT:
            assert np.array_equal(f, want)
        else:
            for field in dataclasses.fields(SocFactor):
                assert np.array_equal(getattr(f, field.name), getattr(want, field.name)), field.name
        assert np.array_equal(factor.gradient[sl], alone.gradient)
        for w in (v, vs):
            assert np.array_equal(factor.solve_lower(w)[..., sl], alone.solve_lower(w[..., sl]))
            assert np.array_equal(factor.solve_upper(w)[..., sl], alone.solve_upper(w[..., sl]))


@PROPERTY_SETTINGS
@given(cone=STACKED_CONES, seed=SEEDS, data=st.data())
def test_a_bad_block_in_a_stack_raises_what_it_raises_alone(cone, seed, data):
    # NaN, inf, a subnormal entry, a block scaled into the subnormal range, or a point outside
    # the block, in any one block: the walk and the factor fail, or pass, as for the block alone
    _, x = sample(cone, seed)
    block, sl = cone.slices[data.draw(st.integers(0, len(cone.blocks) - 1), label="block")]
    j = sl.start + data.draw(st.integers(0, block.dim - 1), label="component")
    bad = data.draw(st.sampled_from(["nan", "inf", "-inf", "subnormal", "subnormal block",
                                     "outside"]), label="bad")
    if bad == "subnormal block":
        x[sl] = np.ldexp(x[sl], -1060)
    elif bad == "outside":
        x[j] = -1.0 if block.kind == ORTHANT else 0.5 * np.linalg.norm(x[sl.start + 1:sl.stop])
    else:
        x[j] = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "subnormal": 5e-324}[bad]
    for entry_point in (barrier_reads, barrier_factor):
        assert outcome(entry_point, cone, x) is outcome(entry_point, Cone((block,)), x[sl])


@pytest.mark.parametrize("dim", [2, 3, 50, 200])
def test_soc_factor_accurate_up_to_the_boundary(dim):
    # x = (1, r e) with ||e|| = 1 and r^2 = 1 - 10^-k, so the relative gap is about 10^-k
    rng = np.random.default_rng(dim)
    cone = Cone((ConeBlock(SOC, dim),))
    sign = np.diag(np.r_[1.0, -np.ones(dim - 1)])
    for k in range(11):
        e = rng.standard_normal(dim - 1)
        x = np.concatenate([[1.0], np.sqrt(1.0 - 10.0**-k) * e / np.linalg.norm(e)])
        gap = soc_gap_exact(x)
        factor = barrier_factor(cone, x)
        # the pivots have condition number about t^2 / gap = 1 / gap, so a stable factor
        # is within a few eps / gap of them; the dense Cholesky factor was up to 3e10 eps / gap off
        pivots = np.diag(dense_lower(factor)) ** 2
        np.testing.assert_allclose(pivots, soc_pivots_exact(x), rtol=16 * np.finfo(float).eps / gap)
        # a vector, and a 3 x dim stack of rows
        for v in (rng.standard_normal(dim), rng.standard_normal((3, dim))):
            inverse_hessian_v = np.multiply.outer(v @ x, x) - 0.5 * gap * (v @ sign)
            got = factor.solve_upper(factor.solve_lower(v))
            rel = np.linalg.norm(got - inverse_hessian_v) / np.linalg.norm(inverse_hessian_v)
            assert rel <= 1e-10, f"d={dim}, gap 1e-{k}: relative error {rel:.1e}"
        g = rng.standard_normal(dim)
        assert local_norm_dual(factor, g) == pytest.approx(dual_norm(cone, x, g), rel=1e-10)
