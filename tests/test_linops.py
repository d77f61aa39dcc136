import math
import warnings

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from conebarrier.cones import barrier_factor, local_norm_dual, orthant, second_order
from conebarrier.counters import OpCounters
from conebarrier.errors import FactorizationError
from conebarrier.linops import AffineData, IterationWorkspace, empty_affine

from conftest import (
    CONE_FAMILIES,
    dense_lower,
    dense_operators,
    norm2,
    primal_local_norm,
    random_interior_point,
)

MIXED = CONE_FAMILIES[-1]  # orthant x SOC x orthant x SOC


def make_ws(A, b, x, cone=None, counters=None):
    cone = cone if cone is not None else orthant(len(x))
    affine = AffineData(A=np.asarray(A, float), b=np.asarray(b, float))
    factor = barrier_factor(cone, np.asarray(x, float))
    return IterationWorkspace(affine, factor, OpCounters() if counters is None else counters)


def schur_factor(ws):
    """Lower Cholesky factor C of N^T N, from the workspace's N and its own ``.dot``.

    The workspace keeps only (N^T N)^{-1} (m >= 2) or C^2 (m = 1), so the
    checks on C form it here: a 1 x 1 Schur complement's factor is its root.
    """
    schur = ws.scaled_AT.T.dot(ws.scaled_AT)
    if ws.m == 1:
        return np.array([[math.sqrt(float(schur[0, 0]))]])
    return np.linalg.cholesky(schur)


class TestAffineData:
    def test_rank_check(self):
        with pytest.raises(FactorizationError):
            AffineData(A=np.array([[1.0, 1.0], [2.0, 2.0]]), b=np.zeros(2))

    def test_shape_checks(self):
        with pytest.raises(ValueError):
            AffineData(A=np.ones((1, 2)), b=np.zeros(2))
        with pytest.raises(ValueError):
            AffineData(A=np.ones((3, 2)), b=np.zeros(3))


class TestWorkspaceConstruction:
    def test_example_half(self):
        ws = make_ws([[1.0, 1.0]], [1.0], [0.5, 0.5])
        np.testing.assert_allclose(ws.scaled_AT, [[0.5], [0.5]])
        np.testing.assert_allclose(schur_factor(ws) @ schur_factor(ws).T, [[0.5]])

    def test_example_identity(self):
        ws = make_ws([[1.0, 0.0]], [1.0], [1.0, 1.0])
        np.testing.assert_allclose(ws.scaled_AT, [[1.0], [0.0]])
        np.testing.assert_allclose(schur_factor(ws) @ schur_factor(ws).T, [[1.0]])

    def test_all_ones_row(self):
        n = 7
        ws = make_ws(np.ones((1, n)), [float(n)], np.ones(n))
        np.testing.assert_allclose(schur_factor(ws) @ schur_factor(ws).T, [[float(n)]])

    def test_counters(self):
        counters = OpCounters()
        make_ws([[1.0, 1.0], [1.0, -1.0]], [1.0, 0.0], [0.5, 0.5], counters=counters)
        assert counters.tri_solve == 2  # one per constraint row
        assert counters.matT_mat == 1

    def test_unknown_category_raises(self):
        counters = OpCounters()
        with pytest.raises(KeyError):
            counters.add("bogus")
        assert counters.snapshot() == OpCounters().snapshot()

    def test_schur_factor_consistency(self, rng):
        n, m = 9, 3
        cone = orthant(n)
        a_mat = rng.standard_normal((m, n))
        x = random_interior_point(cone, rng)
        ws = make_ws(a_mat, np.zeros(m), x)
        nt = ws.scaled_AT
        c = schur_factor(ws)
        np.testing.assert_allclose(c @ c.T, nt.T @ nt, rtol=1e-10, atol=1e-14)


class TestScaling:
    def test_diagonal_solve(self):
        ws = make_ws([[1.0, 1.0]], [1.0], [0.5, 0.5])
        np.testing.assert_allclose(ws.unscale(np.array([1.0, 0.0])), [0.5, 0.0])

    def test_identity(self):
        ws = make_ws([[1.0, 0.0]], [1.0], [1.0, 1.0])
        v = np.array([0.3, -0.7])
        np.testing.assert_allclose(ws.unscale(v), v)

    def test_transpose(self):
        ws = make_ws([[1.0, 1.0]], [1.25], [0.25, 1.0])
        np.testing.assert_allclose(ws.scale_dual(np.array([1.0, 1.0])), [0.25, 1.0])


class TestProjector:
    def test_example(self):
        ws = make_ws([[1.0, 1.0]], [1.0], [0.5, 0.5])
        np.testing.assert_allclose(ws.project(np.array([1.0, 0.0])), [0.5, -0.5], atol=1e-14)

    def test_fixes_orthogonal_complement(self, rng):
        ws = make_ws([[1.0, 1.0]], [1.0], [0.5, 0.5])
        v = np.array([1.0, -1.0])  # orthogonal to scaled_AT = (0.5, 0.5)
        np.testing.assert_allclose(ws.project(v), v, atol=1e-14)

    def test_annihilates_range(self):
        ws = make_ws([[1.0, 1.0]], [1.0], [0.5, 0.5])
        np.testing.assert_allclose(ws.project(np.array([1.0, 1.0])), [0.0, 0.0], atol=1e-14)

    def test_idempotent_symmetric(self, rng):
        n, m = 10, 3
        cone = orthant(n)
        a_mat = rng.standard_normal((m, n))
        for _ in range(10):
            ws = make_ws(a_mat, np.zeros(m), random_interior_point(cone, rng))
            u = rng.standard_normal(n)
            v = rng.standard_normal(n)
            qv = ws.project(v)
            assert np.linalg.norm(ws.project(qv) - qv) <= 1e-10 * np.linalg.norm(v)
            sym_gap = abs(u @ ws.project(v) - v @ ws.project(u))
            assert sym_gap <= 1e-10 * np.linalg.norm(u) * np.linalg.norm(v)


class TestNullStep:
    def test_example(self):
        ws = make_ws([[1.0, 1.0]], [1.0], [0.5, 0.5])
        np.testing.assert_allclose(ws.null_step(np.array([1.0, 0.0])), [0.25, -0.25], atol=1e-14)

    def test_already_null(self):
        ws = make_ws([[1.0, 0.0]], [1.0], [1.0, 1.0])
        np.testing.assert_allclose(ws.null_step(np.array([0.0, 1.0])), [0.0, 1.0])

    def test_zero_on_projected_out(self):
        ws = make_ws([[1.0, 1.0]], [1.0], [0.5, 0.5])
        np.testing.assert_allclose(ws.null_step(np.array([1.0, 1.0])), [0.0, 0.0], atol=1e-14)

    def test_null_space_law(self, rng):
        n, m = 12, 4
        cone = orthant(n)
        a_mat = rng.standard_normal((m, n))
        a_norm = np.linalg.norm(a_mat, 2)
        for _ in range(10):
            ws = make_ws(a_mat, np.zeros(m), random_interior_point(cone, rng))
            v = rng.standard_normal(n)
            assert np.linalg.norm(a_mat @ ws.null_step(v)) <= 1e-8 * a_norm * np.linalg.norm(v)

    def test_local_norm_identity(self, rng):
        # ||null_step(d)||_x = ||project(d)||
        n, m = 8, 2
        cone = orthant(n)
        a_mat = rng.standard_normal((m, n))
        for _ in range(10):
            x = random_interior_point(cone, rng)
            ws = make_ws(a_mat, np.zeros(m), x)
            d = rng.standard_normal(n)
            lhs = primal_local_norm(cone, x, ws.null_step(d))
            rhs = np.linalg.norm(ws.project(d))
            assert lhs == pytest.approx(rhs, rel=1e-10)


class TestMultipliers:
    def test_example_ones(self):
        ws = make_ws([[1.0, 1.0]], [1.0], [0.5, 0.5])
        np.testing.assert_allclose(ws.multipliers(np.array([1.0, 1.0])), [-1.0], atol=1e-14)

    def test_orthogonal_gradient(self):
        ws = make_ws([[1.0, 0.0]], [1.0], [1.0, 1.0])
        np.testing.assert_allclose(ws.multipliers(np.array([0.0, 5.0])), [0.0], atol=1e-14)

    def test_example_e1(self):
        ws = make_ws([[1.0, 1.0]], [1.0], [0.5, 0.5])
        np.testing.assert_allclose(ws.multipliers(np.array([1.0, 0.0])), [-0.5], atol=1e-14)

    def test_multiplier_residual_identity(self, rng):
        # ||null_step_t(g)|| equals the dual local norm of g + A^T multipliers(g)
        for cone in CONE_FAMILIES:
            n = cone.total_dim
            m = min(3, n - 1)
            a_mat = rng.standard_normal((m, n))
            for _ in range(10):
                ws = make_ws(a_mat, np.zeros(m), random_interior_point(cone, rng), cone)
                g = rng.standard_normal(n)
                lhs = np.linalg.norm(ws.null_step_t(g)[0])
                rhs = local_norm_dual(ws.factor, g + a_mat.T @ ws.multipliers(g))
                assert lhs == pytest.approx(rhs, rel=1e-8)


class TestReducedHessian:
    def test_zero_hessian(self):
        ws = make_ws([[1.0, 1.0]], [1.0], [0.5, 0.5])
        v = np.array([1.0, -1.0])
        qv = ws.project(v)
        out, coef = ws.reduced_hessian_apply(lambda w: np.zeros_like(w), 0.1, v)
        np.testing.assert_allclose(out, 0.1 * qv, atol=1e-14)
        assert coef == 0.0

    def test_identity_hessian(self):
        ws = make_ws([[1.0, 1.0]], [2.0], [1.0, 1.0])
        v = np.array([1.0, -1.0])
        out, _ = ws.reduced_hessian_apply(lambda w: w, 0.0, v)
        np.testing.assert_allclose(out, v, atol=1e-14)

    def test_projected_out_direction(self):
        ws = make_ws([[1.0, 1.0]], [1.0], [0.5, 0.5])
        out, coef = ws.reduced_hessian_apply(lambda w: w, 0.3, np.array([1.0, 1.0]))
        np.testing.assert_allclose(out, [0.0, 0.0], atol=1e-14)
        assert abs(coef) <= 1e-14

    def test_counters(self):
        # the workspace counts its own solves; the Hessian operator counts its products
        counters = OpCounters()
        ws = make_ws([[1.0, 1.0]], [1.0], [0.5, 0.5], counters=counters)
        base = counters.snapshot()
        ws.reduced_hessian_apply(lambda w: w, 0.1, np.array([1.0, 0.0]))
        after = counters.snapshot()
        assert after["hess_vec"] == base["hess_vec"]
        assert after["tri_solve"] - base["tri_solve"] == 6  # 2 scalings + 2 per projection


class TestAgainstDenseAssembly:
    @pytest.mark.parametrize("n,m", [(2, 1), (5, 2), (8, 3), (6, 0)])
    def test_operators_match_dense(self, n, m, rng):
        cone = orthant(n) if n % 2 == 0 else second_order(n)
        a_mat = rng.standard_normal((m, n)) if m else np.zeros((0, n))
        for _ in range(5):
            x = random_interior_point(cone, rng)
            factor = barrier_factor(cone, x)
            affine = AffineData(A=a_mat, b=np.zeros(m)) if m else empty_affine(n)
            ws = IterationWorkspace(affine, factor, OpCounters())
            m_d, q_d, p_d, r_d = dense_operators(a_mat, dense_lower(factor))
            for _ in range(3):
                v = rng.standard_normal(n)
                np.testing.assert_allclose(ws.unscale(v), m_d @ v, atol=1e-9, rtol=1e-9)
                np.testing.assert_allclose(ws.scale_dual(v), m_d.T @ v, atol=1e-9, rtol=1e-9)
                np.testing.assert_allclose(ws.project(v), q_d @ v, atol=1e-9, rtol=1e-9)
                np.testing.assert_allclose(ws.null_step(v), p_d @ v, atol=1e-9, rtol=1e-9)
                g_t, coef = ws.null_step_t(v)
                np.testing.assert_allclose(g_t, p_d.T @ v, atol=1e-9, rtol=1e-9)
                # the reduced product and its range coefficient c(L^{-1} H s), s = null_step(v),
                # which is -multipliers(H s)
                h_mat = rng.standard_normal((n, n))
                h_mat += h_mat.T
                hv, h_coef = ws.reduced_hessian_apply(lambda w: h_mat @ w, 0.1, v)
                np.testing.assert_allclose(hv, p_d.T @ h_mat @ p_d @ v + 0.1 * q_d @ v,
                                           atol=1e-9, rtol=1e-9)
                if m:
                    np.testing.assert_allclose(ws.multipliers(v), r_d @ v, atol=1e-9, rtol=1e-9)
                    np.testing.assert_allclose(-coef, r_d @ v, atol=1e-9, rtol=1e-9)
                    np.testing.assert_allclose(-h_coef, r_d @ h_mat @ p_d @ v, atol=1e-9, rtol=1e-9)
                else:
                    assert ws.multipliers(v).shape == (0,)
                    assert coef == h_coef == 0.0

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("cone", [orthant(12), second_order(12), MIXED],
                             ids=["orthant", "soc", "mixed"])
    def test_range_coefficient_is_minus_the_multipliers_bit_for_bit(self, cone, m, rng):
        # the solver returns -null_step_t(grad phi)[1] as lambda1 at a stop, for
        # multipliers(grad phi); TestScalarSchurPath checks the same at m = 1
        n = cone.total_dim
        for _ in range(5):
            a_mat = rng.standard_normal((m, n))
            ws = make_ws(a_mat, np.zeros(m), random_interior_point(cone, rng), cone)
            for _ in range(5):
                v = rng.standard_normal(n)
                assert np.array_equal(-ws.null_step_t(v)[1], ws.multipliers(v))

    def test_transpose_relation(self, rng):
        # null_step transpose identity: (I + R^T A) M == P columnwise
        n, m = 6, 2
        cone = orthant(n)
        a_mat = rng.standard_normal((m, n))
        x = random_interior_point(cone, rng)
        factor = barrier_factor(cone, x)
        ws = IterationWorkspace(AffineData(A=a_mat, b=np.zeros(m)), factor, OpCounters())
        m_d, _, p_d, r_d = dense_operators(a_mat, dense_lower(factor))
        np.testing.assert_allclose(
            (np.eye(n) + r_d.T @ a_mat) @ m_d, p_d, atol=1e-10
        )
        v = rng.standard_normal(n)
        mv = ws.unscale(v)
        lhs = mv + r_d.T @ (a_mat @ mv)
        np.testing.assert_allclose(lhs, ws.null_step(v), atol=1e-9)


def scipy_schur_solve(ws, w):
    """(N^T N)^{-1} w through scipy's solve_triangular pair on the Schur factor."""
    c = schur_factor(ws)
    z = solve_triangular(c, w, lower=True, check_finite=False)
    return solve_triangular(c.T, z, lower=False, check_finite=False)


# The one-product Schur solve against scipy's triangular pair, per unit of the
# input's max norm: the worst of 30,000 random cases (m = 2, 3, 5 on orthant(12)
# and second_order(12), seeds 0-199) was 1.6e-14 for project and 1.5e-14 for
# multipliers, so 1e-13 leaves a margin of 6 and fails on any real error.
SCHUR_TOL = 1e-13


class TestLapackSchurSolve:
    """For m >= 2 one product with the cached (N^T N)^{-1} replaces the triangular pair."""

    @pytest.mark.parametrize("m", [2, 3, 5])
    @pytest.mark.parametrize("cone", [orthant(12), second_order(12)], ids=["orthant", "soc"])
    def test_bit_equal_to_scipy_pair(self, cone, m, rng):
        n = cone.total_dim
        for _ in range(5):
            a_mat = rng.standard_normal((m, n))
            ws = make_ws(a_mat, np.zeros(m), random_interior_point(cone, rng), cone)
            c_inv = np.linalg.inv(schur_factor(ws))
            assert np.array_equal(ws._schur_inv, c_inv.T @ c_inv)
            for _ in range(5):
                v = rng.standard_normal(n)
                w = ws.scaled_AT.T @ v
                projected = ws.project(v)
                assert np.array_equal(projected, v - ws.scaled_AT @ (ws._schur_inv @ w))
                np.testing.assert_allclose(
                    projected, v - ws.scaled_AT @ scipy_schur_solve(ws, w),
                    rtol=0, atol=SCHUR_TOL * np.abs(v).max(),
                )
                # multipliers go through the cached N = L^{-1} A^T, since N^T = A L^{-T};
                # the A M M^T form they replace agrees to roundoff
                lam = ws.multipliers(v)
                u = ws.scaled_AT.T @ ws.scale_dual(v)
                assert np.array_equal(lam, -(ws._schur_inv @ u))
                ref = -scipy_schur_solve(ws, u)
                np.testing.assert_allclose(lam, ref, rtol=0, atol=SCHUR_TOL * np.abs(ref).max())
                u_old = a_mat @ ws.unscale(ws.scale_dual(v))
                np.testing.assert_allclose(lam, -scipy_schur_solve(ws, u_old), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("m", [0, 1, 2, 3, 5])
    def test_two_tri_solves_per_call(self, m, rng):
        # each public workspace op counts its documented tri_solve total, with the
        # Schur solves inside it; project is the op that makes exactly two of them
        n = 12
        costs = {"unscale": 1, "scale_dual": 1, "project": 2, "null_step": 3,
                 "null_step_t": 3, "multipliers": 3, "reduced_hessian_apply": 6}
        if m == 0:
            costs.update(project=0, null_step=1, null_step_t=1, multipliers=0,
                         reduced_hessian_apply=2)
        for cone in (orthant(n), second_order(n), MIXED):
            counters = OpCounters()
            a_mat = rng.standard_normal((m, cone.total_dim))
            ws = make_ws(a_mat, np.zeros(m), random_interior_point(cone, rng), cone, counters)
            assert counters.tri_solve == m
            for name, cost in costs.items():
                op = getattr(ws, name)
                v = rng.standard_normal(cone.total_dim)
                before = counters.snapshot()
                op(lambda w: w, 0.1, v) if name == "reduced_hessian_apply" else op(v)
                after = counters.snapshot()
                assert after["tri_solve"] - before["tri_solve"] == cost, (name, cone)
                assert all(after[k] == before[k] for k in after if k != "tri_solve")

    def test_singular_factor_raises(self):
        # N = A^T / 6 at the simplex centre, so N^T N = (scale / 6)^2 I: at 1e-170 it
        # underflows to 0 and the Cholesky fails; at 1e-158 it is subnormal, the
        # Cholesky succeeds and its inverse squared overflows; both fail at build
        n = 6
        for scale in (1e-170, 1e-158):
            a_mat = np.zeros((2, n))
            a_mat[0, 0] = a_mat[1, 1] = scale
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(FactorizationError, match="Schur complement"):
                    make_ws(a_mat, np.full(2, scale / n), np.full(n, 1.0 / n))


class TestScalarSchurPath:
    """At m = 1 the Schur factor is a scalar and the projector one rank-one update."""

    @pytest.mark.parametrize("cone", [orthant(12), second_order(12), MIXED],
                             ids=["orthant", "soc", "mixed"])
    def test_bit_equal_to_general_formulas(self, cone, rng):
        n = cone.total_dim
        for _ in range(5):
            a_mat = rng.standard_normal((1, n))
            ws = make_ws(a_mat, np.zeros(1), random_interior_point(cone, rng), cone)
            big_n, factor = ws.scaled_AT, ws.factor
            c = schur_factor(ws)
            assert np.array_equal(c, np.linalg.cholesky(big_n.T @ big_n))
            c00_sq = c[0, 0] ** 2

            def general_project(u):
                return u - big_n @ (big_n.T @ u / c00_sq)

            for _ in range(5):
                v = rng.standard_normal(n)
                assert np.array_equal(ws.project(v), general_project(v))
                assert np.array_equal(ws.null_step(v), factor.solve_upper(general_project(v)))
                g_t, coef = ws.null_step_t(v)
                assert np.array_equal(g_t, general_project(factor.solve_lower(v)))
                lam = ws.multipliers(v)
                assert np.array_equal(lam, -(big_n.T @ factor.solve_lower(v) / c00_sq))
                # the coefficient is a scalar, and minus the multiplier bit for bit
                assert np.ndim(coef) == 0 and coef == -lam[0]
                w = factor.solve_upper(factor.solve_lower(v))
                np.testing.assert_allclose(lam, -(a_mat @ w / c00_sq), rtol=1e-12, atol=0)

    def test_underflowing_schur_complement_raises_without_warning(self):
        # N^T N = 6 (1e-170 / 6)^2 underflows to 0, which the scalar path rejects
        n = 6
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FactorizationError, match="Schur complement"):
                make_ws(np.full((1, n), 1e-170), [1e-170], np.full(n, 1.0 / n))


class TestNorm2:
    def test_bit_equal_to_numpy(self, rng):
        for _ in range(200):
            x = rng.standard_normal(int(rng.integers(1, 400))) * 10.0 ** rng.integers(-8, 8)
            for v in (x, x[1:], x[::2], x[1::3], x[::-1]):
                assert norm2(v) == np.linalg.norm(v)

    def test_zero_and_empty(self):
        assert norm2(np.zeros(5)) == 0.0
        assert norm2(np.zeros(0)) == 0.0
