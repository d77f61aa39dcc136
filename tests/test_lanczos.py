import numpy as np
import pytest

from conebarrier.lanczos import CERTIFIED, NC, lanczos_iteration_cap, min_eig_oracle
from conftest import paired, reference_lanczos, tridiagonal_min_ritz


def matvec_of(h_mat):
    return lambda v: h_mat @ v


def operator_of(h_mat):
    """The oracle's operator v -> (H v, 0.0); the reference takes ``matvec_of``."""
    return paired(matvec_of(h_mat))


def random_with_min_eig(n, min_eig, rng):
    spectrum = np.sort(rng.random(n))[::-1]  # in (0, 1)
    spectrum[-1] = min_eig
    g = rng.standard_normal((n, n))
    q, _ = np.linalg.qr(g)
    return (q * spectrum) @ q.T


class TestIterationCap:
    def test_formula_example(self):
        assert lanczos_iteration_cap(1000, 0.01, 0.01) == 48

    def test_dimension_binding(self):
        assert lanczos_iteration_cap(5, 0.01, 0.01) == 5

    def test_monotone_in_eps(self):
        assert lanczos_iteration_cap(10**6, 0.0001, 0.01) > lanczos_iteration_cap(10**6, 0.01, 0.01)


class TestTridiagonalRitz:
    def test_scalar(self):
        value, coeffs = tridiagonal_min_ritz(np.array([3.0]), np.array([]))
        assert value == 3.0
        np.testing.assert_allclose(coeffs, [1.0])

    def test_two_by_two(self):
        value, coeffs = tridiagonal_min_ritz(np.array([0.0, 0.0]), np.array([1.0]))
        assert value == pytest.approx(-1.0)
        np.testing.assert_allclose(np.abs(coeffs), [1 / np.sqrt(2)] * 2, rtol=1e-12)

    def test_three_by_three(self):
        value, coeffs = tridiagonal_min_ritz(np.array([2.0, 2.0, 2.0]), np.array([1.0, 1.0]))
        assert value == pytest.approx(2.0 - np.sqrt(2.0))
        expected = np.array([1.0, -np.sqrt(2.0), 1.0]) / 2.0
        sign = np.sign(coeffs[0]) or 1.0
        np.testing.assert_allclose(sign * coeffs, expected, atol=1e-12)

    def test_matches_dense_eigensolve(self, rng):
        for _ in range(10):
            k = int(rng.integers(2, 12))
            alphas = rng.standard_normal(k)
            betas = np.abs(rng.standard_normal(k - 1)) + 0.1
            t_mat = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
            value, coeffs = tridiagonal_min_ritz(alphas, betas)
            w = np.linalg.eigvalsh(t_mat)
            assert value == pytest.approx(w[0], rel=1e-12, abs=1e-12)
            np.testing.assert_allclose(t_mat @ coeffs, value * coeffs, atol=1e-10)


class TestOracle:
    def test_identity_certifies(self):
        out = min_eig_oracle(operator_of(np.eye(5)), 5, eps=0.01, delta=0.01, seed=3)
        assert out.kind == CERTIFIED
        assert out.estimated_norm == pytest.approx(1.0, rel=1e-8)

    def test_simple_negative_curvature(self):
        h_mat = np.diag([-1.0, 2.0])
        out = min_eig_oracle(operator_of(h_mat), 2, eps=0.1, delta=0.01, seed=3)
        assert out.kind == NC
        v = out.direction
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-10)
        assert v @ h_mat @ v <= -0.05
        ref = reference_lanczos(matvec_of(h_mat), 2, eps=0.1, delta=0.01, seed=3)
        assert ref.kind == NC and out.iterations == ref.iterations

    def test_soundness_and_bound(self, rng):
        eps = 0.05
        for _ in range(30):
            n = int(rng.integers(2, 40))
            h_mat = random_with_min_eig(n, -2.5 * eps, rng)
            out = min_eig_oracle(operator_of(h_mat), n, eps=eps, delta=0.01,
                                 seed=int(rng.integers(0, 2**32)))
            assert out.iterations <= lanczos_iteration_cap(n, eps, 0.01)
            if out.kind == NC:
                v = out.direction
                assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-10)
                quad = float(v @ h_mat @ v)
                assert quad <= -eps / 2.0
                assert out.curvature == pytest.approx(quad, rel=1e-12)

    def test_determinism(self):
        rng = np.random.default_rng(11)
        h_mat = random_with_min_eig(30, -0.5, rng)
        outs = [
            min_eig_oracle(operator_of(h_mat), 30, eps=0.1, delta=0.01, seed=42)
            for _ in range(2)
        ]
        assert outs[0].kind == outs[1].kind == NC
        assert outs[0].iterations == outs[1].iterations
        np.testing.assert_array_equal(outs[0].direction, outs[1].direction)

    def test_generator_seed_draws_from_its_stream(self):
        h_mat = random_with_min_eig(30, -0.5, np.random.default_rng(11))
        gen = np.random.default_rng(42)
        from_gen = min_eig_oracle(operator_of(h_mat), 30, eps=0.1, delta=0.01, seed=gen)
        from_int = min_eig_oracle(operator_of(h_mat), 30, eps=0.1, delta=0.01, seed=42)
        assert from_gen.kind == from_int.kind == NC
        assert from_gen.iterations == from_int.iterations
        np.testing.assert_array_equal(from_gen.direction, from_int.direction)
        # the oracle's one start vector came from the caller's Generator itself
        replay = np.random.default_rng(42)
        replay.standard_normal(30)
        assert gen.standard_normal() == replay.standard_normal()

    def test_psd_always_certified(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 30))
            spectrum = rng.random(n) + 0.001
            g = rng.standard_normal((n, n))
            q, _ = np.linalg.qr(g)
            h_mat = (q * spectrum) @ q.T
            out = min_eig_oracle(operator_of(h_mat), n, eps=0.01, delta=0.01,
                                 seed=int(rng.integers(0, 2**32)))
            assert out.kind == CERTIFIED
            assert out.probability_bound is not None
            assert out.estimated_norm >= 0.0

    def test_zero_operator(self):
        out = min_eig_oracle(operator_of(np.zeros((4, 4))), 4, eps=0.1, delta=0.1, seed=0)
        assert out.kind == CERTIFIED
        assert out.probability_bound == 1.0

    def test_vacuous_bound_reads_zero(self):
        # ||H|| = 20, n = 40: sqrt(110) 0.01^(1 / sqrt(20)) ~ 3.7 > 1, so no bound is left
        out = min_eig_oracle(operator_of(20.0 * np.eye(40)), 40, eps=0.01, delta=0.01, seed=0)
        assert out.kind == CERTIFIED
        assert out.estimated_norm == pytest.approx(20.0)
        assert out.probability_bound == 0.0

    def test_empirical_completeness(self):
        # matrices with lambda_min <= -2 eps: the NC branch should almost never miss
        rng = np.random.default_rng(2024)
        eps = 0.05
        hits = 0
        trials = 100
        for t in range(trials):
            n = int(rng.integers(5, 61))
            h_mat = random_with_min_eig(n, -2.0 * eps * (1.0 + rng.random()), rng)
            out = min_eig_oracle(operator_of(h_mat), n, eps=eps, delta=0.01, seed=1000 + t)
            if out.kind == NC:
                hits += 1
        assert hits >= 99


class TestReferenceEquivalence:
    """The CG recurrence against full-reorthogonalization Lanczos from the same start.

    In exact arithmetic CG's first non-positive pivot on H + (eps/2) I comes at
    the step at which theta_min(T_k) first reaches -eps/2, so the two agree on
    the kind and the step.  The one exception is a breakdown before the cap:
    the reference's reorthogonalized beta_k can fall below the breakdown
    tolerance where CG's, which keeps no basis, does not, and the oracle runs
    on, up to the cap.  It was seen only at n = cap with a spectrum topping at
    1e-8, a Krylov space exhausted at the scale of roundoff in H + (eps/2) I.
    """

    EPS = 1e-3**0.5  # the oracle's eps in a solve at epsilon = 1e-3
    DELTA = 0.01

    def compare(self, n, top, min_eig, rng):
        spectrum = top * rng.random(n)
        spectrum[0], spectrum[-1] = top, min_eig * self.EPS
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        h_mat = (q * spectrum) @ q.T
        seed = int(rng.integers(0, 2**32))
        out = min_eig_oracle(operator_of(h_mat), n, self.EPS, self.DELTA, seed)
        ref = reference_lanczos(matvec_of(h_mat), n, self.EPS, self.DELTA, seed)
        cap = lanczos_iteration_cap(n, self.EPS, self.DELTA)
        assert out.kind == ref.kind
        if ref.kind == CERTIFIED and ref.iterations < cap:
            assert ref.iterations <= out.iterations <= cap
        else:
            assert out.iterations == ref.iterations
        if out.kind == NC:
            v = out.direction
            assert float(v @ (h_mat @ v)) <= -self.EPS / 2.0

    def test_same_kind_and_iterations(self):
        rng = np.random.default_rng(7200)
        for n in (20, 40, 60, 150, 200):
            for top in (1.0, 20.0, 1e3, 1e-8):
                for min_eig in (-2.0, -1.0, -0.7, -0.3, 0.0, 0.5):
                    for _ in range(2):
                        self.compare(n, top, min_eig, rng)

    def test_breakdown_regime(self):
        # n = 20 is below the cap of 27, so the Krylov space can be exhausted
        rng = np.random.default_rng(1919)
        for min_eig in (0.0, 0.5):
            for _ in range(100):
                self.compare(20, 1e-8, min_eig, rng)
