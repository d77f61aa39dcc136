import itertools
import math
import tracemalloc

import numpy as np
import pytest

from conebarrier.capped_cg import DirectionKind, capped_cg
from conebarrier.errors import HardCapExceeded, ZeroGradient

from conftest import REFERENCE_CG_EXITS, iteration_bound, paired, reference_capped_cg


def matvec_of(h_mat):
    """The operator v -> (H v, 0.0) of ``capped_cg``'s contract, with no coefficient."""
    return paired(lambda v: h_mat @ v)


def random_symmetric(n, rng, spectrum=None, scale=1.0):
    """Random symmetric matrix with an optionally prescribed spectrum."""
    g = rng.standard_normal((n, n))
    q, _ = np.linalg.qr(g)
    if spectrum is None:
        spectrum = scale * (2.0 * rng.random(n) - 1.0)
    return (q * spectrum) @ q.T


class TestHandExamples:
    def test_identity_sol(self):
        h_mat = np.eye(2)
        out = capped_cg(matvec_of(h_mat), np.array([1.0, 0.0]), 0.1, 0.5)
        assert out.kind is DirectionKind.SOL
        assert out.iterations == 1
        np.testing.assert_allclose(out.direction, [-1.0 / 1.2, 0.0], rtol=1e-12)

    def test_preloop_negative_curvature(self):
        h_mat = np.diag([-1.0, 1.0])
        out = capped_cg(matvec_of(h_mat), np.array([1.0, 0.0]), 0.1, 0.5)
        assert out.kind is DirectionKind.NC
        assert out.iterations == 0
        np.testing.assert_allclose(out.direction, [-1.0, 0.0])
        d = out.direction
        assert d @ h_mat @ d < -0.1 * d @ d
        assert out.curvature == -1.0  # d^T H d / d^T d, from the pre-loop product

    def test_gradient_orthogonal_to_negative_space(self):
        h_mat = np.diag([-1.0, 1.0])
        out = capped_cg(matvec_of(h_mat), np.array([0.0, 1.0]), 0.1, 0.5)
        assert out.kind is DirectionKind.SOL
        np.testing.assert_allclose(out.direction, [0.0, -1.0 / 1.2], rtol=1e-12)

    def test_zero_gradient_rejected(self):
        with pytest.raises(ZeroGradient):
            capped_cg(matvec_of(np.eye(2)), np.zeros(2), 0.1, 0.5)

    def test_zero_operator(self):
        # (0 + 2 eps I) d = -g solved exactly in one step
        out = capped_cg(matvec_of(np.zeros((3, 3))), np.array([1.0, 2.0, -1.0]), 0.25, 0.5)
        assert out.kind is DirectionKind.SOL
        np.testing.assert_allclose(out.direction, -np.array([1.0, 2.0, -1.0]) / 0.5)

    def test_broken_symmetry_terminates(self):
        # caller contract violated: must still stop (any outcome or the cap error)
        rng = np.random.default_rng(0)
        bad = rng.standard_normal((12, 12))
        try:
            out = capped_cg(matvec_of(bad), rng.standard_normal(12), 0.01, 0.5)
            assert out.iterations <= 10 * 12 + 100
        except HardCapExceeded:
            pass

    def test_ill_conditioned_symmetric_operator_hits_the_cap(self):
        # symmetric positive definite, but a spectrum from 1e-6 to 1e6 stalls the
        # recurrences in floating point; the error names that cause besides asymmetry
        h_mat = np.diag(np.geomspace(1e-6, 1e6, 40))
        with pytest.raises(HardCapExceeded, match="ill-conditioned") as info:
            capped_cg(matvec_of(h_mat), np.ones(40), 1e-4, 0.5)
        assert "hard cap of 500 iterations" in str(info.value)

    @pytest.mark.parametrize("scale, iterations", [(1e30, 1), (1e80, 6)])
    def test_huge_operator_norm_gives_an_infinite_cap(self, scale, iterations):
        # tau rounds to 1 at scale 1e30 and kappa^4 overflows at 1e80; T is then +inf,
        # so the growth test cannot fire, and a positive-definite operator reaches SOL
        out = capped_cg(lambda v: (scale * v, 0.0), np.ones(5), 0.01, 0.5)
        assert (out.kind, out.iterations) == (DirectionKind.SOL, iterations)
        assert (out.tau, out.cap_t) == (1.0, math.inf)

    def test_a_long_call_holds_a_constant_number_of_vectors(self):
        # 849 iterations at n = 20000; keeping every iterate and its product held 1707 vectors
        rng = np.random.default_rng(0)
        n = 20000
        d = rng.permutation(np.geomspace(1e-3, 1e3, n))
        g = rng.standard_normal(n)
        tracemalloc.start()
        try:
            out = capped_cg(lambda v: (d * v, 0.0), g, 1e-3 ** 0.5, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (out.kind, out.iterations) == (DirectionKind.SOL, 849)
        assert peak < 16 * d.nbytes


class TestPositiveDefinite:
    def test_matches_dense_solve(self, rng):
        for trial in range(20):
            n = int(rng.integers(2, 30))
            eps = 0.1 if trial % 2 else 0.01
            # keep the spectrum clear of the NC region
            spectrum = eps + rng.random(n) * 2.0
            h_mat = random_symmetric(n, rng, spectrum=spectrum)
            g = rng.standard_normal(n)
            out = capped_cg(matvec_of(h_mat), g, eps, 0.5)
            assert out.kind is DirectionKind.SOL
            # agreement with the dense solve is at the residual level
            resid = np.linalg.norm((h_mat + 2 * eps * np.eye(n)) @ out.direction + g)
            assert resid <= out.zeta_hat * np.linalg.norm(g) * (1 + 1e-8)
            exact = np.linalg.solve(h_mat + 2 * eps * np.eye(n), -g)
            resid_exact = np.linalg.norm((h_mat + 2 * eps * np.eye(n)) @ exact + g)
            assert resid_exact <= resid + 1e-10


class TestContractFuzz:
    def test_two_hundred_cases(self):
        rng = np.random.default_rng(7)
        sol = nc = 0
        for trial in range(200):
            n = int(rng.integers(2, 51))
            eps = (0.1, 0.01)[trial % 2]
            kind = trial % 4
            if kind == 0:  # broad indefinite spectrum
                spectrum = 2.0 * rng.random(n) - 1.0
            elif kind == 1:  # positive definite
                spectrum = 0.05 + rng.random(n)
            elif kind == 2:  # indefinite but above the NC threshold
                spectrum = -0.8 * eps + rng.random(n)
            else:  # strongly negative tail
                spectrum = np.concatenate(([-1.0 - rng.random()], rng.random(n - 1)))
            h_mat = random_symmetric(n, rng, spectrum=spectrum)
            g = rng.standard_normal(n)
            out = capped_cg(matvec_of(h_mat), g, eps, 0.5)
            d = out.direction
            d_sq = float(d @ d)
            assert d_sq > 0.0
            quad = float(d @ h_mat @ d)
            if out.kind is DirectionKind.SOL:
                sol += 1
                resid = np.linalg.norm((h_mat + 2 * eps * np.eye(n)) @ d + g)
                assert resid <= out.zeta_hat * np.linalg.norm(g) * (1 + 1e-8)
                assert quad >= -eps * d_sq * (1 + 1e-8)
                # damped curvature along the solution direction
                assert eps * d_sq <= quad + 2 * eps * d_sq + 1e-8 * abs(quad)
            else:
                nc += 1
                assert quad < -eps * d_sq * (1 - 1e-8)
            assert out.iterations <= iteration_bound(out, n)
        assert sol > 20 and nc > 20  # the ensemble exercises both outcomes

    def test_iteration_bound_formula(self):
        out = capped_cg(matvec_of(np.eye(4)), np.ones(4), 0.1, 0.5)
        # J is the smallest integer with sqrt(T) tau^{J/2} <= zeta_hat
        j = iteration_bound(out, 1000)
        assert np.sqrt(out.cap_t) * out.tau ** (j / 2.0) <= out.zeta_hat
        if j > 0:
            assert np.sqrt(out.cap_t) * out.tau ** ((j - 1) / 2.0) > out.zeta_hat


class TestCoefficientChannel:
    """The coefficient c(v) that the operator returns next to H v rides the CG recurrences."""

    def test_sol_reports_the_coefficient_of_its_direction(self):
        rng = np.random.default_rng(26)
        sol = 0
        for trial in range(60):
            n = int(rng.integers(2, 30))
            eps = (0.1, 0.01)[trial % 2]
            # above the NC threshold, and a negative tail in every fourth draw
            spectrum = -0.8 * eps + rng.random(n)
            if trial % 4 == 0:
                spectrum[0] = -1.0
            h_mat = random_symmetric(n, rng, spectrum=spectrum)
            rows = rng.standard_normal((trial % 3 + 1, n))
            # a float coefficient when there is one row, as linops gives for m = 1
            coef = (lambda v: float(rows[0] @ v)) if len(rows) == 1 else (lambda v: rows @ v)
            g = rng.standard_normal(n)
            out = capped_cg(lambda v: (h_mat @ v, coef(v)), g, eps, 0.5)
            bare = capped_cg(matvec_of(h_mat), g, eps, 0.5)
            # the channel changes no float of the iteration
            assert (out.kind, out.iterations) == (bare.kind, bare.iterations)
            assert np.array_equal(out.direction, bare.direction)
            if out.kind is DirectionKind.NC:
                assert out.coef is None
                continue
            sol += 1
            scale = np.linalg.norm(rows) * np.linalg.norm(out.direction)
            np.testing.assert_allclose(out.coef, coef(out.direction), rtol=0, atol=1e-12 * scale)
        assert 20 < sol < 60


class TestReferenceEquivalence:
    """capped_cg against the first-written CG loop in conftest, on the same operators.

    capped_cg runs on v -> (H v, 0.0), the pair its contract asks for, and the
    reference on v -> H v.

    The two differ only in which numpy work they do: the first step formed
    directly from y^0 = 0, the monitors formed once per refresh of U, and
    p^T (H + 2 eps I) p formed after the tests on y.  So on every draw they must
    agree in every float; the direction may differ only in the sign of an exact
    zero, which np.array_equal ignores.  The families between them reach every
    exit: an asymmetric operator (a symmetric part with some curvature below
    -eps plus a skew part) stalls CG into the residual-growth exit, and a
    drifting one, the asymmetric kind less 0.1 eps ||v|| v, is pure but not
    linear, so that the products the recurrences carry no longer match fresh
    ones and that exit's scan goes on to its pass with fresh products.  Every
    operator is pure, as capped CG's replays of its loop require.

    Each NC result's curvature is checked against d^T H d / d^T d from a fresh
    product: equal at the pre-loop exit, whose product it is, and within
    CURVATURE_DRIFT_TOL at the others, whose products the recurrences carry.
    The drifting family's carried products differ from fresh ones, so it is
    checked only at the pre-loop exit; at every exit the quotient is below
    -eps, the NC test that the exit read.
    """

    DRAWS = 40  # per family
    # How the tolerance was set: over these draws the largest relative drift of a
    # carried curvature from a fresh product was 8.0e-16, at a residual-growth exit;
    # along the CG_NC steps of six builtin solves at eps = 1e-3 it was at most 6.1e-15
    # (loss_hessian), and 4.3e-16 to 5.8e-16 on the others.  The tolerance sits about
    # ten times above the largest of these draws.
    CURVATURE_DRIFT_TOL = 1e-14

    @staticmethod
    def symmetric(n, rng, lo, hi):
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        return (q * rng.uniform(lo, hi, n)) @ q.T

    def operator(self, family, n, eps, rng):
        """A plain matvec v -> H v of the family."""
        if family == "positive_definite":
            h_mat = self.symmetric(n, rng, 0.05, 1.05)
        elif family == "indefinite":
            h_mat = self.symmetric(n, rng, -1.0, 1.0)
        elif family == "negative_tail":
            h_mat = self.symmetric(n, rng, -0.2 * eps, 1.0)
            h_mat[0, 0] -= 1.0 + rng.random()
        elif family == "asymmetric":
            b = rng.standard_normal((n, n))
            skew = (b - b.T) / np.sqrt(2 * n)
            h_mat = eps * (self.symmetric(n, rng, rng.uniform(-1.9, -1.3), 1.0)
                           + rng.uniform(0.35, 0.65) * skew)
        elif family == "drifting":
            b = rng.standard_normal((n, n))
            h_mat = eps * (self.symmetric(n, rng, 0.0, 1.0) + (b - b.T) / np.sqrt(2 * n))
            return lambda v: h_mat @ v - 0.1 * eps * math.sqrt(v.dot(v)) * v
        else:  # ill_conditioned: a spectrum from 1e-6 to 1e12 stalls into the hard cap
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            h_mat = (q * np.geomspace(1e-6, 1e12, n)) @ q.T
        return lambda v: h_mat @ v

    @staticmethod
    def run(fn, *args):
        try:
            return fn(*args), None
        except HardCapExceeded as exc:
            return None, "hard cap" if "hard cap" in str(exc) else "failed scan"

    def test_same_floats_on_every_exit(self):
        rng = np.random.default_rng(2500)
        exits = set()
        checked = {"exact": 0, "carried": 0}  # NC curvatures checked against a fresh product
        families = ("positive_definite", "indefinite", "negative_tail", "asymmetric",
                    "drifting", "ill_conditioned")
        for family in families:
            for trial in range(self.DRAWS):
                n = int(rng.integers(3, 25))
                eps = (0.1, 0.03, 0.01)[trial % 3]
                matvec = self.operator(family, n, eps, rng)
                g = rng.standard_normal(n)
                out, err = self.run(capped_cg, paired(matvec), g, eps, 0.5)
                ref, ref_err = self.run(reference_capped_cg, matvec, g, eps, 0.5)
                assert err == ref_err
                if ref is None:
                    exits.add(ref_err)
                    continue
                ref, exit_ = ref
                exits.add(exit_)
                assert out.kind is ref.kind
                assert out.iterations == ref.iterations
                assert (out.zeta_hat, out.tau, out.cap_t) == (ref.zeta_hat, ref.tau, ref.cap_t)
                assert np.array_equal(out.direction, ref.direction)
                if out.kind is DirectionKind.SOL:
                    assert out.curvature is None
                    continue
                assert out.curvature < -eps  # the NC test, read off the quotient it reports
                d = out.direction
                fresh = float(d.dot(matvec(d))) / float(d.dot(d))
                if exit_ == "preloop_nc":
                    assert out.curvature == fresh
                    checked["exact"] += 1
                elif family != "drifting":
                    assert abs(out.curvature - fresh) <= self.CURVATURE_DRIFT_TOL * abs(fresh)
                    checked["carried"] += 1
        assert exits == set(REFERENCE_CG_EXITS) | {"hard cap", "failed scan"}
        assert min(checked.values()) >= 20


class TestResidualGrowthScan:
    """The residual-growth exit at iteration j scans y^(j+1) - y^i, i < j, on iterates
    that replays of the loop make again: first with the carried products, then with fresh
    products of the differences.  Read through the inputs of every product the operator sees.
    """

    EPS = 0.1

    def first_draw(self, family, exit_):
        """(matvec, g) of the first draw of a ``TestReferenceEquivalence`` family, n <= 9,
        on which the reference takes ``exit_``."""
        rng = np.random.default_rng(33)
        while True:
            n = int(rng.integers(3, 10))
            matvec = TestReferenceEquivalence().operator(family, n, self.EPS, rng)
            g = rng.standard_normal(n)
            ref, err = TestReferenceEquivalence.run(reference_capped_cg, matvec, g, self.EPS, 0.5)
            if (err or ref[1]) == exit_:
                return matvec, g

    def run(self, matvec, g, inputs):
        def recorded(v):
            inputs.append(v)
            return matvec(v), 0.0
        return capped_cg(recorded, g, self.EPS, 0.5)

    def test_carried_products_find_the_difference(self):
        matvec, g = self.first_draw("asymmetric", "growth")
        inputs = []
        out = self.run(matvec, g, inputs)
        j = out.iterations
        replay = inputs[1 + j:]
        # the replay repeats the run's products up to y^i, and takes no fresh one
        assert 1 <= len(replay) <= j
        assert all(np.array_equal(a, b) for a, b in zip(replay, inputs))
        assert out.kind is DirectionKind.NC and out.curvature < -self.EPS

    def test_fresh_products_when_the_carried_ones_find_none(self):
        matvec, g = self.first_draw("drifting", "growth_rescan")
        inputs = []
        out = self.run(matvec, g, inputs)
        j = out.iterations
        first, second = inputs[1 + j:1 + 2 * j], inputs[1 + 2 * j:]
        # the first replay repeats the run's j products up to y^(j-1); the second repeats
        # them too, each followed by a fresh product of a difference, the last of d
        assert len(first) == j and all(np.array_equal(a, b) for a, b in zip(first, inputs))
        assert len(second) % 2 == 0 and len(second) <= 2 * j
        assert all(np.array_equal(a, b) for a, b in zip(second[::2], inputs))
        d = out.direction
        assert np.array_equal(second[-1], d)
        assert out.curvature == float(d.dot(matvec(d))) / float(d.dot(d)) < -self.EPS

    def test_no_qualifying_difference_raises(self):
        matvec, g = self.first_draw("asymmetric", "failed scan")
        inputs = []
        with pytest.raises(HardCapExceeded, match="no negative-curvature difference"):
            self.run(matvec, g, inputs)
        # the run's 1 + j products, then j in the first replay and 2 j in the second
        j = (len(inputs) - 1) // 4
        assert len(inputs) == 1 + 4 * j
        assert all(np.array_equal(a, b) for a, b in zip(inputs[1 + j:1 + 2 * j], inputs))

    def test_an_impure_operator_gets_hard_cap_exceeded(self):
        # products that drift with each call break the purity the replays need, and a replay
        # may leave the run's path for an exit of its own; the scan refuses it as it refuses
        # a scan that finds no difference, rather than reading that exit as one
        rng = np.random.default_rng(2500)
        refused = 0
        for _ in range(10):
            n = int(rng.integers(3, 25))
            b = rng.standard_normal((n, n))
            h_mat = self.EPS * (TestReferenceEquivalence.symmetric(n, rng, 0.0, 1.0)
                                + (b - b.T) / np.sqrt(2 * n))
            calls = itertools.count(1)
            try:
                capped_cg(lambda v: (h_mat @ v - 0.1 * self.EPS * next(calls) * v, 0.0),
                          rng.standard_normal(n), self.EPS, 0.5)
            except HardCapExceeded:
                refused += 1
        assert refused > 0
